"""Spans and counters around the program's public functions, from outside.

The tracer rebinds, by name, the functions the ``cli`` module reaches into
each layer.  A function imported into several modules (``from .layers
import layer_profile``) is rebound in every module that holds the same
object, so calls made through any of those names are seen.  A span records
(name, start, end, parent); counters count calls where a span per call
would cost more than the call itself.  A name a later change removes is
listed in ``absent`` and its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

# (module, function, span name, counter name or None); counted calls still get a span
SPANS = (
    ("specfile", "load_spec_file", "specfile.load", None),
    ("groups", "enumerate_group", "groups.enumerate", None),
    ("graphs", "build_cayley_coset_graph", "graphs.build", None),
    ("layers", "layer_profile", "layers.profile", None),
    ("words", "bfs_word_set", "words.word_set", None),
    ("factorization", "spanning_factorization_from_cayley", "factorization.factorize", None),
    ("factorization", "one_factorize", "factorization.factorize", None),
    ("factorization", "verify_spanning", "factorization.verify", "factorization.verify_calls"),
    ("factorization", "search_spanning_factorization", "factorization.search", None),
    ("scheduling", "exact_min_schedule", "scheduling.exact", None),
    ("scheduling", "greedy_schedule", "scheduling.greedy", None),
    ("scheduling", "validate_schedule", "scheduling.validate", "scheduling.validate_calls"),
    ("simulate", "expand_cayley_paths", "simulate.expand", None),
    ("simulate", "expand_factor_paths", "simulate.expand", None),
    ("simulate", "run_transpose", "simulate.replay", None),
    ("simulate", "trace_csv_rows", "simulate.trace_rows", None),
)

# (module, attribute path, counter name): counted without spans
COUNTS = (
    ("groups", "CyclicGroup.check_element", "groups.check_calls"),
    ("groups", "PermutationGroup.check_element", "groups.check_calls"),
    ("groups", "ProductGroup.check_element", "groups.check_calls"),
    ("layers", "_bfs_distances", "layers.bfs_runs"),
)

# (span name, counter name, attribute of the return value; None counts its length)
RESULT_COUNTS = (
    ("factorization.search", "factorization.search_nodes", "nodes"),
    ("scheduling.exact", "scheduling.exact_nodes", "nodes"),
    ("simulate.expand", "simulate.packets", None),
)

# span names reported as inclusive seconds, "<name>_s", and the counters, in report order
TIMED = tuple(dict.fromkeys(span for _, _, span, _ in SPANS))
COUNTED = tuple(dict.fromkeys(
    [counter for *_, counter in SPANS if counter] + [counter for *_, counter in COUNTS]
    + [counter for _, counter, _ in RESULT_COUNTS]
))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    """Collects the spans and counts of one pass; `memory` turns on tracemalloc for the replay stage."""

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    peak_alloc: int = 0
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        if self.memory and name.startswith("simulate.") and not tracemalloc.is_tracing():
            tracemalloc.start()
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()
        if not self._stack and tracemalloc.is_tracing():
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _spanned(self, fn, name: str, counter: str | None):
        post = [(key, attr) for span, key, attr in RESULT_COUNTS if span == name]

        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            for key, attr in post:
                self.counts[key] += len(result) if attr is None else getattr(result, attr)
            return result

        return wrapper

    def _counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package: str = "alltoall") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for mod_name, fn_name, span, counter in SPANS:
            orig = getattr(sys.modules.get(f"{package}.{mod_name}"), fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._spanned(orig, span, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        for mod_name, path, counter in COUNTS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = owner.__dict__.get(attr) if owner is not None else None
            if orig is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            setattr(owner, attr, self._counted(orig, counter))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds per span name (outermost occurrence only), counts, root self time."""
        out = {f"{name}_s": 0.0 for name in TIMED}
        out.update({name: 0 for name in COUNTED})
        covered = [0.0] * len(self.spans)
        cli_self = 0.0
        for span in self.spans:
            duration = span.end - span.start
            if span.parent >= 0:
                covered[span.parent] += duration
            ancestor, nested = span.parent, False
            while ancestor >= 0:
                if self.spans[ancestor].name == span.name:
                    nested = True
                    break
                ancestor = self.spans[ancestor].parent
            if not nested and f"{span.name}_s" in out:
                out[f"{span.name}_s"] += duration
        for i, span in enumerate(self.spans):
            if span.parent < 0:
                cli_self += span.end - span.start - covered[i]
        out["cli.self_s"] = cli_self
        out.update({k: v for k, v in self.counts.items() if k in out})
        out["simulate.peak_alloc_mb"] = self.peak_alloc / 2**20
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
