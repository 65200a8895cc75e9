"""Command-line frontend tying the pipeline together.

Subcommands:

  bounds     distance profile and the average-time lower bound
  words      shortest-word set and generator occupancy
  factorize  1-factorization / spanning factorization artifacts
  schedule   time slots for a word collection (CSV rows + JSON summary)
  simulate   replay a schedule and count conflicts and deliveries
  pipeline   words -> factorize -> schedule -> simulate, one verdict line
  compare    rank candidate networks under a wire budget

Graphs come from ``--builtin <name>`` or ``--spec <file>`` (see specfile for
the JSON format).  Artifacts written by one subcommand are read back by the
next stage unchanged: words/factorize emit JSON, schedule emits CSV rows
plus a JSON summary, simulate reads both and emits a trace CSV plus a JSON
verdict.

A route a command does not read from a file (Cayley generator words, or a
searched spanning factorization) comes from factorization.spanning_plan.

Exit codes: 0 success, 1 invalid input or usage, 2 infeasible or search
budget exhausted.  Usage errors from argparse are remapped from its default
2 to 1 so that 2 keeps its infeasibility meaning in scripts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import fixtures, specfile
from .errors import InputError, SearchBudgetError
from .factorization import (
    DEFAULT_SEARCH_BUDGET,
    factor_digraph,
    one_factorize,
    spanning_plan,
    validate_one_factorization,
    verify_spanning,
)
from .graphs import CosetGraph, Digraph, build_cayley_coset_graph, emit_adjacency, regular_degree
from .groups import GroupSpec
from .layers import LayerProfile, average_diameter_bound, diameter, layer_profile
from .scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    classify,
    factor_occurrences,
    schedule_plan,
    two_layer_counts,
    two_layer_time_bound,
)
from .simulate import run_transpose
from .words import DEFAULT_WORD_BUDGET, _require_cayley, bfs_word_set, regular_bound_exact, validate_word_set


# ---------------------------------------------------------------------------
# plumbing: argument scaffolding, artifact readers/writers
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means infeasible, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(fixtures.BUILTIN_SPECS),
                     help="use a built-in fixture graph")
    src.add_argument("--spec", metavar="FILE", help="JSON graph spec file")


def _load_graph(args) -> Digraph:
    """Resolve --builtin/--spec into a graph: a CosetGraph for the group form, a raw Digraph otherwise."""
    if args.builtin:
        return fixtures.builtin_graph(args.builtin)
    parsed = specfile.load_spec_file(args.spec)
    if isinstance(parsed, GroupSpec):
        return build_cayley_coset_graph(parsed)
    regular_degree(parsed)  # raw digraphs must be regular before anything else
    return parsed


def _json_default(x):
    from fractions import Fraction  # loaded only once a value json cannot write turns up
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    raise TypeError(f"cannot serialize {x!r}")


def _emit_json(doc: dict, out: str | None) -> None:
    text = _dumps(doc, "") + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_all_ints = {int}.issuperset  # over the types of a list's items; a bool is not a plain int


def _dumps(x, pad: str) -> str:
    """json.dumps(x, indent=2, default=_json_default), byte for byte, for x nested at indent `pad`.

    An indent sends json.dumps to its pure-Python encoder.  Here only the
    layout is Python: every scalar goes through the C-level encoder, and a
    list of plain ints is one join.
    """
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_json_key(k) + ": " + _dumps(v, inner) for k, v in x.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        items = map(str, x) if _all_ints(map(type, x)) else [_dumps(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(x, default=_json_default)


def _json_key(k) -> str:
    """A dict key as json writes it: a str as it is, an int, float, bool or None key as its JSON text."""
    if not isinstance(k, str):
        if not (isinstance(k, (int, float)) or k is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def _int_list(x) -> bool:
    return isinstance(x, list) and _all_ints(map(type, x))


def _parse_words_doc(doc: dict, origin: str, g: Digraph) -> dict[int, tuple[int, ...]]:
    """The words of a words artifact, each checked to walk on g from vertex 0 to its key vertex."""
    if "words" not in doc or not isinstance(doc["words"], dict):
        raise InputError(f"{origin}: missing 'words' object")
    word_map = {}
    for key, word in doc["words"].items():
        try:
            v = int(key)
        except ValueError:
            raise InputError(f"{origin}: word key {key!r} is not a vertex index") from None
        if not _int_list(word):
            raise InputError(f"{origin}: word for vertex {key} must be a list of generator indices")
        word_map[v] = tuple(word)
    try:
        validate_word_set(g, word_map)
    except InputError as exc:
        raise InputError(f"{origin}: {exc}") from None
    return word_map


def _parse_factorization_doc(doc: dict, origin: str, g: Digraph):
    """(factors, words or None) of a factorization artifact, checked to factorize g."""
    n = g.vertex_count
    for field in ("n", "d", "factors"):
        if field not in doc:
            raise InputError(f"{origin}: missing '{field}'")
    if type(doc["n"]) is not int or doc["n"] != n:
        raise InputError(f"{origin}: 'n' is {doc['n']!r}, the graph has {n} vertices")
    if type(doc["d"]) is not int:
        raise InputError(f"{origin}: 'd' must be an integer, got {doc['d']!r}")
    factors = doc["factors"]
    if not isinstance(factors, list) or len(factors) != doc["d"]:
        raise InputError(f"{origin}: 'factors' must list d={doc['d']} successor arrays")
    for j, succ in enumerate(factors):
        if not _int_list(succ):
            raise InputError(f"{origin}: 'factors' entry {j} must be a list of vertex indices")
        if len(succ) != n:
            raise InputError(f"{origin}: 'n' is {n}, but 'factors' entry {j} maps {len(succ)} vertices")
    factors = tuple(tuple(int(v) for v in succ) for succ in factors)
    try:
        validate_one_factorization(g, factors)
    except InputError as exc:
        raise InputError(f"{origin}: 'factors': {exc}") from None
    words = doc.get("words")
    if words is not None:
        if not isinstance(words, list) or len(words) != n:
            raise InputError(f"{origin}: 'words' must hold one word per vertex")
        for v, word in enumerate(words):
            if not _int_list(word):
                raise InputError(f"{origin}: 'words' entry {v} must be a list of factor indices")
            if not all(0 <= j < len(factors) for j in word):
                raise InputError(f"{origin}: 'words' entry {v} uses a factor outside 0..{len(factors) - 1}")
        words = [tuple(w) for w in words]
    return factors, words


def _write_schedule_csv(path: str, word_map: dict[int, tuple[int, ...]], sched: Schedule) -> None:
    """One row per letter, as csv.writer would write them, built as one string and written at once."""
    times = sched.times
    text = "".join([
        f"{target},{pos},{j},{t}\n"
        for target in sorted(times)
        for pos, (j, t) in enumerate(zip(word_map[target], times[target]))
    ])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("word_target,position,factor,time\n" + text)


def _read_schedule_csv(path: str) -> tuple[dict[int, tuple[int, ...]], Schedule]:
    import csv
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != ["word_target", "position", "factor", "time"]:
        raise InputError(f"{path}: expected header word_target,position,factor,time")
    per_target: dict[int, dict[int, tuple[int, int]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            target, pos, factor, time = (int(x) for x in row)
        except (ValueError, TypeError):
            raise InputError(f"{path}:{lineno}: expected four integers, got {row!r}") from None
        slots = per_target.setdefault(target, {})
        if pos in slots:
            raise InputError(f"{path}:{lineno}: duplicate position {pos} for word {target}")
        slots[pos] = (factor, time)
    word_map: dict[int, tuple[int, ...]] = {}
    times: dict[int, tuple[int, ...]] = {}
    for target, slots in per_target.items():
        if sorted(slots) != list(range(len(slots))):
            raise InputError(f"{path}: word {target} has gaps in its positions")
        ordered = [slots[i] for i in range(len(slots))]
        word_map[target] = tuple(f for f, _ in ordered)
        times[target] = tuple(t for _, t in ordered)
    return word_map, Schedule(times=times)


def _replay_to_file(host: Digraph, word_map, sched: Schedule, path: str):
    """run_transpose with the trace written to `path`, created at the replay's first write.

    The replay checks the whole plan before it writes anything, so a replay
    that raises leaves no file behind.
    """
    fh = None

    def sink(text: str) -> None:
        nonlocal fh
        if fh is None:
            # several ~10 KB slots per write; a buffer past glibc's 128 KiB mmap threshold raised peak RSS ~1.6 MB
            fh = open(path, "w", encoding="utf-8", newline="", buffering=1 << 16)
            fh.write("time,src,dst,gen,packet_src,packet_dst\n")
        fh.write(text)

    try:
        trace = run_transpose(host, word_map, sched, sink)
        sink("")  # a replay with no rows still leaves the header
    finally:
        if fh is not None:
            fh.close()
    return trace


def _words_doc(words: dict[int, tuple[int, ...]], profile: LayerProfile) -> dict:
    occ = factor_occurrences(words, profile.degree)
    return {
        "words": {str(v): w for v, w in sorted(words.items())},
        "occurrences": occ,
        "psi_W": max(occ),
        "theta": average_diameter_bound(profile),
    }


def _factorization_doc(n: int, factors, words: dict | None, search: dict | None = None) -> dict:
    doc = {
        "n": n,
        "d": len(factors),
        "factors": factors,
        "words": None if words is None else [words.get(v, ()) for v in range(n)],
    }
    if search is not None:
        doc["search"] = search
    return doc


def _schedule_summary(word_map, sched, profile) -> dict:
    flags = classify(word_map, sched, profile)
    occ = factor_occurrences(word_map, profile.degree)
    corollary6 = None
    if word_map and max(len(w) for w in word_map.values()) <= 2:
        corollary6 = two_layer_time_bound(two_layer_counts(word_map, profile.degree))
    return {
        "makespan": sched.makespan,
        "flags": {
            "balanced": flags.balanced,
            "short": flags.short,
            "optimal": flags.optimal,
            "minimum": flags.minimum,
        },
        "bounds": {
            "theta": average_diameter_bound(profile),
            "psi_for_W": max(occ) if occ else 0,
            "corollary6": corollary6,
        },
    }


def _schedule(host: Digraph, word_map, profile, method: str, budget: int, csv_path: str | None, out: str | None):
    """Schedule the words with scheduling.schedule_plan and write the CSV rows (if asked) and the summary.

    Returns the words, in the letter order they were scheduled in, and the
    schedule; SearchBudgetError when the exact search gives up.
    """
    word_map, sched = schedule_plan(host, word_map, method, budget)
    if csv_path:
        _write_schedule_csv(csv_path, word_map, sched)
    _emit_json(_schedule_summary(word_map, sched, profile), out)
    return word_map, sched


def _replay(host: Digraph, word_map, sched: Schedule, profile: LayerProfile, trace_path: str | None,
            out: str | None, psi_w: int | None = None) -> tuple[dict, int]:
    """Replay the schedule on `host`; write the trace (if asked) and the verdict.

    Returns the verdict and the exit code: 0 for a clean replay, 2 otherwise.
    """
    if trace_path:
        trace = _replay_to_file(host, word_map, sched, trace_path)
    else:
        trace = run_transpose(host, word_map, sched)
    theta = average_diameter_bound(profile)
    verdict = {
        "tau": trace.horizon,
        "conflicts": trace.conflict_count,
        "undelivered": len(trace.undelivered),
        "theta": theta,
    }
    if psi_w is not None:
        verdict["psi_W"] = psi_w
    verdict["optimal"] = bool(trace.clean and trace.horizon == theta)
    _emit_json(verdict, out)
    return verdict, 0 if trace.clean else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    g = _load_graph(args)
    profile = layer_profile(g)
    doc = {
        "P": profile.vertex_count,
        "d": profile.degree,
        "D": diameter(g, profile),
        "n": list(profile.layer_sizes),
        "theta": average_diameter_bound(profile),
    }
    if args.adjacency:
        Path(args.adjacency).write_text(emit_adjacency(g), encoding="utf-8")
    _emit_json(doc, args.out)
    return 0


def cmd_words(args) -> int:
    g = _load_graph(args)
    if not isinstance(g, CosetGraph):
        raise InputError("word sets need a group-form spec, not a raw digraph")
    _require_cayley(g)  # a graph refused for its subgroup costs no BFS
    profile = layer_profile(g)
    words = bfs_word_set(g, profile)
    doc = _words_doc(words, profile)
    if args.exact:
        bound = regular_bound_exact(g, profile, words, budget=args.budget)
        doc["psi_exact"] = bound.value
        doc["exact"] = bound.exact
    _emit_json(doc, args.out)
    return 0


def cmd_factorize(args) -> int:
    g = _load_graph(args)
    if args.search or (isinstance(g, CosetGraph) and g.is_cayley):
        doc = _factorization_doc(g.vertex_count,
                                 *spanning_plan(g, layer_profile(g), args.budget, args.max_slack, args.search))
    else:
        doc = _factorization_doc(g.vertex_count, one_factorize(g), None)
    _emit_json(doc, args.out)
    return 0


def cmd_schedule(args) -> int:
    g = _load_graph(args)
    profile = layer_profile(g)
    if args.factorization:
        factors, listed = _parse_factorization_doc(_read_json(args.factorization), args.factorization, g)
        if listed is None:
            raise InputError(f"{args.factorization}: factor-only artifact has no words to schedule")
        host, words = factor_digraph(factors), dict(enumerate(listed))
    elif args.words:
        host, words = g, _parse_words_doc(_read_json(args.words), args.words, g)
    else:
        if not (isinstance(g, CosetGraph) and g.is_cayley):
            raise InputError("scheduling a coset graph or raw digraph needs --words or --factorization")
        host, (_, words, _) = g, spanning_plan(g, profile)  # the generators are the factors: g is their layout
    _schedule(host, words, profile, args.method, args.budget, args.csv, args.out)
    return 0


def cmd_simulate(args) -> int:
    g = _load_graph(args)
    word_map, sched = _read_schedule_csv(args.schedule)
    profile = layer_profile(g)
    host = g
    if args.factorization:
        n = g.vertex_count
        factors, _ = _parse_factorization_doc(_read_json(args.factorization), args.factorization, g)
        stray = sorted(k for k in word_map if not 0 <= k < n)
        if stray:
            raise InputError(f"{args.schedule}: word key {stray[0]} is not a vertex of the {n}-vertex graph")
        # factors read from a file are trusted only once the words span from every base
        words = tuple(word_map.get(i, ()) for i in range(n))
        try:
            verify_spanning(factors, words, n)
        except InputError as exc:
            raise InputError(f"refusing to expand an unverified factorization: {exc}") from None
        host, word_map = factor_digraph(factors), dict(enumerate(words))
    _, code = _replay(host, word_map, sched, profile, args.trace, args.out)
    return code


def cmd_pipeline(args) -> int:
    g = _load_graph(args)
    profile = layer_profile(g)
    factors, words, search = spanning_plan(g, profile, args.budget, args.max_slack)
    host = factor_digraph(factors)
    psi_w = max(factor_occurrences(words, profile.degree))
    # made only now, so that a run refused on its input or its search leaves no directory behind
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    word_map = words
    try:
        word_map, sched = _schedule(host, words, profile, args.method, args.schedule_budget,
                                    str(outdir / "schedule.csv"), str(outdir / "schedule.json"))
    finally:
        # the words artifact holds the words in their scheduled letter order, or as chosen if scheduling gave up
        if search is None:  # generator words, which need no factors beside them
            _emit_json(_words_doc(word_map, profile), str(outdir / "words.json"))
        else:
            _emit_json(_factorization_doc(g.vertex_count, factors, word_map, search),
                       str(outdir / "factorization.json"))
    verdict, code = _replay(host, word_map, sched, profile, str(outdir / "trace.csv"),
                            str(outdir / "verdict.json"), psi_w)
    print(f"tau={verdict['tau']} theta={verdict['theta']} psi_W={psi_w} optimal={str(verdict['optimal']).lower()}")
    return code


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _float_range_number(x) -> bool:
    """A JSON number a float can hold: no boolean, and no NaN or infinity, which json.load also accepts."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def cmd_compare(args) -> int:
    import csv
    from .costmodel import CostParams, compare_networks  # loaded here: no other command needs the cost model
    candidates: list[tuple[str, CostParams]] = []
    taus: dict[str, float] = {}
    numbers = ("P", "d", "D", "rho", "tau") if args.measured else ("P", "d", "D", "rho")
    for path in args.networks:
        doc = _read_json(path)
        for field in ("P", "d", "D", "rho"):
            if field not in doc:
                raise InputError(f"{path}: missing '{field}'")
        for field in numbers:
            if field in doc and not _float_range_number(doc[field]):
                raise InputError(f"{path}: '{field}' must be a number in float range, got {doc[field]!r}")
        name = doc.get("name", Path(path).stem)
        if not isinstance(name, str):
            raise InputError(f"{path}: 'name' must be a string, got {name!r}")
        params = CostParams(
            processors=doc["P"],
            degree=doc["d"],
            avg_diameter=doc["D"],
            cost_ratio=doc["rho"],
            matrix_dim=args.matrix_dim,
            iterations=args.iterations,
        )
        candidates.append((name, params))
        if "tau" in doc:
            taus[name] = doc["tau"]
    try:
        verdict = compare_networks(candidates, gamma_max=args.gamma_max, taus=taus if args.measured else None)
    except (OverflowError, ZeroDivisionError) as exc:  # finite inputs whose products leave float range
        raise InputError(f"the networks' numbers leave floating-point range: {exc}") from None
    if args.ranking:
        with open(args.ranking, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["rank", "name", "P", "d", "D", "wire_cost", "compute", "exchange", "total"])
            for rank, r in enumerate(verdict.ranking, start=1):
                w.writerow([
                    rank, r.name, r.params.processors, r.params.degree, r.params.avg_diameter,
                    r.wire_cost, r.times.compute, r.times.exchange, r.times.total,
                ])
    _emit_json(
        {
            "winner": verdict.winner,
            "explanation": verdict.explanation,
            "ranking": [r.name for r in verdict.ranking],
            "eliminated": [[name, wire] for name, wire in verdict.eliminated],
        },
        args.out,
    )
    if verdict.winner is None:
        print(verdict.explanation, file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alltoall", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("bounds", help="distance profile and lower bounds")
    _add_graph_source(p)
    p.add_argument("--out", metavar="FILE", help="write the JSON report here instead of stdout")
    p.add_argument("--adjacency", metavar="FILE", help="also dump 'src dst gen' arc lines")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("words", help="shortest-word set and occupancy")
    _add_graph_source(p)
    p.add_argument("--exact", action="store_true", help="also search for the exact regular bound")
    p.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                   help="node budget for --exact; also caps the letters of the letter-count table it lists")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("factorize", help="1-factorization artifacts")
    _add_graph_source(p)
    p.add_argument("--search", action="store_true",
                   help="search for a spanning factorization instead of the direct construction")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--max-slack", type=int, default=2,
                   help="extra total word length allowed beyond the BFS floor")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("schedule", help="assign time slots to a word collection")
    _add_graph_source(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--words", metavar="FILE", help="words artifact from the words subcommand")
    src.add_argument("--factorization", metavar="FILE", help="artifact from the factorize subcommand")
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    p.add_argument("--budget", type=int, default=DEFAULT_SCHEDULE_BUDGET)
    p.add_argument("--csv", metavar="FILE", help="write schedule rows here")
    p.add_argument("--out", metavar="FILE", help="write the JSON summary here instead of stdout")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="replay a schedule and report the trace")
    _add_graph_source(p)
    p.add_argument("--schedule", metavar="FILE", required=True, help="schedule CSV to replay")
    p.add_argument("--factorization", metavar="FILE",
                   help="replay over these factors instead of the graph's own out-positions")
    p.add_argument("--trace", metavar="FILE", help="write the trace CSV here")
    p.add_argument("--out", metavar="FILE", help="write the JSON verdict here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="full chain with a final verdict line")
    _add_graph_source(p)
    p.add_argument("--outdir", metavar="DIR", default="out", help="artifact directory (default: out)")
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="node budget for the factorization search")
    p.add_argument("--max-slack", type=int, default=2)
    p.add_argument("--schedule-budget", type=int, default=DEFAULT_SCHEDULE_BUDGET)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("compare", help="rank networks under a wire budget")
    p.add_argument("networks", nargs="+", metavar="FILE",
                   help="network descriptor JSON files: {name, P, d, D, rho}")
    p.add_argument("--gamma-max", type=_number, required=True, help="wire budget: keep P*d < gamma_max")
    p.add_argument("--matrix-dim", type=int, default=1024, help="N in the workload model")
    p.add_argument("--iterations", type=int, default=1, help="M in the workload model")
    p.add_argument("--measured", action="store_true",
                   help="use each file's 'tau' field instead of the optimistic model")
    p.add_argument("--ranking", metavar="FILE", help="write the ranking CSV here")
    p.add_argument("--out", metavar="FILE", help="write the JSON verdict here instead of stdout")
    p.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and reused, so in-process callers of main pay for it once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest in ("budget", "schedule_budget", "max_slack"):
            value = getattr(args, dest, 0)
            if value < 0:
                raise InputError(f"--{dest.replace('_', '-')} must be at least 0, got {value}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read through InputError, so this is an output
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
