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

Exit codes: 0 success, 1 invalid input or usage, 2 infeasible or search
budget exhausted.  Usage errors from argparse are remapped from its default
2 to 1 so that 2 keeps its infeasibility meaning in scripts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures, specfile
from .costmodel import CostParams, compare_networks
from .errors import InputError, SearchBudgetError
from .factorization import (
    DEFAULT_SEARCH_BUDGET,
    factor_digraph,
    one_factorize,
    search_spanning_factorization,
    validate_one_factorization,
    verify_spanning,
)
from .graphs import CosetGraph, Digraph, build_cayley_coset_graph, emit_adjacency, regular_degree
from .groups import GroupSpec
from .layers import average_diameter_bound, layer_profile
from .scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    classify,
    factor_occurrences,
    schedule_plan,
    two_layer_counts,
    two_layer_time_bound,
)
from .simulate import Expansion, expand_factor_paths, run_transpose
from .words import DEFAULT_WORD_BUDGET, bfs_word_set, regular_bound_exact, validate_word_set


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
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    raise TypeError(f"cannot serialize {x!r}")


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def _int_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(j, int) for j in x)


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
    if doc["n"] != n:
        raise InputError(f"{origin}: 'n' is {doc['n']!r}, the graph has {n} vertices")
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["word_target", "position", "factor", "time"])
        for target in sorted(sched.times):
            word = word_map[target]
            for pos, (j, t) in enumerate(zip(word, sched.times[target])):
                w.writerow([target, pos, j, t])


def _read_schedule_csv(path: str) -> tuple[dict[int, tuple[int, ...]], Schedule]:
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


def _replay_to_file(host: Digraph, paths: Expansion, path: str):
    """run_transpose with the trace written to `path`, created at the replay's first write.

    The replay writes nothing before it has settled the whole plan, so a
    replay that raises leaves no file behind.
    """
    fh = None

    def sink(text: str) -> None:
        nonlocal fh
        if fh is None:
            fh = open(path, "w", encoding="utf-8", newline="")
            fh.write("time,src,dst,gen,packet_src,packet_dst\n")
        fh.write(text)

    try:
        trace = run_transpose(host, paths, sink)
        sink("")  # a replay with no rows still leaves the header
    finally:
        if fh is not None:
            fh.close()
    return trace


def _words_doc(words: dict[int, tuple[int, ...]], degree: int, theta: int) -> dict:
    occ = factor_occurrences(words, degree)
    return {
        "words": {str(v): list(w) for v, w in sorted(words.items())},
        "occurrences": occ,
        "psi_W": max(occ),
        "theta": theta,
    }


def _factorization_doc(n: int, factors, words, search: dict | None = None) -> dict:
    doc = {
        "n": n,
        "d": len(factors),
        "factors": [list(succ) for succ in factors],
        "words": None if words is None else [list(w) for w in words],
    }
    if search is not None:
        doc["search"] = search
    return doc


def _search_factorization(g: Digraph, budget: int, max_slack: int):
    """(factors, words, search counters), or None after reporting on stderr why none was found."""
    res = search_spanning_factorization(g, budget=budget, max_slack=max_slack)
    if res.factors is None:
        # exhausting one slack leaves larger ones untried, so say which was exhausted
        reason = res.reason if res.reason == "budget" else f"{res.reason} within max_slack {max_slack}"
        print(
            f"no spanning factorization found ({reason}): {res.nodes} nodes over "
            f"{res.factorizations} factorizations, deepest word prefix {res.best_depth}",
            file=sys.stderr,
        )
        return None
    return res.factors, res.words, {"nodes": res.nodes, "factorizations": res.factorizations}


def _schedule_summary(word_map, sched, degree, profile) -> dict:
    flags = classify(word_map, sched, degree, profile)
    occ = factor_occurrences(word_map, degree)
    corollary6 = None
    if word_map and max(len(w) for w in word_map.values()) <= 2:
        corollary6 = two_layer_time_bound(two_layer_counts(word_map, degree))
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


def _schedule(host: Digraph, word_map, degree, profile, method: str, budget: int, csv_path: str | None,
              out: str | None):
    """Schedule the words with scheduling.schedule_plan and write the CSV rows (if asked) and the summary.

    Returns the words, in the letter order they were scheduled in, and the
    schedule; None after reporting a failure.
    """
    try:
        word_map, sched = schedule_plan(host, word_map, method, budget)
    except SearchBudgetError as exc:
        print(exc, file=sys.stderr)
        return None
    if csv_path:
        _write_schedule_csv(csv_path, word_map, sched)
    _emit_json(_schedule_summary(word_map, sched, degree, profile), out)
    return word_map, sched


def _replay(host: Digraph, word_map, sched: Schedule, theta: int, trace_path: str | None, out: str | None,
            psi_w: int | None = None) -> tuple[dict, int]:
    """Expand and replay the schedule on `host`; write the trace (if asked) and the verdict.

    Returns the verdict and the exit code: 0 for a clean replay, 2 otherwise.
    """
    paths = expand_factor_paths(host, word_map, sched)
    trace = _replay_to_file(host, paths, trace_path) if trace_path else run_transpose(host, paths)
    verdict = {
        "tau": trace.horizon,
        "conflicts": len(trace.conflicts),
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
        "D": profile.diameter,
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
    doc = _words_doc(bfs_word_set(g), g.degree, average_diameter_bound(layer_profile(g)))
    if args.exact:
        bound = regular_bound_exact(g, budget=args.budget)
        doc["psi_exact"] = bound.value
        doc["exact"] = bound.exact
    _emit_json(doc, args.out)
    return 0


def cmd_factorize(args) -> int:
    g = _load_graph(args)
    if args.search:
        found = _search_factorization(g, args.budget, args.max_slack)
        if found is None:
            return 2
        doc = _factorization_doc(g.vertex_count, *found)
    elif isinstance(g, CosetGraph) and g.is_cayley:
        # the generators are the factors, and the word set (plus the base's empty word) spans
        words = bfs_word_set(g)
        listed = [words.get(v, ()) for v in range(g.vertex_count)]
        doc = _factorization_doc(g.vertex_count, tuple(zip(*g.out)), listed)
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
        host, words = g, bfs_word_set(g)
    degree = len(host.out[0])
    word_map = {k: w for k, w in words.items() if w}
    scheduled = _schedule(host, word_map, degree, profile, args.method, args.budget, args.csv, args.out)
    return 2 if scheduled is None else 0


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
        host, word_map = factor_digraph(factors), {i: w for i, w in enumerate(words) if w}
    _, code = _replay(host, word_map, sched, average_diameter_bound(profile), args.trace, args.out)
    return code


def cmd_pipeline(args) -> int:
    g = _load_graph(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    profile = layer_profile(g)
    theta = average_diameter_bound(profile)
    cayley = isinstance(g, CosetGraph) and g.is_cayley
    if cayley:
        host, words = g, bfs_word_set(g)
    else:
        found = _search_factorization(g, args.budget, args.max_slack)
        if found is None:
            return 2
        factors, listed, search = found
        host, words = factor_digraph(factors), dict(enumerate(listed))

    # from here on a plan is words over the host's out-positions, whichever route made it
    degree = len(host.out[0])
    word_map = {k: w for k, w in words.items() if w}
    psi_w = max(factor_occurrences(word_map, degree))
    scheduled = _schedule(host, word_map, degree, profile, args.method, args.schedule_budget,
                          str(outdir / "schedule.csv"), str(outdir / "schedule.json"))
    if scheduled is not None:
        word_map, sched = scheduled
    # the words artifact holds the words in their scheduled letter order, or as chosen if scheduling failed
    if cayley:
        _emit_json(_words_doc(word_map, degree, theta), str(outdir / "words.json"))
    else:
        listed = [word_map.get(i, ()) for i in range(g.vertex_count)]
        _emit_json(_factorization_doc(g.vertex_count, factors, listed, search),
                   str(outdir / "factorization.json"))
    if scheduled is None:
        return 2
    verdict, code = _replay(host, word_map, sched, theta, str(outdir / "trace.csv"),
                            str(outdir / "verdict.json"), psi_w)
    print(f"tau={verdict['tau']} theta={theta} psi_W={psi_w} optimal={str(verdict['optimal']).lower()}")
    return code


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def cmd_compare(args) -> int:
    if len(args.networks) < 2:
        raise InputError(f"need at least two network files, got {len(args.networks)}")
    candidates: list[tuple[str, CostParams]] = []
    taus: dict[str, float] = {}
    for path in args.networks:
        doc = _read_json(path)
        for field in ("P", "d", "D", "rho"):
            if field not in doc:
                raise InputError(f"{path}: missing '{field}'")
        name = doc.get("name", Path(path).stem)
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
    verdict = compare_networks(candidates, gamma_max=args.gamma_max, taus=taus if args.measured else None)
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
                   help="node budget for --exact; also caps the letters of the words it lists")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read through InputError, so this is an output
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
