"""Benchmark of the alltoall command line: time to a replayed verdict, memory, makespan.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process runs one workload: it writes the
workload's graphs as spec files, then runs whole passes over the workload's
operations through ``alltoall.cli.main`` until ``--seconds`` have gone by,
then checks the artifacts with perfbench/check.py, which shares no code
with the program.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With ``--trace 1`` the
metrics are the per-layer ones from perfbench/spans.py instead, and the
spans go to perfbench/out/<workload>/spans.json.  ``--workload all`` runs
every workload in turn, one process each, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up samples per untraced run, spread over the run so that they see the
# host's fast and slow spells in the same proportion as the passes do
SETUP_SAMPLES = 15

from check import CheckError, build_net, check_bounds, check_exchange, check_words_doc  # noqa: E402
from ladder import WORKLOADS, Workload  # noqa: E402
from setup_child import write_specs  # noqa: E402
from spans import Tracer  # noqa: E402


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive number of seconds")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True, help="fixes the order of operations in each pass")
    p.add_argument("--seconds", type=positive, required=True, help="run whole passes until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(wl: Workload, outdir: Path) -> dict[str, Path]:
    """Import the program, write the workload's spec files and parse them; returns spec paths."""
    sys.path.insert(0, str(SRC))
    import alltoall.cli  # noqa: F401

    for g in wl.graphs:
        (outdir / g.name).mkdir(parents=True, exist_ok=True)
    return write_specs(spec_docs(wl), outdir)


def spec_docs(wl: Workload) -> dict[str, dict]:
    """The spec documents a user would write: every graph that is not a builtin."""
    return {g.name: g.spec for g in wl.graphs if g.builtin is None}


def time_setup(wl: Workload, i: int) -> float:
    """Wall time of one fresh process of setup_child.py, from spawn until it reports ready."""
    scratch = OUT / wl.name / f"setup-{i}"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_child.py"), str(SRC), str(scratch)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
        child.stdin.write(json.dumps(spec_docs(wl)))
        child.stdin.close()
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"set-up process failed with code {child.returncode}")
    shutil.rmtree(scratch, ignore_errors=True)
    return elapsed


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_op(op, wl: Workload, specs: dict[str, Path], outdir: Path, tracer=None) -> tuple[str | None, str]:
    """Run one operation's command lines; returns (failure or None, captured stdout)."""
    from alltoall.cli import main

    g = wl.graph(op.graph)
    src = g.source_args(str(specs.get(g.name, "")))
    gdir = str(outdir / g.name)
    buf = io.StringIO()
    for template in op.argvs:
        argv = []
        for arg in template:
            argv.extend(src if arg == "{src}" else [arg.replace("{out}", gdir)])
        idx = tracer.open(f"cli.{argv[0]}") if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except (Exception, SystemExit) as exc:
            return f"{op.graph} {argv[0]} raised {type(exc).__name__}", buf.getvalue()
        finally:
            if tracer:
                tracer.close(idx)
        if code != 0:
            return f"{op.graph} {argv[0]} exited {code}", buf.getvalue()
    return None, buf.getvalue()


def clear_artifacts(wl: Workload, outdir: Path) -> None:
    for g in wl.graphs:
        for f in (outdir / g.name).iterdir():
            if f.name != "spec.json":
                f.unlink()


def digest(wl: Workload, outdir: Path) -> str:
    h = hashlib.sha256()
    for g in wl.graphs:
        for f in sorted((outdir / g.name).iterdir()):
            h.update(f.name.encode())
            with f.open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def run_pass(wl, specs, outdir, rng, tracer=None):
    """One timed pass from a collected heap; returns (seconds, {(graph, kind): failure}, {(graph, kind): stdout})."""
    clear_artifacts(wl, outdir)
    order = wl.pass_order(rng)
    gc.collect()
    if tracer:
        tracer.install()
    failures, stdout = {}, {}
    start = time.perf_counter()
    try:
        for op in order:
            failures[op.graph, op.kind], stdout[op.graph, op.kind] = run_op(op, wl, specs, outdir, tracer)
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    return elapsed, failures, stdout


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def check_outputs(wl: Workload, outdir: Path, failures: dict, stdout: dict) -> tuple[int, int]:
    """Check every successful op's artifacts; returns (tau_slots, psi_w_slots).

    An op that failed counts at the worst value either metric can take for
    its graph: every letter of a shortest word set on one arc, one per slot.
    On sizing nothing is scheduled, so tau_slots carries theta, the floor
    every schedule's tau must meet.
    """
    nets = {g.name: build_net(g.spec) for g in wl.graphs}
    tau_slots = psi_slots = 0
    for op in wl.ops:
        g, net = wl.graph(op.graph), nets[op.graph]
        gdir = outdir / g.name
        if failures[op.graph, op.kind]:
            tau = psi = net.letters
        elif op.kind == "bounds":
            check_bounds(net, g.spec, json.loads((gdir / "bounds.json").read_text()))
            tau = psi = net.theta
        elif op.kind == "words":
            tau = psi = check_words_doc(net, json.loads((gdir / "words.json").read_text()))
        else:
            tau, psi = check_exchange(net, gdir, exact=wl.name == "exact",
                                      stdout=stdout[op.graph, op.kind] if op.kind == "pipeline" else None)
        tau_slots += tau if op.kind != "words" else 0
        psi_slots += psi if op.kind != "bounds" else 0
    return tau_slots, psi_slots


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    outdir = OUT / wl.name
    shutil.rmtree(outdir, ignore_errors=True)
    specs = set_up(wl, outdir)
    rng = random.Random(args.seed)

    times, traced_times, tracers, passes, setup_times = [], [], [], [], []

    def sample_setup(upto: int) -> None:
        while not args.trace and len(setup_times) < upto:
            setup_times.append(time_setup(wl, len(setup_times)))

    def one_pass(tracer=None) -> float:
        elapsed, failed, outp = run_pass(wl, specs, outdir, rng, tracer)
        passes.append((failed, outp, digest(wl, outdir)))
        return elapsed

    # a traced run first traces allocations in the replay stage for one
    # pass, then alternates untraced and traced passes, so that the
    # tracing overhead compares passes run under the same conditions
    start = time.perf_counter()
    deadline = start + args.seconds
    mem = Tracer(memory=True)
    if args.trace:
        one_pass(mem)
    while not times or time.perf_counter() < deadline:
        sample_setup(1 + int((SETUP_SAMPLES - 1) * min(1.0, (time.perf_counter() - start) / args.seconds)))
        times.append(one_pass())
        if args.trace:
            tracers.append(Tracer())
            traced_times.append(one_pass(tracers[-1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sample_setup(SETUP_SAMPLES)

    # every pass must leave the same artifacts as the last one, which is checked
    last_failed, last_digest = passes[-1][0], passes[-1][2]
    correct = all(f == last_failed and dig == last_digest for f, _, dig in passes)
    if not correct:
        print(f"{wl.name}: artifacts or failures differ between passes", file=sys.stderr)
    for reason in sorted({r for f, _, _ in passes for r in f.values() if r}):
        print(f"{wl.name}: {reason}", file=sys.stderr)
    try:
        tau_slots, psi_slots = check_outputs(wl, outdir, last_failed, passes[-1][1])
    except (CheckError, KeyError, TypeError, ValueError) as exc:  # wrong, or malformed, artifacts
        print(f"{wl.name}: check failed: {exc!r}", file=sys.stderr)
        correct, tau_slots, psi_slots = False, 0, 0
    attempted = len(wl.ops) * len(passes)
    failed = sum(bool(r) for f, _, _ in passes for r in f.values())

    if not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "verdict_s": metric(statistics.median(times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "tau_slots": metric(tau_slots, "slots"),
            "psi_w_slots": metric(psi_slots, "slots"),
        }
    else:
        per_pass = [t.metrics() for t in tracers]
        metrics = {}
        for name in per_pass[0]:
            unit = "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count"
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = metric(median(p[name] for p in per_pass), unit)
        metrics["simulate.peak_alloc_mb"] = metric(mem.peak_alloc / 2**20, "MB")
        traced, untraced = statistics.median(traced_times), statistics.median(times)
        metrics["trace.pass_s"] = metric(traced, "s")
        metrics["trace.overhead_pct"] = metric(100 * (traced / untraced - 1), "%")
        absent = sorted(set(mem.absent))
        for name in absent:
            print(f"{wl.name}: traced name {name} is absent; its metrics read 0", file=sys.stderr)
        (outdir / "spans.json").write_text(json.dumps(
            {"workload": wl.name, "seed": args.seed, "untraced_pass_s": times, "absent": absent,
             "passes": [{"seconds": s, "spans": t.dump(), "counts": dict(t.counts)}
                        for s, t in zip(traced_times, tracers)]},
        ))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_child(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run one workload in a fresh process; returns the result object it printed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process, one table at the end."""
    try:
        results = {name: run_child(name, args.seed, args.seconds, args.trace) for name in WORKLOADS}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for m, v in res["metrics"].items():
            print(f"  {m:32s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alltoall" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'alltoall'} is missing; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
