"""End-to-end runs of the command-line frontend, in-process via main(argv)."""

import contextlib
import csv
import importlib.util
import io
import itertools
import json
import sys
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from alltoall import cli, fixtures, layers, scheduling
from alltoall import factorization as factorization_module
from alltoall import words as words_module
from alltoall.cli import (
    _dumps,
    _json_default,
    _parse_factorization_doc,
    _read_schedule_csv,
    _write_schedule_csv,
    main,
)
from alltoall.errors import InputError, SearchBudgetError
from alltoall.factorization import factor_digraph, spanning_plan
from alltoall.graphs import Digraph
from test_graphs import kautz
from test_simulate import reference_replay


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse usage failures
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bounds_builtin(capsys):
    doc = run_json(capsys, "bounds", "--builtin", "petersen")
    assert doc == {"P": 10, "d": 3, "D": 2, "n": [1, 3, 6], "theta": 5}


def test_bounds_adjacency_dump(tmp_path, capsys):
    arcs = tmp_path / "arcs.txt"
    code, _, _ = run(capsys, "bounds", "--builtin", "c4", "--adjacency", str(arcs))
    assert code == 0
    assert arcs.read_text().splitlines() == ["0 1 0", "1 2 0", "2 3 0", "3 0 0"]


def test_words_exact(capsys):
    doc = run_json(capsys, "words", "--builtin", "z7-124", "--exact")
    assert doc["psi_W"] == 3
    assert doc["theta"] == 3
    assert doc["psi_exact"] == 3
    assert doc["exact"] is True
    assert doc["occurrences"] == [3, 3, 3]
    assert sorted(len(w) for w in doc["words"].values()) == [1, 1, 1, 2, 2, 2]


def test_words_rejects_non_cayley(capsys):
    code, _, err = run(capsys, "words", "--builtin", "petersen")
    assert code == 1
    assert "factorization" in err


def test_schedule_to_simulate_round_trip(tmp_path, capsys):
    csv = tmp_path / "sched.csv"
    doc = run_json(capsys, "schedule", "--builtin", "z7-124", "--csv", str(csv))
    assert doc["makespan"] == 3
    assert doc["flags"] == {"balanced": True, "short": True, "optimal": True, "minimum": True}
    assert doc["bounds"] == {"theta": 3, "psi_for_W": 3, "corollary6": 3}
    verdict = run_json(capsys, "simulate", "--builtin", "z7-124", "--schedule", str(csv))
    assert verdict == {"tau": 3, "conflicts": 0, "undelivered": 0, "theta": 3, "optimal": True}


def test_schedule_greedy_c4(tmp_path, capsys):
    doc = run_json(capsys, "schedule", "--builtin", "c4", "--method", "greedy")
    assert doc["makespan"] == 6
    assert doc["bounds"]["corollary6"] is None  # a length-3 word is in play


def test_schedule_csv_rejects_corruption(tmp_path, capsys):
    csv = tmp_path / "sched.csv"
    run_json(capsys, "schedule", "--builtin", "c4", "--csv", str(csv))
    rows = csv.read_text().splitlines()
    rows[1] = "1,5,0,1"  # position 5 breaks the contiguity of word 1
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "simulate", "--builtin", "c4", "--schedule", str(bad))
    assert code == 1
    assert "bad.csv" in err


def test_factorize_search_to_simulate(tmp_path, capsys):
    fact = tmp_path / "fact.json"
    doc = run_json(capsys, "factorize", "--builtin", "petersen", "--search")
    assert doc["n"] == 10 and doc["d"] == 3
    assert doc["search"]["factorizations"] >= 1
    assert sorted(len(w) for w in doc["words"]) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    fact.write_text(json.dumps(doc))
    csv = tmp_path / "sched.csv"
    sched = run_json(capsys, "schedule", "--builtin", "petersen",
                     "--factorization", str(fact), "--csv", str(csv))
    assert sched["makespan"] == 5
    verdict = run_json(capsys, "simulate", "--builtin", "petersen",
                       "--schedule", str(csv), "--factorization", str(fact))
    assert verdict["tau"] == 5 and verdict["optimal"] is True


def test_factorize_without_search_lists_factors(capsys):
    doc = run_json(capsys, "factorize", "--builtin", "c4")
    assert doc["factors"] == [[1, 2, 3, 0]]
    assert doc["words"] == [[], [0], [0, 0], [0, 0, 0]]


def test_factorize_raw_digraph_has_no_words(tmp_path, capsys):
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"digraph": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}}))
    doc = run_json(capsys, "factorize", "--spec", str(spec))
    assert doc["factors"] == [[1, 2, 0]]
    assert doc["words"] is None


def test_factorize_search_starved(capsys):
    code, _, err = run(capsys, "factorize", "--builtin", "petersen", "--search", "--budget", "1")
    assert code == 2
    assert "budget" in err


def test_factorize_search_exhausted_names_its_slack(tmp_path, capsys):
    # Kautz K(2,3) has no spanning factorization with shortest words; that rules out slack 0 only
    spec, g = tmp_path / "kautz.json", kautz(2, 3)
    spec.write_text(json.dumps({"digraph": {"n": g.vertex_count, "arcs": [[u, v] for u, v, _ in g.arcs()]}}))
    code, _, err = run(capsys, "factorize", "--spec", str(spec), "--search", "--max-slack", "0")
    assert code == 2
    assert err.startswith("no spanning factorization found (exhausted within max_slack 0): ")


@pytest.mark.parametrize("name", [*sorted(fixtures.BUILTIN_SPECS), "kautz-2-2", "kautz-2-3", "q3-search"])
def test_the_spanning_plan_is_the_route_factorize_and_pipeline_write(tmp_path, capsys, name):
    search = name.endswith("-search")
    if name.startswith("kautz"):
        g, spec = kautz(2, int(name[-1])), tmp_path / "kautz.json"
        spec.write_text(json.dumps({"digraph": {"n": g.vertex_count, "arcs": [[u, v] for u, v, _ in g.arcs()]}}))
        source = ("--spec", str(spec))
    else:
        g = fixtures.builtin_graph(name.removesuffix("-search"))
        source = ("--builtin", name.removesuffix("-search"))
    cayley = getattr(g, "is_cayley", False)
    factorize = ("factorize", *source, *(() if cayley and not search else ("--search",)))
    pipeline = ("pipeline", *source, "--method", "greedy", "--outdir", str(tmp_path / "out"))
    profile = layers.layer_profile(g)
    if name == "kautz-2-3":  # no spanning factorization within max_slack 2: both commands print why
        with pytest.raises(SearchBudgetError) as exhausted:
            spanning_plan(g, profile)
        assert run(capsys, *factorize) == run(capsys, *pipeline) == (2, "", f"{exhausted.value}\n")
        with pytest.raises(SearchBudgetError) as starved:
            spanning_plan(g, profile, budget=5)
        assert str(starved.value).startswith("no spanning factorization found (budget): 5 nodes over ")
        assert run(capsys, *factorize, "--budget", "5") == (2, "", f"{starved.value}\n")
        with pytest.raises(SearchBudgetError) as narrow:
            spanning_plan(g, profile, max_slack=0)
        assert str(narrow.value).startswith("no spanning factorization found (exhausted within max_slack 0): ")
        assert run(capsys, *pipeline, "--max-slack", "0") == (2, "", f"{narrow.value}\n")
        return
    factors, words, counters = spanning_plan(g, profile, search=search)
    assert (counters is None) == (cayley and not search)
    n = g.vertex_count
    doc = {"n": n, "d": len(factors), "factors": [list(f) for f in factors],
           "words": [list(words.get(v, ())) for v in range(n)], **({"search": counters} if counters else {})}
    assert run_json(capsys, *factorize) == doc
    if search:  # pipeline takes the route from the graph alone
        return
    code, line, _ = run(capsys, *pipeline)  # greedy keeps each word's letter order
    assert code == 0 and line.startswith("tau=")
    if counters is None:
        written = json.loads((tmp_path / "out" / "words.json").read_text())["words"]
        assert written == {str(v): list(w) for v, w in words.items()}
    else:
        assert json.loads((tmp_path / "out" / "factorization.json").read_text()) == doc


@pytest.mark.parametrize("argv,option", [
    (("words", "--builtin", "z5-12", "--exact", "--out", "{out}"), "--budget"),
    (("factorize", "--builtin", "petersen", "--search", "--out", "{out}"), "--budget"),
    (("schedule", "--builtin", "q3", "--csv", "{out}"), "--budget"),
    (("pipeline", "--builtin", "petersen", "--outdir", "{out}"), "--budget"),
    (("pipeline", "--builtin", "petersen", "--outdir", "{out}"), "--schedule-budget"),
    (("factorize", "--builtin", "petersen", "--search", "--out", "{out}"), "--max-slack"),
    (("pipeline", "--builtin", "petersen", "--outdir", "{out}"), "--max-slack"),
    (("pipeline", "--builtin", "q3", "--outdir", "{out}"), "--max-slack"),
    (("factorize", "--builtin", "petersen", "--out", "{out}"), "--max-slack"),
], ids=["words", "factorize", "schedule", "pipeline", "pipeline-schedule",
        "factorize-max-slack", "pipeline-max-slack", "cayley-pipeline-max-slack", "unsearched-factorize-max-slack"])
def test_a_negative_budget_is_an_input_error_that_writes_nothing(tmp_path, capsys, argv, option):
    code, stdout, err = run(capsys, *(a.replace("{out}", str(tmp_path / "out")) for a in argv), option, "-3")
    assert (code, stdout, err) == (1, "", f"error: {option} must be at least 0, got -3\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code", [
    (("--max-slack", "-1"), 1),
    (("--budget", "1"), 2),
], ids=["bad-input", "search-budget"])
def test_a_refused_pipeline_leaves_no_output_directory(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert run(capsys, "pipeline", "--builtin", "petersen", *argv, "--outdir", str(out))[0] == code
    assert not out.exists()


def test_a_pipeline_whose_schedule_gives_up_still_writes_its_factorization(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(capsys, "pipeline", "--builtin", "petersen", "--schedule-budget", "0", "--outdir", str(out))
    assert (code, err) == (2, "exact scheduling gave up (budget) after 0 nodes\n")
    assert [p.name for p in out.iterdir()] == ["factorization.json"]


def test_a_schedule_of_a_factorization_that_gives_up_writes_nothing(tmp_path, capsys):
    fact, csv_path = tmp_path / "fact.json", tmp_path / "sched.csv"
    fact.write_text(json.dumps(run_json(capsys, "factorize", "--builtin", "petersen", "--search")))
    code, stdout, err = run(capsys, "schedule", "--builtin", "petersen", "--factorization", str(fact),
                            "--budget", "0", "--csv", str(csv_path))
    assert (code, stdout, err) == (2, "", "exact scheduling gave up (budget) after 0 nodes\n")
    assert not csv_path.exists()


def test_pipeline_z7(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "pipeline", "--builtin", "z7-124", "--outdir", str(out))
    assert code == 0
    assert stdout.strip().splitlines()[-1] == "tau=3 theta=3 psi_W=3 optimal=true"
    produced = {p.name for p in out.iterdir()}
    assert {"words.json", "schedule.csv", "schedule.json", "trace.csv", "verdict.json"} <= produced
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["tau"] == verdict["theta"] == verdict["psi_W"] == 3
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "time,src,dst,gen,packet_src,packet_dst"
    assert len(trace_lines) == 1 + 9 * 7  # every word letter crosses once per shift


def reference_trace_csv(host, schedule_csv):
    """trace.csv as csv.writer renders reference_replay's rows for the plan in a schedule CSV."""
    letters = {}
    with open(schedule_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            letters.setdefault(int(row["word_target"]), []).append(
                (int(row["position"]), int(row["factor"]), int(row["time"])))
    paths = []
    for base in range(host.vertex_count):
        for target in sorted(letters):
            v, tails = base, []
            _, ports, times = zip(*sorted(letters[target]))
            for j in ports:
                tails.append(v)
                v = host.out[v][j]
            paths.append((base, v, tuple(tails), ports, times))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "src", "dst", "gen", "packet_src", "packet_dst"])
    writer.writerows(reference_replay(host, paths)[4])
    return buf.getvalue()


@pytest.mark.parametrize("name", ["q3", "z7-124"])
def test_pipeline_trace_csv_matches_the_reference_replay(tmp_path, capsys, name):
    code, _, err = run(capsys, "pipeline", "--builtin", name, "--outdir", str(tmp_path))
    assert code == 0, err
    expected = reference_trace_csv(fixtures.builtin_graph(name), tmp_path / "schedule.csv")
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == expected


def test_simulate_trace_csv_over_factors_matches_the_reference_replay(tmp_path, capsys):
    fact, sched, trace = tmp_path / "fact.json", tmp_path / "sched.csv", tmp_path / "trace.csv"
    doc = run_json(capsys, "factorize", "--builtin", "petersen", "--search")
    fact.write_text(json.dumps(doc))
    run_json(capsys, "schedule", "--builtin", "petersen", "--factorization", str(fact), "--csv", str(sched))
    run_json(capsys, "simulate", "--builtin", "petersen", "--factorization", str(fact),
             "--schedule", str(sched), "--trace", str(trace))
    # out-position j of the replayed host is factor j
    host = Digraph(out=tuple(tuple(f[v] for f in doc["factors"]) for v in range(doc["n"])))
    assert trace.read_text(encoding="utf-8") == reference_trace_csv(host, sched)

def hypercube_spec(path, k):
    gens = [[int(i == j) for i in range(k)] for j in range(k)]
    path.write_text(json.dumps({"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2}] * k},
                                "generators": gens}))
    return str(path)


def z8_z2_spec(path):
    """Z8 x Z2 with generators (5, 0) and (1, 1): theta = psi_W = 32, but greedy needs 33 slots forward and mirrored."""
    path.write_text(json.dumps({"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 8},
                                                                         {"kind": "cyclic", "modulus": 2}]},
                                "generators": [[5, 0], [1, 1]]}))
    return str(path)


def torus_digraph(n):
    """The n x n torus without its group: vertex n*x + y steps to x+1, x-1, y+1, y-1 at out-positions 0..3."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    return Digraph(out=tuple(tuple((x + dx) % n * n + (y + dy) % n for dx, dy in steps)
                             for x in range(n) for y in range(n)))


def hypercube_digraph(k):
    """Q_k without its group: out-position j of u flips bit j."""
    return Digraph(out=tuple(tuple(u ^ (1 << j) for j in range(k)) for u in range(1 << k)))


def digraph_spec(path, g):
    """g as a raw-digraph spec file, its arcs in (u, j) order so that out-position j stays j."""
    arcs = [[u, v] for u, heads in enumerate(g.out) for v in heads]
    path.write_text(json.dumps({"digraph": {"n": g.vertex_count, "arcs": arcs}}))
    return str(path)


def schedule_csv_words(path):
    words = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            words.setdefault(int(row["word_target"]), []).append(int(row["factor"]))
    return words


def test_pipeline_colours_q6_to_theta(tmp_path, capsys):
    # the job-shop search gives up on Q6 within this budget; the open shop needs none
    spec = hypercube_spec(tmp_path / "q6.json", 6)
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--outdir", str(tmp_path / "out"),
                            "--schedule-budget", "200000")
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=32 theta=32 psi_W=32 optimal=true"


def test_pipeline_words_artifact_holds_the_scheduled_letter_order(tmp_path, capsys):
    spec = z8_z2_spec(tmp_path / "z8z2.json")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--outdir", str(out))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=32 theta=32 psi_W=32 optimal=true"
    words = {int(k): w for k, w in json.loads((out / "words.json").read_text())["words"].items()}
    assert words == schedule_csv_words(out / "schedule.csv")
    chosen = {int(k): w for k, w in run_json(capsys, "words", "--spec", spec)["words"].items()}
    assert words != chosen  # the open shop moved letters, and the artifact followed


def test_pipeline_factorization_artifact_holds_the_scheduled_letter_order(tmp_path, capsys):
    # a raw digraph takes the search route, here to factors whose letters commute and that greedy cannot fit
    spec = digraph_spec(tmp_path / "torus5.json", torus_digraph(5))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--outdir", str(out))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=15 theta=15 psi_W=15 optimal=true"
    listed = json.loads((out / "factorization.json").read_text())["words"]
    assert {i: w for i, w in enumerate(listed) if w} == schedule_csv_words(out / "schedule.csv")
    assert listed != run_json(capsys, "factorize", "--spec", spec, "--search")["words"]
    verdict = run_json(capsys, "simulate", "--spec", spec, "--factorization", str(out / "factorization.json"),
                       "--schedule", str(out / "schedule.csv"))
    assert verdict == {"tau": 15, "conflicts": 0, "undelivered": 0, "theta": 15, "optimal": True}


def test_schedule_reorders_words_without_rewriting_its_input(tmp_path, capsys):
    spec = z8_z2_spec(tmp_path / "z8z2.json")
    words, sched = tmp_path / "words.json", tmp_path / "sched.csv"
    words.write_text(json.dumps(run_json(capsys, "words", "--spec", spec)))
    before = words.read_text()
    doc = run_json(capsys, "schedule", "--spec", spec, "--words", str(words), "--csv", str(sched))
    assert doc["makespan"] == 32
    assert words.read_text() == before
    given = {int(k): w for k, w in json.loads(before)["words"].items()}
    scheduled = schedule_csv_words(sched)
    assert scheduled != given
    assert {k: sorted(w) for k, w in scheduled.items()} == {k: sorted(w) for k, w in given.items()}
    verdict = run_json(capsys, "simulate", "--spec", spec, "--schedule", str(sched))
    assert verdict == {"tau": 32, "conflicts": 0, "undelivered": 0, "theta": 32, "optimal": True}


def test_greedy_pipeline_meets_theta_on_q8(tmp_path, capsys):
    # forward, greedy needs 138 slots on Q8; the mirrored pass meets theta = 128
    spec = hypercube_spec(tmp_path / "q8.json", 8)
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--method", "greedy", "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=128 theta=128 psi_W=128 optimal=true"


def test_greedy_schedules_q7_factors_at_theta_in_their_letter_order(tmp_path, capsys):
    spec = hypercube_spec(tmp_path / "q7.json", 7)
    fact, sched = tmp_path / "factorization.json", tmp_path / "schedule.csv"
    fact.write_text(json.dumps(run_json(capsys, "factorize", "--spec", spec)))
    doc = run_json(capsys, "schedule", "--spec", spec, "--factorization", str(fact), "--method", "greedy",
                   "--csv", str(sched))
    assert doc["makespan"] == 64
    listed = json.loads(fact.read_text())["words"]
    assert schedule_csv_words(sched) == {i: w for i, w in enumerate(listed) if w}
    verdict = run_json(capsys, "simulate", "--spec", spec, "--factorization", str(fact), "--schedule", str(sched))
    assert verdict == {"tau": 64, "conflicts": 0, "undelivered": 0, "theta": 64, "optimal": True}


def bfs_words_doc(g):
    """A words artifact: breadth-first words from vertex 0 over g's out-positions."""
    words = {0: []}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for j, v in enumerate(g.out[u]):
            if v not in words:
                words[v] = words[u] + [j]
                queue.append(v)
    return {"words": {str(v): w for v, w in words.items() if v}}


@pytest.mark.parametrize("name,code,verdict", [
    ("q4", 0, {"tau": 8, "conflicts": 0, "undelivered": 0, "theta": 8, "optimal": True}),
    ("kautz-2-2", 2, None),
])
def test_simulate_replays_a_raw_digraph_plan_on_the_graph(tmp_path, capsys, name, code, verdict):
    # without --factorization the graph is the host, as it was for schedule --words
    g = kautz(2, 2) if name == "kautz-2-2" else hypercube_digraph(4)
    spec = digraph_spec(tmp_path / "spec.json", g)
    words, sched = tmp_path / "words.json", tmp_path / "sched.csv"
    words.write_text(json.dumps(bfs_words_doc(g)))
    run_json(capsys, "schedule", "--spec", spec, "--words", str(words), "--csv", str(sched))
    got, out, err = run(capsys, "simulate", "--spec", spec, "--schedule", str(sched))
    assert got == code, err
    doc = json.loads(out)
    if verdict is not None:
        assert doc == verdict
    else:  # the same words from another base miss some vertices: the replay says so
        assert doc["undelivered"] > 0 and not doc["optimal"]


def test_schedule_on_a_raw_digraph_that_is_not_vertex_transitive(tmp_path, capsys):
    # vertex 0 is closer to the rest than the average vertex, so the all-pairs bound (8) exceeds theta (7)
    arcs = [[0, 1], [0, 4], [1, 5], [1, 6], [2, 0], [2, 3], [3, 2], [3, 4],
            [4, 2], [4, 7], [5, 6], [5, 7], [6, 0], [6, 3], [7, 1], [7, 5]]
    spec, words = tmp_path / "spec.json", tmp_path / "words.json"
    spec.write_text(json.dumps({"digraph": {"n": 8, "arcs": arcs}}))
    words.write_text(json.dumps({"words": {"1": [0], "4": [1], "5": [0, 0], "6": [0, 1], "2": [1, 0],
                                           "7": [1, 1], "3": [0, 1, 1]}}))
    doc = run_json(capsys, "schedule", "--spec", str(spec), "--words", str(words))
    assert doc["makespan"] == 7
    assert doc["bounds"]["theta"] == 7
    assert doc["flags"] == {"balanced": True, "short": True, "optimal": True, "minimum": True}


@pytest.mark.parametrize("argv", [
    ("words", "--builtin", "q3", "--mode", "load-balanced"),
    ("factorize", "--builtin", "q3", "--mode", "load-balanced"),
    ("schedule", "--builtin", "q3", "--mode", "load-balanced"),
    ("pipeline", "--builtin", "q3", "--mode", "load-balanced", "--outdir", "{out}"),
    ("pipeline", "--builtin", "q3", "--search", "--outdir", "{out}"),
], ids=["words-mode", "factorize-mode", "schedule-mode", "pipeline-mode", "pipeline-search"])
def test_removed_route_options_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, _, err = run(capsys, *(a.replace("{out}", str(out)) for a in argv))
    assert code == 1
    assert "unrecognized arguments: " in err
    assert not out.exists()


def test_pipeline_petersen_takes_factor_route(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "pipeline", "--builtin", "petersen", "--outdir", str(out))
    assert code == 0
    assert "tau=5 theta=5" in stdout
    assert (out / "factorization.json").exists()
    assert not (out / "words.json").exists()


def test_pipeline_starved_search_fails_loudly(tmp_path, capsys):
    code, _, err = run(capsys, "pipeline", "--builtin", "petersen",
                       "--outdir", str(tmp_path / "x"), "--budget", "1")
    assert code == 2
    assert "budget" in err


def test_pipeline_reads_spec_file(tmp_path, capsys):
    spec = tmp_path / "z5.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 5}, "generators": [1, 2]}))
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "pipeline", "--spec", str(spec), "--outdir", str(out))
    assert code == 0
    assert stdout.strip().splitlines()[-1] == "tau=4 theta=3 psi_W=4 optimal=false"


def test_pipeline_exact_on_long_word_map(tmp_path, capsys):
    # 900 letters: the exact search must not nest a call per letter
    spec = tmp_path / "z100.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 100}, "generators": [1, 10]}))
    code, stdout, err = run(capsys, "pipeline", "--spec", str(spec), "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=450 theta=450 psi_W=450 optimal=true"


def torus_spec(path, m):
    """Z_m x Z_m with the four unit steps +-1 in each coordinate."""
    path.write_text(json.dumps({"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": m}] * 2},
                                "generators": [[1, 0], [m - 1, 0], [0, 1], [0, m - 1]]}))
    return str(path)


def star_spec(path, n):
    """star_n: S_n under the transpositions (1 i), as 0-based image arrays."""
    gens = [[i if p == 0 else 0 if p == i else p for p in range(n)] for i in range(1, n)]
    path.write_text(json.dumps({"group": {"kind": "permutation", "degree": n}, "generators": gens}))
    return str(path)


def test_pipeline_reaches_theta_on_the_16x16_torus(tmp_path, capsys):
    # the greedy words alone put 520 letters on the busiest generator; rerouted, they put 512
    spec = torus_spec(tmp_path / "torus16.json", 16)
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--method", "exact", "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=512 theta=512 psi_W=512 optimal=true"


@pytest.mark.parametrize("graph,theta", [("star6", 689), ("torus32", 4096)])
def test_words_exact_is_exact_at_theta_within_a_small_budget(tmp_path, capsys, graph, theta):
    # the greedy words alone sit at 690 and 4112, where even a 2M budget ends inexact
    spec = star_spec(tmp_path / "g.json", 6) if graph == "star6" else torus_spec(tmp_path / "g.json", 32)
    doc = run_json(capsys, "words", "--spec", spec, "--exact", "--budget", "1000")
    assert (doc["theta"], doc["psi_W"], doc["psi_exact"], doc["exact"]) == (theta, theta, theta, True)


def test_schedule_exact_on_long_word_map(tmp_path, capsys):
    spec = tmp_path / "z128.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 128}, "generators": [1, 16]}))
    doc = run_json(capsys, "schedule", "--spec", str(spec))
    assert doc["makespan"] == 960
    assert doc["bounds"]["theta"] == 704


def test_words_exact_on_long_cycle(tmp_path, capsys):
    # 1001 vertices deep: the exact word search must not nest a call per vertex
    spec = tmp_path / "z1002.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 1002}, "generators": [1, 1001]}))
    doc = run_json(capsys, "words", "--spec", str(spec), "--exact")
    assert doc["theta"] == 125501
    assert doc["psi_W"] == doc["psi_exact"] == 125751
    assert doc["exact"] is True


@pytest.mark.parametrize("modulus,jumps,psi", [
    (30, [1, 3], 135),
    (40, [1, 5, 8], 61),
    (128, [1, 16], 960),
    (402, [1, 201], 40200),
])
def test_words_exact_is_exact_above_theta_at_the_default_budget(tmp_path, capsys, modulus, jumps, psi):
    # listing every shortest word ran out of the budget on each; their letter counts are few
    spec = tmp_path / "z.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": modulus}, "generators": jumps}))
    doc = run_json(capsys, "words", "--spec", str(spec), "--exact")
    assert (doc["psi_W"], doc["psi_exact"], doc["exact"]) == (psi, psi, True)
    assert doc["theta"] < psi


def test_factorize_search_on_long_cycle(tmp_path, capsys):
    # 1200 tails: enumerating a 1-factor must not nest a call per vertex
    spec = tmp_path / "cycle.json"
    spec.write_text(json.dumps({"digraph": {"n": 1200, "arcs": [[i, (i + 1) % 1200] for i in range(1200)]}}))
    code, _, err = run(capsys, "factorize", "--spec", str(spec), "--search", "--budget", "50")
    assert code == 2
    assert "no spanning factorization found (budget)" in err


def test_simulate_refuses_non_spanning_factorization(tmp_path, capsys):
    # words 1 and 2 both end one step along the ring, from every base
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps({"n": 4, "d": 1, "factors": [[1, 2, 3, 0]],
                                "words": [[], [0], [0, 0, 0, 0, 0], [0, 0, 0]]}))
    csv = tmp_path / "sched.csv"
    run_json(capsys, "schedule", "--builtin", "c4", "--factorization", str(fact), "--csv", str(csv))
    code, _, err = run(capsys, "simulate", "--builtin", "c4", "--schedule", str(csv),
                       "--factorization", str(fact))
    assert code == 1
    assert "refusing to expand an unverified factorization" in err


@pytest.mark.parametrize("command", ["schedule", "simulate"])
@pytest.mark.parametrize("field,entry,value", [
    pytest.param("words", (0,), 5, id="word-not-a-list"),
    pytest.param("words", (1, 0), "a", id="letter-not-an-integer"),
    pytest.param("factors", (0,), 5, id="factor-not-a-list"),
    pytest.param("factors", (0, None), 1.5, id="vertex-int-would-truncate-to-1"),
    pytest.param("factors", (0, None), True, id="vertex-a-boolean"),
    pytest.param("words", (1, 0), True, id="letter-a-boolean"),
])
def test_malformed_factorization_artifacts_are_input_errors(tmp_path, capsys, command, field, entry, value):
    doc = run_json(capsys, "factorize", "--builtin", "q3")
    good, bad, sched = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "sched.csv"
    good.write_text(json.dumps(doc))
    run_json(capsys, "schedule", "--builtin", "q3", "--factorization", str(good), "--csv", str(sched))
    *outer, last = entry
    target = doc[field]
    for i in outer:
        target = target[i]
    target[target.index(1) if last is None else last] = value
    bad.write_text(json.dumps(doc))
    extra = ["--schedule", str(sched)] if command == "simulate" else []
    code, _, err = run(capsys, command, "--builtin", "q3", "--factorization", str(bad), *extra)
    assert code == 1
    assert err.startswith(f"error: {bad}: '{field}' entry ")


def test_simulate_replays_a_double_booked_schedule(tmp_path, capsys):
    sched, bad, trace = tmp_path / "sched.csv", tmp_path / "bad.csv", tmp_path / "trace.csv"
    run_json(capsys, "schedule", "--builtin", "q3", "--csv", str(sched))
    with open(sched, encoding="utf-8", newline="") as fh:
        rows = [[int(x) for x in row] for row in list(csv.reader(fh))[1:]]
    slots = {}
    for target, pos, _, time in rows:
        slots.setdefault(target, {})[pos] = time
    # move one letter onto the slot of another word's letter over the same factor, keeping its word's slots rising
    moved = next(
        (row, other[3]) for row in rows for other in rows
        if other[0] != row[0] and other[2] == row[2] and other[3] != row[3]
        and slots[row[0]].get(row[1] - 1, 0) < other[3] < slots[row[0]].get(row[1] + 1, other[3] + 1)
    )
    moved[0][3] = moved[1]
    bad.write_text("word_target,position,factor,time\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    code, out, err = run(capsys, "simulate", "--builtin", "q3", "--schedule", str(bad), "--trace", str(trace))
    assert code == 2, err
    assert json.loads(out)["conflicts"] >= 1
    assert trace.read_text().startswith("time,src,dst,gen,packet_src,packet_dst\n")


@pytest.mark.parametrize("plan,code", [("clean", 0), ("double-booked", 2), ("undelivered", 2)])
def test_simulate_gives_the_same_verdict_with_and_without_a_trace(tmp_path, capsys, plan, code):
    sched, bad = tmp_path / "sched.csv", tmp_path / "bad.csv"
    run_json(capsys, "schedule", "--builtin", "q3", "--csv", str(sched))
    header, *rows = [line.split(",") for line in sched.read_text().splitlines()]
    if plan == "double-booked":  # a one-letter word moves onto the slot of another word's letter over its factor
        lone = next(r for r in rows if [x[0] for x in rows].count(r[0]) == 1)
        lone[3] = next(r[3] for r in rows if r[0] != lone[0] and r[2] == lone[2])
    elif plan == "undelivered":
        rows = [r for r in rows if r[0] != rows[-1][0]]
    bad.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
    runs = []
    for extra in ([], ["--trace", str(tmp_path / "trace.csv")]):
        verdict = tmp_path / f"verdict{len(runs)}.json"
        got, _, err = run(capsys, "simulate", "--builtin", "q3", "--schedule", str(bad), "--out", str(verdict), *extra)
        runs.append((got, verdict.read_bytes()))
    assert runs[0] == runs[1] and runs[0][0] == code
    doc = json.loads(runs[0][1])
    assert (doc["conflicts"] > 0, doc["undelivered"] > 0) == (plan == "double-booked", plan == "undelivered")


def plan_files(tmp_path, capsys, name):
    """(schedule CSV, extra simulate arguments) of a builtin's plan: petersen over factors, others over generators."""
    sched = tmp_path / "sched.csv"
    if name != "petersen":
        run_json(capsys, "schedule", "--builtin", name, "--csv", str(sched))
        return sched, []
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(run_json(capsys, "factorize", "--builtin", name, "--search")))
    run_json(capsys, "schedule", "--builtin", name, "--factorization", str(fact), "--csv", str(sched))
    return sched, ["--factorization", str(fact)]


def trace_rows_per_letter(trace_csv, schedule_csv, vertex_count):
    """trace.csv's data rows against P times the schedule's letters, one schedule row each."""
    letters = len(schedule_csv.read_text().splitlines()) - 1
    return len(trace_csv.read_text().splitlines()) - 1, vertex_count * letters


@pytest.mark.parametrize("name", ["q3", "z7-124", "petersen"])
def test_every_trace_holds_one_row_per_base_and_letter(tmp_path, capsys, name):
    n = fixtures.builtin_graph(name).vertex_count
    code, _, err = run(capsys, "pipeline", "--builtin", name, "--outdir", str(tmp_path / "out"))
    assert code == 0, err
    rows, expected = trace_rows_per_letter(tmp_path / "out" / "trace.csv", tmp_path / "out" / "schedule.csv", n)
    assert rows == expected
    sched, extra = plan_files(tmp_path, capsys, name)
    trace = tmp_path / "trace.csv"
    run_json(capsys, "simulate", "--builtin", name, "--schedule", str(sched), *extra, "--trace", str(trace))
    rows, expected = trace_rows_per_letter(trace, sched, n)
    assert rows == expected


def test_simulate_leaves_no_trace_of_a_broken_route(tmp_path, capsys):
    sched, bad, trace = tmp_path / "sched.csv", tmp_path / "bad.csv", tmp_path / "trace.csv"
    run_json(capsys, "schedule", "--builtin", "q3", "--csv", str(sched))
    rows = sched.read_text().splitlines()
    word = next(r.split(",")[0] for r in rows[1:] if r.split(",")[1] == "1")
    # the word's second letter takes its first letter's slot: no route runs back in time
    first = next(r for r in rows[1:] if r.startswith(f"{word},0,"))
    rows = [r if not r.startswith(f"{word},1,") else ",".join(r.split(",")[:3] + first.split(",")[3:])
            for r in rows]
    bad.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "simulate", "--builtin", "q3", "--schedule", str(bad), "--trace", str(trace))
    assert code == 1
    assert "back in time" in err and "Traceback" not in err
    assert not trace.exists()


def test_simulate_refuses_schedule_rows_off_the_factorization(tmp_path, capsys):
    fact, sched, trace = tmp_path / "fact.json", tmp_path / "sched.csv", tmp_path / "trace.csv"
    fact.write_text(json.dumps(run_json(capsys, "factorize", "--builtin", "q3")))
    run_json(capsys, "schedule", "--builtin", "q3", "--factorization", str(fact), "--csv", str(sched))
    with open(sched, "a", encoding="utf-8") as fh:
        fh.write("99,0,0,9\n")  # a word keyed past the graph's 8 vertices
    code, _, err = run(capsys, "simulate", "--builtin", "q3", "--schedule", str(sched),
                       "--factorization", str(fact), "--trace", str(trace))
    assert code == 1
    assert err == f"error: {sched}: word key 99 is not a vertex of the 8-vertex graph\n"
    assert not trace.exists()


def factorization_with_n_off(capsys, which):
    """A q3 artifact whose 'n' says 7, keeping its first 7 words, or z7-124's artifact, each read against q3."""
    if which == "q3-n7":
        doc = run_json(capsys, "factorize", "--builtin", "q3")
        doc["n"], doc["words"] = 7, doc["words"][:7]
        return doc
    return run_json(capsys, "factorize", "--builtin", "z7-124")


@pytest.mark.parametrize("command", ["schedule", "simulate"])
@pytest.mark.parametrize("which", ["q3-n7", "z7-124"])
def test_factorization_for_another_vertex_count_is_refused(tmp_path, capsys, command, which):
    good, bad, sched = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "sched.csv"
    good.write_text(json.dumps(run_json(capsys, "factorize", "--builtin", "q3")))
    run_json(capsys, "schedule", "--builtin", "q3", "--factorization", str(good), "--csv", str(sched))
    bad.write_text(json.dumps(factorization_with_n_off(capsys, which)))
    extra = ["--schedule", str(sched)] if command == "simulate" else []
    code, _, err = run(capsys, command, "--builtin", "q3", "--factorization", str(bad), *extra)
    assert code == 1
    assert err.startswith(f"error: {bad}: 'n' ")


def test_factorization_loader_round_trips_and_validates():
    factors = [[1, 2, 0], [2, 0, 1]]
    g = factor_digraph(factors)
    doc = {"n": 3, "d": 2, "factors": factors, "words": [[], [0], [1]]}
    assert _parse_factorization_doc(doc, "f.json", g) == (((1, 2, 0), (2, 0, 1)), [(), (0,), (1,)])
    with pytest.raises(InputError, match=r"^f\.json: 'factors': factor 0 is not a bijection"):
        _parse_factorization_doc({**doc, "d": 1, "factors": [[1, 1, 0]]}, "f.json", g)
    with pytest.raises(InputError, match=r"^f\.json: 'factors': "):
        _parse_factorization_doc({**doc, "d": 0, "factors": []}, "f.json", g)


def factorization_off_the_graph(tmp_path, capsys, which):
    """An artifact with q3's vertex count and degree that does not factorize q3, or whose words leave 0..d-1."""
    if which == "z8-124":
        spec = tmp_path / "z8.json"
        spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 8}, "generators": [1, 2, 4]}))
        return run_json(capsys, "factorize", "--spec", str(spec))
    doc = run_json(capsys, "factorize", "--builtin", "q3")
    if which == "not-a-bijection":
        doc["factors"][0][0] = doc["factors"][0][1]
    elif which == "no-factors":
        doc["d"], doc["factors"] = 0, []
    else:
        doc["words"][1] = [7]
    return doc


@pytest.mark.parametrize("command", ["schedule", "simulate"])
@pytest.mark.parametrize("which", ["z8-124", "not-a-bijection", "no-factors", "letter-7"])
def test_factorization_off_the_graph_is_refused(tmp_path, capsys, command, which):
    good, bad, sched, out = (tmp_path / name for name in ("good.json", "bad.json", "sched.csv", "out.csv"))
    good.write_text(json.dumps(run_json(capsys, "factorize", "--builtin", "q3")))
    run_json(capsys, "schedule", "--builtin", "q3", "--factorization", str(good), "--csv", str(sched))
    bad.write_text(json.dumps(factorization_off_the_graph(tmp_path, capsys, which)))
    extra = ["--schedule", str(sched), "--trace", str(out)] if command == "simulate" else ["--csv", str(out)]
    code, _, err = run(capsys, command, "--builtin", "q3", "--factorization", str(bad), *extra)
    assert code == 1
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("words,reason", [
    ({"1": [0]}, "missing [2, 3, 4, 5, 6, 7], extra []"),
    ({"1": [0], "99": [0]}, "missing [2, 3, 4, 5, 6, 7], extra [99]"),
    ({"1": [0, 0, 0]}, "missing [2, 3, 4, 5, 6, 7], extra []"),
    (None, "word (1,) for vertex 1 ends at vertex 2"),
], ids=["words0", "words1", "words2", "None"])
def test_words_off_the_graph_are_refused(tmp_path, capsys, words, reason):
    doc, sched = tmp_path / "words.json", tmp_path / "sched.csv"
    if words is None:  # every vertex keyed, but vertex 1's word walks to vertex 2
        words = run_json(capsys, "words", "--builtin", "q3")["words"]
        words["1"] = words["2"]
    doc.write_text(json.dumps({"words": words}))
    code, _, err = run(capsys, "schedule", "--builtin", "q3", "--words", str(doc), "--csv", str(sched))
    assert code == 1
    assert err.startswith(f"error: {doc}: ") and "Traceback" not in err
    assert err.rstrip("\n").endswith(reason)
    assert not sched.exists()


def test_a_boolean_letter_in_a_words_artifact_is_refused(tmp_path, capsys):
    # json reads false as a bool, an int to isinstance, which would reach schedule.csv as "False"
    doc, sched = tmp_path / "words.json", tmp_path / "sched.csv"
    words = run_json(capsys, "words", "--builtin", "c4")
    words["words"]["1"] = [False]
    doc.write_text(json.dumps(words))
    code, stdout, err = run(capsys, "schedule", "--builtin", "c4", "--words", str(doc), "--csv", str(sched))
    assert (code, stdout) == (1, "")
    assert err == f"error: {doc}: word for vertex 1 must be a list of generator indices\n"
    assert not sched.exists()


@pytest.mark.parametrize("doc,message", [
    ({"n": True, "d": 1, "factors": [[0]], "words": [[]]}, "'n' is True, the graph has 1 vertices"),
    ({"n": 1, "d": True, "factors": [[0]], "words": [[]]}, "'d' must be an integer, got True"),
], ids=["n", "d"])
def test_a_boolean_count_in_a_factorization_artifact_is_refused(tmp_path, capsys, doc, message):
    # one vertex with a loop, where n = 1 and d = 1 would let true through
    spec, fact, sched = tmp_path / "one.json", tmp_path / "fact.json", tmp_path / "sched.csv"
    spec.write_text(json.dumps({"digraph": {"n": 1, "arcs": [[0, 0]]}}))
    fact.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "schedule", "--spec", str(spec), "--factorization", str(fact), "--csv", str(sched))
    assert (code, stdout, err) == (1, "", f"error: {fact}: {message}\n")
    assert not sched.exists()


@pytest.mark.parametrize("doc,message", [
    ({"group": {"kind": "cyclic", "modulus": 5}, "generators": [True, 2]},
     "$.generators[0]: cyclic element descriptor must be an int, got True"),
    ({"digraph": {"n": 3, "arcs": [[0, True], [True, 2], [2, False]]}},
     "$.digraph.arcs[0]: must be a [src, dst] integer pair, got [0, True]"),
    ({"digraph": {"n": True, "arcs": [[0, 0]]}}, "$.digraph: vertex count must be a positive integer, got True"),
    ({"group": {"kind": "permutation", "degree": True}, "generators": [[0]]},
     "$.group: permutation degree must be an integer >= 1, got True"),
    ({"group": {"kind": "permutation", "degree": 3}, "generators": [[True, 2, False]]},
     "$.generators[0]: (True, 2, False) is not a permutation of 3 points"),
    ({"group": {"kind": "cyclic", "modulus": 4}, "generators": [1], "subgroup": [False, 2]},
     "$.subgroup[0]: cyclic element descriptor must be an int, got False"),
], ids=["cyclic-generator", "digraph-arcs", "digraph-n", "permutation-degree", "permutation-image", "subgroup"])
def test_a_boolean_in_a_spec_is_refused(tmp_path, capsys, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert run(capsys, "bounds", "--spec", str(spec)) == (1, "", f"error: {message}\n")


NOT_CONNECTED = "error: not connected: 2 of 4 vertices are unreachable from vertex 0\n"
# (exit code, stderr) of each command on two 2-cycles, where vertex 0 reaches only vertex 1
ON_TWO_ISLANDS = {
    ("bounds",): (1, NOT_CONNECTED),
    ("pipeline", "--outdir", "{out}"): (1, NOT_CONNECTED),
    ("factorize", "--search"): (1, NOT_CONNECTED),
    ("factorize",): (0, ""),  # splitting the arcs into 1-factors needs no distances
    ("words",): (1, "error: word sets need a group-form spec, not a raw digraph\n"),
}


@pytest.mark.parametrize("argv", list(ON_TWO_ISLANDS))
def test_digraph_without_arcs_is_an_input_error(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    command = [argv[0], "--spec", str(spec), *(a.replace("{out}", str(tmp_path / "out")) for a in argv[1:])]
    spec.write_text(json.dumps({"digraph": {"n": 1, "arcs": []}}))
    code, _, err = run(capsys, *command)
    assert code == 1
    assert err.startswith("error: $.digraph.arcs: ") and "Traceback" not in err
    # a digraph whose vertex 0 cannot reach every vertex is refused only where distances are needed
    spec.write_text(json.dumps({"digraph": {"n": 4, "arcs": [[0, 1], [1, 0], [2, 3], [3, 2]]}}))
    assert run(capsys, *command)[::2] == ON_TWO_ISLANDS[argv]
    assert not (tmp_path / "out").exists()


def test_each_command_runs_the_bfs_from_vertex_0_at_most_once(tmp_path, monkeypatch, capsys):
    # layer_profile keeps the base's distances, and every stage that needs them takes the profile;
    # the word set is built at most once too
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"digraph": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}}))
    words, fact, sched, out = (str(tmp_path / name) for name in ("words.json", "fact.json", "sched.csv", "out"))
    commands = [
        ("bounds", "--builtin", "q3"),
        ("bounds", "--builtin", "petersen"),
        ("bounds", "--spec", str(ring)),  # the diameter takes a BFS from each other vertex too
        ("words", "--builtin", "z5-12", "--out", words),
        ("words", "--builtin", "q3", "--exact"),
        ("words", "--builtin", "z5-12", "--exact"),
        ("factorize", "--builtin", "q3"),
        ("factorize", "--builtin", "petersen", "--search", "--out", fact),
        ("schedule", "--builtin", "q3"),
        ("schedule", "--builtin", "z5-12", "--words", words),
        ("schedule", "--builtin", "petersen", "--factorization", fact, "--csv", sched),
        ("simulate", "--builtin", "petersen", "--factorization", fact, "--schedule", sched),
        ("pipeline", "--builtin", "q3", "--outdir", out),
        ("pipeline", "--builtin", "z5-12", "--method", "greedy", "--outdir", out),
        ("pipeline", "--builtin", "petersen", "--outdir", out),
        ("factorize", "--spec", str(ring)),
        ("words", "--spec", str(ring)),
        ("words", "--builtin", "petersen"),
    ]
    bfs, word_set = layers._bfs_distances, words_module.bfs_word_set
    seen = []
    for argv in commands:
        bases, word_sets = [], []
        with monkeypatch.context() as patch:
            patch.setattr(layers, "_bfs_distances", lambda g, base: bases.append(base) or bfs(g, base))
            counted = lambda g, profile: word_sets.append(g) or word_set(g, profile)  # noqa: E731
            patch.setattr(factorization_module, "bfs_word_set", counted)
            patch.setattr(cli, "bfs_word_set", counted)
            code = run(capsys, *argv)[0]
        seen.append((argv, code, bases.count(0), len(word_sets)))
    # a word set is built once wherever the generators route, and `words --exact` seeds its search with it
    word_sets = [0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0]
    expected = [(argv, 0, 1, built) for argv, built in zip(commands[:-3], word_sets, strict=True)]
    # a 1-factorization needs no distances, and word sets are refused before any BFS
    expected += [(commands[-3], 0, 0, 0), (commands[-2], 1, 0, 0), (commands[-1], 1, 0, 0)]
    assert seen == expected


# each output flag, with the command line around it; {bad} is the path that cannot be written
OUTPUT_FLAGS = {
    "bounds-out": ("bounds", "--builtin", "q3", "--out", "{bad}"),
    "bounds-adjacency": ("bounds", "--builtin", "q3", "--adjacency", "{bad}"),
    "words-out": ("words", "--builtin", "q3", "--out", "{bad}"),
    "factorize-out": ("factorize", "--builtin", "q3", "--out", "{bad}"),
    "schedule-csv": ("schedule", "--builtin", "q3", "--csv", "{bad}"),
    "schedule-out": ("schedule", "--builtin", "q3", "--out", "{bad}"),
    "simulate-trace": ("simulate", "--builtin", "q3", "--schedule", "{sched}", "--trace", "{bad}"),
    "simulate-out": ("simulate", "--builtin", "q3", "--schedule", "{sched}", "--out", "{bad}"),
    "pipeline-outdir": ("pipeline", "--builtin", "q3", "--outdir", "{bad}"),
    "compare-ranking": ("compare", "{a}", "{b}", "--gamma-max", "40000", "--ranking", "{bad}"),
    "compare-out": ("compare", "{a}", "{b}", "--gamma-max", "40000", "--out", "{bad}"),
}


@pytest.mark.parametrize("flag", sorted(OUTPUT_FLAGS))
def test_unwritable_output_is_an_error_naming_its_path(tmp_path, capsys, flag):
    sched = tmp_path / "q3.csv"
    run_json(capsys, "schedule", "--builtin", "q3", "--csv", str(sched))
    # an output directory that is a file cannot be made; a file in a missing directory cannot be opened
    bad = tmp_path / "taken" if flag == "pipeline-outdir" else tmp_path / "nodir" / "f"
    (tmp_path / "taken").write_text("")
    fill = {"{bad}": str(bad), "{sched}": str(sched),
            "{a}": write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64),
            "{b}": write_network(tmp_path / "b.json", P=1024, d=10, D=5, rho=64)}
    code, _, err = run(capsys, *(fill.get(a, a) for a in OUTPUT_FLAGS[flag]))
    assert code == 1
    assert err.startswith(f"error: cannot write {bad}: ") and "Traceback" not in err


def write_network(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def test_compare_verdict_and_csv(tmp_path, capsys):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64)
    b = write_network(tmp_path / "b.json", P=1024, d=10, D=5, rho=64)
    csv = tmp_path / "rank.csv"
    doc = run_json(capsys, "compare", a, b, "--gamma-max", "40000",
                   "--matrix-dim", "256", "--iterations", "4", "--ranking", str(csv))
    assert doc["winner"] == "a"
    assert doc["ranking"] == ["a", "b"]
    assert doc["eliminated"] == []
    lines = csv.read_text().splitlines()
    assert lines[0] == "rank,name,P,d,D,wire_cost,compute,exchange,total"
    assert lines[1].startswith("1,a,4096,8,6,32768,")


def test_compare_all_eliminated(tmp_path, capsys):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64)
    b = write_network(tmp_path / "b.json", P=1024, d=10, D=5, rho=64)
    code, _, err = run(capsys, "compare", a, b, "--gamma-max", "2",
                       "--matrix-dim", "16", "--iterations", "1")
    assert code == 2
    assert "budget" in err


def test_compare_needs_two_files(tmp_path, capsys):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64)
    code, _, err = run(capsys, "compare", a, "--gamma-max", "10",
                       "--matrix-dim", "16", "--iterations", "1")
    assert (code, err) == (1, "error: need at least two networks to compare, got 1\n")


def test_spec_file_errors_carry_location(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"group": {"kind": "cyclic", "modulus": 5}, ')
    code, _, err = run(capsys, "bounds", "--spec", str(broken))
    assert code == 1
    assert "broken.json:1:" in err
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 5}}))
    code, _, err = run(capsys, "bounds", "--spec", str(wrong))
    assert code == 1
    assert "generators" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "bounds")[0] == 1  # no graph source
    assert run(capsys, "schedule", "--builtin", "nope")[0] == 1
    assert run(capsys, "bogus-subcommand")[0] == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "pipeline" in capsys.readouterr().out


def assert_two_space_layout(path):
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n", path


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS))
def test_every_json_artifact_keeps_the_two_space_layout(tmp_path, capsys, name):
    src = ("--builtin", name)
    runs = [("pipeline", *src, "--method", m, "--outdir", str(tmp_path / m)) for m in ("exact", "greedy")]
    runs += [(command, *src, "--out", str(tmp_path / f"{command}.json")) for command in ("bounds", "factorize")]
    if fixtures.builtin_graph(name).is_cayley:
        runs.append(("words", *src, "--out", str(tmp_path / "words.json")))
    else:
        runs.append(("factorize", *src, "--search", "--out", str(tmp_path / "search.json")))
    for argv in runs:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    artifacts = sorted(tmp_path.rglob("*.json"))
    assert len(artifacts) == 9
    for path in artifacts:
        assert_two_space_layout(path)


def test_compare_artifact_keeps_the_two_space_layout(tmp_path, capsys):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64, tau=2048)
    b = write_network(tmp_path / "b.json", P=1024, d=10, D=5, rho=64, tau=12.5)
    out = tmp_path / "verdict.json"
    code, _, err = run(capsys, "compare", a, b, "--gamma-max", "40000", "--matrix-dim", "256",
                       "--iterations", "4", "--measured", "--out", str(out))
    assert code == 0, err
    assert json.loads(out.read_text())["ranking"]
    assert_two_space_layout(out)
    code, _, _ = run(capsys, "compare", a, b, "--gamma-max", "2", "--matrix-dim", "16", "--iterations", "1",
                     "--out", str(out))
    assert code == 2 and json.loads(out.read_text())["eliminated"]
    assert_two_space_layout(out)


json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([-0.0, 1e300, float("inf")]), st.text(),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
)
json_docs = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(json_keys, kids, max_size=5), st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(doc=json_docs)
def test_dumps_writes_what_json_dumps_with_an_indent_writes(doc):
    assert _dumps(doc, "") + "\n" == json.dumps(doc, indent=2, default=_json_default) + "\n"


def test_dumps_refuses_what_json_dumps_refuses():
    for doc in ({(1, 2): 0}, {Fraction(1, 2): 0}, {"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError) as ours:
            _dumps(doc, "")
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, indent=2, default=_json_default)
        assert str(ours.value) == str(theirs.value)


def test_a_large_words_artifact_never_reaches_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "z1024.json"
    spec.write_text(json.dumps({"group": {"kind": "cyclic", "modulus": 1024}, "generators": [1, 32]}))

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):  # the guard bites where an indent is asked of json itself
        json.dumps({"words": [1]}, indent=2)
    out = tmp_path / "words.json"
    code, _, err = run(capsys, "words", "--spec", str(spec), "--out", str(out))
    assert code == 0, err
    assert len(json.loads(out.read_text())["words"]) == 1023


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def fresh_run(capsys, *argv):
    """run() through a parser built for this call alone, as a one-command process gets."""
    cli._parser.cache_clear()
    return run(capsys, *argv)


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_a_reused_parser_gives_pipeline_its_defaults_back(tmp_path, capsys):
    spec = z8_z2_spec(tmp_path / "z8z2.json")  # greedy needs 33 slots here, the exact default 32
    fresh = fresh_run(capsys, "pipeline", "--spec", spec, "--outdir", str(tmp_path / "fresh"))
    greedy = run(capsys, "pipeline", "--spec", spec, "--method", "greedy", "--outdir", str(tmp_path / "greedy"))
    again = run(capsys, "pipeline", "--spec", spec, "--outdir", str(tmp_path / "again"))
    assert fresh[0] == greedy[0] == 0
    assert greedy[1] != fresh[1] and files(tmp_path / "greedy") != files(tmp_path / "fresh")
    assert again == fresh
    assert files(tmp_path / "again") == files(tmp_path / "fresh")


def test_a_reused_parser_forgets_the_last_trace(tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    run_json(capsys, "schedule", "--builtin", "q3", "--csv", str(sched))
    trace = tmp_path / "trace.csv"
    run_json(capsys, "simulate", "--builtin", "q3", "--schedule", str(sched), "--trace", str(trace))
    trace.unlink()
    before = files(tmp_path)
    verdict = run_json(capsys, "simulate", "--builtin", "q3", "--schedule", str(sched))
    assert verdict["conflicts"] == 0
    assert files(tmp_path) == before


def test_a_valid_command_after_a_usage_error_and_help_runs_as_it_does_alone(capsys):
    alone = fresh_run(capsys, "bounds", "--builtin", "petersen")
    assert fresh_run(capsys, "bounds", "--builtin", "nope")[0] == 1
    code, out, _ = run(capsys, "pipeline", "--help")
    assert code == 0 and "--schedule-budget" in out
    assert run(capsys, "bounds", "--builtin", "petersen") == alone


def test_main_builds_the_parser_once_and_importing_builds_none(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for _ in range(4):
            assert run(capsys, "bounds", "--builtin", "c4")[0] == 0
        assert run(capsys, "bogus-subcommand")[0] == 1
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1

    spec = importlib.util.find_spec("alltoall.cli")
    fresh = importlib.util.module_from_spec(spec)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "build_parser" and frame.f_code.co_filename == spec.origin:
            calls.append(1)

    sys.setprofile(profile)
    try:
        spec.loader.exec_module(fresh)
    finally:
        sys.setprofile(None)
    assert calls == [] and fresh.main is not cli.main


# ---------------------------------------------------------------------------
# schedule.csv
# ---------------------------------------------------------------------------


def csv_module_schedule(path, word_map, sched):
    """schedule.csv as csv.writer writes it, one writerow per letter."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["word_target", "position", "factor", "time"])
        for target in sorted(sched.times):
            for pos, (j, t) in enumerate(zip(word_map[target], sched.times[target])):
                w.writerow([target, pos, j, t])


letter_rows = st.lists(st.tuples(st.integers(-3, 10**6), st.integers(-3, 10**9)), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(plan=st.dictionaries(st.integers(-5, 10**6), letter_rows, max_size=8))
def test_schedule_csv_is_what_the_csv_module_writes_and_reads_back(tmp_path_factory, plan):
    word_map = {k: tuple(j for j, _ in rows) for k, rows in plan.items()}
    sched = scheduling.Schedule(times={k: tuple(t for _, t in rows) for k, rows in plan.items()})
    base = tmp_path_factory.getbasetemp()
    ours, theirs = base / "ours.csv", base / "theirs.csv"
    _write_schedule_csv(str(ours), word_map, sched)
    csv_module_schedule(str(theirs), word_map, sched)
    assert ours.read_bytes() == theirs.read_bytes()
    assert _read_schedule_csv(str(ours)) == (word_map, sched)


@pytest.mark.parametrize("fields,measured,field", [
    ({"P": "8"}, False, "P"),
    ({"rho": None}, False, "rho"),
    ({"d": True}, False, "d"),
    ({"D": float("nan")}, False, "D"),
    ({"P": 10**400}, False, "P"),
    ({"tau": "x"}, True, "tau"),
    ({"tau": float("inf")}, True, "tau"),
    ({"name": ["x"]}, False, "name"),
])
def test_compare_refuses_malformed_descriptors(tmp_path, capsys, fields, measured, field):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64, tau=9)
    b = write_network(tmp_path / "b.json", **{"P": 1024, "d": 10, "D": 5, "rho": 64, "tau": 7, **fields})
    code, _, err = run(capsys, "compare", a, b, "--gamma-max", "40000", *(["--measured"] if measured else []))
    assert code == 1
    assert err.startswith(f"error: {b}: '{field}' must be ") and err.count("\n") == 1


def test_compare_reports_numbers_whose_products_leave_float_range(tmp_path, capsys):
    a = write_network(tmp_path / "a.json", P=4096, d=8, D=6, rho=64)
    b = write_network(tmp_path / "b.json", P=5e-324, d=5e-324, D=5, rho=64)  # P*d rounds to 0
    code, _, err = run(capsys, "compare", a, b, "--gamma-max", "40000")
    assert code == 1 and err.startswith("error: the networks' numbers leave floating-point range")


@pytest.mark.parametrize("a_fields,argv,message", [
    ({"P": 1e300, "d": 1e10, "D": 1, "rho": 64}, ["--gamma-max", "40000"], "network 'a': wire cost P*d is inf"),
    ({"P": 8, "d": 3, "D": 2, "rho": 4, "tau": 1e308}, ["--gamma-max", "40000", "--measured"],
     "network 'a': modelled time is inf"),
    ({"P": 8, "d": 3, "D": 2, "rho": 4}, ["--gamma-max", "nan"], "the wire budget gamma_max is NaN"),
])
def test_compare_refuses_a_number_no_standard_json_can_hold(tmp_path, capsys, a_fields, argv, message):
    a = write_network(tmp_path / "a.json", **a_fields)
    b = write_network(tmp_path / "b.json", P=8, d=3, D=2, rho=4, tau=5)
    ranking, verdict = tmp_path / "rank.csv", tmp_path / "verdict.json"
    code, out, err = run(capsys, "compare", a, b, *argv, "--ranking", str(ranking), "--out", str(verdict))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not ranking.exists() and not verdict.exists()


def test_an_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    huge = "9" * 5000
    a = tmp_path / "a.json"
    a.write_text('{"P": ' + huge + ', "d": 1, "D": 1, "rho": 1}')
    code, _, err = run(capsys, "compare", str(a), str(a), "--gamma-max", "10")
    assert code == 1 and err.startswith(f"error: {a}: ") and err.count("\n") == 1
    spec = tmp_path / "spec.json"
    spec.write_text('{"digraph": {"n": ' + huge + ', "arcs": [[0, 0]]}}')
    code, _, err = run(capsys, "bounds", "--spec", str(spec))
    assert code == 1 and err.startswith(f"error: {spec}: ") and err.count("\n") == 1


def test_a_digraph_with_fewer_arcs_than_vertices_is_refused_before_it_is_built(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"digraph": {"n": 10**12, "arcs": [[0, 1], [1, 0]]}}))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "bounds", "--spec", str(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == "error: $.digraph: 1000000000000 vertices need at least 1000000000000 arcs to be regular, got 2\n"
    assert peak < 2**20


def main_output(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main_outcome(argv):
    """(exit code, stderr) of main(argv), its stdout discarded."""
    code, _, err = main_output(argv)
    return code, err


def assert_no_traceback(code, err):
    """An exit 0, 1 or 2, and an exit 1 says why in exactly one `error:` line."""
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


any_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**400, 10**400), st.floats(), st.text()),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6,
)
descriptor_numbers = st.one_of(st.integers(1, 5000), st.floats(1e-3, 1e3), any_json)
descriptors = st.fixed_dictionaries({}, optional={
    "P": descriptor_numbers, "d": descriptor_numbers, "D": descriptor_numbers, "rho": descriptor_numbers,
    "tau": descriptor_numbers, "name": st.one_of(st.text(max_size=4), any_json),
})


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(descriptors, min_size=1, max_size=3), measured=st.booleans(),
       gamma=st.sampled_from(["2", "40000", "1e300"]))
def test_compare_ends_in_an_exit_code_on_any_descriptor(tmp_path_factory, docs, measured, gamma):
    base = tmp_path_factory.getbasetemp()
    paths = []
    for i, doc in enumerate(docs):
        path = base / f"network{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    argv = ["compare", *paths, "--gamma-max", gamma, "--out", str(base / "verdict.json")]
    assert_no_traceback(*main_outcome(argv + (["--measured"] if measured else [])))


arc_ends = st.one_of(st.integers(-2, 6), any_json)


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(-2, 8), st.integers(0, 10**12), any_json),
       arcs=st.one_of(st.lists(st.one_of(st.lists(arc_ends, max_size=3), any_json), max_size=6), any_json))
def test_bounds_ends_in_an_exit_code_on_any_digraph_spec(tmp_path_factory, n, arcs):
    spec = tmp_path_factory.getbasetemp() / "digraph.json"
    spec.write_text(json.dumps({"digraph": {"n": n, "arcs": arcs}}))
    assert_no_traceback(*main_outcome(["bounds", "--spec", str(spec)]))


def cyclic_descriptor(modulus):
    return {"kind": "cyclic", "modulus": modulus}


@st.composite
def random_specs(draw):
    """A spec document: a cyclic, product or small permutation group, or a union of permutations."""
    kind = draw(st.sampled_from(["cyclic", "product", "permutation", "digraph"]))
    if kind == "cyclic":
        m = draw(st.integers(2, 64))
        generators = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        return {"group": cyclic_descriptor(m), "generators": generators}
    if kind == "product":
        a, b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        pairs = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)).map(list)
        return {"group": {"kind": "product", "factors": [cyclic_descriptor(a), cyclic_descriptor(b)]},
                "generators": draw(st.lists(pairs, min_size=1, max_size=3))}
    if kind == "permutation":
        k = draw(st.integers(3, 4))
        doc = {"group": {"kind": "permutation", "degree": k},
               "generators": draw(st.lists(st.permutations(range(k)), min_size=1, max_size=3))}
        if draw(st.booleans()):  # cosets of a point stabilizer, whose edges may not be well defined
            doc["subgroup"] = [list(p) + [k - 1] for p in itertools.permutations(range(k - 1))]
        return doc
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    arcs = [[u, v] for _ in range(d) for u, v in enumerate(draw(st.permutations(range(n))))]
    return {"digraph": {"n": n, "arcs": arcs}}


def assert_one_line_or_a_clean_verdict(code, stdout, err, verdict_path=None):
    """Exit 1 or 2 with one stderr line (an exit 1 line starting `error:`), or exit 0 with a clean verdict."""
    if code != 0:
        assert code in (1, 2) and err.count("\n") == 1 and err.endswith("\n"), (code, err)
        assert code == 2 or err.startswith("error: "), err
        return
    if verdict_path is not None:
        verdict = json.loads(verdict_path.read_text())
        assert (verdict["conflicts"], verdict["undelivered"]) == (0, 0)
        assert verdict["theta"] <= verdict["psi_W"] <= verdict["tau"]
        assert stdout == (f"tau={verdict['tau']} theta={verdict['theta']} psi_W={verdict['psi_W']} "
                          f"optimal={str(verdict['optimal']).lower()}\n")


@settings(max_examples=300, deadline=None)
@given(doc=random_specs(), search=st.booleans())
def test_random_specs_end_in_a_clean_verdict_or_one_error_line(tmp_path_factory, doc, search):
    base = tmp_path_factory.mktemp("spec")
    spec = base / "spec.json"
    spec.write_text(json.dumps(doc))
    budgets = ["--budget", "300"]
    for argv in (["bounds"], ["factorize", *budgets] + (["--search"] if search else [])):
        assert_one_line_or_a_clean_verdict(*main_output([*argv, "--spec", str(spec)]))
    for method in ("exact", "greedy"):
        outdir = base / method
        code, out, err = main_output(["pipeline", "--spec", str(spec), "--method", method, *budgets,
                                      "--schedule-budget", "300", "--outdir", str(outdir)])
        assert_one_line_or_a_clean_verdict(code, out, err, outdir / "verdict.json")
        event(f"{doc['group']['kind'] if 'group' in doc else 'digraph'} pipeline {method}: exit {code}")
