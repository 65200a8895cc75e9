"""End-to-end runs of the command-line frontend, in-process via main(argv)."""

import csv
import io
import json
import sys
from collections import deque

import pytest

from alltoall import fixtures, scheduling
from alltoall.cli import _parse_factorization_doc, main
from alltoall.errors import InputError
from alltoall.factorization import factor_digraph
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


@pytest.mark.parametrize("method", ["exact", "greedy"])
def test_pipeline_checks_its_schedule_once_in_the_scheduler(tmp_path, capsys, monkeypatch, method):
    # the scheduler validates what it built; the replay judges it without that code
    real = scheduling.validate_schedule
    callers = []

    def spy(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args)

    monkeypatch.setattr(scheduling, "validate_schedule", spy)
    code, _, err = run(capsys, "pipeline", "--builtin", "z7-124", "--method", method, "--outdir", str(tmp_path))
    assert code == 0, err
    assert callers == ["alltoall.scheduling"]



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
    spec = hypercube_spec(tmp_path / "q5.json", 5)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--outdir", str(out))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=16 theta=16 psi_W=16 optimal=true"
    words = {int(k): w for k, w in json.loads((out / "words.json").read_text())["words"].items()}
    assert words == schedule_csv_words(out / "schedule.csv")
    chosen = {int(k): w for k, w in run_json(capsys, "words", "--spec", spec)["words"].items()}
    assert words != chosen  # the open shop moved letters, and the artifact followed


def test_pipeline_factorization_artifact_holds_the_scheduled_letter_order(tmp_path, capsys):
    # a raw digraph takes the search route, here to factors whose letters commute
    spec = digraph_spec(tmp_path / "q4.json", hypercube_digraph(4))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "pipeline", "--spec", spec, "--outdir", str(out))
    assert code == 0, err
    assert stdout.strip().splitlines()[-1] == "tau=8 theta=8 psi_W=8 optimal=true"
    listed = json.loads((out / "factorization.json").read_text())["words"]
    assert {i: w for i, w in enumerate(listed) if w} == schedule_csv_words(out / "schedule.csv")
    assert listed != run_json(capsys, "factorize", "--spec", spec, "--search")["words"]
    verdict = run_json(capsys, "simulate", "--spec", spec, "--factorization", str(out / "factorization.json"),
                       "--schedule", str(out / "schedule.csv"))
    assert verdict == {"tau": 8, "conflicts": 0, "undelivered": 0, "theta": 8, "optimal": True}


def test_schedule_reorders_words_without_rewriting_its_input(tmp_path, capsys):
    spec = hypercube_spec(tmp_path / "q5.json", 5)
    words, sched = tmp_path / "words.json", tmp_path / "sched.csv"
    words.write_text(json.dumps(run_json(capsys, "words", "--spec", spec)))
    before = words.read_text()
    doc = run_json(capsys, "schedule", "--spec", spec, "--words", str(words), "--csv", str(sched))
    assert doc["makespan"] == 16
    assert words.read_text() == before
    given = {int(k): w for k, w in json.loads(before)["words"].items()}
    scheduled = schedule_csv_words(sched)
    assert scheduled != given
    assert {k: sorted(w) for k, w in scheduled.items()} == {k: sorted(w) for k, w in given.items()}
    verdict = run_json(capsys, "simulate", "--spec", spec, "--schedule", str(sched))
    assert verdict == {"tau": 16, "conflicts": 0, "undelivered": 0, "theta": 16, "optimal": True}


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


@pytest.mark.parametrize("argv", [
    ("bounds",),
    ("pipeline", "--outdir", "{out}"),
    ("factorize", "--search"),
])
def test_digraph_without_arcs_is_an_input_error(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"digraph": {"n": 1, "arcs": []}}))
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    code, _, err = run(capsys, argv[0], "--spec", str(spec), *argv[1:])
    assert code == 1
    assert err.startswith("error: $.digraph.arcs: ") and "Traceback" not in err


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
    assert code == 1


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
