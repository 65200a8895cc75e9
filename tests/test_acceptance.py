"""Acceptance gate: the package's headline guarantees, one line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the pass/fail lines.  Every
check here recomputes its expectation independently (plain BFS, brute
counting, hand arithmetic) rather than trusting the library's own numbers.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from alltoall import fixtures
from alltoall.cli import main
from alltoall.costmodel import CostParams, compare_networks, model_times, regime_time
from alltoall.factorization import (
    factor_digraph,
    one_factorize,
    search_spanning_factorization,
    validate_one_factorization,
)
from alltoall.graphs import Digraph, digraph_from_arcs
from alltoall.layers import average_diameter_bound, layer_profile
from alltoall.scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    classify,
    exact_min_schedule,
    factor_occurrences,
    schedule_plan,
    two_layer_counts,
    two_layer_time_bound,
)
from alltoall.simulate import run_transpose
from alltoall.words import bfs_word_set, regular_bound_exact
from test_factorization import assert_spanning
from test_scheduling import tight_schedule_feasible


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:2d}: FAIL  {label}")
        raise
    print(f"acceptance {num:2d}: PASS  {label}")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# --- 1: average-distance lower bound ---------------------------------------

def oracle_theta(g) -> int:
    """All-pairs BFS over successor lists, nothing shared with the library."""
    n = g.vertex_count
    per_source = []
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.out[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert len(dist) == n, "graph not strongly connected"
        counts = {}
        for d in dist.values():
            counts[d] = counts.get(d, 0) + 1
        per_source.append(tuple(sorted(counts.items())))
    assert len(set(per_source)) == 1, "corpus graphs should look alike from everywhere"
    degree = len(g.out[0])
    weighted = sum(k * nk for k, nk in per_source[0])
    return -(-weighted // degree)


def test_acceptance_01_distance_bounds():
    expected = {"c4": 6, "q3": 4, "z7-124": 3, "petersen": 5, "k4": 1}
    with criterion(1, "distance lower bounds match an independent BFS oracle, < 1 s"):
        start = time.perf_counter()
        for name, theta in expected.items():
            code, out = run_cli("bounds", "--builtin", name)
            assert code == 0
            assert json.loads(out)["theta"] == theta
            assert oracle_theta(fixtures.builtin_graph(name)) == theta
        assert time.perf_counter() - start < 1.0


# --- 2: one-factor decomposition of random regular digraphs -----------------

def random_regular_digraph(rng, n, d) -> Digraph:
    arcs = []
    for _ in range(d):
        targets = list(range(n))
        rng.shuffle(targets)
        arcs.extend((v, targets[v]) for v in range(n))
    return digraph_from_arcs(n, arcs)


def test_acceptance_02_factorization_suite():
    rng = random.Random(2)
    with criterion(2, "50 random regular digraphs split into 1-factors, < 1 s each"):
        for _ in range(50):
            n = rng.randint(2, 50)
            d = rng.randint(1, 5)
            g = random_regular_digraph(rng, n, d)
            start = time.perf_counter()
            f = one_factorize(g)
            assert time.perf_counter() - start < 1.0
            validate_one_factorization(g, f)
            # invariant 1: every factor is a bijection on the vertices
            for succ in f:
                assert sorted(succ) == list(range(n))
            # invariant 2: the factors partition the arc multiset
            split = sorted((v, succ[v]) for succ in f for v in range(n))
            assert split == sorted((src, dst) for src, dst, _ in g.arcs())


# --- 3 & 4: any valid labeling replays conflict-free ------------------------

def random_schedule(word_map, rng) -> Schedule:
    total = sum(len(w) for w in word_map.values())
    horizon = 3 * total + 3
    used = set()
    times = {}
    for target in rng.sample(sorted(word_map), len(word_map)):
        word = word_map[target]
        while True:
            ts = sorted(rng.sample(range(1, horizon + 1), len(word)))
            if all((j, t) not in used for j, t in zip(word, ts)):
                break
        used.update(zip(word, ts))
        times[target] = tuple(ts)
    return Schedule(times=times)


def test_acceptance_03_cayley_labelings():
    rng = random.Random(3)
    names = ("c4", "q3", "z5-12", "z7-124")
    with criterion(3, "200 random valid labelings on Cayley graphs: all conflict-free"):
        runs = clean = 0
        for name in names:
            g = fixtures.builtin_graph(name)
            ws = bfs_word_set(g, layer_profile(g))
            for _ in range(50):
                trace = run_transpose(g, ws, random_schedule(ws, rng))
                runs += 1
                clean += trace.clean
        assert runs == 200 and clean == runs


def petersen_spanning():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g, layer_profile(g))
    assert found.factors is not None
    return found.factors, found.words


def test_acceptance_04_factorization_labelings():
    rng = random.Random(4)
    with criterion(4, "200 random labelings of spanning factorizations: all conflict-free"):
        plans = []
        for name in ("c4", "z7-124", "q3"):
            g = fixtures.builtin_graph(name)
            words = bfs_word_set(g, layer_profile(g))
            plans.append((tuple(zip(*g.out)), tuple(words.get(v, ()) for v in range(g.vertex_count))))
        plans.append(petersen_spanning())
        runs = clean = 0
        for factors, words in plans:
            assert_spanning(factors, words, len(factors[0]))
            host = factor_digraph(factors)
            word_map = {i: w for i, w in enumerate(words) if w}
            for _ in range(50):
                trace = run_transpose(host, word_map, random_schedule(word_map, rng))
                runs += 1
                clean += trace.clean
        assert runs == 200 and clean == runs


# --- 5: end-to-end run on the 7-vertex circulant ----------------------------

def test_acceptance_05_pipeline_z7(tmp_path):
    with criterion(5, "7-vertex circulant pipeline: tau = theta = psi_W = 3, clean trace"):
        out = tmp_path / "out"
        code, stdout = run_cli("pipeline", "--builtin", "z7-124", "--outdir", str(out))
        assert code == 0
        assert stdout.strip().splitlines()[-1] == "tau=3 theta=3 psi_W=3 optimal=true"
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["tau"] == verdict["theta"] == verdict["psi_W"] == 3
        assert verdict["conflicts"] == 0 and verdict["undelivered"] == 0


# --- 6: the two-layer guarantee ---------------------------------------------

def test_acceptance_06_two_layer_guarantee():
    with criterion(6, "diameter-2 schedules stay within 1 + max(M+N); Z5 within 4"):
        for name in ("k4", "z5-12", "z7-124"):
            g = fixtures.builtin_graph(name)
            profile = layer_profile(g)
            words = regular_bound_exact(g, profile, bfs_word_set(g, profile)).witness
            word_map, sched = schedule_plan(g, words, "exact", DEFAULT_SCHEDULE_BUDGET)
            trace = run_transpose(g, word_map, sched)
            assert trace.clean
            # M+N: how often each generator opens or closes a two-letter word, counted by hand
            pairs = [w for w in word_map.values() if len(w) == 2]
            assert trace.horizon <= 1 + max(sum((a == j) + (b == j) for a, b in pairs) for j in range(g.degree))
            if name == "z5-12":
                assert trace.horizon <= 4
        # the non-Cayley member goes through its searched factorization
        factors, words = petersen_spanning()
        word_map = {i: w for i, w in enumerate(words) if w}
        assert max(len(w) for w in word_map.values()) == 2
        sched = exact_min_schedule(word_map, len(factors)).schedule
        host = factor_digraph(factors)
        trace = run_transpose(host, word_map, sched)
        assert trace.clean
        assert trace.horizon <= two_layer_time_bound(two_layer_counts(word_map, len(factors)))


# --- 7: feasibility predicate vs exhaustive search --------------------------

def random_balanced_jobshop(rng) -> tuple[dict[int, tuple[int, ...]], int, int]:
    """(word map, d, ceil(total letters / d)): random one- and two-letter words, no factor above the average."""
    while True:
        d = rng.randint(1, 4)
        s1 = rng.randint(0, 5)
        s2 = rng.randint(1, 8)
        singles = [(rng.randrange(d),) for _ in range(s1)]
        pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(s2)]
        word_map = dict(enumerate(singles + pairs))
        horizon = max(1, -(-(s1 + 2 * s2) // d))
        if max(factor_occurrences(word_map, d)) <= horizon:
            return word_map, d, horizon


def test_acceptance_07_feasibility_predicate():
    rng = random.Random(7)
    with criterion(7, "tight-horizon predicate matches exhaustive search on 120 instances"):
        saw_infeasible = 0
        for _ in range(120):
            word_map, d, average = random_balanced_jobshop(rng)
            horizon, ok = tight_schedule_feasible(word_map, d)
            assert horizon == average
            makespan = exact_min_schedule(word_map, d).makespan
            assert (makespan <= horizon) == ok
            if not ok:
                saw_infeasible += 1
                assert makespan == horizon + 1
        assert saw_infeasible >= 1  # the interesting branch must be exercised


# --- 8: exact schedules and the quality chain --------------------------------

def test_acceptance_08_exact_schedules_and_chain():
    with criterion(8, "exact makespans Q3=4, C4=6; quality flags and ordering chain"):
        for name, tau in (("q3", 4), ("c4", 6)):
            g = fixtures.builtin_graph(name)
            profile = layer_profile(g)
            ws = bfs_word_set(g, profile)
            res = exact_min_schedule(ws, g.degree)
            assert res.makespan == tau
            if name == "q3":
                flags = classify(ws, res.schedule, profile)
                assert flags.balanced and flags.short and flags.optimal and flags.minimum
        for name in ("c4", "k4", "z5-12", "z7-124", "q3"):
            g = fixtures.builtin_graph(name)
            profile = layer_profile(g)
            ws = bfs_word_set(g, profile)
            occ = factor_occurrences(ws, g.degree)
            total = sum(occ)
            avg_load = -(-total // g.degree)
            res = exact_min_schedule(ws, g.degree)
            assert average_diameter_bound(profile) <= avg_load <= max(occ) <= res.makespan


# --- 9: the bound chain across the Cayley corpus -----------------------------

def test_acceptance_09_bound_chain():
    with criterion(9, "theta <= psi_exact <= psi_W across the Cayley corpus"):
        for name in ("c4", "k4", "z5-12", "z7-124", "q3"):
            g = fixtures.builtin_graph(name)
            profile = layer_profile(g)
            theta = average_diameter_bound(profile)
            ws = bfs_word_set(g, profile)
            exact = regular_bound_exact(g, profile, ws)
            assert exact.exact
            psi_w = max(factor_occurrences(ws, g.degree))
            assert theta <= exact.value <= psi_w


# --- 10: the non-Cayley fixture ----------------------------------------------

def test_acceptance_10_petersen_fixture():
    with criterion(10, "Petersen coset fixture: 10 vertices, degree 3, probe holds"):
        g = fixtures.builtin_graph("petersen")
        assert g.vertex_count == 10
        assert all(len(row) == 3 for row in g.out)
        assert not g.is_cayley
        assert fixtures.petersen_conjugation_check()


# --- 11: cost model arithmetic ------------------------------------------------

def test_acceptance_11_cost_model():
    with criterion(11, "cost model: picks the larger machine, exact hand arithmetic"):
        a = CostParams(processors=4096, degree=8, avg_diameter=6, cost_ratio=64,
                       matrix_dim=256, iterations=4)
        b = CostParams(processors=1024, degree=10, avg_diameter=5, cost_ratio=64,
                       matrix_dim=256, iterations=4)
        verdict = compare_networks({"a": a, "b": b}, gamma_max=40000)
        assert verdict.winner == "a"

        # set 1: everything divides, results are exact integers
        p1 = CostParams(processors=8, degree=4, avg_diameter=2, cost_ratio=9,
                        matrix_dim=16, iterations=3)
        t1 = model_times(p1, tau=4)
        assert (t1.compute, t1.exchange, t1.total) == (96, 48, 144)
        ideal1 = model_times(p1)
        assert ideal1.tau == 4 and ideal1.exchange == 48

        # set 2: awkward divisors stay exact rationals
        p2 = CostParams(processors=12, degree=4, avg_diameter=3, cost_ratio=2,
                        matrix_dim=5, iterations=7)
        t2 = model_times(p2, tau=2)
        assert t2.compute == Fraction(175, 12)
        assert t2.exchange == Fraction(175, 72)
        assert t2.total == Fraction(1225, 72)

        # set 3: regime with dyadic budget, plus two exact reduced forms
        p3 = CostParams(processors=4, degree=2, avg_diameter=1, cost_ratio=0,
                        matrix_dim=2, iterations=2)
        r3 = regime_time(p3, gamma=16)
        assert r3.lam == Fraction(1, 16)
        assert r3.total == 2.25
        assert r3.reduced == 5
        assert regime_time(p1, gamma=4096).reduced == 4096 ** (1 / 3) + 2
        assert regime_time(p2, gamma=4096).reduced == 4096 ** (1 / 4) + 3 == 11
