"""Schedule validation, exact/greedy scheduling, and the diameter-2 route."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures
from alltoall.errors import InputError, UnsupportedGraphError
from alltoall.graphs import build_cayley_coset_graph
from alltoall.groups import CyclicGroup, GroupSpec, ProductGroup
from alltoall.layers import layer_profile
from alltoall.scheduling import (
    JobShopInstance,
    Schedule,
    _balance_pair_choices,
    average_horizon,
    classify,
    diameter_two_schedule,
    exact_min_schedule,
    factor_occurrences,
    greedy_schedule,
    open_shop_schedule,
    tight_schedule_feasible,
    two_layer_counts,
    two_layer_time_bound,
    validate_schedule,
)
from alltoall.words import bfs_word_set
from test_graphs import abelian_specs


def corpus_word_map(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    return g, {v: w for v, w in ws.words.items() if w}


def test_validate_schedule_accepts_and_rejects():
    word_map = {1: (0,), 2: (0, 1)}
    good = Schedule(times={1: (2,), 2: (1, 3)})
    validate_schedule(word_map, good, degree=2)
    with pytest.raises(InputError):  # wrong coverage
        validate_schedule(word_map, Schedule(times={1: (2,)}), degree=2)
    with pytest.raises(InputError):  # non-increasing
        validate_schedule(word_map, Schedule(times={1: (2,), 2: (3, 3)}), degree=2)
    with pytest.raises(InputError):  # factor 0 reused at time 2
        validate_schedule(word_map, Schedule(times={1: (2,), 2: (2, 3)}), degree=2)
    with pytest.raises(InputError):  # wrong length
        validate_schedule(word_map, Schedule(times={1: (2,), 2: (1,)}), degree=2)


def test_greedy_on_c4_matches_hand_run():
    _, word_map = corpus_word_map("c4")
    sched = greedy_schedule(word_map, degree=1)
    assert sched.times[3] == (1, 2, 3)
    assert sched.times[2] == (4, 5)
    assert sched.times[1] == (6,)
    assert sched.makespan == 6


def test_greedy_empty_input():
    assert greedy_schedule({}, degree=2).makespan == 0


@pytest.mark.parametrize("name,tau", [("q3", 4), ("c4", 6), ("z7-124", 3), ("k4", 1)])
def test_exact_minimum_values(name, tau):
    g, word_map = corpus_word_map(name)
    res = exact_min_schedule(word_map, g.degree)
    assert res.status == "optimal"
    assert res.makespan == tau
    validate_schedule(word_map, res.schedule, g.degree)


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_exact_never_beats_greedy_backwards(name):
    g, word_map = corpus_word_map(name)
    greedy = greedy_schedule(word_map, g.degree)
    exact = exact_min_schedule(word_map, g.degree)
    assert exact.makespan <= greedy.makespan


def test_exact_infeasible_below_floor():
    res = exact_min_schedule({1: (0,), 2: (0,)}, degree=1, t_max=1)
    assert res.status == "infeasible"


def test_exact_budget_starvation_is_reported():
    _, word_map = corpus_word_map("q3")
    res = exact_min_schedule(word_map, 3, budget=0)
    assert res.status == "budget"


def test_average_horizon_formula():
    inst = JobShopInstance(machine_count=3, singles=(0, 1, 2), pairs=((0, 1), (2, 0), (1, 2)))
    assert average_horizon(inst) == 3  # ceil((3 + 6)/3)
    assert average_horizon(JobShopInstance(machine_count=4, singles=(), pairs=())) == 1


def test_tight_feasibility_spec_instances():
    # the Z7 instance: every machine gets one single plus two pair steps
    z7 = JobShopInstance(machine_count=3, singles=(0, 1, 2), pairs=((0, 1), (2, 0), (1, 2)))
    assert tight_schedule_feasible(z7) == (3, True)
    # machine 1 sees only second-of-pair steps: stuck at T+1
    stuck = JobShopInstance(machine_count=2, singles=(), pairs=((0, 1), (0, 1)))
    assert tight_schedule_feasible(stuck) == (2, False)
    res = exact_min_schedule(stuck.as_word_map(), 2)
    assert res.makespan == 3
    # swapping one pair breaks the exclusivity and T=2 works
    ok = JobShopInstance(machine_count=2, singles=(), pairs=((0, 1), (1, 0)))
    assert tight_schedule_feasible(ok) == (2, True)


def iter_small_instances(d, max_singles, max_pairs):
    machines = range(d)
    for s1 in range(max_singles + 1):
        for singles in itertools.combinations_with_replacement(machines, s1):
            for s2 in range(max_pairs + 1):
                if s1 + s2 == 0:
                    continue
                for pairs in itertools.combinations_with_replacement(
                    itertools.product(machines, machines), s2
                ):
                    yield JobShopInstance(machine_count=d, singles=singles, pairs=tuple(pairs))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tight_feasibility_matches_exact_search(d):
    for inst in iter_small_instances(d, max_singles=2, max_pairs=2):
        horizon, ok = tight_schedule_feasible(inst)
        res = exact_min_schedule(inst.as_word_map(), d, t_max=horizon)
        assert (res.status == "optimal") == ok, inst


def test_two_layer_counts_and_invariant():
    word_map = {1: (0,), 2: (1,), 3: (0, 1), 4: (1, 0), 5: (1, 1)}
    counts = two_layer_counts(word_map, degree=2)
    assert counts.first_of_pair == (1, 2)
    assert counts.second_of_pair == (1, 2)
    pair_words = [w for w in word_map.values() if len(w) == 2]
    assert sum(counts.first_of_pair) + sum(counts.second_of_pair) == 2 * len(pair_words)
    assert counts.max_combined == 4
    assert two_layer_time_bound(counts) == 5
    with pytest.raises(InputError):
        two_layer_counts({1: (0, 1, 0)}, degree=2)


def test_two_layer_bound_with_no_pairs_is_one():
    counts = two_layer_counts({1: (0,), 2: (1,)}, degree=2)
    assert two_layer_time_bound(counts) == 1


def test_diameter_two_z7_hits_theta():
    g = fixtures.builtin_graph("z7-124")
    res = diameter_two_schedule(g)
    assert res.makespan == 3
    assert res.avg_time_bound == 3
    assert res.counts.max_combined == 2  # theta - 1, so the bound is met
    assert res.guarantee == 3
    assert res.meets_lower_bound


def test_diameter_two_z5_pays_one_extra():
    g = fixtures.builtin_graph("z5-12")
    res = diameter_two_schedule(g)
    # vertex 4 = 2+2 forces generator 2 twice; best max(M+N) is 3 > theta-1
    assert res.counts.max_combined == 3
    assert res.guarantee == 4
    assert res.makespan == 4
    assert res.avg_time_bound == 3
    assert not res.meets_lower_bound


def test_diameter_one_degenerates():
    g = fixtures.builtin_graph("k4")
    res = diameter_two_schedule(g)
    assert res.makespan == 1
    assert res.guarantee == 1


def test_diameter_two_rejects_wide_graphs():
    g = fixtures.builtin_graph("q3")  # diameter 3
    with pytest.raises(UnsupportedGraphError):
        diameter_two_schedule(g)


def test_diameter_two_rejects_nontrivial_subgroup():
    g = fixtures.builtin_graph("petersen")
    with pytest.raises(UnsupportedGraphError):
        diameter_two_schedule(g)


def test_diameter_two_accepts_supplied_words():
    g = fixtures.builtin_graph("z7-124")
    auto = diameter_two_schedule(g)
    pairs = {v: w for v, w in auto.word_map.items() if len(w) == 2}
    res = diameter_two_schedule(g, layer2_words=pairs)
    assert res.makespan == 3
    with pytest.raises(InputError):
        diameter_two_schedule(g, layer2_words={v: (0, 0) for v in range(4, 7)})


def test_classify_q3_all_true():
    g, word_map = corpus_word_map("q3")
    res = exact_min_schedule(word_map, g.degree)
    flags = classify(word_map, res.schedule, g.degree, layer_profile(g))
    assert (flags.balanced, flags.short, flags.optimal, flags.minimum) == (True, True, True, True)


def test_classify_c4_single_factor():
    g, word_map = corpus_word_map("c4")
    res = exact_min_schedule(word_map, g.degree)
    flags = classify(word_map, res.schedule, g.degree, layer_profile(g))
    assert flags.balanced and flags.short and flags.optimal and flags.minimum


def test_classify_flags_unbalanced_choice():
    # Z6 with generators 1,2,3 has theta = ceil((0+3+4)/3) = 3; sending both
    # layer-2 vertices through generator 2 loads it with 4 occurrences
    from alltoall.graphs import build_cayley_coset_graph
    from alltoall.groups import CyclicGroup, GroupSpec

    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(6), generators=(1, 2, 3)))
    word_map = {1: (0,), 2: (1,), 3: (2,), 4: (1, 1), 5: (1, 2)}
    sched = greedy_schedule(word_map, 3)
    flags = classify(word_map, sched, 3, layer_profile(g))
    assert factor_occurrences(word_map, 3) == [1, 4, 2]
    assert not flags.balanced
    assert flags.short  # ceil(7/3) = 3 still equals the global bound


def test_classify_guards_the_chain():
    # feeding a profile whose global bound exceeds the words' average load
    # must be reported as an internal inconsistency, not silently classified
    profile = layer_profile(fixtures.builtin_graph("z7-124"))
    word_map = {1: (0,)}
    sched = greedy_schedule(word_map, 3)
    with pytest.raises(InputError):
        classify(word_map, sched, 3, profile)


# ---------------------------------------------------------------------------
# greedy's next-free-slot pointers
# ---------------------------------------------------------------------------


def scanning_greedy_times(word_map):
    """Greedy as first written: each letter scans past every used slot of its factor."""
    order = sorted((k for k, w in word_map.items() if len(w) > 0), key=lambda k: (-len(word_map[k]), k))
    used = set()
    times = {}
    for key in order:
        slots = []
        t = 0
        for j in word_map[key]:
            t += 1
            while (j, t) in used:
                t += 1
            used.add((j, t))
            slots.append(t)
        times[key] = tuple(slots)
    return times


def random_word_map(rng, degree, words, longest):
    return {k: tuple(rng.randrange(degree) for _ in range(rng.randint(0, longest))) for k in range(words)}


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS.keys() - {"petersen"}))
def test_greedy_matches_the_scanning_greedy_on_builtins(name):
    g, word_map = corpus_word_map(name)
    assert greedy_schedule(word_map, g.degree).times == scanning_greedy_times(word_map)


def test_greedy_matches_the_scanning_greedy_on_random_word_maps():
    rng = random.Random(41)
    for _ in range(200):
        degree = rng.randint(1, 4)
        word_map = random_word_map(rng, degree, rng.randint(0, 40), rng.randint(1, 8))
        assert greedy_schedule(word_map, degree).times == scanning_greedy_times(word_map)


# ---------------------------------------------------------------------------
# the open shop
# ---------------------------------------------------------------------------


def floor_of(word_map, degree):
    words = [w for w in word_map.values() if w]
    return max(max(factor_occurrences(word_map, degree)), max(len(w) for w in words)) if words else 0


def assert_open_shop_schedule(word_map, degree):
    """open_shop_schedule's words and schedule: valid, at the floor, and the same letters per word."""
    words, sched = open_shop_schedule(word_map, degree)
    validate_schedule(words, sched, degree)
    assert sched.makespan == floor_of(word_map, degree)
    assert {k: sorted(w) for k, w in words.items()} == {k: sorted(w) for k, w in word_map.items() if w}
    return words, sched


def walk(g, v, word):
    for j in word:
        v = g.edges[v][j]
    return v


@settings(max_examples=60, deadline=None)
@given(spec=abelian_specs(), seed=st.integers(0, 2**32 - 1))
def test_open_shop_on_shuffled_words_of_abelian_graphs(spec, seed):
    g = build_cayley_coset_graph(spec)
    rng = random.Random(seed)
    word_map = {}
    for v, w in bfs_word_set(g, mode="load-balanced").words.items():
        letters = list(w)
        rng.shuffle(letters)
        word_map[v] = tuple(letters)
    words, sched = assert_open_shop_schedule(word_map, g.degree)
    for k, w in words.items():
        assert all(walk(g, base, w) == walk(g, base, word_map[k]) for base in range(g.vertex_count))
    if sum(len(w) for w in word_map.values()) <= 30:
        exact = exact_min_schedule(word_map, g.degree, budget=100_000)
        if exact.status == "optimal":
            assert sched.makespan <= exact.makespan


def test_open_shop_on_random_word_maps():
    rng = random.Random(7)
    for _ in range(300):
        degree = rng.randint(1, 5)
        assert_open_shop_schedule(random_word_map(rng, degree, rng.randint(0, 30), rng.randint(1, 9)), degree)


def test_open_shop_keeps_greedy_when_it_meets_the_floor():
    for name in ("c4", "k4", "z5-12", "z7-124", "q3"):
        g, word_map = corpus_word_map(name)
        words, sched = open_shop_schedule(word_map, g.degree)
        assert words == word_map
        assert sched == greedy_schedule(word_map, g.degree)


def hypercube(k):
    group = ProductGroup([CyclicGroup(2)] * k)
    return build_cayley_coset_graph(GroupSpec(group=group, generators=tuple(
        tuple(int(i == j) for i in range(k)) for j in range(k))))


def test_open_shop_colours_where_greedy_misses_the_floor():
    # Q5: greedy needs 18 slots, the floor is theta = 16
    g = hypercube(5)
    word_map = dict(bfs_word_set(g, mode="load-balanced").words)
    assert greedy_schedule(word_map, g.degree).makespan == 18
    words, sched = assert_open_shop_schedule(word_map, g.degree)
    assert sched.makespan == 16
    assert words != word_map  # some letters moved
    for k, w in words.items():
        assert all(walk(g, base, w) == walk(g, base, word_map[k]) for base in range(g.vertex_count))


def test_open_shop_empty_input():
    assert open_shop_schedule({1: ()}, degree=2) == ({}, Schedule(times={}))


# ---------------------------------------------------------------------------
# two-letter word balancing
# ---------------------------------------------------------------------------


def recursive_balance(vertices, options, degree):
    """The balancing search as first written, one nested call per vertex."""
    order = sorted(vertices, key=lambda v: (len(options[v]), v))
    first, second = [0] * degree, [0] * degree
    best = {"value": None, "choice": None}
    chosen = {}

    def loads_max():
        return max(first[m] + second[m] for m in range(degree))

    def dfs(pos):
        if best["value"] is not None and loads_max() >= best["value"]:
            return
        if pos == len(order):
            value = loads_max()
            if best["value"] is None or value < best["value"]:
                best["value"], best["choice"] = value, dict(chosen)
            return
        v = order[pos]
        for a, b in options[v]:
            first[a] += 1
            second[b] += 1
            chosen[v] = (a, b)
            dfs(pos + 1)
            del chosen[v]
            first[a] -= 1
            second[b] -= 1

    dfs(0)
    return best["choice"]


def test_balance_pair_choices_matches_the_recursive_search():
    rng = random.Random(3)
    for _ in range(300):
        degree = rng.randint(1, 4)
        vertices = rng.sample(range(20), rng.randint(1, 7))
        options = {v: [(rng.randrange(degree), rng.randrange(degree)) for _ in range(rng.randint(1, 4))]
                   for v in vertices}
        assert _balance_pair_choices(vertices, options, degree) == recursive_balance(vertices, options, degree)


def test_balance_pair_choices_runs_on_an_explicit_stack():
    # 3000 two-layer vertices with one word each: as deep as the vertex count, and over at once
    script = textwrap.dedent("""
        import sys
        from alltoall.scheduling import _balance_pair_choices
        sys.setrecursionlimit(100)
        options = {v: [(v % 7, (v + 1) % 7)] for v in range(3000)}
        chosen = _balance_pair_choices(list(options), options, 7)
        print(chosen == {v: w[0] for v, w in options.items()})
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]
