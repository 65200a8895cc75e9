"""Schedule validation, exact/greedy/open-shop scheduling, the one entry point, and the diameter-2 case."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures
from alltoall.cli import main
from alltoall.errors import InputError, SearchBudgetError, UnsupportedGraphError
from alltoall.graphs import build_cayley_coset_graph, letters_commute
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
from alltoall.layers import distances_from, layer_profile
from alltoall.scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    classify,
    exact_min_schedule,
    factor_occurrences,
    greedy_schedule,
    open_shop_schedule,
    schedule_plan,
    tight_schedule_feasible,
    two_layer_counts,
    two_layer_time_bound,
    validate_schedule,
)
from alltoall.simulate import expand_factor_paths, run_transpose
from alltoall.words import bfs_word_set, regular_bound_exact
from test_graphs import abelian_specs, star


def corpus_word_map(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g)
    return g, {v: w for v, w in ws.items() if w}


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


def test_exact_budget_starvation_is_reported():
    _, word_map = corpus_word_map("q3")
    res = exact_min_schedule(word_map, 3, budget=0)
    assert res.status == "budget"


def jobs(singles, pairs):
    """A word map of one-letter words on `singles` then two-letter words on `pairs`."""
    return {k: tuple(w) for k, w in enumerate([(m,) for m in singles] + list(pairs))}


def test_average_horizon_formula():
    assert tight_schedule_feasible(jobs((0, 1, 2), ((0, 1), (2, 0), (1, 2))), 3)[0] == 3  # ceil((3 + 6)/3)
    assert tight_schedule_feasible({}, 4)[0] == 1


def test_tight_feasibility_spec_instances():
    # the Z7 instance: every factor gets one single plus two pair letters
    assert tight_schedule_feasible(jobs((0, 1, 2), ((0, 1), (2, 0), (1, 2))), 3) == (3, True)
    # factor 1 sees only second-of-pair letters: stuck at T+1
    stuck = jobs((), ((0, 1), (0, 1)))
    assert tight_schedule_feasible(stuck, 2) == (2, False)
    res = exact_min_schedule(stuck, 2)
    assert res.makespan == 3
    # swapping one pair breaks the exclusivity and T=2 works
    assert tight_schedule_feasible(jobs((), ((0, 1), (1, 0))), 2) == (2, True)


def iter_small_instances(d, max_singles, max_pairs):
    factors = range(d)
    for s1 in range(max_singles + 1):
        for singles in itertools.combinations_with_replacement(factors, s1):
            for s2 in range(max_pairs + 1):
                if s1 + s2 == 0:
                    continue
                for pairs in itertools.combinations_with_replacement(itertools.product(factors, factors), s2):
                    yield jobs(singles, pairs)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tight_feasibility_matches_exact_search(d):
    for word_map in iter_small_instances(d, max_singles=2, max_pairs=2):
        horizon, ok = tight_schedule_feasible(word_map, d)
        assert (exact_min_schedule(word_map, d).makespan <= horizon) == ok, word_map


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


def builtin_schedule_summary(tmp_path, name):
    """`schedule --builtin name`'s schedule.json: load-balanced words through the one entry point."""
    out = tmp_path / "schedule.json"
    assert main(["schedule", "--builtin", name, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_diameter_two_z7_hits_theta(tmp_path):
    doc = builtin_schedule_summary(tmp_path, "z7-124")
    # max(M+N) = 2 = theta - 1, so the two-layer bound meets theta
    assert doc["makespan"] == doc["bounds"]["corollary6"] == doc["bounds"]["theta"] == 3


def test_diameter_two_z5_pays_one_extra(tmp_path):
    doc = builtin_schedule_summary(tmp_path, "z5-12")
    # vertex 4 = 2+2 forces generator 2 twice; best max(M+N) is 3 > theta-1
    assert doc["makespan"] == doc["bounds"]["corollary6"] == 4
    assert doc["bounds"]["theta"] == 3


def test_diameter_one_degenerates(tmp_path):
    doc = builtin_schedule_summary(tmp_path, "k4")
    assert doc["makespan"] == doc["bounds"]["corollary6"] == doc["bounds"]["theta"] == 1


def test_diameter_two_rejects_nontrivial_subgroup():
    # the general path's word choosers read generator labels, which Petersen's coset graph does not have
    with pytest.raises(UnsupportedGraphError):
        regular_bound_exact(fixtures.builtin_graph("petersen"))


def test_diameter_two_accepts_supplied_words():
    g = fixtures.builtin_graph("z7-124")
    words = dict(regular_bound_exact(g).witness)
    assert {v for v, w in words.items() if len(w) == 2} == {4, 5, 6}
    _, sched = schedule_plan(g, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    assert sched.makespan == 3
    # words that miss their vertices still schedule; the replay finds the packets they lose
    words.update({v: (0, 0) for v in range(4, 7)})
    plan, sched = schedule_plan(g, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    trace = run_transpose(g, expand_factor_paths(g, plan, sched))
    assert trace.undelivered and not trace.clean


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
        v = g.out[v][j]
    return v


@settings(max_examples=60, deadline=None)
@given(spec=abelian_specs(), seed=st.integers(0, 2**32 - 1))
def test_open_shop_on_shuffled_words_of_abelian_graphs(spec, seed):
    g = build_cayley_coset_graph(spec)
    rng = random.Random(seed)
    word_map = {}
    for v, w in bfs_word_set(g).items():
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
    word_map = dict(bfs_word_set(g))
    assert greedy_schedule(word_map, g.degree).makespan == 18
    words, sched = assert_open_shop_schedule(word_map, g.degree)
    assert sched.makespan == 16
    assert words != word_map  # some letters moved
    for k, w in words.items():
        assert all(walk(g, base, w) == walk(g, base, word_map[k]) for base in range(g.vertex_count))


def test_open_shop_empty_input():
    assert open_shop_schedule({1: ()}, degree=2) == ({}, Schedule(times={}))


# ---------------------------------------------------------------------------
# the one entry point
# ---------------------------------------------------------------------------


def test_schedule_plan_picks_the_scheduler_from_the_host():
    q3, word_map = corpus_word_map("q3")
    assert schedule_plan(q3, word_map, "greedy", 0) == (word_map, greedy_schedule(word_map, q3.degree))
    assert schedule_plan(q3, word_map, "exact", 0) == open_shop_schedule(word_map, q3.degree)
    star4 = star(4)
    words = bfs_word_set(star4)
    assert not letters_commute(star4)
    exact = exact_min_schedule(words, star4.degree)
    assert schedule_plan(star4, words, "exact", DEFAULT_SCHEDULE_BUDGET) == (words, exact.schedule)
    with pytest.raises(SearchBudgetError, match=r"gave up \(budget\) after 5 nodes"):
        schedule_plan(star4, words, "exact", 5)
    with pytest.raises(InputError, match="unknown scheduling method"):
        schedule_plan(star4, words, "fastest", DEFAULT_SCHEDULE_BUDGET)


# ---------------------------------------------------------------------------
# diameter 2 through the one entry point
# ---------------------------------------------------------------------------


def recursive_balance(vertices, options, degree):
    """Exhaustively pick one two-letter word per vertex minimizing max first+second load, one nested call per vertex."""
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
    return best["value"]


def random_diameter_two_graphs(rng, count):
    """(spec, Cayley graph) pairs of diameter <= 2 over cyclic groups, S3 and S4, distinct non-identity generators."""
    graphs = []
    while len(graphs) < count:
        kind = rng.choice(["cyclic", "s3", "s4"])
        if kind == "cyclic":
            group = CyclicGroup(rng.randint(2, 30))
            elements = list(range(1, group.modulus))
        else:
            group = PermutationGroup(3 if kind == "s3" else 4)
            elements = [p for p in itertools.permutations(range(group.degree)) if p != group.identity]
        spec = GroupSpec(group=group, generators=tuple(rng.sample(elements, rng.randint(1, min(len(elements), 8)))))
        g = build_cayley_coset_graph(spec)
        if layer_profile(g).diameter <= 2:
            graphs.append((spec, g))
    return graphs


def test_general_path_on_random_diameter_two_cayley_graphs():
    for spec, g in random_diameter_two_graphs(random.Random(5), 120):
        dist = distances_from(g, 0)
        two = [v for v in range(g.vertex_count) if dist[v] == 2]
        options = {v: [(j, k) for j, mid in enumerate(g.out[0]) for k, t in enumerate(g.out[mid]) if t == v]
                   for v in two}
        # every generator carries one single, so the busiest generator's load is 1 + max(first + second)
        bound = regular_bound_exact(g)
        assert bound.exact
        assert bound.value == 1 + recursive_balance(two, options, g.degree), spec
        words, sched = schedule_plan(g, bound.witness, "exact", DEFAULT_SCHEDULE_BUDGET)
        validate_schedule(words, sched, g.degree)
        assert sched.makespan <= two_layer_time_bound(two_layer_counts(words, g.degree)), spec
