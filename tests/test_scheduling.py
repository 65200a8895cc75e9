"""Schedule validation, exact/greedy/open-shop scheduling, the one entry point, and the diameter-2 case."""

import heapq
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures, scheduling
from alltoall.cli import main
from alltoall.errors import InputError, SearchBudgetError, UnsupportedGraphError
from alltoall.graphs import build_cayley_coset_graph, letters_commute
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
from alltoall.layers import layer_profile
from alltoall.scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    classify,
    exact_min_schedule,
    factor_occurrences,
    greedy_schedule,
    open_shop_schedule,
    schedule_plan,
    two_layer_counts,
    two_layer_time_bound,
)
from alltoall.simulate import run_transpose
from alltoall.words import bfs_word_set, regular_bound_exact
from test_graphs import abelian_specs, star
from test_words import torus


def validate_schedule(word_map, schedule, degree):
    """Raise InputError unless `schedule` is a valid labeling of `word_map`.

    The schedulers build valid labelings and do not check them; the replay
    judges a plan.  This is the reference the tests hold their output to.
    """
    if set(schedule.times) != {k for k, w in word_map.items() if len(w) > 0}:
        raise InputError("schedule must label exactly the non-empty words")
    used = set()
    for key, word in word_map.items():
        if not word:
            continue
        slots = schedule.times[key]
        if len(slots) != len(word):
            raise InputError(f"word {key} has {len(word)} letters but {len(slots)} time slots")
        prev = 0
        for j, t in zip(word, slots):
            if not (0 <= j < degree):
                raise InputError(f"word {key} uses factor {j}, out of range for degree {degree}")
            if t <= prev:
                raise InputError(f"times must increase along word {key}: got {slots}")
            if (j, t) in used:
                raise InputError(f"factor {j} is used twice at time {t}")
            used.add((j, t))
            prev = t


def corpus_word_map(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, layer_profile(g))
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
    sched = greedy_schedule(word_map)
    assert sched.times[3] == (1, 2, 3)
    assert sched.times[2] == (4, 5)
    assert sched.times[1] == (6,)
    assert sched.makespan == 6


def test_greedy_empty_input():
    assert greedy_schedule({}).makespan == 0


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
    greedy = greedy_schedule(word_map)
    exact = exact_min_schedule(word_map, g.degree)
    assert exact.makespan <= greedy.makespan


def test_exact_budget_starvation_is_reported():
    _, word_map = corpus_word_map("q3")
    res = exact_min_schedule(word_map, 3, budget=0)
    assert res.status == "budget"


# ---------------------------------------------------------------------------
# the schedulers as they were before their slot maps, kept as references
# ---------------------------------------------------------------------------


def reference_greedy_schedule(word_map):
    """greedy_schedule on path-compressed next-free-slot pointers."""
    order = sorted((k for k, w in word_map.items() if len(w) > 0), key=lambda k: (-len(word_map[k]), k))
    # after[j][t], for a slot t that factor j uses, points at a later slot that
    # is free or used; following the pointers ends at j's first free slot >= t
    after = {}
    times = {}
    for key in order:
        slots = []
        t = 0
        for j in word_map[key]:
            nxt = after.setdefault(j, {})
            start = t = t + 1
            while t in nxt:
                t = nxt[t]
            while start != t:  # path compression: every slot passed now points at t
                nxt[start], start = t, nxt[start]
            nxt[t] = t + 1
            slots.append(t)
        times[key] = tuple(slots)
    return Schedule(times=times)


def reference_two_way_greedy(word_map):
    """greedy_schedule over the pointer greedy: forward, else the shorter of it and the mirrored reversed pass."""
    forward = reference_greedy_schedule(word_map)
    words = [w for w in word_map.values() if w]
    loads = {}
    for w in words:
        for j in w:
            loads[j] = loads.get(j, 0) + 1
    if forward.makespan == max([*loads.values(), *map(len, words)], default=0):
        return forward
    backward = reference_greedy_schedule({k: tuple(reversed(w)) for k, w in word_map.items()})
    if backward.makespan >= forward.makespan:
        return forward
    end = backward.makespan
    return Schedule(times={k: tuple(end + 1 - slots[len(slots) - 1 - i] for i in range(len(slots)))
                           for k, slots in backward.times.items()})


def reference_open_shop_schedule(word_map, degree):
    """open_shop_schedule on per-factor min-heaps of free colours, stale entries skipped."""
    words = {k: tuple(w) for k, w in word_map.items() if len(w) > 0}
    if not words:
        return words, Schedule(times={})
    floor = max(max(factor_occurrences(words, degree)), max(len(w) for w in words.values()))
    schedule = reference_two_way_greedy(words)
    if schedule.makespan == floor:
        return words, schedule
    at_factor = [[-1] * floor for _ in range(degree)]
    free = [list(range(floor)) for _ in range(degree)]
    at_word = {k: {} for k in words}
    for k, word in words.items():
        mine = at_word[k]
        for j in word:
            a = next(c for c in range(len(word)) if c not in mine)
            if at_factor[j][a] >= 0:
                heap = free[j]
                while at_factor[j][heap[0]] >= 0:
                    heapq.heappop(heap)
                b = heapq.heappop(heap)
                if b not in mine:
                    a = b
                else:
                    reference_swap_path(at_factor, at_word, free, j, a, b)
            at_factor[j][a] = k
            mine[a] = j
    new_words = {}
    times = {}
    for k, colours in at_word.items():
        order = sorted(colours)
        new_words[k] = tuple(colours[c] for c in order)
        times[k] = tuple(c + 1 for c in order)
    return new_words, Schedule(times=times)


def reference_swap_path(at_factor, at_word, free, j, a, b):
    path = []
    f = j
    while True:
        k = at_factor[f][a]
        if k < 0:
            break
        path.append((k, f, a))
        g = at_word[k].get(b)
        if g is None:
            break
        path.append((k, g, b))
        f = g
    for k, f, c in path:
        at_factor[f][c] = -1
        del at_word[k][c]
    for k, f, c in path:
        c = b if c == a else a
        at_factor[f][c] = k
        at_word[k][c] = f
    k, f, c = path[-1]
    if c == b:
        heapq.heappush(free[f], b)


def reference_feasible_at(jobs, degree, horizon, budget):
    """_feasible_at on per-factor free sets and one sorted candidate list per placed letter."""
    counts = [0] * degree
    for _, word in jobs:
        for j in word:
            counts[j] += 1
    free = [set(range(1, horizon + 1)) for _ in range(degree)]
    for j in range(degree):
        if counts[j] > horizon:
            return None
    remaining = list(counts)
    letters = [(j, len(word) - pos - 1, pos == 0) for _, word in jobs for pos, j in enumerate(word)]
    if letters and budget[0] <= 0:
        return None
    slots = []
    stack = []
    while len(slots) < len(letters):
        if len(stack) == len(slots):
            j, tail, first = letters[len(slots)]
            if remaining[j] > len(free[j]):
                candidates = []
            else:
                after = 0 if first else slots[-1]
                candidates = [t for t in sorted(free[j]) if after < t <= horizon - tail]
            stack.append(iter(candidates))
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            if not stack:
                return None
            j = letters[len(slots) - 1][0]
            free[j].add(slots.pop())
            remaining[j] += 1
            continue
        budget[0] -= 1
        if budget[0] <= 0:
            return None
        j = letters[len(slots)][0]
        free[j].discard(t)
        remaining[j] -= 1
        slots.append(t)
    assignment = {}
    pos = 0
    for key, word in jobs:
        assignment[key] = tuple(slots[pos:pos + len(word)])
        pos += len(word)
    return assignment


word_maps = st.integers(1, 5).flatmap(lambda degree: st.tuples(
    st.just(degree),
    st.dictionaries(st.integers(0, 40), st.lists(st.integers(0, degree - 1), max_size=9).map(tuple), max_size=30),
))


@settings(max_examples=300, deadline=None)
@given(case=word_maps)
def test_greedy_and_the_open_shop_give_what_the_references_give(case):
    degree, word_map = case
    assert scheduling._earliest_slots(word_map) == reference_greedy_schedule(word_map)
    assert greedy_schedule(word_map) == reference_two_way_greedy(word_map)
    assert open_shop_schedule(word_map, degree) == reference_open_shop_schedule(word_map, degree)


def job_list(word_map):
    return sorted(((k, tuple(w)) for k, w in word_map.items() if w), key=lambda kw: (-len(kw[1]), kw[0]))


job_word_maps = st.integers(1, 5).flatmap(lambda degree: st.tuples(
    st.just(degree),
    st.dictionaries(st.integers(0, 30), st.lists(st.integers(0, degree - 1), max_size=5).map(tuple), max_size=6),
))


@settings(max_examples=500, deadline=None)
@given(case=job_word_maps, horizon=st.integers(0, 8), budget=st.integers(-1, 400))
def test_the_job_shop_search_gives_what_the_reference_gives(case, horizon, budget):
    degree, word_map = case  # words of up to 5 letters, so low horizons hold words longer than they are
    ours, theirs = [budget], [budget]
    jobs = job_list(word_map)
    assert scheduling._feasible_at(jobs, degree, horizon, ours) == reference_feasible_at(jobs, degree, horizon, theirs)
    assert ours == theirs


def test_the_job_shop_search_holds_no_candidate_lists():
    # star6 at its floor: greedy meets it, so the search's first path is greedy's and succeeds
    g = star(6)
    words = {k: tuple(w) for k, w in bfs_word_set(g, layer_profile(g)).items() if w}
    horizon = floor_of(words, g.degree)
    assert (horizon, sum(map(len, words.values()))) == (689, 3444)
    tracemalloc.start()
    try:
        found = scheduling._feasible_at(job_list(words), g.degree, horizon, [DEFAULT_SCHEDULE_BUDGET])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Schedule(times=found) == greedy_schedule(words)
    assert peak < 2**20


def horizon_loop(word_map, degree, budget):
    """exact_min_schedule as first written: every horizon from the floor up goes to the search."""
    jobs = sorted(((k, tuple(w)) for k, w in word_map.items() if w), key=lambda kw: (-len(kw[1]), kw[0]))
    if not jobs:
        return scheduling.MinScheduleResult(status="optimal", schedule=Schedule(times={}), makespan=0, nodes=0)
    floor = max(max(factor_occurrences(word_map, degree)), max(len(w) for _, w in jobs))
    budget_box = [budget]
    horizon = floor
    while (assignment := reference_feasible_at(jobs, degree, horizon, budget_box)) is None:
        if budget_box[0] <= 0:
            return scheduling.MinScheduleResult(status="budget", schedule=None, makespan=None, nodes=budget)
        horizon += 1
    schedule = Schedule(times=assignment)
    return scheduling.MinScheduleResult(
        status="optimal", schedule=schedule, makespan=schedule.makespan, nodes=budget - budget_box[0])


small_word_maps = st.integers(1, 4).flatmap(lambda degree: st.tuples(
    st.just(degree),
    st.dictionaries(st.integers(0, 30), st.lists(st.integers(0, degree - 1), max_size=4).map(tuple), max_size=6),
))


@settings(max_examples=300, deadline=None)
@given(case=small_word_maps, budget=st.integers(-1, 400))
def test_greedy_seeded_search_gives_what_the_horizon_loop_gives(case, budget):
    degree, word_map = case
    assert exact_min_schedule(word_map, degree, budget) == horizon_loop(word_map, degree, budget)


def test_exact_takes_greedy_without_searching_when_greedy_meets_the_floor(monkeypatch):
    star5 = star(5)
    words = bfs_word_set(star5, layer_profile(star5))
    monkeypatch.setattr(scheduling, "_feasible_at", None)  # any search would fail on the call
    res = exact_min_schedule(words, star5.degree)
    assert (res.status, res.makespan) == ("optimal", 111)
    assert res.schedule == greedy_schedule(words)
    assert res.nodes == sum(map(len, words.values()))  # one per letter, as the search's first path would spend


def test_exact_searches_only_below_greedy(monkeypatch):
    # the floor is 2, but the two words cannot both start on factor 0 at slot 1: greedy's 3 is optimal
    word_map = {1: (0, 1), 2: (0, 1)}
    greedy = greedy_schedule(word_map)
    assert greedy.makespan == 3
    tried = []
    real = scheduling._feasible_at

    def spy(jobs, degree, horizon, budget):
        tried.append(horizon)
        return real(jobs, degree, horizon, budget)

    monkeypatch.setattr(scheduling, "_feasible_at", spy)
    res = exact_min_schedule(word_map, 2)
    assert tried == [2]
    assert (res.status, res.schedule) == ("optimal", greedy)


def tight_schedule_feasible(word_map, degree):
    """Predict feasibility at the averaged horizon T = ceil(total letters / d) without searching.

    The paper's diameter-2 guarantee, for words of at most two letters.
    Factor m needs: its total load within T; if any two-letter word starts
    on m, a start slot no later than T-1; if any ends on m, an end slot no
    earlier than 2, i.e. at most T-1 of the T slots can hold ends.  These
    three per-factor conditions are also sufficient, which the exhaustive
    cross-checks below and in test_acceptance.py confirm.
    """
    load = factor_occurrences(word_map, degree)
    horizon = max(1, -(-sum(load) // degree))
    counts = two_layer_counts(word_map, degree)
    return horizon, max(load) <= horizon and max(counts.first_of_pair + counts.second_of_pair) < horizon


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
    g = fixtures.builtin_graph("petersen")
    with pytest.raises(UnsupportedGraphError):
        regular_bound_exact(g, layer_profile(g), {})


def test_diameter_two_accepts_supplied_words():
    g = fixtures.builtin_graph("z7-124")
    profile = layer_profile(g)
    words = dict(regular_bound_exact(g, profile, bfs_word_set(g, profile)).witness)
    assert {v for v, w in words.items() if len(w) == 2} == {4, 5, 6}
    _, sched = schedule_plan(g, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    assert sched.makespan == 3
    # words that miss their vertices still schedule; the replay finds the packets they lose
    words.update({v: (0, 0) for v in range(4, 7)})
    plan, sched = schedule_plan(g, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    trace = run_transpose(g, plan, sched)
    assert trace.undelivered and not trace.clean


def test_classify_q3_all_true():
    g, word_map = corpus_word_map("q3")
    res = exact_min_schedule(word_map, g.degree)
    flags = classify(word_map, res.schedule, layer_profile(g))
    assert (flags.balanced, flags.short, flags.optimal, flags.minimum) == (True, True, True, True)


def test_classify_c4_single_factor():
    g, word_map = corpus_word_map("c4")
    res = exact_min_schedule(word_map, g.degree)
    flags = classify(word_map, res.schedule, layer_profile(g))
    assert flags.balanced and flags.short and flags.optimal and flags.minimum


def test_classify_flags_unbalanced_choice():
    # Z6 with generators 1,2,3 has theta = ceil((0+3+4)/3) = 3; sending both
    # layer-2 vertices through generator 2 loads it with 4 occurrences
    from alltoall.graphs import build_cayley_coset_graph
    from alltoall.groups import CyclicGroup, GroupSpec

    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(6), generators=(1, 2, 3)))
    word_map = {1: (0,), 2: (1,), 3: (2,), 4: (1, 1), 5: (1, 2)}
    sched = greedy_schedule(word_map)
    flags = classify(word_map, sched, layer_profile(g))
    assert factor_occurrences(word_map, 3) == [1, 4, 2]
    assert not flags.balanced
    assert flags.short  # ceil(7/3) = 3 still equals the global bound


def loop_occurrences(word_map, degree):
    """factor_occurrences as first written: letter by letter, range-checking each."""
    counts = [0] * degree
    for word in word_map.values():
        for j in word:
            if not (0 <= j < degree):
                raise InputError(f"factor index {j} out of range for degree {degree}")
            counts[j] += 1
    return counts


@settings(max_examples=300, deadline=None)
@given(degree=st.one_of(st.integers(0, 5), st.integers(250, 300)),
       word_map=st.dictionaries(st.integers(0, 20), st.lists(
           st.one_of(st.integers(-2, 6), st.integers(250, 300), st.booleans()), max_size=5).map(tuple), max_size=8))
def test_factor_occurrences_counts_and_refuses_as_the_letter_loop_does(degree, word_map):
    try:
        expected = loop_occurrences(word_map, degree)
    except InputError as exc:
        with pytest.raises(InputError) as ours:
            factor_occurrences(word_map, degree)
        assert str(ours.value) == str(exc)
    else:
        assert factor_occurrences(word_map, degree) == expected


def test_classify_guards_the_chain():
    # feeding a profile whose global bound exceeds the words' average load
    # must be reported as an internal inconsistency, not silently classified
    profile = layer_profile(fixtures.builtin_graph("z7-124"))
    word_map = {1: (0,)}
    sched = greedy_schedule(word_map)
    with pytest.raises(InputError):
        classify(word_map, sched, profile)


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
    assert scheduling._earliest_slots(word_map).times == scanning_greedy_times(word_map)


def test_greedy_matches_the_scanning_greedy_on_random_word_maps():
    rng = random.Random(41)
    for _ in range(200):
        degree = rng.randint(1, 4)
        word_map = random_word_map(rng, degree, rng.randint(0, 40), rng.randint(1, 8))
        sched = scheduling._earliest_slots(word_map)
        validate_schedule(word_map, sched, degree)
        assert sched.times == scanning_greedy_times(word_map)


# ---------------------------------------------------------------------------
# greedy in both time directions
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=word_maps)
def test_greedy_keeps_each_word_and_never_does_worse_than_the_forward_pass(case):
    degree, word_map = case
    forward = scheduling._earliest_slots(word_map)
    sched = greedy_schedule(word_map)
    validate_schedule(word_map, sched, degree)
    for k, slots in sched.times.items():  # each word's letters run in the word's own order
        assert tuple(j for _, j in sorted(zip(slots, word_map[k]))) == tuple(word_map[k])
    assert floor_of(word_map, degree) <= sched.makespan <= forward.makespan
    if forward.makespan == floor_of(word_map, degree):
        assert sched == forward


def bfs_word_map(g):
    return {v: w for v, w in bfs_word_set(g, layer_profile(g)).items() if w}


@pytest.mark.parametrize("name", ["Q4", "Q5", "Q6", "Q7", "Q8", "Q10", "torus16", "torus32"])
def test_the_mirrored_pass_brings_hypercubes_and_tori_to_the_floor(name):
    g = hypercube(int(name[1:])) if name.startswith("Q") else torus(int(name[len("torus"):]))
    word_map = bfs_word_map(g)
    floor = floor_of(word_map, g.degree)
    assert scheduling._earliest_slots(word_map).makespan > floor
    sched = greedy_schedule(word_map)
    validate_schedule(word_map, sched, g.degree)
    assert sched.makespan == floor


@pytest.mark.parametrize("name", ["star5", "star6", "Z256"])
def test_greedy_keeps_the_forward_schedule_where_it_meets_the_floor(name):
    if name == "Z256":
        g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(256), generators=(1, 16)))
    else:
        g = star(int(name[-1]))
    word_map = bfs_word_map(g)
    forward = scheduling._earliest_slots(word_map)
    assert forward.makespan == floor_of(word_map, g.degree)
    assert greedy_schedule(word_map) == forward


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
    for v, w in bfs_word_set(g, layer_profile(g)).items():
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
        assert sched == greedy_schedule(word_map)


def hypercube(k):
    group = ProductGroup([CyclicGroup(2)] * k)
    return build_cayley_coset_graph(GroupSpec(group=group, generators=tuple(
        tuple(int(i == j) for i in range(k)) for j in range(k))))


def test_open_shop_colours_where_greedy_misses_the_floor():
    # Z8 x Z2 {(5, 0), (1, 1)}: greedy needs 33 slots forward and mirrored, the floor is theta = 32
    g = build_cayley_coset_graph(GroupSpec(group=ProductGroup([CyclicGroup(8), CyclicGroup(2)]),
                                           generators=((5, 0), (1, 1))))
    word_map = dict(bfs_word_set(g, layer_profile(g)))
    assert greedy_schedule(word_map).makespan == 33
    words, sched = assert_open_shop_schedule(word_map, g.degree)
    assert sched.makespan == 32
    assert words != word_map  # some letters moved
    for k, w in words.items():
        assert all(walk(g, base, w) == walk(g, base, word_map[k]) for base in range(g.vertex_count))


def test_open_shop_empty_input():
    assert open_shop_schedule({1: ()}, degree=2) == ({}, Schedule(times={}))


# ---------------------------------------------------------------------------
# an outside oracle: time-indexed 0/1 models under scipy's MILP solver
# ---------------------------------------------------------------------------


def milp_makespan(word_map, degree, ordered):
    """The least makespan of a time-indexed 0/1 model of the words, by scipy.optimize.milp.

    One binary per (letter, slot) up to greedy's makespan, which bounds the
    optimum, and one integer for the makespan, at least every letter's slot.
    Each letter takes one slot and each (factor, slot) at most one letter.
    With `ordered` slots increase along each word (the job shop), else each
    word uses a slot at most once (the open shop).
    """
    optimize = pytest.importorskip("scipy.optimize")
    words = [tuple(w) for w in word_map.values() if w]
    if not words:
        return 0
    horizon = greedy_schedule(word_map).makespan
    letters = [(w, i, j) for w, word in enumerate(words) for i, j in enumerate(word)]
    size = len(letters) * horizon + 1  # x[letter, slot] at letter * horizon + slot - 1, the makespan last
    slots = range(1, horizon + 1)
    rows, lower, upper = [], [], []

    def add(terms, low, high):
        row = [0] * size
        for column, coeff in terms:
            row[column] += coeff
        rows.append(row)
        lower.append(low)
        upper.append(high)

    def at(letter, t):
        return letter * horizon + t - 1

    for l, (w, i, j) in enumerate(letters):
        add([(at(l, t), 1) for t in slots], 1, 1)
        add([(at(l, t), t) for t in slots] + [(size - 1, -1)], -math.inf, 0)
        if ordered and i > 0:
            add([(at(l, t), t) for t in slots] + [(at(l - 1, t), -t) for t in slots], 1, math.inf)
    for j in range(degree):
        for t in slots:
            add([(at(l, t), 1) for l, letter in enumerate(letters) if letter[2] == j], 0, 1)
    if not ordered:
        for w in range(len(words)):
            for t in slots:
                add([(at(l, t), 1) for l, letter in enumerate(letters) if letter[0] == w], 0, 1)
    res = optimize.milp(
        [0] * (size - 1) + [1],
        constraints=optimize.LinearConstraint(rows, lower, upper),
        integrality=[1] * size,
        bounds=optimize.Bounds([0] * size, [1] * (size - 1) + [horizon]),
        # HiGHS's presolve ends some of these models in "Solve error" (status 4), e.g. the
        # word map {0: (1, 1), 1: (1, 0, 2), 2: (0, 1, 2)} at degree 3; without it they solve
        options={"presolve": False},
    )
    assert res.status == 0, res.message
    return round(res.fun)


tiny_word_maps = st.integers(1, 3).flatmap(lambda degree: st.tuples(
    st.just(degree),
    st.lists(st.lists(st.integers(0, degree - 1), min_size=1, max_size=3).map(tuple), max_size=4)
    .map(lambda words: dict(enumerate(words))),
))


@settings(max_examples=60, deadline=None)
@given(case=tiny_word_maps)
def test_the_exact_makespans_match_a_milp(case):
    degree, word_map = case
    assert exact_min_schedule(word_map, degree).makespan == milp_makespan(word_map, degree, ordered=True)
    _, sched = open_shop_schedule(word_map, degree)
    assert sched.makespan == floor_of(word_map, degree) == milp_makespan(word_map, degree, ordered=False)


# ---------------------------------------------------------------------------
# the one entry point
# ---------------------------------------------------------------------------


def test_schedule_plan_picks_the_scheduler_from_the_host():
    q3, word_map = corpus_word_map("q3")
    assert schedule_plan(q3, word_map, "greedy", 0) == (word_map, greedy_schedule(word_map))
    assert schedule_plan(q3, word_map, "exact", 0) == open_shop_schedule(word_map, q3.degree)
    star4 = star(4)
    words = bfs_word_set(star4, layer_profile(star4))
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
        if max(layer_profile(g).dist) <= 2:
            graphs.append((spec, g))
    return graphs


def test_general_path_on_random_diameter_two_cayley_graphs():
    for spec, g in random_diameter_two_graphs(random.Random(5), 120):
        profile = layer_profile(g)
        dist = profile.dist
        two = [v for v in range(g.vertex_count) if dist[v] == 2]
        options = {v: [(j, k) for j, mid in enumerate(g.out[0]) for k, t in enumerate(g.out[mid]) if t == v]
                   for v in two}
        # every generator carries one single, so the busiest generator's load is 1 + max(first + second)
        bound = regular_bound_exact(g, profile, bfs_word_set(g, profile))
        assert bound.exact
        assert bound.value == 1 + recursive_balance(two, options, g.degree), spec
        words, sched = schedule_plan(g, bound.witness, "exact", DEFAULT_SCHEDULE_BUDGET)
        validate_schedule(words, sched, g.degree)
        assert sched.makespan <= two_layer_time_bound(two_layer_counts(words, g.degree)), spec
