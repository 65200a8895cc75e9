"""Replay of scheduled exchanges: expansion, conflict detection, trace output."""

import random

import pytest

from alltoall import fixtures
from alltoall.errors import InputError
from alltoall.factorization import factor_digraph, search_spanning_factorization, spanning_factorization_from_cayley
from alltoall.graphs import as_digraph
from alltoall.scheduling import Schedule, exact_min_schedule, greedy_schedule
from alltoall.simulate import (
    TimedPath,
    expand_factor_paths,
    run_transpose,
    trace_csv_rows,
)
from alltoall.words import WordSet, bfs_word_set


def scheduled_corpus(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    res = exact_min_schedule(ws.words, g.degree)
    return g, ws, res.schedule


@pytest.mark.parametrize("name,paths,horizon", [("c4", 12, 6), ("z7-124", 42, 3), ("q3", 56, 4)])
def test_cayley_expansion_is_clean(name, paths, horizon):
    g, ws, sched = scheduled_corpus(name)
    expanded = expand_factor_paths(g, ws.words, sched)
    assert len(expanded) == g.vertex_count * (g.vertex_count - 1)
    assert len(expanded) == paths
    trace = run_transpose(g, expanded)
    assert trace.clean
    assert trace.horizon == horizon
    assert len(trace.delivered) == paths


def test_factor_expansion_petersen():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(as_digraph(g))
    sf = found.found
    assert sf is not None
    word_map = {i: w for i, w in enumerate(sf.words) if w}
    sched = exact_min_schedule(word_map, sf.degree).schedule
    host = factor_digraph(sf.base)
    paths = expand_factor_paths(host, word_map, sched)
    assert len(paths) == 90
    trace = run_transpose(host, paths)
    assert trace.clean
    assert trace.horizon == 5


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_cayley_plan_replays_alike_over_its_factors(name):
    # a Cayley word set is the spanning factorization whose factors are the generators
    g, ws, sched = scheduled_corpus(name)
    host = factor_digraph(spanning_factorization_from_cayley(g, ws).base)
    over_graph = run_transpose(g, expand_factor_paths(g, ws.words, sched))
    over_factors = run_transpose(host, expand_factor_paths(host, ws.words, sched))
    assert over_graph.clean and over_factors.clean
    assert over_graph.horizon == over_factors.horizon
    assert trace_csv_rows(over_graph, g) == trace_csv_rows(over_factors, host)


def test_expansion_rejects_invalid_schedule():
    g, ws, _ = scheduled_corpus("c4")
    bad = Schedule(times={1: (1,), 2: (1, 2), 3: (1, 2, 3)})
    with pytest.raises(InputError):
        expand_factor_paths(g, ws.words, bad)


def test_conflicts_are_recorded_not_raised():
    g = fixtures.builtin_graph("c4")
    # two packets claim edge (0, gen 0) in slot 1
    paths = [
        TimedPath(source=0, dest=1, steps=(((0, 0), 1),)),
        TimedPath(source=0, dest=1, steps=(((0, 0), 1),)),
    ]
    trace = run_transpose(g, paths)
    assert len(trace.conflicts) == 1
    time, edge, first, second = trace.conflicts[0]
    assert (time, edge) == (1, (0, 0))
    assert first == second == (0, 1)
    assert not trace.clean


def test_duplicate_delivery_marks_trace_dirty():
    g = fixtures.builtin_graph("c4")
    paths = [
        TimedPath(source=0, dest=1, steps=(((0, 0), 1),)),
        TimedPath(source=0, dest=1, steps=(((0, 0), 2),)),
    ]
    trace = run_transpose(g, paths)
    assert not trace.conflicts
    assert trace.delivered[(0, 1)] == 2
    assert not trace.clean


def test_undelivered_pairs_listed():
    g = fixtures.builtin_graph("c4")
    trace = run_transpose(g, [TimedPath(source=0, dest=1, steps=(((0, 0), 1),))])
    assert (2, 3) in trace.undelivered
    assert (0, 1) not in trace.undelivered
    assert len(trace.undelivered) == 11


def test_structural_violations_raise():
    g = fixtures.builtin_graph("c4")
    teleport = TimedPath(source=0, dest=2, steps=(((1, 0), 1),))
    with pytest.raises(InputError, match="jumps"):
        run_transpose(g, [teleport])
    bad_index = TimedPath(source=0, dest=1, steps=(((0, 5), 1),))
    with pytest.raises(InputError, match="out of range"):
        run_transpose(g, [bad_index])
    stalled = TimedPath(source=0, dest=2, steps=(((0, 0), 1), ((1, 0), 1)))
    with pytest.raises(InputError, match="back in time"):
        run_transpose(g, [stalled])
    lost = TimedPath(source=0, dest=3, steps=(((0, 0), 1),))
    with pytest.raises(InputError, match="destination"):
        run_transpose(g, [lost])


def test_trace_rows_are_time_sorted_and_complete():
    g, ws, sched = scheduled_corpus("z7-124")
    trace = run_transpose(g, expand_factor_paths(g, ws.words, sched))
    rows = trace_csv_rows(trace, g)
    assert len(rows) == sum(len(slot) for slot in trace.occupancy.values())
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    for time, src, dst, gen, ps, pd in rows:
        assert g.successors(src)[gen] == dst


def random_valid_schedule(word_map, rng):
    """Any labeling that passes validation, not a clever one."""
    total = sum(len(w) for w in word_map.values())
    horizon = 3 * total + 3
    used = set()
    times = {}
    for target in rng.sample(sorted(word_map), len(word_map)):
        word = word_map[target]
        for _ in range(200):
            ts = sorted(rng.sample(range(1, horizon + 1), len(word)))
            if all((j, t) not in used for j, t in zip(word, ts)):
                break
        else:
            raise AssertionError("could not place a word, horizon too tight")
        used.update(zip(word, ts))
        times[target] = tuple(ts)
    return Schedule(times=times)


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_any_valid_labeling_expands_cleanly(name):
    # the heart of the construction: conflict-freedom for the base labeling
    # transfers to all shifted copies, however wasteful the labeling is
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(20):
        sched = random_valid_schedule(ws.words, rng)
        trace = run_transpose(g, expand_factor_paths(g, ws.words, sched))
        assert trace.clean


def test_word_set_with_slack_still_expands():
    # non-shortest words are allowed as long as the schedule is valid
    g = fixtures.builtin_graph("c4")
    ws = WordSet(words={1: (0,), 2: (0, 0), 3: (0, 0, 0, 0, 0, 0, 0)}, shortest=False)
    sched = greedy_schedule(ws.words, g.degree)
    trace = run_transpose(g, expand_factor_paths(g, ws.words, sched))
    assert trace.clean
    assert trace.horizon == sched.makespan
