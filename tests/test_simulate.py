"""Replay of scheduled exchanges: expansion, conflict detection, trace output."""

import ast
import random
import tracemalloc
from pathlib import Path

import pytest

from alltoall import fixtures, simulate
from alltoall.errors import InputError
from alltoall.factorization import factor_digraph, search_spanning_factorization
from alltoall.graphs import Digraph
from alltoall.scheduling import Schedule, exact_min_schedule, greedy_schedule
from alltoall.simulate import (
    Expansion,
    expand_factor_paths,
    run_transpose,
)
from alltoall.words import bfs_word_set


def replay_text(g, paths):
    """The trace of run_transpose with a sink, and the text written to that sink."""
    chunks = []
    trace = run_transpose(g, paths, chunks.append)
    return trace, "".join(chunks)


def trace_lines(text):
    """Trace text parsed back into (time, src, dst, gen, packet_src, packet_dst) tuples."""
    return [tuple(map(int, line.split(","))) for line in text.splitlines()]


def scheduled_corpus(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    res = exact_min_schedule(ws, g.degree)
    return g, ws, res.schedule


@pytest.mark.parametrize("name,paths,horizon", [("c4", 12, 6), ("z7-124", 42, 3), ("q3", 56, 4)])
def test_cayley_expansion_is_clean(name, paths, horizon):
    g, ws, sched = scheduled_corpus(name)
    expanded = expand_factor_paths(g, ws, sched)
    assert len(expanded) == g.vertex_count * (g.vertex_count - 1)
    assert len(expanded) == paths
    trace = run_transpose(g, expanded)
    assert trace.clean
    assert trace.horizon == horizon
    assert trace.delivered_pairs == paths


def test_factor_expansion_petersen():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g)
    assert found.factors is not None
    word_map = {i: w for i, w in enumerate(found.words) if w}
    sched = exact_min_schedule(word_map, len(found.factors)).schedule
    host = factor_digraph(found.factors)
    paths = expand_factor_paths(host, word_map, sched)
    assert len(paths) == 90
    trace = run_transpose(host, paths)
    assert trace.clean
    assert trace.horizon == 5


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_cayley_plan_replays_alike_over_its_factors(name):
    # a Cayley word set is the spanning factorization whose factors are the generators
    g, ws, sched = scheduled_corpus(name)
    host = factor_digraph(tuple(zip(*g.out)))
    over_graph, graph_text = replay_text(g, expand_factor_paths(g, ws, sched))
    over_factors, factor_text = replay_text(host, expand_factor_paths(host, ws, sched))
    assert over_graph.clean and over_factors.clean
    assert over_graph.horizon == over_factors.horizon
    assert graph_text == factor_text


def test_expansion_rejects_invalid_schedule():
    g, ws, _ = scheduled_corpus("c4")
    # every word takes generator 0 in slot 1: the expansion lets it through
    # and the replay, not the scheduler's validation, finds the collisions
    double_booked = Schedule(times={1: (1,), 2: (1, 2), 3: (1, 2, 3)})
    trace = run_transpose(g, expand_factor_paths(g, ws, double_booked))
    assert not trace.clean and trace.conflicts
    # a word whose slots do not match its letters is no schedule of it at all
    for short in ({1: (1,), 2: (2,), 3: (3, 4, 5)}, {1: (1,), 3: (2, 3, 4)}):
        with pytest.raises(InputError, match="letters but"):
            expand_factor_paths(g, ws, Schedule(times=short))
    # slots that do not rise along a word are broken routes, which the replay raises on
    with pytest.raises(InputError, match="back in time"):
        run_transpose(g, expand_factor_paths(g, ws, Schedule(times={1: (1,), 2: (3, 2), 3: (4, 5, 6)})))


def test_the_replay_borrows_no_scheduler_code():
    # the replay is the independent oracle: from the scheduling module it may take the plan's types only
    tree = ast.parse(Path(simulate.__file__).read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "scheduling":
                taken.extend(alias.name for alias in node.names)
            else:
                assert "scheduling" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any("scheduling" in alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id != "scheduling", f"simulate.py reads scheduling.{node.attr}"
    assert sorted(taken) == ["Schedule", "WordMap"]


def test_conflicts_are_recorded_not_raised():
    g = fixtures.builtin_graph("c4")
    # two packets claim edge (0, gen 0) in slot 1
    paths = [
        (0, 1, (0,), (0,), (1,)),
        (0, 1, (0,), (0,), (1,)),
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
        (0, 1, (0,), (0,), (1,)),
        (0, 1, (0,), (0,), (2,)),
    ]
    trace = run_transpose(g, paths)
    assert not trace.conflicts
    assert trace.deliveries(0, 1) == 2
    assert not trace.clean


def test_undelivered_pairs_listed():
    g = fixtures.builtin_graph("c4")
    trace = run_transpose(g, [(0, 1, (0,), (0,), (1,))])
    assert (2, 3) in trace.undelivered
    assert (0, 1) not in trace.undelivered
    assert len(trace.undelivered) == 11


def test_structural_violations_raise():
    g = fixtures.builtin_graph("c4")
    teleport = (0, 2, (1,), (0,), (1,))
    with pytest.raises(InputError, match="jumps"):
        run_transpose(g, [teleport])
    bad_index = (0, 1, (0,), (5,), (1,))
    with pytest.raises(InputError, match="out of range"):
        run_transpose(g, [bad_index])
    stalled = (0, 2, (0, 1), (0, 0), (1, 1))
    with pytest.raises(InputError, match="back in time"):
        run_transpose(g, [stalled])
    lost = (0, 3, (0,), (0,), (1,))
    with pytest.raises(InputError, match="destination"):
        run_transpose(g, [lost])


@pytest.mark.parametrize("source,dest", [(-1, 0), (4, 1), (5, 5), (0, -1), (0, 10**12)])
def test_packets_off_the_graph_raise(source, dest):
    g = fixtures.builtin_graph("c4")
    with pytest.raises(InputError, match="two vertices"):
        run_transpose(g, [(source, dest, (), (), ())])


def test_trace_rows_are_time_sorted_and_complete():
    g, ws, sched = scheduled_corpus("z7-124")
    _, text = replay_text(g, expand_factor_paths(g, ws, sched))
    rows = trace_lines(text)
    # every letter of every word crosses one arc from each of the n bases
    assert len(rows) == g.vertex_count * sum(map(len, ws.values()))
    order = [(time, src, gen) for time, src, _, gen, _, _ in rows]
    assert order == sorted(set(order))  # (slot, tail, out-position) order, each arc once a slot
    for time, src, dst, gen, ps, pd in rows:
        assert g.out[src][gen] == dst


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
        sched = random_valid_schedule(ws, rng)
        trace = run_transpose(g, expand_factor_paths(g, ws, sched))
        assert trace.clean


def test_word_set_with_slack_still_expands():
    # non-shortest words are allowed as long as the schedule is valid
    g = fixtures.builtin_graph("c4")
    ws = {1: (0,), 2: (0, 0), 3: (0, 0, 0, 0, 0, 0, 0)}
    sched = greedy_schedule(ws, g.degree)
    trace = run_transpose(g, expand_factor_paths(g, ws, sched))
    assert trace.clean
    assert trace.horizon == sched.makespan


# ---------------------------------------------------------------------------
# the flat replay against an independent dict-based reference
# ---------------------------------------------------------------------------


def reference_replay(g, paths):
    """A dict-of-dicts replay of packets: (horizon, conflicts, undelivered, deliveries, trace rows)."""
    occupancy = {}
    conflicts = []
    delivered = {}
    horizon = 0
    for source, dest, tails, ports, times in paths:
        packet = (source, dest)
        at = source
        last = 0
        for tail, index, time in zip(tails, ports, times):
            heads = g.out[tail]
            assert tail == at and 0 <= index < len(heads) and time > last
            slot = occupancy.setdefault(time, {})
            if (tail, index) in slot:
                conflicts.append((time, (tail, index), slot[(tail, index)], packet))
            else:
                slot[(tail, index)] = packet
            at = heads[index]
            last = time
            horizon = max(horizon, time)
        assert at == dest
        delivered[packet] = delivered.get(packet, 0) + 1
    n = g.vertex_count
    undelivered = tuple((i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in delivered)
    rows = [
        (time, tail, g.out[tail][index], index, ps, pd)
        for time in sorted(occupancy)
        for (tail, index), (ps, pd) in sorted(occupancy[time].items())
    ]
    return horizon, conflicts, undelivered, delivered, rows


def packet_list(packets):
    """The packets as a list of tuples, which always takes the packet-by-packet replay."""
    return [(s, d, tuple(tails), tuple(ports), tuple(times)) for s, d, tails, ports, times in packets]


def assert_replays_agree(g, paths, packets=None):
    """run_transpose over `packets` (default: the paths themselves) matches the reference over `paths`."""
    horizon, conflicts, undelivered, delivered, rows = reference_replay(g, paths)
    trace, text = replay_text(g, paths if packets is None else packets)
    n = g.vertex_count
    assert trace.horizon == horizon
    assert list(trace.conflicts) == conflicts
    assert trace.undelivered == undelivered
    counts = {(s, d): trace.deliveries(s, d) for s in range(n) for d in range(n) if trace.deliveries(s, d)}
    assert counts == delivered
    assert trace.delivered_pairs == len(delivered)
    assert trace_lines(text) == rows
    assert trace.clean == (not conflicts and not undelivered and all(c == 1 for c in delivered.values()))
    return trace


def unchecked_paths(g, word_map, rng, horizon):
    """Every base walks every word at random increasing slots: no labeling rule, so packets collide."""
    times = {key: sorted(rng.sample(range(1, horizon + 1), len(w))) for key, w in word_map.items() if w}
    paths = []
    for base in range(g.vertex_count):
        for key, slots in times.items():
            v, tails = base, []
            for j in word_map[key]:
                tails.append(v)
                v = g.out[v][j]
            paths.append((base, v, tuple(tails), word_map[key], tuple(slots)))
    rng.shuffle(paths)
    return paths


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_flat_replay_matches_reference_on_valid_schedules(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    rng = random.Random(7)
    for _ in range(5):
        expanded = expand_factor_paths(g, ws, random_valid_schedule(ws, rng))
        paths = packet_list(expanded)
        assert assert_replays_agree(g, paths, packets=expanded).clean
        assert_replays_agree(g, paths)


def test_flat_replay_matches_reference_over_factors():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g)
    word_map = {i: w for i, w in enumerate(found.words) if w}
    host = factor_digraph(found.factors)
    expanded = expand_factor_paths(host, word_map, greedy_schedule(word_map, len(found.factors)))
    assert assert_replays_agree(host, packet_list(expanded), packets=expanded).clean


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_flat_replay_matches_reference_on_conflicting_paths(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    rng = random.Random(11)
    conflicts = 0
    for horizon in (3, 5, 12):
        for _ in range(3):
            conflicts += len(assert_replays_agree(g, unchecked_paths(g, ws, rng, horizon)).conflicts)
    assert conflicts


def test_flat_replay_matches_reference_on_hand_built_conflicts():
    g = fixtures.builtin_graph("c4")
    paths = [
        (0, 2, (0, 1), (0, 0), (1, 2)),
        (1, 2, (1,), (0,), (2,)),
        (3, 1, (3, 0), (0, 0), (1, 2)),
        (0, 1, (0,), (0,), (1,)),
        (1, 3, (1, 2), (0, 0), (2, 3)),
    ]
    trace = assert_replays_agree(g, paths)
    assert [c[3] for c in trace.conflicts] == [(1, 2), (0, 1), (1, 3)]


def test_flat_replay_matches_reference_on_duplicated_and_missing_packets():
    g, ws, sched = scheduled_corpus("q3")
    paths = packet_list(expand_factor_paths(g, ws, sched))
    rng = random.Random(3)
    duplicated = paths + rng.sample(paths, 5)
    trace = assert_replays_agree(g, duplicated)
    assert len(trace.conflicts) >= 5 and not trace.undelivered
    source, dest, tails, ports, times = paths[9]
    late = (source, dest, tails, ports, tuple(time + 100 for time in times))
    trace = assert_replays_agree(g, paths + [late])
    assert not trace.conflicts and not trace.undelivered and not trace.clean
    assert trace.deliveries(source, dest) == 2
    missing = paths[:17] + paths[18:]
    trace = assert_replays_agree(g, missing)
    assert trace.undelivered == (paths[17][:2],)
    assert not trace.conflicts


def test_flat_replay_matches_reference_on_an_irregular_host():
    g = Digraph(out=((1, 2), (2,), (0,)))
    paths = [
        (0, 2, (0,), (1,), (1,)),
        (0, 1, (0,), (0,), (2,)),
        (1, 0, (1, 2), (0, 0), (1, 2)),
        (2, 1, (2, 0), (0, 0), (2, 3)),
    ]
    trace = assert_replays_agree(g, paths)
    assert len(trace.conflicts) == 1


def replay_with_peak(g, paths):
    """replay_text, plus the peak memory it allocated."""
    tracemalloc.start()
    try:
        trace, text = replay_text(g, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return trace, text, peak


def test_memory_follows_the_slots_used_not_the_horizon():
    g = fixtures.builtin_graph("q3")
    paths = [
        (0, 1, (0,), (0,), (1,)),
        (1, 0, (1,), (0,), (10**9,)),
    ]
    assert_replays_agree(g, paths)
    trace, text, peak = replay_with_peak(g, paths)
    assert trace.horizon == 10**9
    assert [row[0] for row in trace_lines(text)] == [1, 10**9]
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the word-by-word pass against the packet-by-packet replay
# ---------------------------------------------------------------------------


def expansion(g, jobs):
    """An Expansion built by hand, with no schedule check: the oracle sees plans a scheduler would refuse."""
    return Expansion(succ=g.out, jobs=jobs)


def replay_watched(g, expanded):
    """(trace, text, settled) of the replay of an Expansion with a sink; settled when the word pass took it.

    The log holds the sink's writes and a None where the packet-by-packet
    replay starts walking the packets, which it does only for a plan the
    word pass gave up on; that pass must give up before it writes anything.
    """
    log = []

    class Watched(Expansion):
        def __iter__(self):
            log.append(None)
            return super().__iter__()

    trace = run_transpose(g, Watched(expanded.succ, expanded.jobs), log.append)
    settled = None not in log
    assert settled or log[0] is None, "the word pass wrote rows before handing the plan on"
    return trace, "".join(filter(None, log)), settled


def assert_word_pass_agrees(g, expanded):
    """The replay of an Expansion equals the packet-by-packet one, trace text included.

    Returns it and whether the word pass settled it.
    """
    fast, fast_text, settled = replay_watched(g, expanded)
    slow, slow_text = replay_text(g, packet_list(expanded))
    assert fast.horizon == slow.horizon
    assert fast.conflicts == slow.conflicts
    assert fast.undelivered == slow.undelivered
    assert fast.counts == slow.counts
    assert fast_text == slow_text
    assert fast.clean == slow.clean
    assert_replays_agree(g, packet_list(expanded), packets=expanded)
    return fast, settled


def assert_same_error(g, expanded, match):
    with pytest.raises(InputError, match=match) as fast:
        run_transpose(g, expanded)
    with pytest.raises(InputError) as slow:
        run_transpose(g, packet_list(expanded))
    assert str(fast.value) == str(slow.value)


def kautz_2_2():
    """Kautz K(2, 2): regular, but no out-position's column of heads is a permutation."""
    verts = [(a, b) for a in range(3) for b in range(3) if a != b]
    index = {w: i for i, w in enumerate(verts)}
    return Digraph(out=tuple(tuple(index[(b, x)] for x in range(3) if x != b) for _, b in verts))


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_word_pass_refuses_conflicting_slots(name):
    g = fixtures.builtin_graph(name)
    words = list(bfs_word_set(g, mode="load-balanced").values())
    rng = random.Random(17)
    refused = 0
    for horizon in (3, 5, 12):
        for _ in range(3):
            jobs = [(w, tuple(sorted(rng.sample(range(1, horizon + 1), len(w))))) for w in words]
            trace, settled = assert_word_pass_agrees(g, expansion(g, jobs))
            assert settled == (not trace.conflicts)
            refused += not settled
    assert refused


def test_word_pass_refuses_columns_that_are_not_permutations():
    g = kautz_2_2()
    rng = random.Random(5)
    conflicts = 0
    for _ in range(10):
        words = [tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))) for _ in range(5)]
        jobs = [(w, tuple(range(1 + k, 1 + k + len(w)))) for k, w in enumerate(words)]
        trace, settled = assert_word_pass_agrees(g, expansion(g, jobs))
        assert not settled
        conflicts += len(trace.conflicts)
    assert conflicts


@pytest.mark.parametrize("times", [(1, 1), (2, 1), (0, 1)])
def test_word_pass_leaves_broken_slots_to_the_packet_replay(times):
    g = fixtures.builtin_graph("z5-12")
    assert_same_error(g, expansion(g, [((0,), (1,)), ((0, 1), times)]), "back in time")


def test_word_pass_on_an_irregular_host():
    g = Digraph(out=((1, 2), (2,), (0,)))
    # position 0 is a permutation held by every vertex: the word pass settles it
    trace, settled = assert_word_pass_agrees(g, expansion(g, [((0,), (1,)), ((0, 0), (2, 3))]))
    assert settled and trace.clean
    # position 1 exists at vertex 0 only
    assert_same_error(g, expansion(g, [((0,), (1,)), ((1,), (2,))]), "out of range")


def test_word_pass_counts_duplicate_deliveries():
    g = fixtures.builtin_graph("z7-124")
    ws = bfs_word_set(g, mode="load-balanced")
    jobs = [(w, tuple(range(1, len(w) + 1))) for w in ws.values() if len(w) == 1]
    jobs.append((jobs[0][0], (4,)))  # a second key carrying the first word, one slot later
    trace, settled = assert_word_pass_agrees(g, expansion(g, jobs))
    assert settled and not trace.conflicts and not trace.clean
    assert trace.deliveries(0, g.out[0][jobs[0][0][0]]) == 2


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_word_pass_settles_valid_schedules(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, mode="load-balanced")
    rng = random.Random(23)
    for _ in range(5):
        sched = random_valid_schedule(ws, rng)
        jobs = [(w, sched.times[key]) for key, w in ws.items()]
        trace, settled = assert_word_pass_agrees(g, expansion(g, jobs))
        assert settled and trace.clean


def test_word_pass_settles_valid_schedules_over_factors():
    found = search_spanning_factorization(fixtures.builtin_graph("petersen"))
    word_map = {i: w for i, w in enumerate(found.words) if w}
    host = factor_digraph(found.factors)
    rng = random.Random(29)
    for _ in range(5):
        sched = random_valid_schedule(word_map, rng)
        jobs = [(w, sched.times[key]) for key, w in word_map.items()]
        trace, settled = assert_word_pass_agrees(host, expansion(host, jobs))
        assert settled and trace.clean


def builtin_plans(name):
    """(host, words) of a builtin's plans: over a searched spanning factorization, and over its generators."""
    g = fixtures.builtin_graph(name)
    found = search_spanning_factorization(g)
    plans = [(factor_digraph(found.factors), {i: w for i, w in enumerate(found.words) if w})]
    if g.is_cayley:
        plans.append((g, bfs_word_set(g, mode="load-balanced")))
    return plans


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS))
def test_streamed_trace_matches_the_packet_replay_on_every_builtin(name):
    rng = random.Random(31)
    for host, word_map in builtin_plans(name):
        degree = len(host.out[0])
        schedules = [greedy_schedule(word_map, degree), exact_min_schedule(word_map, degree).schedule]
        schedules += [random_valid_schedule(word_map, rng) for _ in range(3)]
        for sched in schedules:
            trace, settled = assert_word_pass_agrees(host, expand_factor_paths(host, word_map, sched))
            assert settled and trace.clean


def test_a_double_booked_last_slot_falls_back_before_any_row_is_written():
    g, ws, sched = scheduled_corpus("q3")
    jobs = list(expand_factor_paths(g, ws, sched).jobs)
    last = max(times[-1] for _, times in jobs)
    word = next(word for word, times in jobs if times[-1] == last)
    # a lone letter on a (slot, position) the plan already uses, in its last slot
    jobs.append(((word[-1],), (last,)))
    trace, settled = assert_word_pass_agrees(g, expansion(g, jobs))
    assert not settled and trace.conflicts
    assert {conflict[0] for conflict in trace.conflicts} == {last}


def test_a_lone_letter_at_slot_10_9_writes_two_slots_in_memory_that_ignores_the_horizon():
    g = fixtures.builtin_graph("q3")
    expanded = expansion(g, [((0,), (1,)), ((1,), (10**9,))])
    trace, settled = assert_word_pass_agrees(g, expanded)
    assert settled and trace.horizon == 10**9
    _, text, peak = replay_with_peak(g, expanded)
    assert sorted({row[0] for row in trace_lines(text)}) == [1, 10**9]
    assert len(trace_lines(text)) == 2 * g.vertex_count
    assert peak < 2**20
