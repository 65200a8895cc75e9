"""Replay of scheduled exchanges: jobs from every base, conflict detection, trace output."""

import ast
import random
from array import array
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures, simulate
from alltoall.errors import InputError
from alltoall.factorization import factor_digraph, search_spanning_factorization
from alltoall.graphs import Digraph, build_cayley_coset_graph
from alltoall.groups import CyclicGroup, GroupSpec
from alltoall.layers import layer_profile
from alltoall.scheduling import (
    DEFAULT_SCHEDULE_BUDGET,
    Schedule,
    exact_min_schedule,
    greedy_schedule,
    schedule_plan,
)
from alltoall.simulate import (
    CONFLICT_WITNESSES,
    _dests_typecode,
    run_transpose,
)
from alltoall.words import bfs_word_set
from test_graphs import star
from test_scheduling import hypercube


def replay_text(g, plan):
    """The trace of run_transpose on a (word map, schedule) plan with a sink, and the text written to that sink."""
    chunks = []
    trace = run_transpose(g, *plan, chunks.append)
    return trace, "".join(chunks)


def trace_lines(text):
    """Trace text parsed back into (time, src, dst, gen, packet_src, packet_dst) tuples."""
    return [tuple(map(int, line.split(","))) for line in text.splitlines()]


def hand_plan(jobs):
    """A plan of (word, slots) jobs keyed by index, unchecked: the oracle sees plans a scheduler would refuse."""
    return dict(enumerate(word for word, _ in jobs)), Schedule(times=dict(enumerate(times for _, times in jobs)))


def plan_jobs(plan):
    """The jobs of a plan as the replay reads them: each non-empty word, in map order, with its key's slots."""
    word_map, sched = plan
    return [(word, sched.times.get(key, ())) for key, word in word_map.items() if word]


def walk(g, v, word):
    for j in word:
        v = g.out[v][j]
    return v


def deliveries(trace, source, dest):
    """How often packet (source, dest) arrived, read off the trace's dests table."""
    return trace.dests[source::trace.vertex_count].count(dest)


def scheduled_corpus(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, layer_profile(g))
    res = exact_min_schedule(ws, g.degree)
    return g, ws, res.schedule


@pytest.mark.parametrize("name,paths,horizon", [("c4", 12, 6), ("z7-124", 42, 3), ("q3", 56, 4)])
def test_cayley_expansion_is_clean(name, paths, horizon):
    g, ws, sched = scheduled_corpus(name)
    trace = run_transpose(g, ws, sched)
    assert trace.clean
    assert trace.horizon == horizon
    # one packet per (base, job), and each delivers a distinct pair
    assert trace.delivered_pairs == len(trace.dests) == g.vertex_count * (g.vertex_count - 1)
    assert trace.delivered_pairs == paths


def test_factor_expansion_petersen():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g, layer_profile(g))
    assert found.factors is not None
    word_map = {i: w for i, w in enumerate(found.words) if w}
    sched = exact_min_schedule(word_map, len(found.factors)).schedule
    host = factor_digraph(found.factors)
    trace = run_transpose(host, word_map, sched)
    assert trace.clean
    assert trace.horizon == 5
    assert trace.delivered_pairs == len(trace.dests) == 90


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_cayley_plan_replays_alike_over_its_factors(name):
    # a Cayley word set is the spanning factorization whose factors are the generators
    g, ws, sched = scheduled_corpus(name)
    host = factor_digraph(tuple(zip(*g.out)))
    over_graph, graph_text = replay_text(g, (ws, sched))
    over_factors, factor_text = replay_text(host, (ws, sched))
    assert over_graph.clean and over_factors.clean
    assert over_graph.horizon == over_factors.horizon
    assert graph_text == factor_text


def test_expansion_rejects_invalid_schedule():
    g, ws, _ = scheduled_corpus("c4")
    # every word takes generator 0 in slot 1: the replay lets it through
    # and finds the collisions itself, not through the scheduler's validation
    double_booked = Schedule(times={1: (1,), 2: (1, 2), 3: (1, 2, 3)})
    trace = run_transpose(g, ws, double_booked)
    assert not trace.clean and trace.conflicts
    # a word whose slots do not match its letters is no schedule of it at all
    for short in ({1: (1,), 2: (2,), 3: (3, 4, 5)}, {1: (1,), 3: (2, 3, 4)}):
        with pytest.raises(InputError, match="word 2 has 2 letters but"):
            run_transpose(g, ws, Schedule(times=short))
    # slots that do not rise along a word are broken routes, which the replay raises on
    with pytest.raises(InputError, match="back in time"):
        run_transpose(g, ws, Schedule(times={1: (1,), 2: (3, 2), 3: (4, 5, 6)}))


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


def imported_names(path):
    """Every module and name a source file imports, each by the last part of its dotted name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
            if isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.split(".")[-1])
    return names


def test_only_the_cli_and_the_package_import_the_replay():
    # the oracle judges plans from outside: no module that builds a route reaches into it
    sources = sorted(Path(simulate.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    assert [path.name for path in sources if "simulate" in imported_names(path)] == ["__init__.py", "cli.py"]


def test_conflicts_are_recorded_not_raised():
    g = fixtures.builtin_graph("c4")
    # two jobs take generator 0 in slot 1, so each base's two packets claim its arc
    trace = run_transpose(g, *hand_plan([((0,), (1,)), ((0,), (1,))]))
    assert trace.conflicts == tuple((1, (b, 0), (b, g.out[b][0]), (b, g.out[b][0])) for b in range(4))
    assert not trace.clean


def test_duplicate_delivery_marks_trace_dirty():
    g = fixtures.builtin_graph("c4")
    trace = run_transpose(g, *hand_plan([((0,), (1,)), ((0,), (2,))]))
    assert not trace.conflicts
    assert deliveries(trace, 0, 1) == 2
    assert not trace.clean


def test_undelivered_pairs_listed():
    g = fixtures.builtin_graph("c4")
    trace = run_transpose(g, *hand_plan([((0,), (1,))]))
    assert (2, 0) in trace.undelivered
    assert (0, 1) not in trace.undelivered
    assert len(trace.undelivered) == 8


def test_a_one_word_plan_on_q8_counts_every_missing_pair_and_lists_the_first():
    g = hypercube(8)
    plan = hand_plan([((0,), (1,))])
    _, _, undelivered, _, _ = reference_replay(g, packets(g, plan))
    trace = run_transpose(g, *plan)
    assert trace.undelivered_count == len(undelivered) == 256 * 254 == 65024
    assert len(trace.undelivered) == CONFLICT_WITNESSES == 1000
    assert trace.undelivered == undelivered[:CONFLICT_WITNESSES]  # (base, dest) order
    assert trace.undelivered[:3] == ((0, 2), (0, 3), (0, 4)) and not trace.clean


def test_structural_violations_raise():
    g = fixtures.builtin_graph("c4")
    with pytest.raises(InputError, match="edge index 5 out of range at vertex 0"):
        run_transpose(g, *hand_plan([((5,), (1,))]))
    with pytest.raises(InputError, match=r"packet \(0, 2\) goes back in time at 1: 1 after 1"):
        run_transpose(g, *hand_plan([((0, 0), (1, 1))]))
    with pytest.raises(InputError, match="word 0 has 1 letters but 2 time slots"):
        run_transpose(g, *hand_plan([((0,), (1, 2))]))
    # the whole plan is checked before any row is written
    chunks = []
    with pytest.raises(InputError, match="edge index 1 out of range at vertex 1"):
        run_transpose(g, *hand_plan([((0,), (1,)), ((0, 1), (2, 3))]), chunks.append)
    assert not chunks


def test_a_slot_count_mismatch_names_its_word_and_writes_nothing():
    g = fixtures.builtin_graph("z5-12")
    # words 7 and 2 are both broken; the first in map order is named, whatever its key
    word_map = {4: (0,), 7: (0, 1), 2: (1,), 9: (1,)}
    sched = Schedule(times={4: (1,), 7: (2,), 2: (1, 2)})
    chunks = []
    with pytest.raises(InputError, match=r"^word 7 has 2 letters but 1 time slots$"):
        run_transpose(g, word_map, sched, chunks.append)
    assert not chunks
    # a word the schedule has no slots for at all
    with pytest.raises(InputError, match=r"^word 9 has 1 letters but 0 time slots$"):
        run_transpose(g, {4: (0,), 9: (1,)}, sched, chunks.append)
    assert not chunks


def test_the_empty_base_word_is_no_job():
    # a factorization's words hold the base's (); the replay skips it as the scheduler does
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g, layer_profile(g))
    host = factor_digraph(found.factors)
    words = dict(enumerate(found.words))
    assert words[0] == ()
    plan, sched = schedule_plan(host, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    assert 0 not in plan
    trace, text = replay_text(host, (words, sched))
    assert (trace, text) == replay_text(host, (plan, sched))
    assert trace.clean and len(trace.dests) == 90


def test_trace_rows_are_time_sorted_and_complete():
    g, ws, sched = scheduled_corpus("z7-124")
    _, text = replay_text(g, (ws, sched))
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
    ws = bfs_word_set(g, layer_profile(g))
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(20):
        sched = random_valid_schedule(ws, rng)
        trace = run_transpose(g, ws, sched)
        assert trace.clean


def test_word_set_with_slack_still_expands():
    # non-shortest words are allowed as long as the schedule is valid
    g = fixtures.builtin_graph("c4")
    ws = {1: (0,), 2: (0, 0), 3: (0, 0, 0, 0, 0, 0, 0)}
    sched = greedy_schedule(ws)
    trace = run_transpose(g, ws, sched)
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


def packets(g, plan):
    """The packets of a plan, walked on `g` here: base by base, each base's in job order."""
    jobs = plan_jobs(plan)
    for base in range(g.vertex_count):
        for word, times in jobs:
            v, tails = base, []
            for j in word:
                tails.append(v)
                v = g.out[v][j]
            yield base, v, tuple(tails), tuple(word), tuple(times)


def assert_replays_agree(g, plan):
    """run_transpose over a plan matches reference_replay over its packets, with a sink and without."""
    horizon, conflicts, undelivered, delivered, rows = reference_replay(g, packets(g, plan))
    trace, text = replay_text(g, plan)
    n = g.vertex_count
    assert trace.horizon == horizon
    assert list(trace.conflicts) == conflicts[:CONFLICT_WITNESSES]
    assert trace.conflict_count == len(conflicts)
    assert trace.undelivered == undelivered[:CONFLICT_WITNESSES]
    assert trace.undelivered_count == len(undelivered)
    counts = {(s, d): deliveries(trace, s, d) for s in range(n) for d in range(n) if deliveries(trace, s, d)}
    assert counts == delivered
    assert trace.delivered_pairs == len(delivered)
    assert trace_lines(text) == rows
    assert trace.clean == (not conflicts and not undelivered and all(c == 1 for c in delivered.values()))
    assert run_transpose(g, *plan) == trace
    return trace


def unchecked_plan(word_map, rng, horizon):
    """Every word at random increasing slots, in a random job order: no labeling rule, so packets collide."""
    jobs = [(w, tuple(sorted(rng.sample(range(1, horizon + 1), len(w))))) for w in word_map.values() if w]
    rng.shuffle(jobs)
    return hand_plan(jobs)


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_flat_replay_matches_reference_on_valid_schedules(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, layer_profile(g))
    rng = random.Random(7)
    for _ in range(5):
        assert assert_replays_agree(g, (ws, random_valid_schedule(ws, rng))).clean


def test_flat_replay_matches_reference_over_factors():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g, layer_profile(g))
    word_map = {i: w for i, w in enumerate(found.words) if w}
    host = factor_digraph(found.factors)
    assert assert_replays_agree(host, (word_map, greedy_schedule(word_map))).clean


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_flat_replay_matches_reference_on_conflicting_paths(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, layer_profile(g))
    rng = random.Random(11)
    conflicts = 0
    for horizon in (3, 5, 12):
        for _ in range(3):
            conflicts += len(assert_replays_agree(g, unchecked_plan(ws, rng, horizon)).conflicts)
    assert conflicts


def test_flat_replay_matches_reference_on_hand_built_conflicts():
    g = fixtures.builtin_graph("c4")
    # from base v: job 0 crosses arc v in slot 1 and arc v+1 in slot 2, job 1 arc v in slot 2,
    # job 2 arc v in slot 1 and arc v+1 in slot 3, job 3 arc v in slot 1
    jobs = [((0, 0), (1, 2)), ((0,), (2,)), ((0, 0), (1, 3)), ((0,), (1,))]
    trace = assert_replays_agree(g, hand_plan(jobs))
    # in the order of the losing packet's (base, job, letter), not of the slots
    assert [c[3] for c in trace.conflicts[:5]] == [(0, 2), (0, 1), (1, 2), (1, 3), (1, 2)]
    assert [c[0] for c in trace.conflicts[:5]] == [1, 1, 2, 1, 1]
    # base 0's job 1 owns arc 0 in slot 2, against base 3's job 0 on its second letter
    assert (2, (0, 0), (0, 1), (3, 1)) in trace.conflicts


def test_flat_replay_matches_reference_on_duplicated_and_missing_packets():
    g, ws, sched = scheduled_corpus("q3")
    jobs = plan_jobs((ws, sched))
    rng = random.Random(3)
    trace = assert_replays_agree(g, hand_plan(jobs + rng.sample(jobs, 5)))
    assert len(trace.conflicts) >= 5 * g.vertex_count and not trace.undelivered
    word, times = jobs[3]
    late = (word, tuple(time + 100 for time in times))
    trace = assert_replays_agree(g, hand_plan(jobs + [late]))
    assert not trace.conflicts and not trace.undelivered and not trace.clean
    assert deliveries(trace, 0, walk(g, 0, word)) == 2
    trace = assert_replays_agree(g, hand_plan(jobs[:3] + jobs[4:]))
    assert trace.undelivered == tuple(sorted((b, walk(g, b, word)) for b in range(g.vertex_count)))
    assert not trace.conflicts


def replay_with_peak(g, plan, sink=True):
    """replay_text (run_transpose alone when not `sink`), plus the peak memory it allocated."""
    tracemalloc.start()
    try:
        trace, text = replay_text(g, plan) if sink else (run_transpose(g, *plan), "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return trace, text, peak


def test_memory_follows_the_slots_used_not_the_horizon():
    g = fixtures.builtin_graph("q3")
    # two jobs share generator 0 in slot 1; a third crosses generator 1 in slot 10**9
    plan = hand_plan([((0,), (1,)), ((0,), (1,)), ((1,), (10**9,))])
    assert_replays_agree(g, plan)
    trace, text, peak = replay_with_peak(g, plan)
    assert trace.horizon == 10**9
    assert len(trace.conflicts) == g.vertex_count
    assert sorted({row[0] for row in trace_lines(text)}) == [1, 10**9]
    assert peak < 2**20


def test_a_double_booked_letter_keeps_memory_to_the_open_slot():
    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(128), generators=(1, 16)))
    ws = bfs_word_set(g, layer_profile(g))
    jobs = plan_jobs((ws, greedy_schedule(ws)))
    word, times = jobs[0]
    jobs.append(((word[-1],), (times[-1],)))  # a lone letter on a (slot, position) the plan already uses
    trace, _, peak = replay_with_peak(g, hand_plan(jobs), sink=False)
    assert len(trace.conflicts) == g.vertex_count
    # a row of n*d 4-byte cells for every slot would take tau*P*d*4 bytes
    assert peak < trace.horizon * g.vertex_count * g.degree * 4 // 2


@st.composite
def regular_plans(draw):
    """A regular digraph made of d random permutations, each vertex's out-list shuffled, and random jobs on it."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(n))) for _ in range(d)]
    out = tuple(tuple(draw(st.permutations([perm[v] for perm in perms]))) for v in range(n))
    horizon = draw(st.integers(4, 10))
    word = st.lists(st.integers(0, d - 1), max_size=4).map(tuple)
    words = draw(st.lists(word, max_size=8))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=3))
    jobs = [(w, tuple(sorted(draw(st.sets(st.integers(1, horizon), min_size=len(w), max_size=len(w))))))
            for w in words]
    return Digraph(out=out), jobs


@settings(max_examples=300, deadline=None)
@given(plan=regular_plans())
def test_replay_matches_reference_on_random_regular_digraphs(plan):
    g, jobs = plan
    assert_replays_agree(g, hand_plan(jobs))


@settings(max_examples=200, deadline=None)
@given(plan=regular_plans(), data=st.data())
def test_empty_words_change_neither_the_verdict_nor_the_trace(plan, data):
    g, jobs = plan
    jobs = [job for job in jobs if job[0]]
    # empty words, with or without slots of their own, inserted anywhere among the jobs
    empties = data.draw(st.lists(st.tuples(st.integers(0, len(jobs)), st.sets(st.integers(1, 10), max_size=2)),
                                 max_size=4))
    mixed = list(jobs)
    for at, times in sorted(empties, reverse=True):
        mixed.insert(at, ((), tuple(sorted(times))))
    word_map, sched = hand_plan(mixed)
    without = {key: word for key, word in word_map.items() if word}
    assert replay_text(g, (word_map, sched)) == replay_text(g, (without, sched))
    assert run_transpose(g, word_map, sched) == run_transpose(g, without, sched)


def kautz_2_2():
    """Kautz K(2, 2): regular, but no out-position's column of heads is a permutation."""
    verts = [(a, b) for a in range(3) for b in range(3) if a != b]
    index = {w: i for i, w in enumerate(verts)}
    return Digraph(out=tuple(tuple(index[(b, x)] for x in range(3) if x != b) for _, b in verts))


@pytest.mark.parametrize("name", ["c4", "z5-12", "z7-124", "q3"])
def test_word_pass_refuses_conflicting_slots(name):
    g = fixtures.builtin_graph(name)
    words = list(bfs_word_set(g, layer_profile(g)).values())
    rng = random.Random(17)
    refused = 0
    for horizon in (3, 5, 12):
        for _ in range(3):
            jobs = [(w, tuple(sorted(rng.sample(range(1, horizon + 1), len(w))))) for w in words]
            trace = assert_replays_agree(g, hand_plan(jobs))
            claims = [(t, j) for w, times in jobs for j, t in zip(w, times)]
            # on a Cayley graph a shared (slot, generator) collides from every base
            assert bool(trace.conflicts) == (len(set(claims)) < len(claims))
            refused += not trace.clean
    assert refused


def test_word_pass_refuses_columns_that_are_not_permutations():
    g = kautz_2_2()
    rng = random.Random(5)
    conflicts = 0
    for _ in range(10):
        words = [tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))) for _ in range(5)]
        jobs = [(w, tuple(range(1 + k, 1 + k + len(w)))) for k, w in enumerate(words)]
        trace = assert_replays_agree(g, hand_plan(jobs))
        conflicts += len(trace.conflicts)
    assert conflicts


@pytest.mark.parametrize("times", [(1, 1), (2, 1), (0, 1)])
def test_word_pass_leaves_broken_slots_to_the_packet_replay(times):
    # the error names the first broken letter of base 0's packet, where every base breaks
    g = fixtures.builtin_graph("z5-12")
    where = {(1, 1): "1: 1 after 1", (2, 1): "1: 1 after 2", (0, 1): "0: 0 after 0"}[times]
    chunks = []
    with pytest.raises(InputError, match=rf"^packet \(0, 3\) goes back in time at {where}$"):
        run_transpose(g, *hand_plan([((0,), (1,)), ((0, 1), times)]), chunks.append)
    assert not chunks


def test_word_pass_counts_duplicate_deliveries():
    g = fixtures.builtin_graph("z7-124")
    ws = bfs_word_set(g, layer_profile(g))
    jobs = [(w, tuple(range(1, len(w) + 1))) for w in ws.values() if len(w) == 1]
    jobs.append((jobs[0][0], (4,)))  # a second key carrying the first word, one slot later
    trace = assert_replays_agree(g, hand_plan(jobs))
    assert not trace.conflicts and not trace.clean
    assert deliveries(trace, 0, g.out[0][jobs[0][0][0]]) == 2


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_word_pass_settles_valid_schedules(name):
    g = fixtures.builtin_graph(name)
    ws = bfs_word_set(g, layer_profile(g))
    rng = random.Random(23)
    for _ in range(5):
        sched = random_valid_schedule(ws, rng)
        jobs = [(w, sched.times[key]) for key, w in ws.items()]
        assert assert_replays_agree(g, hand_plan(jobs)).clean


def test_word_pass_settles_valid_schedules_over_factors():
    g = fixtures.builtin_graph("petersen")
    found = search_spanning_factorization(g, layer_profile(g))
    word_map = {i: w for i, w in enumerate(found.words) if w}
    host = factor_digraph(found.factors)
    rng = random.Random(29)
    for _ in range(5):
        sched = random_valid_schedule(word_map, rng)
        jobs = [(w, sched.times[key]) for key, w in word_map.items()]
        assert assert_replays_agree(host, hand_plan(jobs)).clean


def builtin_plans(name):
    """(host, words) of a builtin's plans: over a searched spanning factorization, and over its generators."""
    g = fixtures.builtin_graph(name)
    found = search_spanning_factorization(g, layer_profile(g))
    plans = [(factor_digraph(found.factors), {i: w for i, w in enumerate(found.words) if w})]
    if g.is_cayley:
        plans.append((g, bfs_word_set(g, layer_profile(g))))
    return plans


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS))
def test_streamed_trace_matches_the_packet_replay_on_every_builtin(name):
    rng = random.Random(31)
    for host, word_map in builtin_plans(name):
        degree = len(host.out[0])
        schedules = [greedy_schedule(word_map), exact_min_schedule(word_map, degree).schedule]
        schedules += [random_valid_schedule(word_map, rng) for _ in range(3)]
        for sched in schedules:
            assert assert_replays_agree(host, (word_map, sched)).clean


def test_a_double_booked_last_slot_falls_back_before_any_row_is_written():
    g, ws, sched = scheduled_corpus("q3")
    jobs = plan_jobs((ws, sched))
    last = max(times[-1] for _, times in jobs)
    word = next(word for word, times in jobs if times[-1] == last)
    _, clean_text = replay_text(g, hand_plan(jobs))
    # a lone letter on a (slot, position) the plan already uses, in its last slot
    jobs.append(((word[-1],), (last,)))
    trace = assert_replays_agree(g, hand_plan(jobs))
    assert {conflict[0] for conflict in trace.conflicts} == {last}
    # the slots before it are written exactly as for the plan without it
    _, text = replay_text(g, hand_plan(jobs))
    assert [row for row in trace_lines(text) if row[0] < last] == [row for row in trace_lines(clean_text) if row[0] < last]


def test_a_lone_letter_at_slot_10_9_writes_two_slots_in_memory_that_ignores_the_horizon():
    g = fixtures.builtin_graph("q3")
    plan = hand_plan([((0,), (1,)), ((1,), (10**9,))])
    trace = assert_replays_agree(g, plan)
    assert not trace.conflicts and trace.horizon == 10**9
    _, text, peak = replay_with_peak(g, plan)
    assert sorted({row[0] for row in trace_lines(text)}) == [1, 10**9]
    assert len(trace_lines(text)) == 2 * g.vertex_count
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the prefix-trie walk, the per-base delivery check and the bounded witnesses
# ---------------------------------------------------------------------------


def one_after_another(words):
    """A job per word, each word's letters in the slots right after the previous word's: no two letters meet."""
    jobs, time = [], 1
    for word in words:
        jobs.append((word, tuple(range(time, time + len(word)))))
        time += len(word)
    return jobs


def assert_table_walks_every_word(g, plan, trace):
    """The trace's dests table holds, job by job, where each job's word takes each base."""
    n = g.vertex_count
    assert list(trace.dests) == [walk(g, b, word) for word, _ in plan_jobs(plan) for b in range(n)]


def q3_words_shuffled():
    # job order differs from word order, so the table must be filled job by job, not in trie order
    g = fixtures.builtin_graph("q3")
    words = list(bfs_word_set(g, layer_profile(g)).values())
    random.Random(41).shuffle(words)
    return words


@pytest.mark.parametrize("case", ["shared prefixes", "repeated word", "not prefix-closed", "empty word",
                                  "missing pair"])
def test_trie_walk_and_column_check_match_the_reference(case):
    g = fixtures.builtin_graph("q3")
    words = q3_words_shuffled()
    if case == "repeated word":
        words.insert(2, words[5])
    elif case == "not prefix-closed":  # both greedy passes miss Z10 {4, 5, 9}'s floor, so the open shop reorders
        g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(10), generators=(4, 5, 9)))
        plan, _ = schedule_plan(g, bfs_word_set(g, layer_profile(g)), "exact", DEFAULT_SCHEDULE_BUDGET)
        words = list(plan.values())
        assert any(len(w) > 1 and w[:-1] not in plan.values() for w in words)
    elif case == "empty word":
        words.insert(3, ())
    elif case == "missing pair":
        gone = words.pop(4)
    replayed = hand_plan(one_after_another(words))
    trace = assert_replays_agree(g, replayed)
    assert_table_walks_every_word(g, replayed, trace)
    n = g.vertex_count
    if case == "repeated word":
        assert not trace.clean and deliveries(trace, 1, walk(g, 1, words[2])) == 2
        assert trace.delivered_pairs == n * (n - 1)
    elif case == "empty word":  # no job, so no base delivers to itself; the trie walk alone still maps it
        assert trace.clean and deliveries(trace, 5, 5) == 0
        assert trace.delivered_pairs == len(trace.dests) == n * (n - 1)
        columns = [[heads[j] for heads in g.out] for j in range(g.degree)]
        table = simulate._walk_trie(words, columns, n)
        assert list(table) == [walk(g, b, word) for word in words for b in range(n)]
        assert list(table[3 * n:4 * n]) == list(range(n))
    elif case == "missing pair":
        assert trace.undelivered == tuple((b, walk(g, b, gone)) for b in range(n))
        assert trace.delivered_pairs == n * (n - 2)
    else:
        assert trace.clean and trace.delivered_pairs == n * (n - 1)


class CountingColumn(list):
    """A column of heads that counts the lookups made through it."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_trie_walk_maps_each_trie_node_once():
    g = hypercube(4)
    plan, _ = schedule_plan(g, bfs_word_set(g, layer_profile(g)), "exact", DEFAULT_SCHEDULE_BUDGET)
    words = list(plan.values())
    random.Random(43).shuffle(words)
    words += words[:3]  # a repeated word is a node walked already
    n = g.vertex_count
    columns = [CountingColumn(heads[j] for heads in g.out) for j in range(g.degree)]
    table = simulate._walk_trie(words, columns, n)
    assert list(table) == [walk(g, b, word) for word in words for b in range(n)]
    nodes = {word[:k] for word in words for k in range(1, len(word) + 1)}
    assert sum(column.lookups for column in columns) == n * len(nodes) < n * sum(map(len, words))


def test_one_vertex_delivers_to_itself():
    g = Digraph(out=((0,),))
    once = assert_replays_agree(g, hand_plan([((0,), (1,))]))
    assert once.clean and once.delivered_pairs == 1 and deliveries(once, 0, 0) == 1 and not once.undelivered
    twice = assert_replays_agree(g, hand_plan([((0,), (1,)), ((0, 0), (2, 3))]))
    assert not twice.clean and deliveries(twice, 0, 0) == 2 and not twice.conflicts
    nothing = assert_replays_agree(g, hand_plan([]))
    assert nothing.clean and nothing.delivered_pairs == 0


def test_dests_table_takes_four_bytes_a_cell_only_past_65536_vertices():
    assert _dests_typecode(1) == _dests_typecode(1 << 16) == "H"
    assert _dests_typecode((1 << 16) + 1) == "i"
    # the last vertex of each size fits its table's cells
    assert array(_dests_typecode(1 << 16), [(1 << 16) - 1])[0] == (1 << 16) - 1
    assert array(_dests_typecode(1 << 20), [(1 << 20) - 1])[0] == (1 << 20) - 1
    with pytest.raises(OverflowError):
        array(_dests_typecode(1 << 16), [1 << 16])


def test_a_doubled_plan_counts_every_conflict_and_keeps_the_first_as_witnesses():
    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(128), generators=(1, 16)))
    ws = bfs_word_set(g, layer_profile(g))
    jobs = plan_jobs((ws, greedy_schedule(ws)))
    doubled = hand_plan(jobs + jobs)  # every letter shares its (slot, position) with its twin
    _, conflicts, _, _, _ = reference_replay(g, packets(g, doubled))
    assert len(conflicts) > CONFLICT_WITNESSES
    trace = run_transpose(g, *doubled)
    assert trace.conflict_count == len(conflicts)
    assert list(trace.conflicts) == conflicts[:CONFLICT_WITNESSES]
    assert not trace.undelivered and trace.delivered_pairs == 128 * 127 and not trace.clean
    assert replay_text(g, doubled)[0] == trace


def test_star6_greedy_plan_replays_in_less_memory_than_a_counts_array():
    g = star(6)
    ws = bfs_word_set(g, layer_profile(g))
    trace, _, peak = replay_with_peak(g, (ws, greedy_schedule(ws)), sink=False)
    assert trace.clean and trace.delivered_pairs == 720 * 719
    # an n*n array of 4-byte delivery counts
    assert peak < 720 * 720 * 4
