"""1-factorizations and spanning factorizations."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures
from alltoall.errors import ConnectivityError, InputError
from alltoall.factorization import (
    DEFAULT_SEARCH_BUDGET,
    SearchResult,
    _iter_factorizations,
    factor_digraph,
    one_factorize,
    search_spanning_factorization,
    validate_one_factorization,
    walk_word,
)
from alltoall.graphs import Digraph, build_cayley_coset_graph, digraph_from_arcs, regular_degree
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
from alltoall.layers import layer_profile
from alltoall.words import bfs_word_set
from test_graphs import kautz


def random_regular_digraph(rng, n, d):
    """Union of d random permutations; parallel arcs and loops allowed."""
    arcs = []
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        arcs.extend((u, perm[u]) for u in range(n))
    return digraph_from_arcs(n, arcs)


def test_directed_ring_has_one_factor():
    g = fixtures.builtin_graph("c4")
    f = one_factorize(g)
    validate_one_factorization(g, f)
    assert f == ((1, 2, 3, 0),)


def test_bidirected_triangle_splits_into_rotations():
    g = digraph_from_arcs(3, [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]])
    f = one_factorize(g)
    validate_one_factorization(g, f)
    assert sorted(f) == [(1, 2, 0), (2, 0, 1)]


def test_petersen_factorizes():
    g = fixtures.builtin_graph("petersen")
    f = one_factorize(g)
    validate_one_factorization(g, f)
    assert len(f) == 3
    # the three factors partition all 30 arcs
    claimed = {(u, succ[u]) for succ in f for u in range(10)}
    assert len(claimed) == 30


def test_random_regular_digraphs_factorize():
    rng = random.Random(20260814)
    for _ in range(10):
        n = rng.randint(2, 30)
        d = rng.randint(1, 5)
        g = random_regular_digraph(rng, n, d)
        f = one_factorize(g)
        validate_one_factorization(g, f)
        for succ in f:
            assert sorted(succ) == list(range(n))


def test_validation_catches_bad_factorizations():
    g = digraph_from_arcs(3, [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(InputError):
        validate_one_factorization(g, ((1, 1, 0),))
    # right bijection, wrong arcs
    with pytest.raises(InputError):
        validate_one_factorization(g, ((2, 0, 1),))
    # parallel arcs and loops count: at each vertex two parallel arcs to the other vertex and one loop
    g = digraph_from_arcs(2, [[0, 1], [0, 1], [0, 0], [1, 0], [1, 0], [1, 1]])
    validate_one_factorization(g, one_factorize(g))
    swap, stay = (1, 0), (0, 1)
    validate_one_factorization(g, (swap, stay, swap))
    # one of the two parallel arcs taken twice, the loop not at all
    with pytest.raises(InputError):
        validate_one_factorization(g, (swap, swap, swap))
    # the loop taken twice: the same set of heads, not the same multiset
    with pytest.raises(InputError):
        validate_one_factorization(g, (swap, stay, stay))


def test_walk_word_follows_factors():
    factors = ((1, 2, 0), (2, 0, 1))
    assert walk_word(factors, 0, ()) == 0
    assert walk_word(factors, 0, (0, 0)) == 2
    assert walk_word(factors, 0, (0, 1)) == 0


def test_factor_digraph_reorders_but_keeps_arcs():
    g = fixtures.builtin_graph("petersen")
    f = one_factorize(g)
    fd = factor_digraph(f)
    assert sorted((u, v) for u, v, _ in fd.arcs()) == sorted((u, v) for u, v, _ in g.arcs())
    # out-position j is factor j's arc, which is what word replays assume
    for v in range(10):
        assert fd.out[v] == tuple(succ[v] for succ in f)


def first_collision(factors, words, n):
    """The message of the first collision met walking every word from every base in turn, or None."""
    for base in range(n):
        seen = {}
        for i, word in enumerate(words):
            end = walk_word(factors, base, word)
            if end in seen:
                return f"words {seen[end]} and {i} both end at {end} from base {base}"
            seen[end] = i
    return None


def assert_spanning(factors, words, n):
    """The oracle of a spanning factorization: one word per vertex, ending at distinct vertices from every base."""
    assert len(words) == n
    assert first_collision(factors, words, n) is None


def cayley_factorization(g):
    """A Cayley graph's generator columns as factors, its word set plus the base's empty word as words."""
    words = bfs_word_set(g, layer_profile(g))
    return tuple(zip(*g.out)), tuple(words.get(v, ()) for v in range(g.vertex_count))


@pytest.mark.parametrize("name,lengths", [
    ("c4", [0, 1, 2, 3]),
    ("z7-124", [0, 1, 1, 1, 2, 2, 2]),
    ("q3", [0, 1, 1, 1, 2, 2, 2, 3]),
])
def test_cayley_construction_gives_shortest_words(name, lengths):
    g = fixtures.builtin_graph(name)
    factors, words = cayley_factorization(g)
    assert sorted(len(w) for w in words) == lengths
    assert_spanning(factors, words, g.vertex_count)


def random_cayley_spec(rng):
    """A cyclic, product, S3 or S4 group with one to four generators; repeats and the identity allowed."""
    kind = rng.choice(["cyclic", "product", "s3", "s4"])
    if kind == "cyclic":
        group = CyclicGroup(rng.randint(2, 40))
        elements = list(range(group.modulus))
    elif kind == "product":
        group = ProductGroup([CyclicGroup(rng.randint(2, 4)), rng.choice((CyclicGroup(3), PermutationGroup(3)))])
        elements = list(itertools.product(*(
            range(f.modulus) if isinstance(f, CyclicGroup) else itertools.permutations(range(3))
            for f in group.factors)))
    else:
        group = PermutationGroup(3 if kind == "s3" else 4)
        elements = list(itertools.permutations(range(group.degree)))
    return GroupSpec(group=group, generators=tuple(rng.choice(elements) for _ in range(rng.randint(1, 4))))


def test_cayley_construction_spans_on_random_specs():
    # the construction does not walk its words; this oracle walks every word from every base
    rng = random.Random(2209)
    for _ in range(120):
        g = build_cayley_coset_graph(random_cayley_spec(rng))
        factors, words = cayley_factorization(g)
        validate_one_factorization(g, factors)
        assert_spanning(factors, words, g.vertex_count)


def test_search_finds_q3_quickly():
    g = fixtures.builtin_graph("q3")
    res = search_spanning_factorization(g, layer_profile(g))
    assert res.factors is not None
    assert_spanning(res.factors, res.words, 8)
    assert sorted(len(w) for w in res.words) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_search_finds_petersen_with_shortest_words():
    g = fixtures.builtin_graph("petersen")
    res = search_spanning_factorization(g, layer_profile(g))
    assert res.factors is not None
    assert_spanning(res.factors, res.words, 10)
    # slack 0: every word length matches the BFS distance
    assert sorted(len(w) for w in res.words) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert res.factorizations >= 1


def test_search_results_span_on_kautz_and_random_digraphs():
    # the search does not re-walk what it found; this oracle does, and checks that the factors partition the arcs
    rng = random.Random(77)
    graphs = [kautz(2, 2), kautz(3, 2)] + [random_regular_digraph(rng, rng.randint(2, 7), rng.randint(1, 3))
                                            for _ in range(60)]
    found = []
    for i, g in enumerate(graphs):
        try:
            res = search_spanning_factorization(g, layer_profile(g), budget=20_000)
        except ConnectivityError:  # no spanning word list reaches another component
            continue
        if res.factors is None:
            continue
        found.append(i)
        validate_one_factorization(g, res.factors)
        assert_spanning(res.factors, res.words, g.vertex_count)
    assert found[:2] == [0, 1] and len(found) >= 20


def test_search_respects_budget():
    g = fixtures.builtin_graph("petersen")
    res = search_spanning_factorization(g, layer_profile(g), budget=1)
    assert res.factors is None and res.words is None
    assert res.reason == "budget"


def test_search_refuses_a_negative_max_slack():
    g = fixtures.builtin_graph("petersen")
    with pytest.raises(InputError, match="max_slack must be at least 0, got -1"):
        search_spanning_factorization(g, layer_profile(g), max_slack=-1)


def test_search_lists_candidate_words_lazily():
    # on a 13-cycle of tripled arcs all 3**12 words of 12 letters end at vertex 12,
    # and the search takes the first; listing them all took ~170 MB
    n = 13
    g = Digraph(out=tuple(((v + 1) % n,) * 3 for v in range(n)))
    tracemalloc.start()
    try:
        res = search_spanning_factorization(g, layer_profile(g), budget=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.words, res.nodes) == (tuple((0,) * k for k in range(n)), n - 1)
    assert peak < 2**20


def test_search_exhaustion_is_not_budget():
    # a single directed 2-cycle has exactly one factorization and it spans
    g = digraph_from_arcs(2, [[0, 1], [1, 0]])
    res = search_spanning_factorization(g, layer_profile(g))
    assert res.factors == ((1, 0),)
    assert res.words == ((), (0,))


def reference_perfect_matching(n, adj):
    """One perfect matching in the tails/heads bipartite graph, as a list of the arc id matched to each tail.

    The augmenting-path matcher one_factorize used before the matching moved
    into its own loop: an `augment` closure over three maps.
    """
    match_head = {}  # head -> arc id
    match_tail = [-1] * n
    owner_tail = {}

    def augment(root):
        seen = set()
        frames = [(root, iter(adj[root]))]
        path = []
        while frames:
            u, options = frames[-1]
            for arc_id, v in options:
                if v in seen:
                    continue
                seen.add(v)
                path.append((u, arc_id, v))
                if v not in match_head:
                    for tail, arc, head in path:
                        match_head[head] = arc
                        owner_tail[head] = tail
                        match_tail[tail] = arc
                    return True
                frames.append((owner_tail[v], iter(adj[owner_tail[v]])))
                break
            else:
                frames.pop()
                if path:
                    path.pop()
        return False

    for u in range(n):
        if not augment(u):
            return None
    return match_tail


def reference_one_factorize(g):
    """one_factorize as it was, one reference_perfect_matching per round."""
    d = regular_degree(g)
    n = g.vertex_count
    arcs = g.arcs()
    remaining = [[] for _ in range(n)]
    for a, (u, v, _) in enumerate(arcs):
        remaining[u].append((a, v))
    factors = []
    for _ in range(d):
        matched = reference_perfect_matching(n, remaining)
        if matched is None:
            raise InputError("no perfect matching among remaining arcs; the input cannot have been regular")
        succ = [0] * n
        for u, arc_id in enumerate(matched):
            succ[u] = arcs[arc_id][1]
            remaining[u] = [(a, v) for a, v in remaining[u] if a != arc_id]
        factors.append(tuple(succ))
    return tuple(factors)


def reference_iter_factorizations(g, d):
    """_iter_factorizations as it was: a `matchings` generator under a recursive `build` generator."""
    n = g.vertex_count
    arcs = g.arcs()
    by_tail = [[] for _ in range(n)]
    for a, (u, _, _) in enumerate(arcs):
        by_tail[u].append(a)
    arc_used = [False] * len(arcs)

    def matchings(head_used, min_first):
        picked = []
        tried = [0] * (n + 1)
        u = 0
        while u >= 0:
            if u < n and tried[u] < len(by_tail[u]):
                a = by_tail[u][tried[u]]
                tried[u] += 1
                head = arcs[a][1]
                if not (arc_used[a] or head_used[head] or (u == 0 and a <= min_first)):
                    head_used[head] = True
                    picked.append(a)
                    u += 1
                    tried[u] = 0
                continue
            if u == n:
                yield list(picked)
            u -= 1
            if u >= 0:
                head_used[arcs[picked.pop()][1]] = False

    def build(level, prev_first, chosen):
        if level == d:
            yield tuple(tuple(arcs[a][1] for a in picked) for picked in chosen)
            return
        head_used = [False] * n
        for picked in matchings(head_used, prev_first):
            for a in picked:
                arc_used[a] = True
            chosen.append(picked)
            yield from build(level + 1, picked[0], chosen)
            chosen.pop()
            for a in picked:
                arc_used[a] = False

    yield from build(0, -1, [])


@st.composite
def permutation_unions(draw, max_n=9, max_d=3):
    """A union of d permutations of n vertices, its arcs listed in any order; parallel arcs and loops allowed.

    Listed permutation by permutation, each round's first options would
    already form a perfect matching, and the matcher would never augment.
    """
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    arcs = [(u, v) for _ in range(d) for u, v in enumerate(draw(st.permutations(range(n))))]
    return digraph_from_arcs(n, draw(st.permutations(arcs)))


@settings(max_examples=300, deadline=None)
@given(g=permutation_unions(max_n=40, max_d=6))
def test_one_factorize_gives_the_factors_of_the_reference(g):
    assert one_factorize(g) == reference_one_factorize(g)


@settings(max_examples=200, deadline=None)
@given(g=permutation_unions(max_n=7, max_d=3))
def test_the_enumeration_gives_the_sequence_of_the_reference(g):
    d = regular_degree(g)
    # a union of three permutations of seven vertices has at most a few thousand factorizations
    assert list(_iter_factorizations(g, d)) == list(reference_iter_factorizations(g, d))


NAMED_DIGRAPHS = {name: fixtures.builtin_graph(name) for name in sorted(fixtures.BUILTIN_SPECS)}
NAMED_DIGRAPHS.update({f"K({d},{n})": kautz(d, n) for d, n in [(2, 2), (3, 2), (2, 3), (2, 4), (3, 5)]})


@pytest.mark.parametrize("name", list(NAMED_DIGRAPHS))
def test_one_factorize_gives_the_factors_of_the_reference_on_named_digraphs(name):
    g = NAMED_DIGRAPHS[name]
    f = one_factorize(g)
    assert f == reference_one_factorize(g)
    validate_one_factorization(g, f)


@pytest.mark.parametrize("name,count", [
    ("petersen", 32), ("K(2,2)", 4), ("K(3,2)", 3456), ("K(2,3)", 32), ("K(2,4)", 2048),
])
def test_the_enumeration_gives_the_sequence_of_the_reference_on_named_digraphs(name, count):
    g = NAMED_DIGRAPHS[name]
    d = regular_degree(g)
    listed = list(_iter_factorizations(g, d))
    assert len(listed) == count
    assert listed == list(reference_iter_factorizations(g, d))


def assert_each_factor_is_a_perfect_matching(g, factors):
    """networkx's check that each factor matches every tail to one head of an arc of g, every head once."""
    nx = pytest.importorskip("networkx")
    n = g.vertex_count
    bipartite = nx.Graph()
    bipartite.add_nodes_from([("tail", u) for u in range(n)] + [("head", v) for v in range(n)])
    bipartite.add_edges_from((("tail", u), ("head", v)) for u, v, _ in g.arcs())
    for succ in factors:
        assert nx.is_perfect_matching(bipartite, {(("tail", u), ("head", succ[u])) for u in range(n)})


@pytest.mark.parametrize("name", list(NAMED_DIGRAPHS))
def test_one_factorize_factors_are_perfect_matchings_for_networkx_on_named_digraphs(name):
    g = NAMED_DIGRAPHS[name]
    assert_each_factor_is_a_perfect_matching(g, one_factorize(g))


@settings(max_examples=100, deadline=None)
@given(g=permutation_unions(max_n=30, max_d=5))
def test_one_factorize_factors_are_perfect_matchings_for_networkx(g):
    assert_each_factor_is_a_perfect_matching(g, one_factorize(g))


def test_the_enumeration_lists_one_factor_order_and_every_factorization():
    # brute force over all factor tuples: every 1-factorization, each factor order once (a Kautz
    # digraph has no parallel arcs, so the set of its factors names a factorization)
    g = kautz(2, 2)
    n, d = g.vertex_count, regular_degree(g)
    bijections = [p for p in itertools.permutations(range(n)) if all(p[u] in g.out[u] for u in range(n))]
    every = set()
    for combo in itertools.product(bijections, repeat=d):
        try:
            validate_one_factorization(g, combo)
        except InputError:
            continue
        every.add(frozenset(combo))
    listed = list(_iter_factorizations(g, d))
    assert len(listed) == len(set(map(frozenset, listed))) == len(every)
    assert set(map(frozenset, listed)) == every


def reference_words_of_length(factors, target, length, cache):
    """All factor words of exactly `length` ending at `target` from vertex 0, listed afresh per (target, length)."""
    key = (target, length)
    if key in cache:
        return cache[key]
    d = len(factors)
    results = [()] if length == 0 and target == 0 else []
    stack = [(0, ())] if length else []
    while stack:
        v, word = stack.pop()
        if len(word) == length - 1:
            results.extend(word + (j,) for j in range(d) if factors[j][v] == target)
        else:
            stack.extend([(factors[j][v], word + (j,)) for j in range(d - 1, -1, -1)])
    cache[key] = results
    return results


def reference_search(g, profile, budget=DEFAULT_SEARCH_BUDGET, max_slack=2):
    """search_spanning_factorization as it was before it listed each word length once per factorization.

    The same slack-major loop over the 1-factorizations, with the depth-first
    word search in per-factorization closures and each vertex's candidate
    words listed by a fresh walk over every word of their length.
    """
    if max_slack < 0:
        raise InputError(f"max_slack must be at least 0, got {max_slack}")
    d = regular_degree(g)
    n = g.vertex_count
    dist = profile.dist
    order = sorted(range(1, n), key=lambda v: (dist[v], v))
    nodes = 0
    factorizations = 0
    best_depth = 0
    out_of_budget = False

    for slack in range(max_slack + 1):
        for fact in reference_iter_factorizations(g, d):
            factorizations += 1
            cache = {}
            ends = [{b} for b in range(n)]
            chosen = [()] * n

            def candidates(pos, slack_left):
                v = order[pos]
                for extra in range(slack_left + 1):
                    for word in reference_words_of_length(fact, v, dist[v] + extra, cache):
                        yield extra, word

            def assign(slack):
                nonlocal nodes, best_depth, out_of_budget
                if not order:
                    return True
                frames = [(candidates(0, slack), slack)]
                placed = []
                while frames:
                    pos = len(frames) - 1
                    options, slack_left = frames[-1]
                    for extra, word in options:
                        if nodes >= budget:
                            out_of_budget = True
                            return False
                        nodes += 1
                        endpoints = [walk_word(fact, b, word) for b in range(n)]
                        if any(endpoints[b] in ends[b] for b in range(n)):
                            continue
                        for b in range(n):
                            ends[b].add(endpoints[b])
                        chosen[order[pos]] = word
                        best_depth = max(best_depth, pos + 1)
                        if pos + 1 == len(order):
                            return True
                        placed.append(endpoints)
                        frames.append((candidates(pos + 1, slack_left - extra), slack_left - extra))
                        break
                    else:
                        frames.pop()
                        if placed:
                            for b, end in enumerate(placed.pop()):
                                ends[b].discard(end)
                return False

            if assign(slack):
                return SearchResult(
                    factors=fact, words=tuple(chosen), nodes=nodes, factorizations=factorizations,
                    best_depth=best_depth, reason="",
                )
            if out_of_budget:
                return SearchResult(
                    factors=None, words=None, nodes=nodes, factorizations=factorizations,
                    best_depth=best_depth, reason="budget",
                )
    return SearchResult(
        factors=None, words=None, nodes=nodes, factorizations=factorizations,
        best_depth=best_depth, reason="exhausted",
    )


def outcome(search, g, **kwargs):
    """The search's result on g and its profile, or the type and text of the error raised on the way."""
    try:
        return search(g, layer_profile(g), **kwargs)
    except InputError as exc:
        return type(exc), str(exc)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    arcs = [(u, v) for _ in range(d) for u, v in enumerate(draw(st.permutations(range(n))))]
    budget = draw(st.integers(0, 20_000))
    return digraph_from_arcs(n, arcs), budget, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
def test_search_gives_what_the_reference_search_gives(case):
    # union of d random permutations: disconnected ones raise ConnectivityError on both sides
    g, budget, max_slack = case
    assert outcome(search_spanning_factorization, g, budget=budget, max_slack=max_slack) == \
        outcome(reference_search, g, budget=budget, max_slack=max_slack)


@pytest.mark.parametrize("g", [
    digraph_from_arcs(1, [[0, 0]]),
    digraph_from_arcs(4, [[0, 1], [1, 0], [2, 3], [3, 2]]),
    kautz(2, 2),
    kautz(3, 2),
    fixtures.builtin_graph("petersen"),
], ids=["one-vertex", "two-components", "K(2,2)", "K(3,2)", "petersen"])
def test_search_gives_what_the_reference_search_gives_on_named_digraphs(g):
    for budget, max_slack in [(0, 0), (7, 1), (DEFAULT_SEARCH_BUDGET, 2)]:
        assert outcome(search_spanning_factorization, g, budget=budget, max_slack=max_slack) == \
            outcome(reference_search, g, budget=budget, max_slack=max_slack)


def test_search_exhausts_kautz_2_3_with_the_counters_of_the_reference():
    g = kautz(2, 3)
    res = search_spanning_factorization(g, layer_profile(g), max_slack=2)
    assert (res.factors, res.reason) == (None, "exhausted")
    assert (res.nodes, res.factorizations, res.best_depth) == (642, 96, 10)


def test_search_and_matching_run_on_explicit_stacks():
    # on a 200-vertex directed cycle the word search lists a 199-letter word
    # and assigns 199 vertices deep; on the chain digraph the last tail's
    # augmenting path runs back through all the others.  Under a recursion
    # limit of 100 neither may nest a call per vertex, letter or step.
    script = textwrap.dedent("""
        import sys
        from alltoall.factorization import one_factorize, search_spanning_factorization
        from alltoall.graphs import Digraph
        from alltoall.layers import layer_profile
        n = 200
        cycle = Digraph(out=tuple(((v + 1) % n,) for v in range(n)))
        chain = Digraph(out=tuple((v, v + 1) for v in range(n - 1)) + ((0, n - 1),))
        sys.setrecursionlimit(100)
        res = search_spanning_factorization(cycle, layer_profile(cycle))
        print(res.nodes, res.factorizations, res.best_depth, res.words == tuple((0,) * k for k in range(n)))
        f = one_factorize(chain)
        print(f == (tuple(range(1, n)) + (0,), tuple(range(n))))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["199", "1", "199", "True", "True"]
