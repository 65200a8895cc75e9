"""1-factorizations and spanning factorizations."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

from alltoall import fixtures
from alltoall.errors import ConnectivityError, InputError
from alltoall.factorization import (
    factor_digraph,
    one_factorize,
    search_spanning_factorization,
    validate_one_factorization,
    verify_spanning,
    walk_word,
)
from alltoall.graphs import build_cayley_coset_graph, digraph_from_arcs
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
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


def test_verify_spanning_accepts_distinct_endpoints():
    factors = ((1, 2, 0), (2, 0, 1))
    verify_spanning(factors, ((), (0,), (1,)), 3)


def test_verify_spanning_reports_collisions():
    factors = ((1, 2, 0), (2, 0, 1))
    # (0,1) walks back to the start, colliding with the empty word
    with pytest.raises(InputError, match="words 0 and 1 both end at 0 from base 0"):
        verify_spanning(factors, ((), (0, 1), (1,)), 3)
    # short word lists fail by pigeonhole before any walking
    with pytest.raises(InputError, match="2 words"):
        verify_spanning(factors, ((), (0,)), 3)


def cayley_factorization(g):
    """A Cayley graph's generator columns as factors, its word set plus the base's empty word as words."""
    words = bfs_word_set(g)
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
    verify_spanning(factors, words, g.vertex_count)


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
        verify_spanning(factors, words, g.vertex_count)


def test_search_finds_q3_quickly():
    g = fixtures.builtin_graph("q3")
    res = search_spanning_factorization(g)
    assert res.factors is not None
    verify_spanning(res.factors, res.words, 8)
    assert sorted(len(w) for w in res.words) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_search_finds_petersen_with_shortest_words():
    g = fixtures.builtin_graph("petersen")
    res = search_spanning_factorization(g)
    assert res.factors is not None
    verify_spanning(res.factors, res.words, 10)
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
            res = search_spanning_factorization(g, budget=20_000)
        except ConnectivityError:  # no spanning word list reaches another component
            continue
        if res.factors is None:
            continue
        found.append(i)
        validate_one_factorization(g, res.factors)
        verify_spanning(res.factors, res.words, g.vertex_count)
    assert found[:2] == [0, 1] and len(found) >= 20


def test_search_respects_budget():
    g = fixtures.builtin_graph("petersen")
    res = search_spanning_factorization(g, budget=1)
    assert res.factors is None and res.words is None
    assert res.reason == "budget"


def test_search_exhaustion_is_not_budget():
    # a single directed 2-cycle has exactly one factorization and it spans
    g = digraph_from_arcs(2, [[0, 1], [1, 0]])
    res = search_spanning_factorization(g)
    assert res.factors == ((1, 0),)
    assert res.words == ((), (0,))


def test_search_and_matching_run_on_explicit_stacks():
    # on a 200-vertex directed cycle the word search lists a 199-letter word
    # and assigns 199 vertices deep; on the chain digraph the last tail's
    # augmenting path runs back through all the others.  Under a recursion
    # limit of 100 neither may nest a call per vertex, letter or step.
    script = textwrap.dedent("""
        import sys
        from alltoall.factorization import one_factorize, search_spanning_factorization
        from alltoall.graphs import Digraph
        n = 200
        cycle = Digraph(out=tuple(((v + 1) % n,) for v in range(n)))
        chain = Digraph(out=tuple((v, v + 1) for v in range(n - 1)) + ((0, n - 1),))
        sys.setrecursionlimit(100)
        res = search_spanning_factorization(cycle)
        print(res.nodes, res.factorizations, res.best_depth, res.words == tuple((0,) * k for k in range(n)))
        f = one_factorize(chain)
        print(f == (tuple(range(1, n)) + (0,), tuple(range(n))))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["199", "1", "199", "True", "True"]
