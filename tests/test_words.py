"""Shortest-word sets and the regular bound."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from alltoall import fixtures
from alltoall.errors import InputError, UnsupportedGraphError
from alltoall.graphs import build_cayley_coset_graph
from alltoall.groups import CyclicGroup, GroupSpec
from alltoall.specfile import parse_spec_document
from alltoall.layers import average_diameter_bound, distances_from, layer_profile
from alltoall.scheduling import factor_occurrences
from alltoall.words import bfs_word_set, regular_bound_exact, validate_word_set
from test_factorization import random_cayley_spec

CAYLEY_CORPUS = ("c4", "k4", "z5-12", "z7-124", "q3")


def brute_force_regular_bound(g):
    """Minimum over ALL shortest-word sets of the max generator count.

    Independent of the library's search: enumerates per-vertex shortest words
    directly over the edge lists, then takes the full product.  Exponential,
    so keep it to corpus-sized graphs.
    """
    dist = distances_from(g, 0)
    options = {v: [] for v in range(1, g.vertex_count)}
    frontier = {0: [()]}
    for r in range(1, max(dist) + 1):
        nxt = {}
        for u, words in frontier.items():
            for j, v in enumerate(g.out[u]):
                if dist[v] == r:
                    nxt.setdefault(v, []).extend(w + (j,) for w in words)
        for v, ws in nxt.items():
            options[v].extend(ws)
        frontier = nxt
    best = None
    for combo in itertools.product(*(options[v] for v in sorted(options))):
        counts = [0] * g.degree
        for w in combo:
            for j in w:
                counts[j] += 1
        worst = max(counts)
        if best is None or worst < best:
            best = worst
    return best


# the word sets the library makes: the load-balanced choice and the exact bound's witness
WORD_SETS = {"load-balanced": bfs_word_set, "exact": lambda g: regular_bound_exact(g).witness}


@pytest.mark.parametrize("rule", list(WORD_SETS))
@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_word_sets_validate(name, rule):
    g = fixtures.builtin_graph(name)
    ws = WORD_SETS[rule](g)
    validate_word_set(g, ws)
    assert set(ws) == set(range(1, g.vertex_count))


def test_balanced_occurrences_on_z7():
    g = fixtures.builtin_graph("z7-124")
    ws = bfs_word_set(g)
    assert sorted(factor_occurrences(ws, g.degree)) == [3, 3, 3]


def test_balanced_occurrences_on_q3():
    g = fixtures.builtin_graph("q3")
    ws = bfs_word_set(g)
    assert factor_occurrences(ws, g.degree) == [4, 4, 4]


def test_z5_imbalance_is_forced():
    # five vertices, two generators: some generator must appear ceil(6/2)=3
    # times in any word set, and the shortest-word structure forces 4
    g = fixtures.builtin_graph("z5-12")
    ws = bfs_word_set(g)
    assert sorted(factor_occurrences(ws, g.degree)) == [2, 4]


def test_validate_rejects_broken_sets():
    g = fixtures.builtin_graph("z7-124")
    good = bfs_word_set(g)
    missing = dict(good)
    del missing[3]
    with pytest.raises(InputError, match=r"missing \[3\], extra \[\]"):
        validate_word_set(g, missing)
    wrong = dict(good)
    wrong[1] = wrong[2]  # walks to vertex 2, claims vertex 1
    with pytest.raises(InputError):
        validate_word_set(g, wrong)
    # a longer-than-shortest word still walks to its key, which is all a schedule needs
    slack = dict(good)
    slack[1] = (0, 0, 0, 0, 0, 0, 0, 0)  # 8 steps around Z7 via +1 lands on 1
    validate_word_set(g, slack)
    # past ten keys the error counts the rest instead of listing them
    ring = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(30), generators=(1,)))
    with pytest.raises(InputError, match=r"missing \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, \.\.\. 19 more\], extra \[\]$"):
        validate_word_set(ring, {})


def test_word_sets_need_trivial_subgroup():
    g = fixtures.builtin_graph("petersen")
    with pytest.raises(UnsupportedGraphError):
        bfs_word_set(g)


@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_exact_bound_matches_brute_force(name):
    g = fixtures.builtin_graph(name)
    bound = regular_bound_exact(g)
    assert bound.exact
    assert bound.value == brute_force_regular_bound(g)
    validate_word_set(g, bound.witness)
    assert max(factor_occurrences(bound.witness, g.degree)) == bound.value


@pytest.mark.parametrize("name,psi", [("c4", 6), ("k4", 1), ("z5-12", 4), ("z7-124", 3), ("q3", 4)])
def test_exact_bound_values(name, psi):
    g = fixtures.builtin_graph(name)
    assert regular_bound_exact(g).value == psi


@pytest.mark.parametrize("rule", list(WORD_SETS))
@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_bound_chain_theta_psi_psiw(name, rule):
    g = fixtures.builtin_graph(name)
    theta = average_diameter_bound(layer_profile(g))
    psi = regular_bound_exact(g).value
    psi_w = max(factor_occurrences(WORD_SETS[rule](g), g.degree))
    assert theta <= psi <= psi_w


def test_budget_starvation_is_marked_inexact():
    # z5's greedy seed (4) sits above theta (3), so the DFS would need nodes
    g = fixtures.builtin_graph("z5-12")
    bound = regular_bound_exact(g, budget=0)
    assert not bound.exact
    assert bound.value == 4  # the greedy seed still comes back as a witness


def test_budget_zero_can_still_be_exact_at_the_floor():
    # z7's greedy seed hits theta exactly, which proves optimality with no search
    g = fixtures.builtin_graph("z7-124")
    bound = regular_bound_exact(g, budget=0)
    assert bound.exact and bound.value == 3


def torus(m):
    """Z_m x Z_m with the four unit steps +-1 in each coordinate."""
    doc = {"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": m}] * 2},
           "generators": [[1, 0], [m - 1, 0], [0, 1], [0, m - 1]]}
    return build_cayley_coset_graph(parse_spec_document(doc))


def test_word_listing_is_bounded_by_the_budget():
    # the 16x16 torus has 194,440 shortest words; its greedy seed (520) sits above theta (512)
    g = torus(16)
    greedy = bfs_word_set(g)
    tracemalloc.start()
    try:
        bound = regular_bound_exact(g, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bound.exact
    assert bound.value == max(factor_occurrences(greedy, g.degree)) == 520
    assert bound.witness == greedy
    assert peak < 4 * 2**20  # listing all of them takes ~30 MB


def test_word_listing_budget_counts_letters():
    # Z402 {1, 201} has 20,501 shortest words but ~2.75M letters (~22 MB listed);
    # a budget of 40,000 must stop the listing, not admit every word
    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(402), generators=(1, 201)))
    greedy = bfs_word_set(g)
    tracemalloc.start()
    try:
        bound = regular_bound_exact(g, budget=40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bound.exact
    assert bound.value == max(factor_occurrences(greedy, g.degree))
    assert bound.witness == greedy
    assert peak < 2 * 2**20



def test_search_budget_counts_letters():
    # at a budget of 3M the ~2.75M-letter listing of Z402 {1, 201} fits, and
    # each word the search tries updates ~200 counts: counted one per word,
    # 3M tries ran ~75 s; counted per letter the search stops in about a second
    script = textwrap.dedent("""
        from alltoall.graphs import build_cayley_coset_graph
        from alltoall.groups import CyclicGroup, GroupSpec
        from alltoall.scheduling import factor_occurrences
        from alltoall.words import bfs_word_set, regular_bound_exact
        g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(402), generators=(1, 201)))
        bound = regular_bound_exact(g, budget=3_000_000)
        print(bound.exact, bound.value, max(factor_occurrences(bfs_word_set(g), g.degree)))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    exact, value, greedy = done.stdout.split()
    assert exact == "False" and value == greedy


def naive_balanced_words(g):
    """The load-balanced rule with parents found by scanning every vertex."""
    dist = distances_from(g, 0)
    counts = [0] * g.degree
    words = {0: ()}
    for v in sorted(range(1, g.vertex_count), key=lambda v: (dist[v], v)):
        best = None
        for u in range(g.vertex_count):
            if dist[u] != dist[v] - 1:
                continue
            for j, t in enumerate(g.out[u]):
                if t == v and (best is None or (counts[j], j) < best[0]):
                    best = ((counts[j], j), words[u] + (j,))
        words[v] = best[1]
        for letter in best[1]:
            counts[letter] += 1
    del words[0]
    return words


def multigraph_z9():
    # a repeated generator puts the same parent twice in an edge list
    return build_cayley_coset_graph(parse_spec_document({"group": {"kind": "cyclic", "modulus": 9},
                                                         "generators": [1, 1, 3]}))


@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_balanced_words_match_the_scan_over_all_parents(name):
    g = fixtures.builtin_graph(name)
    assert bfs_word_set(g) == naive_balanced_words(g)


def test_balanced_words_match_the_scan_on_a_multigraph():
    assert bfs_word_set(multigraph_z9()) == naive_balanced_words(multigraph_z9())



def test_balanced_words_match_the_scan_on_random_specs():
    rng = random.Random(4011)
    for _ in range(120):
        g = build_cayley_coset_graph(random_cayley_spec(rng))
        assert bfs_word_set(g) == naive_balanced_words(g), g.spec
