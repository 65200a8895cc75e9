"""Shortest-word sets and the regular bound."""

import heapq
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall import fixtures
from alltoall.errors import InputError, UnsupportedGraphError
from alltoall.graphs import build_cayley_coset_graph
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
from alltoall.specfile import parse_spec_document
from alltoall.layers import average_diameter_bound, layer_profile
from alltoall.scheduling import factor_occurrences
from alltoall.words import (RegularBound, _greedy_words, _shortest_arcs, bfs_word_set, regular_bound_exact,
                            validate_word_set)
from test_factorization import random_cayley_spec
from test_graphs import star

CAYLEY_CORPUS = ("c4", "k4", "z5-12", "z7-124", "q3")


def brute_force_regular_bound(g):
    """Minimum over ALL shortest-word sets of the max generator count.

    Independent of the library's search: enumerates per-vertex shortest words
    directly over the edge lists, then takes the full product.  Exponential,
    so keep it to corpus-sized graphs.
    """
    dist = layer_profile(g).dist
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


def greedy_stage(g, profile):
    """bfs_word_set's greedy pass alone, before any rerouting."""
    return _greedy_words(g, profile.dist, _shortest_arcs(g, profile.dist))[0]


def exact_bound(g, profile, **budget):
    """regular_bound_exact seeded with bfs_word_set's words, as `words --exact` seeds it."""
    return regular_bound_exact(g, profile, bfs_word_set(g, profile), **budget)


# the word sets the library makes: the load-balanced choice and the exact bound's witness
WORD_SETS = {"load-balanced": bfs_word_set, "exact": lambda g, profile: exact_bound(g, profile).witness}


@pytest.mark.parametrize("rule", list(WORD_SETS))
@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_word_sets_validate(name, rule):
    g = fixtures.builtin_graph(name)
    ws = WORD_SETS[rule](g, layer_profile(g))
    validate_word_set(g, ws)
    assert set(ws) == set(range(1, g.vertex_count))


def test_balanced_occurrences_on_z7():
    g = fixtures.builtin_graph("z7-124")
    ws = bfs_word_set(g, layer_profile(g))
    assert sorted(factor_occurrences(ws, g.degree)) == [3, 3, 3]


def test_balanced_occurrences_on_q3():
    g = fixtures.builtin_graph("q3")
    ws = bfs_word_set(g, layer_profile(g))
    assert factor_occurrences(ws, g.degree) == [4, 4, 4]


def test_z5_imbalance_is_forced():
    # five vertices, two generators: some generator must appear ceil(6/2)=3
    # times in any word set, and the shortest-word structure forces 4
    g = fixtures.builtin_graph("z5-12")
    ws = bfs_word_set(g, layer_profile(g))
    assert sorted(factor_occurrences(ws, g.degree)) == [2, 4]


def test_validate_rejects_broken_sets():
    g = fixtures.builtin_graph("z7-124")
    good = bfs_word_set(g, layer_profile(g))
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
        bfs_word_set(g, layer_profile(g))


@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_exact_bound_matches_brute_force(name):
    g = fixtures.builtin_graph(name)
    bound = exact_bound(g, layer_profile(g))
    assert bound.exact
    assert bound.value == brute_force_regular_bound(g)
    validate_word_set(g, bound.witness)
    assert max(factor_occurrences(bound.witness, g.degree)) == bound.value


@pytest.mark.parametrize("name,psi", [("c4", 6), ("k4", 1), ("z5-12", 4), ("z7-124", 3), ("q3", 4)])
def test_exact_bound_values(name, psi):
    g = fixtures.builtin_graph(name)
    assert exact_bound(g, layer_profile(g)).value == psi


@pytest.mark.parametrize("rule", list(WORD_SETS))
@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_bound_chain_theta_psi_psiw(name, rule):
    g = fixtures.builtin_graph(name)
    profile = layer_profile(g)
    theta = average_diameter_bound(profile)
    psi = exact_bound(g, profile).value
    psi_w = max(factor_occurrences(WORD_SETS[rule](g, profile), g.degree))
    assert theta <= psi <= psi_w


def test_budget_starvation_is_marked_inexact():
    # z5's greedy seed (4) sits above theta (3), so the DFS would need nodes
    g = fixtures.builtin_graph("z5-12")
    bound = exact_bound(g, layer_profile(g), budget=0)
    assert not bound.exact
    assert bound.value == 4  # the greedy seed still comes back as a witness


def test_budget_zero_can_still_be_exact_at_the_floor():
    # z7's greedy seed hits theta exactly, which proves optimality with no search
    g = fixtures.builtin_graph("z7-124")
    bound = exact_bound(g, layer_profile(g), budget=0)
    assert bound.exact and bound.value == 3


def torus(m):
    """Z_m x Z_m with the four unit steps +-1 in each coordinate."""
    doc = {"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": m}] * 2},
           "generators": [[1, 0], [m - 1, 0], [0, 1], [0, m - 1]]}
    return build_cayley_coset_graph(parse_spec_document(doc))


def z128_six_units():
    """Z128 {1, 1, 1, 1, 1, 1, 16}: six copies of one jump put over 10M letters in the letter-count table."""
    return build_cayley_coset_graph(GroupSpec(group=CyclicGroup(128), generators=(1,) * 6 + (16,)))


def test_word_listing_is_bounded_by_the_budget():
    # the seed (448) sits above theta (202), and rerouting cannot lower it
    g = z128_six_units()
    profile = layer_profile(g)
    seed = bfs_word_set(g, profile)
    tracemalloc.start()
    try:
        bound = regular_bound_exact(g, profile, seed, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bound.exact
    assert bound.value == max(factor_occurrences(seed, g.degree)) == 448
    assert bound.witness == seed
    assert peak < 4 * 2**20  # listing the table to the default budget takes ~40 MB


def test_word_listing_budget_counts_letters():
    # a budget of 40,000 must stop the listing, not admit every letter-count vector
    g = z128_six_units()
    profile = layer_profile(g)
    greedy = bfs_word_set(g, profile)
    tracemalloc.start()
    try:
        bound = regular_bound_exact(g, profile, greedy, budget=40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bound.exact
    assert bound.value == max(factor_occurrences(greedy, g.degree))
    assert bound.witness == greedy
    assert peak < 2 * 2**20



def test_search_budget_counts_letters():
    # a budget of 3M stops the table of Z128 {1, 1, 1, 1, 1, 1, 16} within about a second
    script = textwrap.dedent("""
        from alltoall.graphs import build_cayley_coset_graph
        from alltoall.groups import CyclicGroup, GroupSpec
        from alltoall.layers import layer_profile
        from alltoall.scheduling import factor_occurrences
        from alltoall.words import bfs_word_set, regular_bound_exact
        g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(128), generators=(1,) * 6 + (16,)))
        profile = layer_profile(g)
        seed = bfs_word_set(g, profile)
        bound = regular_bound_exact(g, profile, seed, budget=3_000_000)
        print(bound.exact, bound.value, max(factor_occurrences(seed, g.degree)))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    exact, value, greedy = done.stdout.split()
    assert exact == "False" and value == greedy


def naive_balanced_words(g):
    """The load-balanced rule with parents found by scanning every vertex."""
    dist = layer_profile(g).dist
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


def reference_bfs_word_set(g, profile):
    """The load-balanced rule as it stood before the shortest-arc table: parents, then each parent's out-row."""
    dist = profile.dist
    parents = reference_shortest_parents(g, dist)
    counts = [0] * g.degree
    ws = {}
    for v in sorted(range(1, g.vertex_count), key=lambda v: (dist[v], v)):
        _, j, u = min([(counts[j], j, u) for u in parents[v] for j, t in enumerate(g.out[u]) if t == v])
        ws[v] = ws.get(u, ()) + (j,)
        for letter in ws[v]:
            counts[letter] += 1
    return ws


def reference_shortest_parents(g, dist):
    parents = [[] for _ in range(g.vertex_count)]
    for u, heads in enumerate(g.out):
        for v in heads:
            if dist[v] == dist[u] + 1 and (not parents[v] or parents[v][-1] != u):
                parents[v].append(u)
    return parents


def reference_all_shortest_words(g, dist, budget):
    """The word listing as it stood before the shortest-arc table: per-depth frontiers over every arc."""
    options = {v: [] for v in range(1, g.vertex_count)}
    frontier = {0: [()]}
    depth = 0
    max_depth = max(dist)
    listed = 0
    while depth < max_depth:
        nxt = {}
        for u, ws_u in frontier.items():
            for j, v in enumerate(g.out[u]):
                if dist[v] != depth + 1:
                    continue
                listed += len(ws_u) * (depth + 1)
                if listed > budget:
                    return None
                nxt.setdefault(v, []).extend(w + (j,) for w in ws_u)
        for v, ws_v in nxt.items():
            options[v].extend(ws_v)
        frontier = nxt
        depth += 1
    for v, opts in options.items():
        opts.sort()
    return options


def reference_regular_bound_exact(g, profile, words, budget):
    """The exact search as it stood before the letter-count table: depth-first over every shortest word.

    Vertices in (distance, word count, index) order, each vertex's words in
    lexicographic order, one node per letter of each word tried; the
    listing and the search each stop past `budget` letters.
    """
    dist = profile.dist
    floor = average_diameter_bound(profile)
    incumbent = words
    incumbent_value = max(factor_occurrences(incumbent, g.degree))
    if incumbent_value <= floor:
        return RegularBound(value=incumbent_value, exact=True, witness=incumbent)
    options = reference_all_shortest_words(g, dist, budget)
    if options is None:
        return RegularBound(value=incumbent_value, exact=False, witness=incumbent)
    order = sorted(options, key=lambda v: (dist[v], len(options[v]), v))
    counts = [0] * g.degree
    chosen = {}
    nodes = 0
    tried = [0] * len(order)
    pos = 0
    while True:
        if nodes >= budget:
            return RegularBound(value=incumbent_value, exact=False, witness=incumbent)
        if pos == len(order):
            value = max(counts)
            if value < incumbent_value:
                incumbent_value = value
                incumbent = dict(chosen)
            if incumbent_value <= floor:
                break
            pos -= 1
        else:
            tried[pos] = 0
        while pos >= 0:
            v = order[pos]
            if v in chosen:
                for j in chosen.pop(v):
                    counts[j] -= 1
            if tried[pos] == len(options[v]):
                pos -= 1
                continue
            word = options[v][tried[pos]]
            tried[pos] += 1
            nodes += len(word)
            for j in word:
                counts[j] += 1
            if max(counts) < incumbent_value:
                chosen[v] = word
                pos += 1
                break
            for j in word:
                counts[j] -= 1
        else:
            break
    return RegularBound(value=incumbent_value, exact=True, witness=incumbent)


@st.composite
def cayley_specs(draw):
    """A cyclic group with one to four jumps, a product of two cyclic groups, or a permutation group on 3-5 points."""
    kind = draw(st.sampled_from(["cyclic", "product", "permutation"]))
    if kind == "cyclic":
        m = draw(st.integers(2, 64))
        jumps = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        return GroupSpec(group=CyclicGroup(m), generators=tuple(jumps))
    if kind == "product":
        a, b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)), min_size=1, max_size=3))
        return GroupSpec(group=ProductGroup([CyclicGroup(a), CyclicGroup(b)]), generators=tuple(pairs))
    k = draw(st.integers(3, 5))
    perms = draw(st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=3))
    return GroupSpec(group=PermutationGroup(k), generators=tuple(perms))


def shortest_letter_total(g, dist):
    """The letters of all shortest words, the least budget whose listing fits, counted without listing them."""
    paths = [1] + [0] * (g.vertex_count - 1)
    for u in sorted(range(g.vertex_count), key=dist.__getitem__):
        for v in g.out[u]:
            if dist[v] == dist[u] + 1:
                paths[v] += paths[u]
    return sum(map(operator.mul, paths, dist))


@settings(max_examples=300, deadline=None)
@given(spec=cayley_specs())
def test_the_shortest_arc_table_gives_what_the_references_give(spec):
    g = build_cayley_coset_graph(spec)
    profile = layer_profile(g)
    greedy = greedy_stage(g, profile)
    assert greedy == reference_bfs_word_set(g, profile)
    dist = profile.dist
    total = shortest_letter_total(g, dist)
    # repeated jumps make the listing exponential; past 20,000 letters only budgets that stop it are tried
    budgets = {0, total - 1, total, total + 1} if total <= 20_000 else {0, 1, 20_000}
    for budget in sorted(budgets - {-1}):
        # the count search skips only repeated-count subtrees, which cannot improve on the incumbent
        bound = regular_bound_exact(g, profile, greedy, budget)
        expected = reference_regular_bound_exact(g, profile, reference_bfs_word_set(g, profile), budget)
        if expected.exact:
            assert (bound.value, bound.exact, bound.witness) == (expected.value, expected.exact, expected.witness)
        assert bound.value <= expected.value


def multigraph_z9():
    # a repeated generator puts the same parent twice in an edge list
    return build_cayley_coset_graph(parse_spec_document({"group": {"kind": "cyclic", "modulus": 9},
                                                         "generators": [1, 1, 3]}))


@pytest.mark.parametrize("name", CAYLEY_CORPUS)
def test_balanced_words_match_the_scan_over_all_parents(name):
    g = fixtures.builtin_graph(name)
    assert greedy_stage(g, layer_profile(g)) == naive_balanced_words(g)


def test_balanced_words_match_the_scan_on_a_multigraph():
    g = multigraph_z9()
    assert greedy_stage(g, layer_profile(g)) == naive_balanced_words(g)



def test_balanced_words_match_the_scan_on_random_specs():
    rng = random.Random(4011)
    for _ in range(120):
        g = build_cayley_coset_graph(random_cayley_spec(rng))
        assert greedy_stage(g, layer_profile(g)) == naive_balanced_words(g), g.spec


# ---------------------------------------------------------------------------
# rerouting toward theta
# ---------------------------------------------------------------------------


def psi_w(g, words):
    return max(factor_occurrences(words, g.degree))


@settings(max_examples=300, deadline=None)
@given(spec=cayley_specs())
def test_rerouted_words_are_shortest_and_as_balanced_as_the_exact_search(spec):
    g = build_cayley_coset_graph(spec)
    profile = layer_profile(g)
    greedy, words = greedy_stage(g, profile), bfs_word_set(g, profile)
    validate_word_set(g, words)
    assert {v: len(w) for v, w in words.items()} == {v: profile.dist[v] for v in words}
    assert psi_w(g, words) <= psi_w(g, greedy)
    if psi_w(g, words) == psi_w(g, greedy):
        assert words == greedy
    # seeded with the greedy words, so the search does not start from the answer it checks
    bound = regular_bound_exact(g, profile, greedy, budget=200_000)
    if bound.exact:
        assert psi_w(g, words) == bound.value


@pytest.mark.parametrize("name,greedy_psi,theta,psi", [
    ("star6", 690, 689, 689),
    ("torus16", 520, 512, 512),
    ("torus32", 4112, 4096, 4096),
    ("z5-12", 4, 3, 4),  # the shortest-word structure forces 4
])
def test_rerouting_reaches_theta_where_the_greedy_pass_misses_it(name, greedy_psi, theta, psi):
    g = {"star6": lambda: star(6), "torus16": lambda: torus(16), "torus32": lambda: torus(32),
         "z5-12": lambda: fixtures.builtin_graph("z5-12")}[name]()
    profile = layer_profile(g)
    words = bfs_word_set(g, profile)
    validate_word_set(g, words)
    assert (psi_w(g, greedy_stage(g, profile)), average_diameter_bound(profile), psi_w(g, words)) == \
        (greedy_psi, theta, psi)


def test_a_forced_busiest_count_ends_the_rerouting_at_its_first_stall():
    # the jump 12 must carry 336 letters in every shortest word set; scanning pairs of moves
    # for all 32 rounds, each lowering only a lower-ranked load, took 36 s
    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(96), generators=(1,) * 5 + (12,)))
    profile = layer_profile(g)
    start = time.perf_counter()
    words = bfs_word_set(g, profile)
    assert time.perf_counter() - start < 5
    assert words == greedy_stage(g, profile)
    assert (average_diameter_bound(profile), psi_w(g, words)) == (144, 336)


def theta_star(g):
    """max sum_v y_v subject to y_0 = 0, y_v <= y_u + c_j on every arc, sum c = 1 and c >= 0, by linprog (HiGHS).

    Returns the optimum and the generator weights c.  For any weights c,
    sum_v dist_c(0, v) bounds the busiest generator's count from below, so
    the optimum does too, over every word set, shortest or not.
    """
    optimize = pytest.importorskip("scipy.optimize")
    n, d = g.vertex_count, g.degree
    rows = []
    for u, heads in enumerate(g.out):
        for j, v in enumerate(heads):
            row = [0.0] * (n + d)  # y_0 .. y_{n-1}, then c_0 .. c_{d-1}
            row[v] += 1
            row[u] -= 1
            row[n + j] -= 1
            rows.append(row)
    result = optimize.linprog([-1.0] * n + [0.0] * d, A_ub=rows, b_ub=[0.0] * len(rows),
                              A_eq=[[1.0] + [0.0] * (n + d - 1), [0.0] * n + [1.0] * d], b_eq=[0.0, 1.0],
                              bounds=[(None, None)] * n + [(0, None)] * d, method="highs")
    assert result.status == 0, result.message
    return -result.fun, result.x[n:]


def weighted_distance_total(g, c):
    """sum_v dist_c(0, v) under exact rational generator weights c, by Dijkstra."""
    best = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > best[u]:
            continue
        for j, v in enumerate(g.out[u]):
            if v not in best or du + c[j] < best[v]:
                best[v] = du + c[j]
                heapq.heappush(heap, (best[v], v))
    return sum(best.values())


@settings(max_examples=40, deadline=None)
@given(spec=cayley_specs())
def test_theta_and_the_rerouted_words_bracket_the_lp_bound(spec):
    g = build_cayley_coset_graph(spec)
    profile = layer_profile(g)
    value, _ = theta_star(g)
    ceiling = math.ceil(value - 1e-6)
    assert average_diameter_bound(profile) <= ceiling <= psi_w(g, bfs_word_set(g, profile))


@pytest.mark.parametrize("m,jumps,theta,psi,value,weights", [
    (30, (1, 3), 83, 135, Fraction(435, 4), (Fraction(1, 4), Fraction(3, 4))),
    (40, (1, 5, 8), 47, 61, Fraction(390, 7), (Fraction(1, 14), Fraction(5, 14), Fraction(8, 14))),
    (128, (1, 16), 704, 960, Fraction(960), (Fraction(1), Fraction(0))),
])
def test_lp_bound_on_the_known_gaps(m, jumps, theta, psi, value, weights):
    # theta < ceil(theta*) <= psi_W: these graphs stay above theta over every word set, shortest or not
    g = build_cayley_coset_graph(GroupSpec(group=CyclicGroup(m), generators=jumps))
    profile = layer_profile(g)
    assert (average_diameter_bound(profile), psi_w(g, bfs_word_set(g, profile))) == (theta, psi)
    optimum, _ = theta_star(g)
    assert optimum == pytest.approx(float(value), abs=1e-6)
    assert weighted_distance_total(g, weights) == value
