"""Distance layers, profiles, and the averaged time bounds."""

import itertools
import random
from collections import deque

import pytest

from alltoall import fixtures
from alltoall.errors import ConnectivityError, RegularityError
from alltoall.graphs import build_cayley_coset_graph, digraph_from_arcs
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup, ProductGroup
from alltoall.layers import (
    average_diameter_bound,
    diameter,
    layer_profile,
)
from test_factorization import random_regular_digraph
from test_graphs import kautz

# (layer sizes from a vertex, theta) for each builtin, derived by hand
PROFILES = {
    "c4": ((1, 1, 1, 1), 6),
    "k4": ((1, 3), 1),
    "z5-12": ((1, 2, 2), 3),
    "z7-124": ((1, 3, 3), 3),
    "q3": ((1, 3, 3, 1), 4),
    "petersen": ((1, 3, 6), 5),
}


def layers_from(g, src):
    """Test-local BFS: layer sizes seen from `src`."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.out[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    sizes = [0] * (max(dist.values()) + 1)
    for dv in dist.values():
        sizes[dv] += 1
    return tuple(sizes)


def all_source_pair_counts(g):
    """Test-local count of ordered pairs at each distance, one BFS per source."""
    counts = []
    for src in range(g.vertex_count):
        for k, nk in enumerate(layers_from(g, src)):
            if k == len(counts):
                counts.append(0)
            counts[k] += nk
    return tuple(counts)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profiles_match_hand_counts(name):
    sizes, theta = PROFILES[name]
    g = fixtures.builtin_graph(name)
    p = layer_profile(g)
    assert p.layer_sizes == sizes
    assert diameter(g, p) == len(sizes) - 1
    assert average_diameter_bound(p) == theta


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_vertex_symmetric_pair_counts_are_uniform(name):
    g = fixtures.builtin_graph(name)
    p = layer_profile(g)
    assert all_source_pair_counts(g) == tuple(p.vertex_count * s for s in p.layer_sizes)


def test_layer_sizes_sum_to_vertex_count():
    for name in PROFILES:
        p = layer_profile(fixtures.builtin_graph(name))
        assert sum(p.layer_sizes) == p.vertex_count


def test_distances_from_matches_ring_arithmetic():
    g = fixtures.builtin_graph("c4")
    assert layer_profile(g).dist == (0, 1, 2, 3)


def test_theta_rounds_up():
    # path-ish 2-regular digraph with layers (1, 2, 1): ceil((0+2+2)/2) = 2
    g = digraph_from_arcs(4, [[0, 1], [0, 2], [1, 3], [1, 0], [2, 3], [2, 0], [3, 1], [3, 2]])
    p = layer_profile(g)
    assert p.layer_sizes == (1, 2, 1)
    assert average_diameter_bound(p) == 2


def test_disconnected_graph_raises():
    g = digraph_from_arcs(4, [[0, 1], [1, 0], [2, 3], [3, 2]])
    with pytest.raises(ConnectivityError, match="not connected: 2 of 4 vertices are unreachable from vertex 0"):
        layer_profile(g)


def test_asymmetric_digraph_profile_uses_all_sources():
    # 1-regular: one 4-cycle, which looks alike from every source
    g = digraph_from_arcs(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    p = layer_profile(g)
    assert p.layer_sizes == (1, 1, 1, 1)
    assert diameter(g, p) == 3


def test_raw_digraph_with_uneven_sources_counts_every_source():
    # a digraph wearing no symmetry: vertex 0 sees layers (1,2,1), vertex 3
    # sees (1,1,2) and vertices 1 and 2 see (1,1,1,1), so the diameter must
    # come from every source, not from the base's layers
    g = digraph_from_arcs(4, [[0, 1], [0, 2], [1, 2], [2, 3], [3, 0]])
    p = layer_profile(g)
    assert p.layer_sizes == (1, 2, 1)
    assert all_source_pair_counts(g) == (4, 5, 5, 2)
    assert diameter(g, p) == 3


def _closure(group, gens):
    """Test-local closure of `gens` under composition, from the identity."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = group.compose(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _all_elements(group):
    if isinstance(group, CyclicGroup):
        return list(range(group.modulus))
    if isinstance(group, PermutationGroup):
        return list(itertools.permutations(range(group.degree)))
    return list(itertools.product(*(_all_elements(f) for f in group.factors)))


def _random_coset_spec(rng):
    """A random spec meeting the coset condition: D is a union of double cosets HdH, then shuffled."""
    roll = rng.random()
    if roll < 0.6:
        group = PermutationGroup(rng.choice((3, 4, 5)))
    elif roll < 0.8:
        group = CyclicGroup(rng.randint(2, 60))
    else:
        group = ProductGroup([CyclicGroup(rng.randint(2, 5)), rng.choice((CyclicGroup(6), PermutationGroup(3)))])
    elements = _all_elements(group)
    # two random elements of S5 mostly generate A5 or S5, which leaves one coset
    subgroup = sorted(_closure(group, rng.sample(elements, rng.randint(0, 2 if len(elements) <= 24 else 1))))
    gens = []
    for d in rng.sample(elements, rng.randint(1, 2)):
        gens.extend(sorted({group.compose(group.compose(h, d), k) for h in subgroup for k in subgroup}))
    rng.shuffle(gens)
    if rng.random() < 0.2:
        gens.append(rng.choice(gens))
    return GroupSpec(group=group, generators=tuple(gens), subgroup=tuple(subgroup))


def test_random_coset_graphs_look_alike_from_every_source():
    rng = random.Random(2014)
    built = 0
    for _ in range(200):
        spec = _random_coset_spec(rng)
        try:
            g = build_cayley_coset_graph(spec)
        except RegularityError:
            continue
        built += 1
        reach = _closure(spec.group, spec.generators + spec.subgroup)
        assert g.vertex_count * len(spec.subgroup) == len(reach), spec
        p = layer_profile(g)
        for src in range(g.vertex_count):
            assert layers_from(g, src) == p.layer_sizes, (spec, src)
        assert all_source_pair_counts(g) == tuple(g.vertex_count * s for s in p.layer_sizes), spec
        assert diameter(g, p) == len(p.layer_sizes) - 1
    assert built >= 150


def test_profile_includes_distance_zero():
    p = layer_profile(fixtures.builtin_graph("z7-124"))
    assert p.layer_sizes[0] == 1


# an outside oracle: networkx's BFS on the same arc multiset


def networkx_digraph(g):
    nx = pytest.importorskip("networkx")
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(range(g.vertex_count))
    graph.add_edges_from((u, v) for u, v, _ in g.arcs())
    return nx, graph


def oracle_graphs():
    rng = random.Random(5150)
    graphs = [(name, fixtures.builtin_graph(name)) for name in sorted(PROFILES)]
    graphs += [(f"K(2,{n})", kautz(2, n)) for n in (2, 3, 4)]
    graphs += [(f"random-{i}", random_regular_digraph(rng, rng.randint(1, 30), rng.randint(1, 4)))
               for i in range(80)]
    return graphs


def test_layers_and_diameter_match_networkx():
    connected = 0
    for name, g in oracle_graphs():
        nx, graph = networkx_digraph(g)
        reach = nx.single_source_shortest_path_length(graph, 0)
        if len(reach) < g.vertex_count:
            with pytest.raises(ConnectivityError):
                layer_profile(g)
            continue
        profile = layer_profile(g)
        assert profile.dist == tuple(reach[v] for v in range(g.vertex_count)), name
        sizes = [0] * (max(reach.values()) + 1)
        for k in reach.values():
            sizes[k] += 1
        assert profile.layer_sizes == tuple(sizes), name
        # a regular digraph is Eulerian, so reaching every vertex from 0 makes it strongly connected
        assert nx.is_strongly_connected(graph), name
        assert diameter(g, profile) == nx.diameter(graph), name
        connected += 1
    assert connected >= 60
