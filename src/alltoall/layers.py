"""Distance layers and the averaged lower bound on exchange time.

Every packet in a full exchange must cross at least dist(src, dst) arcs, and
only P*d arcs exist per time slot, so total work over capacity bounds the
schedule length from below.  On a vertex-symmetric graph the per-vertex
layer profile already determines that bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConnectivityError
from .graphs import CosetGraph, Digraph


@dataclass(frozen=True)
class LayerProfile:
    """Layer sizes and the derived time bound for one graph.

    layer_sizes[k] is the number of vertices at distance exactly k from the
    base (so layer_sizes[0] == 1).  pair_counts[k] is the number of ordered
    vertex pairs at distance k.  On a coset graph it is inferred from
    symmetry as vertex_count * layer_sizes[k]; on a raw digraph it is
    measured over all sources, since those need not look alike.  diameter
    is the largest distance between any ordered pair.
    """

    vertex_count: int
    degree: int
    diameter: int
    layer_sizes: tuple[int, ...]
    pair_counts: tuple[int, ...]


def _bfs_distances(g: Digraph, base: int) -> list[int]:
    n = g.vertex_count
    dist = [-1] * n
    dist[base] = 0
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v in g.out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if min(dist) < 0:
        missing = dist.count(-1)
        raise ConnectivityError(
            f"not connected: {missing} of {n} vertices are unreachable from vertex {base}"
        )
    return dist


def distances_from(g: Digraph, base: int = 0) -> list[int]:
    """Shortest-path distance from `base` to every vertex (arcs have unit length)."""
    return _bfs_distances(g, base)


def layer_profile(g: Digraph) -> LayerProfile:
    """Layer sizes from vertex 0; pair counts inferred on coset graphs, measured on raw digraphs.

    Left multiplication by a group element maps each coset's out-neighbours
    onto the out-neighbours of its image, so on a coset graph every source
    sees the base's layers and one BFS decides the profile.  A raw digraph
    (a Kautz graph, say) need not look alike from every vertex, so its pair
    counts and diameter come from a BFS per source.
    """
    n = g.vertex_count
    degree = len(g.out[0])
    base_dist = _bfs_distances(g, 0)
    sizes = [0] * (max(base_dist) + 1)
    for dv in base_dist:
        sizes[dv] += 1

    if isinstance(g, CosetGraph):
        pair_counts = [n * s for s in sizes]
    else:
        pair_counts = [0] * len(sizes)
        for src in range(n):
            dist = base_dist if src == 0 else _bfs_distances(g, src)
            local = max(dist)
            if local >= len(pair_counts):
                pair_counts.extend([0] * (local + 1 - len(pair_counts)))
            for dv in dist:
                pair_counts[dv] += 1

    return LayerProfile(
        vertex_count=n,
        degree=degree,
        diameter=len(pair_counts) - 1,
        layer_sizes=tuple(sizes),
        pair_counts=tuple(pair_counts),
    )


def average_diameter_bound(profile: LayerProfile) -> int:
    """ceil(sum of k * layer_sizes[k] / degree): the per-vertex work bound.

    The base vertex must push one packet to each of the layer_sizes[k]
    vertices at distance k, each needing k arc crossings, and it owns only
    `degree` outgoing arcs per time slot.
    """
    total = sum(k * nk for k, nk in enumerate(profile.layer_sizes))
    return -(-total // profile.degree)

