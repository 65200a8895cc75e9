"""Distance layers and the averaged lower bound on exchange time.

Every packet in a full exchange must cross at least dist(src, dst) arcs, and
only P*d arcs exist per time slot, so total work over capacity bounds the
schedule length from below.  On a vertex-symmetric graph the per-vertex
layer profile already determines that bound.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import ConnectivityError
from .graphs import CosetGraph, Digraph


class LayerProfile(NamedTuple):
    """Layer sizes and the derived time bound for one graph.

    layer_sizes[k] is the number of vertices at distance exactly k from the
    base, vertex 0 (so layer_sizes[0] == 1).
    """

    vertex_count: int
    degree: int
    layer_sizes: tuple[int, ...]


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
    """Layer sizes from vertex 0: one BFS."""
    base_dist = _bfs_distances(g, 0)
    sizes = [0] * (max(base_dist) + 1)
    for dv in base_dist:
        sizes[dv] += 1
    return LayerProfile(vertex_count=g.vertex_count, degree=len(g.out[0]), layer_sizes=tuple(sizes))


def diameter(g: Digraph, profile: LayerProfile) -> int:
    """The largest distance between any ordered pair of vertices.

    Left multiplication by a group element maps each coset's out-neighbours
    onto the out-neighbours of its image, so on a coset graph every source
    sees the base's layers and the profile decides it.  A raw digraph (a
    Kautz graph, say) need not look alike from every vertex, so there it
    takes a BFS per source.
    """
    base = len(profile.layer_sizes) - 1
    if isinstance(g, CosetGraph):
        return base
    return max([base] + [max(_bfs_distances(g, src)) for src in range(1, g.vertex_count)])


def average_diameter_bound(profile: LayerProfile) -> int:
    """ceil(sum of k * layer_sizes[k] / degree): the per-vertex work bound.

    The base vertex must push one packet to each of the layer_sizes[k]
    vertices at distance k, each needing k arc crossings, and it owns only
    `degree` outgoing arcs per time slot.
    """
    total = sum(k * nk for k, nk in enumerate(profile.layer_sizes))
    return -(-total // profile.degree)

