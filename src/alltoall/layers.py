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
    """Distances and layer sizes of the base, vertex 0, from its one BFS.

    dist[v] is the distance from the base to vertex v, and layer_sizes[k]
    the number of vertices at distance exactly k (so layer_sizes[0] == 1).
    """

    vertex_count: int
    degree: int
    layer_sizes: tuple[int, ...]
    dist: tuple[int, ...]


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


def layer_profile(g: Digraph) -> LayerProfile:
    """Distances and layer sizes from vertex 0: the one BFS from the base."""
    dist = _bfs_distances(g, 0)
    sizes = [0] * (max(dist) + 1)
    for dv in dist:
        sizes[dv] += 1
    return LayerProfile(vertex_count=g.vertex_count, degree=len(g.out[0]), layer_sizes=tuple(sizes),
                        dist=tuple(dist))


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

