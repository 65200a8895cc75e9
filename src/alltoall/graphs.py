"""Directed graphs on group cosets, plus a plain digraph container.

A coset graph has one vertex per left coset gH and an arc gH -> (g*d)H for
each generator d.  The arc label is the generator's position in the input
list, and labels stay attached through every later stage (word sets,
factorizations, schedules), so "generator index" means the same thing
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import groups
from .errors import CapacityError, CosetEdgeError, RegularityError, StructureError
from .groups import Element, GroupSpec

DEFAULT_ELEMENT_CAP = 100_000


@dataclass(frozen=True)
class Digraph:
    """A finite digraph with parallel arcs allowed, arcs grouped by source.

    out[u] is the tuple of heads of u's out-arcs; the j-th entry is arc
    (u, j) when an arc needs a name.
    """

    out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.out)
        for u, heads in enumerate(self.out):
            for v in heads:
                if not (0 <= v < n):
                    raise StructureError(f"arc ({u}, {v}) leaves the vertex range 0..{n - 1}")

    @property
    def vertex_count(self) -> int:
        return len(self.out)

    def successors(self, u: int) -> tuple[int, ...]:
        return self.out[u]

    def arcs(self) -> list[tuple[int, int, int]]:
        """All arcs as (src, dst, label) with label = position at the source."""
        return [(u, v, j) for u, heads in enumerate(self.out) for j, v in enumerate(heads)]

    def out_degrees(self) -> list[int]:
        return [len(heads) for heads in self.out]

    def in_degrees(self) -> list[int]:
        degs = [0] * self.vertex_count
        for heads in self.out:
            for v in heads:
                degs[v] += 1
        return degs


def regular_degree(g: Digraph) -> int:
    """Common in/out degree of a regular digraph; RegularityError otherwise."""
    outs = g.out_degrees()
    ins = g.in_degrees()
    d = outs[0] if outs else 0
    for u in range(g.vertex_count):
        if outs[u] != d or ins[u] != d:
            raise RegularityError(
                f"vertex {u} has out-degree {outs[u]} and in-degree {ins[u]}; expected {d} for a regular digraph"
            )
    return d


@dataclass(frozen=True)
class CosetGraph:
    """Vertices are canonical coset representatives; edges follow generators.

    vertices[0] is the coset of the identity.  edges[u][j] is the vertex
    reached from u along generator j.
    """

    spec: GroupSpec
    vertices: tuple[Element, ...]
    edges: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return len(self.spec.generators)

    @property
    def is_cayley(self) -> bool:
        return self.spec.has_trivial_subgroup

    def successors(self, u: int) -> tuple[int, ...]:
        return self.edges[u]


Graph = CosetGraph | Digraph


def letters_commute(g: Graph) -> bool:
    """True when every two out-positions commute at every vertex.

    That is succ[succ[v][a]][b] == succ[succ[v][b]][a] for all v and a < b,
    so any reordering of a word's letters ends where the word did, from
    every base.  Cayley graphs of abelian groups pass; a host whose vertices
    differ in out-degree fails.
    """
    out = [g.successors(v) for v in range(g.vertex_count)]
    d = len(out[0]) if out else 0
    if any(len(row) != d for row in out):
        return False
    for row in out:
        for a in range(d - 1):
            after_a = out[row[a]]
            for b in range(a + 1, d):
                if out[row[b]][a] != after_a[b]:
                    return False
    return True


def validate_coset_condition(group, generators: Sequence[Element], subgroup: Sequence[Element]) -> bool:
    """True when the union of right translates dH equals the union hD.

    This set equality is exactly the condition for the coset adjacency to be
    independent of which representative names a coset.
    """
    gen_then_sub = {group.compose(d, h) for d in generators for h in subgroup}
    sub_then_gen = {group.compose(h, d) for h in subgroup for d in generators}
    return gen_then_sub == sub_then_gen


def build_cayley_coset_graph(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> CosetGraph:
    """Check the coset condition, then walk the cosets from the identity coset.

    Vertex order is breadth-first from the identity coset with generators
    scanned in input order, so builds are reproducible.  The walk reaches
    every coset of the group that the generators and the subgroup generate,
    and raises CapacityError once it would hold more than `cap` elements
    (cosets times |H|), so a typo in a modulus cannot silently eat memory.
    """
    group = spec.group
    if not validate_coset_condition(group, spec.generators, spec.subgroup):
        raise CosetEdgeError(
            "ill-defined edges: the generator set does not commute with the "
            "subgroup as a set, so coset adjacency depends on representatives"
        )

    rep_cache: dict[Element, Element] = {}
    vertices: list[Element] = []
    vertex_index: dict[Element, int] = {}

    def vertex_of(el: Element) -> int:
        rep = rep_cache.get(el)
        if rep is None:
            rep = groups.coset_canonicalize(group, el, spec.subgroup)
            for member in groups.coset_elements(group, el, spec.subgroup):
                rep_cache[member] = rep
        t = vertex_index.get(rep)
        if t is None:
            if (len(vertices) + 1) * len(spec.subgroup) > cap:
                raise CapacityError(
                    f"group enumeration exceeded cap of {cap} elements; "
                    f"raise the cap if the group really is this large"
                )
            t = vertex_index[rep] = len(vertices)
            vertices.append(rep)
        return t

    vertex_of(group.identity)
    rows: list[tuple[int, ...]] = []
    # the vertex list is the breadth-first queue: rows[u] is filled in discovery order
    while len(rows) < len(vertices):
        u = vertices[len(rows)]
        rows.append(tuple(vertex_of(group.compose(u, gen)) for gen in spec.generators))
    # no connectivity check: with DH = HD every element of <D, H> is (D-word)*h, so the walk reaches every coset

    g = CosetGraph(spec=spec, vertices=tuple(vertices), edges=tuple(rows))
    regular_degree(as_digraph(g))  # in-degree must match out-degree everywhere
    return g


def as_digraph(g: CosetGraph) -> Digraph:
    """Forget the group structure, keeping arcs in (vertex, generator) order."""
    return Digraph(out=g.edges)


def emit_adjacency(g: Graph) -> str:
    """Plain interchange dump: one 'src dst label' line per arc."""
    if isinstance(g, CosetGraph):
        rows = [(u, v, j) for u, heads in enumerate(g.edges) for j, v in enumerate(heads)]
    else:
        rows = g.arcs()
    return "\n".join(f"{u} {v} {j}" for u, v, j in rows) + "\n"


def digraph_from_arcs(n: int, arcs: Iterable[Sequence[int]]) -> Digraph:
    """Build a Digraph from explicit (src, dst) pairs, preserving input order."""
    if not isinstance(n, int) or n < 1:
        raise StructureError(f"vertex count must be a positive integer, got {n!r}")
    buckets: list[list[int]] = [[] for _ in range(n)]
    for arc in arcs:
        if len(arc) < 2:
            raise StructureError(f"arc {arc!r} needs a source and a target")
        u, v = int(arc[0]), int(arc[1])
        if not (0 <= u < n) or not (0 <= v < n):
            raise StructureError(f"arc ({u}, {v}) leaves the vertex range 0..{n - 1}")
        buckets[u].append(v)
    return Digraph(out=tuple(tuple(b) for b in buckets))
