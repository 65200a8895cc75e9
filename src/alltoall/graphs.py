"""One graph type: a digraph held as its successor table.

A Digraph's out[u] lists the heads of u's out-arcs, and every later stage
(layers, words, factorizations, schedules, the replay) reads that table.  A
CosetGraph is a Digraph with its group attached: one vertex per left coset
gH and an arc gH -> (g*d)H for each generator d, at out-position d's place
in the generator list.  Labels stay attached through every later stage, so
"generator index" means the same thing everywhere.  The group matters only
where a stage can use it: the diameter inferred from symmetry, and word sets
read off generator labels on a Cayley graph.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, filterfalse
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, CosetEdgeError, RegularityError, StructureError
from .groups import Element, GroupSpec, element_codes

DEFAULT_ELEMENT_CAP = 100_000


def _check_arcs(out: tuple[tuple[int, ...], ...]) -> None:
    n = len(out)
    if min(chain.from_iterable(out), default=0) >= 0 and max(chain.from_iterable(out), default=-1) < n:
        return
    for u, heads in enumerate(out):  # name the first arc out of range
        for v in heads:
            if not (0 <= v < n):
                raise StructureError(f"arc ({u}, {v}) leaves the vertex range 0..{n - 1}")


class _DigraphFields(NamedTuple):
    out: tuple[tuple[int, ...], ...]


class Digraph(_DigraphFields):
    """A finite digraph with parallel arcs allowed, arcs grouped by source.

    out[u] is the tuple of heads of u's out-arcs; the j-th entry is arc
    (u, j) when an arc needs a name.
    """

    __slots__ = ()

    def __new__(cls, out: tuple[tuple[int, ...], ...]):
        _check_arcs(out)
        return super().__new__(cls, out)

    @property
    def vertex_count(self) -> int:
        return len(self.out)

    def arcs(self) -> list[tuple[int, int, int]]:
        """All arcs as (src, dst, label) with label = position at the source."""
        return [(u, v, j) for u, heads in enumerate(self.out) for j, v in enumerate(heads)]


def regular_degree(g: Digraph) -> int:
    """Common in/out degree of a regular digraph; RegularityError otherwise."""
    ins = Counter(chain.from_iterable(g.out))
    d = len(g.out[0]) if g.out else 0
    # n*d arcs whose heads each count d cover every vertex, so the two set checks suffice
    if set(map(len, g.out)) <= {d} and set(ins.values()) <= {d}:
        return d
    for u, heads in enumerate(g.out):  # name the first vertex that is off
        if len(heads) != d or ins[u] != d:
            raise RegularityError(
                f"vertex {u} has out-degree {len(heads)} and in-degree {ins[u]}; expected {d} for a regular digraph"
            )
    return d


class _CosetGraphFields(NamedTuple):
    out: tuple[tuple[int, ...], ...]
    spec: GroupSpec


class CosetGraph(_CosetGraphFields, Digraph):
    """A Digraph whose vertices are the left cosets gH of spec's subgroup and whose arcs follow generators.

    Vertex 0 is the coset of the identity.  out[u][j] is the vertex reached
    from u along generator j.  The cosets themselves are not kept: every
    stage reads only `out`, and a coset can be recovered by walking out from
    vertex 0.
    """

    __slots__ = ()

    def __new__(cls, out: tuple[tuple[int, ...], ...], spec: GroupSpec):
        _check_arcs(out)
        return super().__new__(cls, out, spec)

    @property
    def degree(self) -> int:
        return len(self.spec.generators)

    @property
    def is_cayley(self) -> bool:
        return self.spec.has_trivial_subgroup


def letters_commute(g: Digraph) -> bool:
    """True when every two out-positions commute at every vertex.

    That is out[out[v][a]][b] == out[out[v][b]][a] for all v and a < b,
    so any reordering of a word's letters ends where the word did, from
    every base.  Cayley graphs of abelian groups pass; a host whose vertices
    differ in out-degree fails.
    """
    out = g.out
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
    scanned in input order, so builds are reproducible.  The walk takes a
    queue slice at a time: every vertex queued so far is translated by all
    generators in one call, and the images are read in (vertex, generator)
    order, so new cosets get the numbers a vertex-at-a-time walk would give
    them.  A coset's vertex is labelled by its least element.  The walk holds
    elements as `element_codes` gives them: a product of cyclic groups is
    walked on mixed-radix int codes, a generator touching only the digits of
    the factors it moves.  Codes sort as their tuples do, so the vertex
    numbering is that of a walk on tuples.  The codes serve the walk only;
    the graph keeps just `out` and `spec`.  The walk reaches
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

    sub, d = spec.subgroup, spec.degree
    codes = element_codes(group)
    index: dict = {}  # the code of every element of every coset found so far -> its vertex
    vertices: list = []  # the code of each vertex's coset representative, in vertex order

    def number(fresh: list[Element]) -> None:
        """Number the cosets of `fresh` that have no vertex yet, in first-seen order."""
        if len(sub) == 1:  # a Cayley graph: each element is a coset of its own
            if len(vertices) + len(fresh) > cap:
                raise _capacity_error(cap)
            index.update(zip(fresh, count(len(vertices))))
            vertices.extend(fresh)
            return
        # row i of the columns is the coset fresh[i]H; its minimum is the canonical representative
        for el, members in zip(fresh, zip(*translate(fresh, sub))):
            if el in index:  # an earlier element of this batch lies in the same coset
                continue
            if (len(vertices) + 1) * len(sub) > cap:
                raise _capacity_error(cap)
            index.update(dict.fromkeys(members, len(vertices)))
            vertices.append(min(members))

    translate, known, vertex_of = codes.translate, index.__contains__, index.__getitem__
    number([codes.encode(group.identity)])
    heads: list[int] = []  # arc (u, j) at u * d + j
    # the vertex list is the breadth-first queue
    done = 0
    while done < len(vertices):
        queue = vertices[done:]
        done = len(vertices)
        images: list[Element] = [None] * (len(queue) * d)
        for j, column in enumerate(translate(queue, spec.generators)):
            images[j::d] = column
        number(list(dict.fromkeys(filterfalse(known, images))))
        heads += map(vertex_of, images)
    # no connectivity check: with DH = HD every element of <D, H> is (D-word)*h, so the walk reaches every coset

    # _make skips CosetGraph.__new__'s arc check, which cannot fail here: every head was read from `index`
    g = CosetGraph._make((tuple(zip(*[iter(heads)] * d)), spec))
    regular_degree(g)  # in-degree must match out-degree everywhere
    return g


def _capacity_error(cap: int) -> CapacityError:
    return CapacityError(
        f"group enumeration exceeded cap of {cap} elements; raise the cap if the group really is this large"
    )


def emit_adjacency(g: Digraph) -> str:
    """Plain interchange dump: one 'src dst label' line per arc."""
    return "\n".join(f"{u} {v} {j}" for u, v, j in g.arcs()) + "\n"


def digraph_from_arcs(n: int, arcs: Iterable[Sequence[int]]) -> Digraph:
    """Build a Digraph from explicit (src, dst) pairs, preserving input order."""
    if type(n) is not int or n < 1:
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
