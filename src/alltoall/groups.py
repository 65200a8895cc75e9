"""Finite groups, element arithmetic, and coset bookkeeping.

Three concrete group kinds cover the corpus: cyclic groups Z_m, permutation
groups on a fixed number of points, and direct products of those.  Elements
are plain hashable values (ints, tuples, tuples of tuples) so they can be
dict keys and sort without helper classes.

Composition convention: compose(a, b) means "apply a first, then b".  For
permutations stored as image tuples this is compose(a, b)[x] == b[a[x]]; for
cyclic groups it is addition mod m.  Every routine in the package sticks to
this one convention.

Elements are checked where they enter: `parse`, the generators of a
GroupSpec and `validate_subgroup`.  compose and inverse do arithmetic only,
since composing valid elements cannot produce an invalid one.

`translate(elements, b)` is the batched right action, equal to
[compose(a, b) for a in elements] but without a method call per element, so
a graph build pays interpreter overhead per batch rather than per arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import StructureError, SubgroupError

Element = Any


# ---------------------------------------------------------------------------
# group kinds
# ---------------------------------------------------------------------------


class CyclicGroup:
    """Integers under addition mod `modulus`."""

    kind = "cyclic"

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise StructureError(f"cyclic modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus

    @property
    def identity(self) -> int:
        return 0

    def compose(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def translate(self, elements: Sequence[int], b: int) -> list[int]:
        m = self.modulus
        return [(a + b) % m for a in elements]

    def inverse(self, a: int) -> int:
        return (-a) % self.modulus

    def check_element(self, a: Element) -> None:
        if not isinstance(a, int) or not (0 <= a < self.modulus):
            raise StructureError(f"{a!r} is not a residue mod {self.modulus}")

    def parse(self, desc: Any) -> int:
        if not isinstance(desc, int):
            raise StructureError(f"cyclic element descriptor must be an int, got {desc!r}")
        return desc % self.modulus

    def __repr__(self) -> str:
        return f"CyclicGroup({self.modulus})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclicGroup) and other.modulus == self.modulus


class PermutationGroup:
    """Permutations of range(degree), stored as image tuples.

    The ambient group is the full symmetric group on `degree` points; which
    subgroup actually matters is determined by the generators of a spec.
    """

    kind = "permutation"

    def __init__(self, degree: int):
        if not isinstance(degree, int) or degree < 1:
            raise StructureError(f"permutation degree must be an integer >= 1, got {degree!r}")
        self.degree = degree

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def compose(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple(b[a[x]] for x in range(self.degree))

    def translate(self, elements: Sequence[tuple[int, ...]], b: Sequence[int]) -> list[tuple[int, ...]]:
        # column x of the images is b applied to column x of the elements
        return list(zip(*[map(b.__getitem__, col) for col in zip(*elements)]))

    def inverse(self, a: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.degree
        for i, image in enumerate(a):
            out[image] = i
        return tuple(out)

    def check_element(self, a: Element) -> None:
        if not isinstance(a, tuple) or len(a) != self.degree or sorted(a) != list(range(self.degree)):
            raise StructureError(f"{a!r} is not a permutation of {self.degree} points")

    def parse(self, desc: Any) -> tuple[int, ...]:
        if isinstance(desc, str):
            return self._parse_cycles(desc)
        if isinstance(desc, (list, tuple)):
            el = tuple(desc)
            self.check_element(el)
            return el
        raise StructureError(f"permutation descriptor must be an image list or cycle string, got {desc!r}")

    def _parse_cycles(self, text: str) -> tuple[int, ...]:
        """Parse cycle notation with 1-based points: "(1 3)(2 4)" or "(13)(24)".

        The compact digit-run form is only unambiguous below point 10, which
        covers every corpus group.
        """
        stripped = text.strip().replace(") (", ")(")
        if stripped.replace(" ", "") in ("", "()", "e", "id"):
            return self.identity
        images = list(range(self.degree))
        if stripped[0] != "(" or stripped[-1] != ")":
            raise StructureError(f"cycle string must be parenthesized: {text!r}")
        for chunk in stripped[1:-1].split(")("):
            chunk = chunk.strip()
            if "," in chunk or " " in chunk:
                points = [self._point(tok, text) for tok in chunk.replace(",", " ").split()]
            elif any(c for c in chunk if not c.isdigit()):
                raise StructureError(f"bad cycle {chunk!r} in {text!r}")
            elif self.degree < 10:
                points = [self._point(c, text) for c in chunk]
            else:
                raise StructureError(
                    f"compact cycle {chunk!r} is ambiguous at degree {self.degree}; separate points with commas"
                )
            if len(set(points)) != len(points) or not points:
                raise StructureError(f"cycle {chunk!r} repeats a point in {text!r}")
            for src, dst in zip(points, points[1:] + points[:1]):
                if images[src] != src:
                    raise StructureError(f"point {src + 1} appears in two cycles in {text!r}")
                images[src] = dst
        return tuple(images)

    def _point(self, token: str, text: str) -> int:
        try:
            value = int(token)
        except ValueError:
            raise StructureError(f"bad point {token!r} in cycle string {text!r}") from None
        if not (1 <= value <= self.degree):
            raise StructureError(f"point {value} out of range 1..{self.degree} in {text!r}")
        return value - 1

    def __repr__(self) -> str:
        return f"PermutationGroup({self.degree})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermutationGroup) and other.degree == self.degree


class ProductGroup:
    """Direct product; elements are tuples with one entry per factor."""

    kind = "product"

    def __init__(self, factors: Sequence[CyclicGroup | PermutationGroup | "ProductGroup"]):
        if not factors:
            raise StructureError("product group needs at least one factor")
        self.factors = tuple(factors)

    @property
    def identity(self) -> tuple:
        return tuple(f.identity for f in self.factors)

    def compose(self, a: tuple, b: tuple) -> tuple:
        return tuple(f.compose(x, y) for f, x, y in zip(self.factors, a, b))

    def translate(self, elements: Sequence[tuple], b: tuple) -> list[tuple]:
        # one column per factor; a factor whose part of b is its identity keeps its column
        cols = [col if y == f.identity else f.translate(col, y) for f, col, y in zip(self.factors, zip(*elements), b)]
        return list(zip(*cols))

    def inverse(self, a: tuple) -> tuple:
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def check_element(self, a: Element) -> None:
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise StructureError(f"{a!r} is not a {len(self.factors)}-component product element")
        for f, x in zip(self.factors, a):
            f.check_element(x)

    def parse(self, desc: Any) -> tuple:
        if not isinstance(desc, (list, tuple)) or len(desc) != len(self.factors):
            raise StructureError(f"product descriptor must list one entry per factor, got {desc!r}")
        return tuple(f.parse(x) for f, x in zip(self.factors, desc))

    def __repr__(self) -> str:
        return f"ProductGroup({list(self.factors)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductGroup) and other.factors == self.factors


Group = CyclicGroup | PermutationGroup | ProductGroup


def group_from_descriptor(desc: dict) -> Group:
    """Build a group from its JSON descriptor: {"kind": ..., ...}."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise StructureError(f"group descriptor must be an object with a 'kind' field, got {desc!r}")
    kind = desc["kind"]
    if kind == "cyclic":
        return CyclicGroup(desc.get("modulus", 0))
    if kind == "permutation":
        return PermutationGroup(desc.get("degree", 0))
    if kind == "product":
        factors = desc.get("factors")
        if not isinstance(factors, list):
            raise StructureError("product descriptor needs a 'factors' list")
        return ProductGroup([group_from_descriptor(f) for f in factors])
    raise StructureError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A group together with an ordered generator multiset and a subgroup.

    `generators` keeps duplicates and input order: the i-th generator is the
    i-th out-edge label everywhere downstream.  `subgroup` lists the full
    subgroup (identity alone for ordinary Cayley graphs).
    """

    group: Group
    generators: tuple[Element, ...]
    subgroup: tuple[Element, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.generators:
            raise StructureError("generator list must be non-empty")
        for g in self.generators:
            self.group.check_element(g)
        sub = self.subgroup if self.subgroup is not None else (self.group.identity,)
        object.__setattr__(self, "subgroup", tuple(sub))
        validate_subgroup(self.group, self.subgroup)

    @property
    def degree(self) -> int:
        """Out-degree of the graph this spec generates (= |generators|)."""
        return len(self.generators)

    @property
    def has_trivial_subgroup(self) -> bool:
        return len(self.subgroup) == 1


def validate_subgroup(group: Group, elements: Iterable[Element]) -> None:
    """Check closure under composition and inverse; raise SubgroupError if not."""
    members = set()
    for el in elements:
        group.check_element(el)
        members.add(el)
    if group.identity not in members:
        raise SubgroupError("subgroup must contain the identity")
    for a in members:
        if group.inverse(a) not in members:
            raise SubgroupError(f"subgroup not closed under inverse at {a!r}")
        for b in members:
            if group.compose(a, b) not in members:
                raise SubgroupError(f"subgroup not closed under composition at {a!r}, {b!r}")


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


def coset_elements(group: Group, g: Element, subgroup: Sequence[Element]) -> set[Element]:
    """The left coset {g * h : h in subgroup} under the package convention."""
    return {group.compose(g, h) for h in subgroup}


def coset_canonicalize(group: Group, g: Element, subgroup: Sequence[Element]) -> Element:
    """Canonical representative of gH: the minimum element under natural order."""
    return min(coset_elements(group, g, subgroup))
