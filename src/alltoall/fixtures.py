"""Built-in graph specs used by the tests, the demos, and the CLI.

Each builtin is the JSON spec document a user would write (see specfile),
parsed the same way as a --spec file.  The Petersen entry is the one
non-Cayley member: ten cosets of a 12-element point-pair stabilizer inside
the order-120 permutation group on 5 points, with three involution
generators.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import CosetGraph, build_cayley_coset_graph
from .groups import GroupSpec, PermutationGroup, coset_canonicalize
from .specfile import parse_spec_document


BUILTIN_SPECS = {
    # directed 4-cycle
    "c4": {"group": {"kind": "cyclic", "modulus": 4}, "generators": [1]},
    # complete digraph on 4 vertices: all non-zero residues
    "k4": {"group": {"kind": "cyclic", "modulus": 4}, "generators": [1, 2, 3]},
    # circulant on 5 vertices with jumps {1, 2}
    "z5-12": {"group": {"kind": "cyclic", "modulus": 5}, "generators": [1, 2]},
    # circulant on 7 vertices with jumps {1, 2, 4} (quadratic residues)
    "z7-124": {"group": {"kind": "cyclic", "modulus": 7}, "generators": [1, 2, 4]},
    # 3-cube: three order-2 cyclic factors, unit-vector generators
    "q3": {
        "group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2}] * 3},
        "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    # the subgroup is every permutation fixing the point pair {1, 2} setwise
    "petersen": {
        "group": {"kind": "permutation", "degree": 5},
        "generators": ["(1 3)(2 4)", "(1 3)(2 5)", "(1 4)(2 5)"],
        "subgroup": [
            [0, 1, 2, 3, 4], [0, 1, 2, 4, 3], [0, 1, 3, 2, 4], [0, 1, 3, 4, 2],
            [0, 1, 4, 2, 3], [0, 1, 4, 3, 2], [1, 0, 2, 3, 4], [1, 0, 2, 4, 3],
            [1, 0, 3, 2, 4], [1, 0, 3, 4, 2], [1, 0, 4, 2, 3], [1, 0, 4, 3, 2],
        ],
    },
}

# A handle for checking how arc labels depend on coset representatives: a
# subgroup element moved across the first generator by conjugation.
PETERSEN_PROBE_CYCLES = ("(3 4)(1 2 5)", "(1 2)(3 4 5)")


def builtin_spec(name: str) -> GroupSpec:
    try:
        doc = BUILTIN_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SPECS))
        raise InputError(f"unknown builtin graph {name!r}; known: {known}") from None
    return parse_spec_document(doc)


def builtin_graph(name: str) -> CosetGraph:
    return build_cayley_coset_graph(builtin_spec(name))


def petersen_conjugation_check() -> bool:
    """Confirm the algebra behind the Petersen fixture.

    The probe x = (3 4)(1 2 5) lies outside the stabilizer, yet conjugating
    it by the first generator lands inside (the product is (1 2)(3 4 5)).
    Equivalently: x*d1 and d1 name the same coset while x and the identity
    do not -- so the arc a fixed generator draws depends on which
    representative is multiplied.  That is why per-generator arc labels
    cannot be trusted on a proper coset graph and a factorization has to be
    searched instead.
    """
    spec = builtin_spec("petersen")
    group, stabilizer, d1 = spec.group, spec.subgroup, spec.generators[0]
    x = group.parse(PETERSEN_PROBE_CYCLES[0])
    expected = group.parse(PETERSEN_PROBE_CYCLES[1])
    conjugate = group.compose(group.compose(group.inverse(d1), x), d1)

    def rep(el):
        return coset_canonicalize(group, el, stabilizer)

    return (
        conjugate == expected
        and conjugate in set(stabilizer)
        and rep(group.compose(x, d1)) == rep(d1)
        and rep(x) != rep(group.identity)
    )
