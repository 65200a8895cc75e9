"""Group arithmetic, coset enumeration, and coset canonicalization."""

import random

import pytest

from alltoall.errors import CapacityError, StructureError, SubgroupError
from alltoall.graphs import build_cayley_coset_graph
from alltoall.groups import (
    CyclicGroup,
    GroupSpec,
    PermutationGroup,
    ProductGroup,
    coset_canonicalize,
    coset_elements,
    group_from_descriptor,
    validate_subgroup,
)
from test_graphs import representatives


def test_cyclic_compose_is_modular_addition():
    g = CyclicGroup(7)
    assert g.compose(1, 2) == 3
    assert g.compose(5, 4) == 2
    assert g.inverse(3) == 4
    assert g.identity == 0


def test_permutation_compose_reads_left_to_right():
    # a then b: result(x) = b(a(x))
    g = PermutationGroup(3)
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert g.compose(a, b) == (2, 0, 1)
    assert g.compose(b, a) == (1, 2, 0)


def test_permutation_inverse_and_identity():
    g = PermutationGroup(4)
    a = (2, 0, 3, 1)
    assert g.compose(a, g.inverse(a)) == g.identity
    assert g.compose(g.inverse(a), a) == g.identity


@pytest.mark.parametrize("text,expected", [
    ("(1 3)(2 4)", (2, 3, 0, 1)),
    ("(13)(24)", (2, 3, 0, 1)),
    ("(1,3)(2,4)", (2, 3, 0, 1)),
    ("(1 2 3)", (1, 2, 0, 3)),
])
def test_cycle_notation_variants(text, expected):
    assert PermutationGroup(4).parse(text) == expected


def test_cycle_notation_rejects_garbage():
    g = PermutationGroup(4)
    with pytest.raises(StructureError):
        g.parse("(1 5)")
    with pytest.raises(StructureError):
        g.parse("(1 1)")
    with pytest.raises(StructureError):
        g.parse([0, 0, 1, 2])
    with pytest.raises(StructureError):
        g.parse(3.5)


def test_compact_cycles_only_below_ten_points():
    # "(1 11)" is ambiguous without separators, so compact form needs degree < 10
    wide = PermutationGroup(12)
    assert wide.parse("(1 11)") == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 11)
    with pytest.raises(StructureError):
        wide.parse("(111)")


def test_product_group_componentwise():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    assert g.compose((1, 2), (1, 2)) == (0, 1)
    assert g.inverse((1, 2)) == (1, 1)
    assert g.identity == (0, 0)
    assert g.parse([1, 2]) == (1, 2)


def test_group_axioms_on_random_elements():
    rng = random.Random(7)
    g = PermutationGroup(6)
    elems = [tuple(rng.sample(range(6), 6)) for _ in range(12)]
    for a in elems:
        assert g.compose(a, g.identity) == a
        assert g.compose(g.identity, a) == a
    for a, b, c in zip(elems, elems[4:], elems[8:]):
        assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_group_from_descriptor_kinds():
    assert group_from_descriptor({"kind": "cyclic", "modulus": 5}) == CyclicGroup(5)
    assert group_from_descriptor({"kind": "permutation", "degree": 4}) == PermutationGroup(4)
    prod = group_from_descriptor(
        {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2}, {"kind": "cyclic", "modulus": 2}]}
    )
    assert prod == ProductGroup([CyclicGroup(2), CyclicGroup(2)])
    with pytest.raises(StructureError):
        group_from_descriptor({"kind": "simple"})
    with pytest.raises(StructureError):
        group_from_descriptor("cyclic")


def test_modulus_and_degree_floors():
    with pytest.raises(StructureError):
        CyclicGroup(1)
    with pytest.raises(StructureError):
        PermutationGroup(0)


def test_enumerate_cyclic_full_cycle():
    spec = GroupSpec(group=CyclicGroup(4), generators=(1,))
    reps = representatives(build_cayley_coset_graph(spec))
    assert sorted(reps) == [0, 1, 2, 3]
    assert reps[0] == 0  # the identity coset is vertex 0


def test_enumerate_s5_from_two_generators():
    g = PermutationGroup(5)
    spec = GroupSpec(group=g, generators=(g.parse("(1 2)"), g.parse("(1 2 3 4 5)")))
    assert build_cayley_coset_graph(spec).vertex_count == 120


def test_enumeration_cap_is_enforced():
    spec = GroupSpec(group=CyclicGroup(10 ** 6), generators=(1,))
    with pytest.raises(CapacityError) as ei:
        build_cayley_coset_graph(spec, cap=10 ** 5)
    assert "100000" in str(ei.value)


def test_cap_counts_cosets_times_subgroup_order():
    spec = GroupSpec(group=CyclicGroup(6), generators=(2,), subgroup=(0, 3))
    assert build_cayley_coset_graph(spec, cap=6).vertex_count == 3
    with pytest.raises(CapacityError):
        build_cayley_coset_graph(spec, cap=5)


def test_enumeration_includes_subgroup_elements():
    # generators alone reach <2> = {0,2,4}; H = {0,3} completes the group,
    # so the walk finds 3 cosets covering all 6 elements
    spec = GroupSpec(group=CyclicGroup(6), generators=(2,), subgroup=(0, 3))
    g = build_cayley_coset_graph(spec)
    assert g.vertex_count == 3
    assert set().union(*(coset_elements(spec.group, v, spec.subgroup) for v in representatives(g))) == set(range(6))


def test_subgroup_validation():
    g = CyclicGroup(6)
    validate_subgroup(g, [0, 3])
    validate_subgroup(g, [0, 2, 4])
    with pytest.raises(SubgroupError):
        validate_subgroup(g, [3])  # no identity
    with pytest.raises(SubgroupError):
        validate_subgroup(g, [0, 2])  # not closed


def test_coset_canonicalize_picks_minimum():
    g = CyclicGroup(6)
    h = (0, 3)
    assert coset_canonicalize(g, 4, h) == 1
    assert coset_elements(g, 4, h) == {4, 1}
    for x in range(6):
        rep = coset_canonicalize(g, x, h)
        assert coset_canonicalize(g, rep, h) == rep  # idempotent


def test_cosets_partition_the_group():
    g = PermutationGroup(3)
    h = (g.identity, g.parse("(1 2)"))
    # the double coset H(1 2 3)H = S3 - H commutes with H as a set
    outside = tuple(g.parse(c) for c in ("(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)"))
    spec = GroupSpec(group=g, generators=outside, subgroup=h)
    reps = representatives(build_cayley_coset_graph(spec))
    assert len(reps) == 3
    assert all(coset_canonicalize(g, rep, h) == rep for rep in reps)
    seen = set()
    for rep in reps:
        block = coset_elements(g, rep, h)
        assert not (block & seen)
        seen |= block
    assert len(seen) == 6


def test_spec_requires_generators_and_valid_subgroup():
    with pytest.raises(StructureError):
        GroupSpec(group=CyclicGroup(4), generators=())
    with pytest.raises(SubgroupError):
        GroupSpec(group=CyclicGroup(6), generators=(1,), subgroup=(3,))
    spec = GroupSpec(group=CyclicGroup(4), generators=(1,))
    assert spec.subgroup == (0,)
    assert spec.has_trivial_subgroup
    assert spec.degree == 1
