"""The package's records: keyword construction, immutability, value equality, repr, and validation."""

from array import array

import pytest

from alltoall.costmodel import ComparisonVerdict, CostParams, RankedNetwork, RegimeTime, TimeBreakdown
from alltoall.errors import InputError, StructureError
from alltoall.factorization import SearchResult
from alltoall.graphs import CosetGraph, Digraph
from alltoall.groups import CyclicGroup, GroupSpec, PermutationGroup
from alltoall.layers import LayerProfile
from alltoall.scheduling import MinScheduleResult, Schedule, ScheduleFlags, TwoLayerCounts
from alltoall.simulate import TransposeTrace
from alltoall.words import RegularBound

Z2 = CyclicGroup(2)
COST = dict(processors=64, degree=6, avg_diameter=3.5, cost_ratio=2, matrix_dim=32, iterations=4,
            alpha_coeff=1, alpha_power=1)
TIMES = dict(compute=1, exchange=2, total=3, tau=4, optimistic=False)

# (type, its fields as keyword arguments): a valid record of each type
RECORDS = [
    (GroupSpec, dict(group=Z2, generators=(1,), subgroup=(0,))),
    (Digraph, dict(out=((1,), (0,)))),
    (CosetGraph, dict(out=((1,), (0,)), spec=GroupSpec(Z2, (1,)))),
    (LayerProfile, dict(vertex_count=2, degree=1, layer_sizes=(1, 1), dist=(0, 1))),
    (RegularBound, dict(value=1, exact=True, witness={1: (0,)})),
    (SearchResult, dict(factors=((1, 0),), words=((), (0,)), nodes=3, factorizations=1, best_depth=1,
                        reason="exhausted")),
    (Schedule, dict(times={1: (1,)})),
    (MinScheduleResult, dict(status="optimal", schedule=Schedule(times={1: (1,)}), makespan=1, nodes=2)),
    (TwoLayerCounts, dict(first_of_pair=(1, 0), second_of_pair=(0, 1))),
    (ScheduleFlags, dict(balanced=True, short=False, optimal=False, minimum=True)),
    (TransposeTrace, dict(horizon=1, conflicts=(), conflict_count=0, undelivered=(), undelivered_count=0,
                          delivered_pairs=2, vertex_count=2, dests=array("B", [1, 0]))),
    (CostParams, COST),
    (TimeBreakdown, TIMES),
    (RegimeTime, dict(total=5, lam=0.5, reduced=None, assumption_holds=True)),
    (RankedNetwork, dict(name="a", params=CostParams(**COST), wire_cost=384, times=TimeBreakdown(**TIMES))),
    (ComparisonVerdict, dict(ranking=(), eliminated=(("a", 384),), winner=None, explanation="none left")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_keyword_construction_gives_back_the_fields(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(*fields.values()) == record


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_a_record_is_immutable(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_repr_names_the_type_and_its_fields(cls, fields):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in fields)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_equal_constructions_compare_equal(cls, fields):
    assert cls(**fields) == cls(**fields)


def test_a_group_spec_without_a_subgroup_gets_the_identity():
    assert GroupSpec(Z2, (1,)).subgroup == (0,)
    s3 = PermutationGroup(3)
    assert GroupSpec(s3, ((1, 0, 2),)).subgroup == ((0, 1, 2),)
    assert GroupSpec(CyclicGroup(4), (1,), [0, 2]).subgroup == (0, 2)


def test_a_group_spec_checks_its_generators():
    with pytest.raises(StructureError, match="generator list must be non-empty"):
        GroupSpec(Z2, ())


@pytest.mark.parametrize("field", ["processors", "degree", "avg_diameter", "matrix_dim", "iterations", "alpha_coeff"])
def test_cost_params_refuse_a_non_positive_field(field):
    with pytest.raises(InputError, match=f"^{field} must be positive, got 0$"):
        CostParams(**{**COST, field: 0})
    with pytest.raises(InputError, match=f"^{field} must be positive, got -1$"):
        CostParams(*{**COST, field: -1}.values())


def test_a_coset_graph_checks_its_arcs():
    spec = GroupSpec(Z2, (1,))
    with pytest.raises(StructureError, match=r"^arc \(1, 2\) leaves the vertex range 0\.\.1$"):
        CosetGraph(out=((1,), (2,)), spec=spec)
    with pytest.raises(StructureError, match=r"^arc \(0, -1\) leaves the vertex range 0\.\.1$"):
        CosetGraph(((-1,), (0,)), spec)

