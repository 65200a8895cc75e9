"""JSON spec-file parsing: both forms and path-tagged errors."""

import pytest

from alltoall.errors import InputError
from alltoall.graphs import Digraph, build_cayley_coset_graph
from alltoall.groups import GroupSpec, PermutationGroup
from alltoall.specfile import load_spec_text, parse_spec_document


def test_group_form_cyclic():
    spec = parse_spec_document(
        {"group": {"kind": "cyclic", "modulus": 7}, "generators": [1, 2, 4], "subgroup": []}
    )
    assert isinstance(spec, GroupSpec)
    assert spec.generators == (1, 2, 4)
    assert spec.has_trivial_subgroup
    g = build_cayley_coset_graph(spec)
    assert g.vertex_count == 7


def test_group_form_permutation_with_cycles_and_images():
    spec = parse_spec_document(
        {
            "group": {"kind": "permutation", "degree": 5},
            "generators": ["(1 3)(2 4)", [1, 0, 2, 3, 4]],
        }
    )
    assert isinstance(spec.group, PermutationGroup)
    assert spec.generators[0] == (2, 3, 0, 1, 4)
    assert spec.generators[1] == (1, 0, 2, 3, 4)


def test_group_form_product():
    spec = parse_spec_document(
        {
            "group": {"kind": "product", "factors": [
                {"kind": "cyclic", "modulus": 2},
                {"kind": "cyclic", "modulus": 3},
            ]},
            "generators": [[1, 0], [0, 1]],
        }
    )
    assert spec.group.identity == (0, 0)


def test_digraph_form():
    dg = parse_spec_document({"digraph": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}})
    assert isinstance(dg, Digraph)
    assert dg.vertex_count == 3


@pytest.mark.parametrize(
    "doc,path",
    [
        ([1, 2], "$"),
        ({"generators": [1]}, "$"),  # neither form
        ({"group": {"kind": "cyclic", "modulus": 4}, "generators": [1],
          "digraph": {"n": 1, "arcs": []}}, "$"),  # both forms
        ({"group": {"kind": "cyclic", "modulus": 4}, "generators": [1], "extra": 1}, "$.extra"),
        ({"group": {"kind": "cyclic", "modulus": 4}}, "$"),  # no generators
        ({"group": {"kind": "cyclic", "modulus": 4}, "generators": []}, "$.generators"),
        ({"group": {"kind": "ring"}, "generators": [1]}, "$.group"),
        ({"group": {"kind": "cyclic", "modulus": 4}, "generators": [1, "x"]}, "$.generators[1]"),
        ({"group": {"kind": "cyclic", "modulus": 6}, "generators": [1], "subgroup": "no"},
         "$.subgroup"),
        ({"group": {"kind": "cyclic", "modulus": 6}, "generators": [1], "subgroup": [0, "y"]},
         "$.subgroup[1]"),
        ({"digraph": {"n": 3}}, "$.digraph"),
        ({"digraph": {"n": 3, "arcs": [[0, 1], [1]]}}, "$.digraph.arcs[1]"),
        ({"digraph": {"n": 2, "arcs": [[0, 5]]}}, "$.digraph"),
    ],
)
def test_rejections_name_the_json_path(doc, path):
    with pytest.raises(InputError) as info:
        parse_spec_document(doc)
    assert str(info.value).startswith(path + ":")


def test_identity_generator_collapses_not_errors():
    # consistent with closure-driven enumeration: nothing beyond the identity
    doc = {"group": {"kind": "cyclic", "modulus": 4}, "generators": [0]}
    g = build_cayley_coset_graph(parse_spec_document(doc))
    assert g.vertex_count == 1
    assert g.out == ((0,),)


def test_decode_error_carries_location():
    with pytest.raises(InputError, match=r"z\.json:2:"):
        load_spec_text('{"group": {},\n  !', origin="z.json")
