"""JSON graph-spec files: the one input format every subcommand reads.

Two mutually exclusive forms.  Group form builds a Cayley coset graph:

    {"group": {"kind": "cyclic", "modulus": 7},
     "generators": [1, 2, 4],
     "subgroup": []}

Permutation groups take {"kind": "permutation", "degree": n} and elements
written either as 0-based image arrays ([2,1,0,3,4]) or cycle strings with
1-based points ("(1 3)(2 4)"); products take {"kind": "product", "factors":
[...]} with tuple elements.  An empty or missing "subgroup" means the
identity subgroup (a plain Cayley graph).

Digraph form hands over an explicit regular digraph instead:

    {"digraph": {"n": 4, "arcs": [[0,1],[1,2],[2,3],[3,0]]}}

Exactly one form may be present.  Parse failures name the offending JSON
path so a typo in generators[3] says so.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InputError
from .graphs import Digraph, digraph_from_arcs
from .groups import GroupSpec, group_from_descriptor

def _fail(path: str, msg: str) -> None:
    raise InputError(f"{path}: {msg}")


def parse_spec_document(doc: Any) -> GroupSpec | Digraph:
    """Turn a decoded JSON document into a GroupSpec or a Digraph."""
    if not isinstance(doc, dict):
        _fail("$", f"spec must be a JSON object, got {type(doc).__name__}")
    known = {"group", "generators", "subgroup", "digraph"}
    for key in doc:
        if key not in known:
            _fail(f"$.{key}", "unknown field (expected group/generators/subgroup or digraph)")
    has_group = "group" in doc
    has_digraph = "digraph" in doc
    if has_group == has_digraph:
        _fail("$", "exactly one of the group form and the digraph form must be present")
    if has_digraph:
        return _parse_digraph_form(doc["digraph"])
    return _parse_group_form(doc)


def _parse_digraph_form(body: Any) -> Digraph:
    if not isinstance(body, dict):
        _fail("$.digraph", "must be an object with 'n' and 'arcs'")
    if "n" not in body or "arcs" not in body:
        _fail("$.digraph", "needs both 'n' and 'arcs'")
    arcs = body["arcs"]
    if not isinstance(arcs, list):
        _fail("$.digraph.arcs", "must be a list of [src, dst] pairs")
    if not arcs:
        _fail("$.digraph.arcs", "must hold at least one arc; a digraph with no arcs has no exchange to schedule")
    for i, arc in enumerate(arcs):
        if not isinstance(arc, list) or len(arc) != 2 or not all(type(x) is int for x in arc):
            _fail(f"$.digraph.arcs[{i}]", f"must be a [src, dst] integer pair, got {arc!r}")
    n = body["n"]
    if isinstance(n, int) and n > len(arcs):  # checked before anything is allocated per vertex
        _fail("$.digraph", f"{n} vertices need at least {n} arcs to be regular, got {len(arcs)}")
    try:
        return digraph_from_arcs(n, arcs)
    except InputError as exc:
        _fail("$.digraph", str(exc))


def _parse_group_form(doc: dict) -> GroupSpec:
    if "generators" not in doc:
        _fail("$", "group form needs a 'generators' list")
    try:
        group = group_from_descriptor(doc["group"])
    except InputError as exc:
        _fail("$.group", str(exc))
    gens_doc = doc["generators"]
    if not isinstance(gens_doc, list) or not gens_doc:
        _fail("$.generators", "must be a non-empty list")
    generators = []
    for i, desc in enumerate(gens_doc):
        try:
            generators.append(group.parse(desc))
        except InputError as exc:
            _fail(f"$.generators[{i}]", str(exc))
    sub_doc = doc.get("subgroup", [])
    if not isinstance(sub_doc, list):
        _fail("$.subgroup", "must be a list (empty for the identity subgroup)")
    subgroup = []
    for i, desc in enumerate(sub_doc):
        try:
            subgroup.append(group.parse(desc))
        except InputError as exc:
            _fail(f"$.subgroup[{i}]", str(exc))
    try:
        return GroupSpec(
            group=group,
            generators=tuple(generators),
            subgroup=tuple(subgroup) if subgroup else None,
        )
    except InputError as exc:
        _fail("$", str(exc))


def load_spec_text(text: str, origin: str = "<spec>") -> GroupSpec | Digraph:
    """Parse spec JSON from a string; decode errors keep line/column info."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{origin}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"{origin}: {exc}") from None
    return parse_spec_document(doc)


def load_spec_file(path: str) -> GroupSpec | Digraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    return load_spec_text(text, origin=path)

