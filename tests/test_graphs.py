"""Cayley coset graph construction and digraph plumbing."""

import json
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alltoall import fixtures
from alltoall.errors import (
    CapacityError,
    ConnectivityError,
    CosetEdgeError,
    InputError,
    RegularityError,
    StructureError,
)
from alltoall.graphs import (
    DEFAULT_ELEMENT_CAP,
    CosetGraph,
    Digraph,
    build_cayley_coset_graph,
    digraph_from_arcs,
    emit_adjacency,
    letters_commute,
    regular_degree,
    validate_coset_condition,
)
from alltoall.factorization import factor_digraph, one_factorize, search_spanning_factorization
from alltoall.groups import (
    CyclicGroup,
    GroupSpec,
    PermutationGroup,
    ProductGroup,
    coset_canonicalize,
    coset_elements,
    element_codes,
)
from alltoall.layers import layer_profile
from alltoall.specfile import load_spec_text


def test_c4_is_a_directed_ring():
    g = fixtures.builtin_graph("c4")
    assert g.vertex_count == 4
    assert g.degree == 1
    assert g.is_cayley
    assert g.out == ((1,), (2,), (3,), (0,))


def test_builtin_sizes_and_degrees():
    expected = {
        "c4": (4, 1), "k4": (4, 3), "z5-12": (5, 2),
        "z7-124": (7, 3), "q3": (8, 3), "petersen": (10, 3),
    }
    for name, (n, d) in expected.items():
        g = fixtures.builtin_graph(name)
        assert (g.vertex_count, g.degree) == (n, d), name


def test_unknown_builtin_name():
    with pytest.raises(InputError) as ei:
        fixtures.builtin_spec("z9")
    assert "petersen" in str(ei.value)  # error lists the known names


def test_petersen_is_a_proper_coset_graph():
    g = fixtures.builtin_graph("petersen")
    assert not g.is_cayley
    assert g.vertex_count == 10
    # bidirected: every arc has its reverse
    arcs = {(u, v) for u, heads in enumerate(g.out) for v in heads}
    assert all((v, u) in arcs for u, v in arcs)
    assert len(arcs) == 30


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS))
def test_each_builtin_is_the_spec_document_a_file_would_hold(name):
    text = json.dumps(fixtures.BUILTIN_SPECS[name])
    assert load_spec_text(text) == fixtures.builtin_spec(name)


def test_petersen_conjugation_probe():
    assert fixtures.petersen_conjugation_check() is True


def test_ill_defined_coset_edges_are_rejected():
    # S3 with H = <(12)> and delta = (123): delta*H != H*delta
    g = PermutationGroup(3)
    h = (g.identity, g.parse("(1 2)"))
    delta = g.parse("(1 2 3)")
    assert not validate_coset_condition(g, (delta,), h)
    spec = GroupSpec(group=g, generators=(delta,), subgroup=h)
    with pytest.raises(CosetEdgeError) as ei:
        build_cayley_coset_graph(spec)
    assert "ill-defined" in str(ei.value)


def test_a_coset_spec_can_pass_the_coset_condition_and_still_give_an_irregular_graph():
    # S3 mod <(1 2)>: DH = HD as sets, yet four of the nine arcs end at the identity coset,
    # so the regularity check that ends the build is not redundant
    g = PermutationGroup(3)
    generators = tuple(map(g.parse, ("(1 2 3)", "(2 3)", "(1 3)")))
    h = (g.identity, g.parse("(1 2)"))
    assert validate_coset_condition(g, generators, h)
    with pytest.raises(RegularityError, match=r"^vertex 0 has out-degree 3 and in-degree 4; expected 3 "):
        build_cayley_coset_graph(GroupSpec(group=g, generators=generators, subgroup=h))


def test_generator_inside_subgroup_collapses_to_one_coset():
    # enumeration closes over generators and H, so delta = 4 in H = {0,2,4}
    # yields the one-coset graph with a self-loop rather than a disconnect
    spec = GroupSpec(group=CyclicGroup(6), generators=(4,), subgroup=(0, 2, 4))
    g = build_cayley_coset_graph(spec)
    assert g.vertex_count == 1
    assert g.out == ((0,),)


def test_disconnected_raw_digraph_is_caught_downstream():
    two_islands = digraph_from_arcs(4, [[0, 1], [1, 0], [2, 3], [3, 2]])
    with pytest.raises(ConnectivityError) as ei:
        layer_profile(two_islands)
    assert "not connected" in str(ei.value)


def representatives(g):
    """The canonical representative of each vertex's coset, read off the breadth-first tree of g.out from vertex 0.

    rep[v] = coset_canonicalize(group, compose(rep[u], gen_j), subgroup) for
    the tree arc (u, j) that first reaches v.
    """
    group, gens, sub = g.spec.group, g.spec.generators, g.spec.subgroup
    rep = {0: coset_canonicalize(group, group.identity, sub)}
    queue = [0]
    for u in queue:
        for gen, v in zip(gens, g.out[u]):
            if v not in rep:
                rep[v] = coset_canonicalize(group, group.compose(rep[u], gen), sub)
                queue.append(v)
    return tuple(rep[v] for v in range(g.vertex_count))


def test_vertex_zero_is_the_identity_coset():
    g = fixtures.builtin_graph("z7-124")
    reps = representatives(g)
    assert reps[0] == 0
    # neighbors of 0 are the generator cosets, in generator order
    assert [reps[v] for v in g.out[0]] == [1, 2, 4]


def test_each_generator_column_is_a_permutation_when_cayley():
    for name in ("c4", "k4", "z5-12", "z7-124", "q3"):
        g = fixtures.builtin_graph(name)
        for j in range(g.degree):
            column = [g.out[v][j] for v in range(g.vertex_count)]
            assert sorted(column) == list(range(g.vertex_count)), (name, j)


def test_generator_order_changes_labels_not_arcs():
    base = fixtures.builtin_spec("z7-124")
    flipped = GroupSpec(group=base.group, generators=tuple(reversed(base.generators)))
    g1 = build_cayley_coset_graph(base)
    g2 = build_cayley_coset_graph(flipped)
    reps1, reps2 = representatives(g1), representatives(g2)
    arcs1 = {(reps1[u], reps1[v]) for u, hs in enumerate(g1.out) for v in hs}
    arcs2 = {(reps2[u], reps2[v]) for u, hs in enumerate(g2.out) for v in hs}
    assert arcs1 == arcs2


def test_duplicate_generators_make_parallel_arcs():
    spec = GroupSpec(group=CyclicGroup(3), generators=(1, 1))
    g = build_cayley_coset_graph(spec)
    assert g.degree == 2
    assert g.out[0] == (1, 1)


def test_regular_degree_checks_both_directions():
    assert regular_degree(digraph_from_arcs(3, [[0, 1], [1, 2], [2, 0]])) == 1
    with pytest.raises(RegularityError) as ei:
        regular_degree(digraph_from_arcs(3, [[0, 1], [0, 2], [1, 2]]))
    assert "vertex" in str(ei.value)


def test_range_and_regularity_errors_name_the_first_offender():
    with pytest.raises(StructureError, match=r"arc \(1, 3\) leaves the vertex range 0..2"):
        Digraph(out=((0,), (3, -1), (7,)))
    with pytest.raises(StructureError, match=r"arc \(0, -1\)"):
        Digraph(out=((-1,), (9,)))
    assert Digraph(out=()).vertex_count == 0
    # vertex 1 is the first whose in-degree is off; vertex 2 is off too
    with pytest.raises(RegularityError, match="vertex 1 has out-degree 1 and in-degree 0; expected 1"):
        regular_degree(Digraph(out=((0,), (2,), (2,))))
    with pytest.raises(RegularityError, match="vertex 2 has out-degree 2 and in-degree 2; expected 1"):
        regular_degree(Digraph(out=((1,), (0,), (2, 2))))
    assert regular_degree(Digraph(out=((), ()))) == 0
    assert regular_degree(Digraph(out=((1, 1), (0, 0)))) == 2


def test_digraph_from_arcs_validates_range():
    with pytest.raises(StructureError):
        digraph_from_arcs(2, [[0, 5]])
    with pytest.raises(StructureError):
        digraph_from_arcs(0, [])
    g = digraph_from_arcs(2, [[0, 1], [1, 0]])
    assert g.arcs() == [(0, 1, 0), (1, 0, 0)]
    assert regular_degree(g) == 1


def test_adjacency_dump_round_trips():
    g = fixtures.builtin_graph("z5-12")
    text = emit_adjacency(g)
    lines = text.strip().splitlines()
    assert len(lines) == 10
    assert lines[0].split() == ["0", "1", "0"]
    n = g.vertex_count
    back = digraph_from_arcs(n, [tuple(map(int, ln.split()))[:2] for ln in lines])
    assert back.out == g.out


def test_coset_graph_is_a_digraph():
    g = fixtures.builtin_graph("q3")
    assert isinstance(g, CosetGraph) and isinstance(g, Digraph)
    assert g.out == ((1, 2, 3), (0, 4, 5), (4, 0, 6), (5, 6, 0), (2, 1, 7), (3, 7, 1), (7, 3, 2), (6, 5, 4))
    assert g.arcs()[:3] == [(0, 1, 0), (0, 2, 1), (0, 3, 2)]
    assert regular_degree(g) == 3
    with pytest.raises(StructureError):
        CosetGraph(out=((1,),), spec=g.spec)


# ---------------------------------------------------------------------------
# commuting out-positions
# ---------------------------------------------------------------------------


def reorderings_agree(g) -> bool:
    """Brute force: every ordering of every word of up to three letters ends at one vertex, from every vertex."""
    d = len(g.out[0])

    def walk(v, word):
        for j in word:
            v = g.out[v][j]
        return v

    for v in range(g.vertex_count):
        for length in (2, 3):
            for word in product(range(d), repeat=length):
                if len({walk(v, w) for w in permutations(word)}) > 1:
                    return False
    return True


@st.composite
def cyclic_products(draw, max_order):
    """Z_m1 x ... x Z_mk with two to six factors, and one to five generators of the shapes a code walk meets.

    A generator is the identity, a step in one factor, or a diagonal element
    moving several factors at once; one may repeat an earlier one.  The
    digits of a drawn set of factors are zero in every generator, so the
    generators often span a proper subgroup.
    """
    k = draw(st.integers(2, 6))
    top = min(5, max(2, int(max_order ** (1 / k))))  # so that the order stays at most max_order
    moduli = draw(st.lists(st.integers(2, top), min_size=k, max_size=k))
    group = ProductGroup([CyclicGroup(m) for m in moduli])
    still = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    step = st.integers(0, k - 1).flatmap(
        lambda i: st.integers(1, moduli[i] - 1).map(lambda y: tuple(y * (j == i) for j in range(k))))
    shapes = st.one_of(st.just(group.identity), step, elements(group))
    gens = [tuple(0 if i in still else x for i, x in enumerate(el))
            for el in draw(st.lists(shapes, min_size=1, max_size=4))]
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return group, tuple(gens)


@st.composite
def abelian_specs(draw):
    """A cyclic group with one to four generators, or a product of two to six small cyclic groups."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 30))
        group = CyclicGroup(m)
        gens = tuple(draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=4)))
    else:
        group, gens = draw(cyclic_products(max_order=128))
    return GroupSpec(group=group, generators=gens)


def kautz(d, n):
    """Kautz K(d, n): words of length n over d+1 letters without a repeat in a row; s -> s[1:] + x."""
    verts = [w for w in product(range(d + 1), repeat=n) if all(a != b for a, b in zip(w, w[1:]))]
    index = {w: i for i, w in enumerate(verts)}
    return Digraph(out=tuple(tuple(index[w[1:] + (x,)] for x in range(d + 1) if x != w[-1]) for w in verts))


def star(n):
    group = PermutationGroup(n)
    return build_cayley_coset_graph(GroupSpec(group=group, generators=tuple(
        group.parse(f"(1 {i})") for i in range(2, n + 1))))


def hypercube(k):
    return GroupSpec(group=ProductGroup([CyclicGroup(2)] * k),
                     generators=tuple(tuple(int(i == j) for i in range(k)) for j in range(k)))


@settings(max_examples=60, deadline=None)
@given(spec=abelian_specs())
def test_abelian_cayley_graphs_commute(spec):
    g = build_cayley_coset_graph(spec)
    assert letters_commute(g)
    assert reorderings_agree(g)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_letters_commute_agrees_with_brute_force(n, data):
    # random successor tables, and factor layouts made of random permutations
    d = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        out = [tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))) for _ in range(n)]
    else:
        perms = [data.draw(st.permutations(range(n))) for _ in range(d)]
        out = [tuple(p[v] for p in perms) for v in range(n)]
    g = Digraph(out=tuple(out))
    assert letters_commute(g) == reorderings_agree(g)


def test_disjoint_transpositions_commute():
    group = PermutationGroup(6)
    spec = GroupSpec(group=group, generators=tuple(group.parse(c) for c in ("(1 2)", "(3 4)", "(5 6)")))
    g = build_cayley_coset_graph(spec)
    assert g.vertex_count == 8
    assert letters_commute(g) and reorderings_agree(g)


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3"])
def test_abelian_builtins_commute(name):
    assert letters_commute(fixtures.builtin_graph(name))


def test_non_commuting_hosts():
    hosts = [star(4), star(5), fixtures.builtin_graph("petersen")]
    for d, n in ((2, 2), (3, 2)):
        k = kautz(d, n)
        hosts.append(factor_digraph(one_factorize(k)))
        hosts.append(factor_digraph(search_spanning_factorization(k, layer_profile(k)).factors))
    for g in hosts:
        assert not letters_commute(g)
        assert not reorderings_agree(g)


def test_irregular_host_does_not_commute():
    assert not letters_commute(digraph_from_arcs(2, [[0, 1], [0, 0], [1, 0]]))


# ---------------------------------------------------------------------------
# the batched build against the per-arc build it replaced
# ---------------------------------------------------------------------------


def per_arc_build(spec, cap=DEFAULT_ELEMENT_CAP):
    """Reference: breadth-first over the cosets, one arc and one compose at a time; returns (out, vertices)."""
    group = spec.group
    rep_cache, vertices, vertex_index = {}, [], {}

    def vertex_of(el):
        rep = rep_cache.get(el)
        if rep is None:
            rep = coset_canonicalize(group, el, spec.subgroup)
            for member in coset_elements(group, el, spec.subgroup):
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
    rows = []
    while len(rows) < len(vertices):
        u = vertices[len(rows)]
        rows.append(tuple(vertex_of(group.compose(u, gen)) for gen in spec.generators))
    return tuple(rows), tuple(vertices)


def built(spec, cap=DEFAULT_ELEMENT_CAP):
    g = build_cayley_coset_graph(spec, cap)
    return g.out, representatives(g)


def outcome(build, spec, cap):
    try:
        return build(spec, cap)
    except CapacityError as e:
        return "CapacityError", str(e)


def order(group):
    if isinstance(group, CyclicGroup):
        return group.modulus
    if isinstance(group, PermutationGroup):
        return factorial(group.degree)
    return prod(order(f) for f in group.factors)


def elements(group):
    """Strategy for the elements of `group`."""
    if isinstance(group, CyclicGroup):
        return st.integers(0, group.modulus - 1)
    if isinstance(group, PermutationGroup):
        return st.permutations(range(group.degree)).map(tuple)
    return st.tuples(*(elements(f) for f in group.factors))


def generated(group, gens):
    """The subgroup generated by `gens`, found breadth-first."""
    members, frontier = {group.identity}, [group.identity]
    while frontier:
        reached = []
        for a in frontier:
            for gen in gens:
                c = group.compose(a, gen)
                if c not in members:
                    members.add(c)
                    reached.append(c)
        frontier = reached
    return members


small_factors = st.one_of(st.integers(2, 6).map(CyclicGroup), st.integers(1, 4).map(PermutationGroup))
group_kinds = st.one_of(
    st.integers(2, 60).map(CyclicGroup),
    st.integers(1, 5).map(PermutationGroup),
    st.lists(small_factors, min_size=1, max_size=3).map(ProductGroup).filter(lambda g: order(g) <= 600),
    # a product with a product factor
    st.tuples(small_factors, st.lists(small_factors, min_size=1, max_size=2).map(ProductGroup))
    .map(ProductGroup).filter(lambda g: order(g) <= 600),
)


@st.composite
def coset_specs(draw):
    """A group, one to four generators, and the subgroup generated by up to two elements.

    With a proper subgroup the generators are closed under conjugation by it
    (h^-1 d h), which gives DH = HD, the condition for well-defined coset arcs.
    """
    group = draw(group_kinds)
    gens = draw(st.lists(elements(group), min_size=1, max_size=4))
    sub = sorted(generated(group, draw(st.lists(elements(group), max_size=2))))
    assume(len(sub) <= 24)
    if len(sub) > 1:
        inv, compose = group.inverse, group.compose
        gens = list(dict.fromkeys(compose(compose(inv(h), d), h) for d in gens for h in sub))
        assume(len(gens) <= 24)
    return GroupSpec(group=group, generators=tuple(gens), subgroup=tuple(draw(st.permutations(sub))))


@st.composite
def cyclic_product_coset_specs(draw):
    """A product of cyclic groups, its generators, and a subgroup H of at most 24 elements generated by up to two.

    The group is abelian, so DH = HD for every H.
    """
    group, gens = draw(cyclic_products(max_order=1500))
    picks = draw(st.lists(elements(group), max_size=2))
    while len(sub := sorted(generated(group, picks))) > 24:
        picks.pop()
    return GroupSpec(group=group, generators=gens, subgroup=tuple(draw(st.permutations(sub))))


@settings(max_examples=250, deadline=None)
@given(spec=st.one_of(coset_specs(), cyclic_product_coset_specs()))
def test_batched_build_matches_the_per_arc_build(spec):
    assert validate_coset_condition(spec.group, spec.generators, spec.subgroup)
    assert built(spec) == per_arc_build(spec)


@settings(max_examples=250, deadline=None)
@given(spec=st.one_of(coset_specs(), cyclic_product_coset_specs()))
def test_a_built_graph_passes_the_arc_check_it_skips(spec):
    # the build makes its record without the constructors' arc check; the check must accept what it makes
    g = build_cayley_coset_graph(spec)
    assert Digraph(g.out).out == g.out
    assert CosetGraph(g.out, g.spec) == g
    if spec.has_trivial_subgroup:  # right multiplication by a generator permutes the group
        for j in range(g.degree):
            assert sorted(heads[j] for heads in g.out) == list(range(g.vertex_count)), j


@pytest.mark.parametrize("name", ["c4", "k4", "z5-12", "z7-124", "q3", "petersen"])
def test_builtins_match_the_per_arc_build(name):
    spec = fixtures.builtin_spec(name)
    assert built(spec) == per_arc_build(spec)


def test_larger_graphs_match_the_per_arc_build():
    torus = GroupSpec(group=ProductGroup([CyclicGroup(12)] * 2), generators=((1, 0), (11, 0), (0, 1), (0, 11)))
    z4_5 = GroupSpec(group=ProductGroup([CyclicGroup(4)] * 5),
                     generators=tuple(tuple(s * (i == j) % 4 for i in range(5)) for j in range(5) for s in (1, -1)))
    z256 = GroupSpec(group=CyclicGroup(256), generators=(1, 16))
    for spec in (hypercube(7), hypercube(10), z4_5, star(5).spec, torus, z256):
        assert built(spec) == per_arc_build(spec)


def test_a_product_of_cyclic_groups_is_walked_on_codes(monkeypatch):
    q10 = hypercube(10)
    expected = per_arc_build(q10)

    def refuse(*args):
        raise AssertionError("ProductGroup.translate was called")

    monkeypatch.setattr(ProductGroup, "translate", refuse)
    with pytest.raises(AssertionError):  # the guard bites where tuples are translated
        q10.group.translate([q10.group.identity], q10.generators)
    assert built(q10) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_codes_translate_and_order_as_the_elements_do(data):
    group = data.draw(st.one_of(group_kinds, cyclic_products(max_order=1500).map(lambda drawn: drawn[0])))
    codes = element_codes(group)
    batch = data.draw(st.lists(elements(group), max_size=8))
    bs = data.draw(st.lists(st.one_of(st.just(group.identity), elements(group)), max_size=5))
    held = [codes.encode(a) for a in batch]
    assert codes.translate(held, bs) == [[codes.encode(group.compose(a, b)) for a in batch] for b in bs]
    for (a, x), (b, y) in product(zip(batch, held), repeat=2):
        assert (a < b, a == b) == (x < y, x == y)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translate_is_compose_per_element(data):
    group = data.draw(group_kinds)
    batch = data.draw(st.lists(elements(group), max_size=8))
    bs = data.draw(st.lists(st.one_of(st.just(group.identity), elements(group)), max_size=5))
    assert group.translate(batch, bs) == [[group.compose(a, b) for a in batch] for b in bs]


def test_translate_of_an_empty_batch_is_empty():
    for group in (CyclicGroup(5), PermutationGroup(3), ProductGroup([CyclicGroup(2), PermutationGroup(3)]),
                  ProductGroup([ProductGroup([CyclicGroup(3)])])):
        assert group.translate([], [group.identity, group.identity]) == [[], []]
        assert group.translate([group.identity], []) == []


def mid_batch_counts(out):
    """Coset counts k with cosets k and k + 1 found in one queue slice, so a cap of k cosets is crossed mid-batch.

    The build's queue slices are the distance layers from vertex 0.
    """
    seen, layer, ends = {0}, [0], []
    while layer:
        ends.append(len(seen))
        layer = [v for u in layer for v in out[u] if v not in seen and not seen.add(v)]
    return [k for lo, hi in zip(ends, ends[1:]) for k in range(lo + 1, hi)]


@pytest.mark.parametrize("spec", [
    star(5).spec,
    GroupSpec(group=CyclicGroup(1000), generators=(1, 10)),
    fixtures.builtin_spec("petersen"),
    GroupSpec(group=CyclicGroup(600), generators=(3, 30), subgroup=(0, 200, 400)),
    hypercube(6),
    GroupSpec(group=ProductGroup([CyclicGroup(m) for m in (3, 4, 5, 2)]),
              generators=((1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 2, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
              subgroup=((0, 0, 0, 0), (0, 2, 0, 0))),
], ids=["star5", "z1000", "petersen", "z600-mod-200", "q6", "z3xz4xz5xz2-mod-z2"])
def test_cap_crossed_mid_batch_matches_the_per_arc_build(spec):
    ks = mid_batch_counts(per_arc_build(spec)[0])
    assert ks, "no queue slice finds two new cosets"
    assert_caps_match(spec, ks)


@settings(max_examples=60, deadline=None)
@given(spec=cyclic_product_coset_specs())
def test_cap_crossed_mid_batch_on_cyclic_products_matches_the_per_arc_build(spec):
    assert_caps_match(spec, mid_batch_counts(per_arc_build(spec)[0]))


def assert_caps_match(spec, ks):
    """At caps just below, at and just above k cosets for three of the mid-batch counts ks, and at the full size."""
    out, vertices = per_arc_build(spec)
    h = len(spec.subgroup)
    for k in (ks[0], ks[len(ks) // 2], ks[-1]) if ks else ():
        for cap in (k * h - 1, k * h, k * h + h - 1):
            expected = outcome(per_arc_build, spec, cap)
            assert expected[0] == "CapacityError"
            assert outcome(built, spec, cap) == expected
    assert outcome(built, spec, len(vertices) * h - 1) == outcome(per_arc_build, spec, len(vertices) * h - 1)
    assert built(spec, len(vertices) * h) == (out, vertices)
