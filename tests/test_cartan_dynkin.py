import json
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from conftest import CATALOGUE, FAMILY_MATRIX, diagram_shape, full_subdiagrams, make_shape, shape_of
from superserre.cartan_dynkin import (
    BLACK,
    GREY,
    WHITE,
    CartanDataError,
    DynkinDiagram,
    Edge,
    _path_order,
    build_diagram,
    cartan_matrix,
    connected_subsets,
    minimal_square_length,
    parse_diagram,
    serialize_diagram,
)
from superserre.rootdata import (
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
)
from superserre.scalars import ALPHA, ONE, Scalar, render


def cd_of(family, **kw):
    datum = build_root_datum(family, **kw)
    return datum, cartan_matrix(datum, distinguished_simple_system(datum))


def test_a10_cartan_matrix():
    _, cd = cd_of("A", m=1, n=0)
    assert [[render(x) for x in row] for row in cd.native_a] == [["2", "-1"], ["-1", "0"]]
    assert cd.theta == frozenset({2})
    assert cd.sgn[0][1] == -1
    assert cd.kappa == 1
    assert cd.lm2 == 2


def test_b01_cartan_matrix():
    _, cd = cd_of("B", m=0, n=1)
    assert cd.native_a[0][0] == 2
    assert cd.theta == frozenset({1})
    assert cd.kappa == 0
    assert cd.lm2 == 1
    diag = build_diagram(cd)
    assert diag.nodes == (BLACK,)


def test_sl22_osp42_signs():
    _, cd1 = cd_of("A", m=1, n=1)
    _, cd2 = cd_of("D", m=2, n=1)
    assert (cd1.sgn[0][1], cd1.sgn[1][2]) == (-1, 1)
    d2 = build_diagram(cd2)
    grey = d2.nodes.index(GREY)
    whites = [k for k in range(3) if k != grey]
    assert [cd2.sgn[grey][w] for w in whites] == [-1, -1]
    # identical as undecorated diagrams
    def undecorated(diag):
        return diagram_shape(
            type(diag)(diag.nodes, {k: type(e)(e.count, None, 0, None) for k, e in diag.edges.items()})
        )
    assert undecorated(build_diagram(cd1)) == undecorated(d2)


def test_d21a_lm2_and_labels():
    datum, cd = cd_of("D21a")
    assert cd.lm2 == 4
    diag = build_diagram(cd)
    assert diag.labelled
    labels = {k: e.b_label for k, e in diag.edges.items()}
    assert labels == {(0, 1): -ONE, (0, 2): -ALPHA}
    systems = enumerate_simple_systems(datum)
    tri = build_diagram(cartan_matrix(datum, systems[1]))
    got = sorted(render(e.b_label) for e in tri.edges.values())
    assert got == sorted([ONE.render(), ALPHA.render(), (-(ONE + ALPHA)).render()])


def test_cartan_invariants_all_families():
    from conftest import FAMILY_MATRIX

    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            cd = cartan_matrix(datum, system)
            r = cd.rank
            for i in range(r):
                # A = D^{-1} B entrywise
                for j in range(r):
                    assert cd.native_a[i][j] * cd.d[i] == cd.native_b[i][j]
                    assert cd.sgn[i][j] in (-1, 0, 1)
                if cd.is_isotropic(i + 1):
                    assert cd.native_a[i][i] == 0
                else:
                    assert cd.native_a[i][i] == 2
                    for j in range(r):
                        if j != i:
                            assert cd.a_integer(i + 1, j + 1) <= 0


# ---- Table 1: distinguished diagrams ------------------------------------------


def test_table1_a_series():
    for m, n in [(1, 0), (1, 1), (2, 1)]:
        datum = build_root_datum("A", m=m, n=n)
        diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
        r = m + n + 1
        assert diag.nodes == tuple([WHITE] * m + [GREY] + [WHITE] * n)
        for k in range(r - 1):
            e = diag.edge(k, k + 1)
            assert e.count == 1 and e.arrow_towards is None
        assert len(diag.edges) == r - 1


def test_table1_b_series():
    datum = build_root_datum("B", m=1, n=2)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (WHITE, GREY, WHITE)
    last = diag.edge(1, 2)
    assert last.count == 2 and last.arrow_towards == 2
    datum = build_root_datum("B", m=0, n=2)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (WHITE, BLACK)
    assert diag.edge(0, 1).count == 2 and diag.edge(0, 1).arrow_towards == 1


def test_table1_c_series():
    datum = build_root_datum("C", n=3)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (GREY, WHITE, WHITE)
    assert diag.edge(0, 1).count == 1
    e = diag.edge(1, 2)
    assert e.count == 2 and e.arrow_towards == 1


def test_table1_d_series():
    datum = build_root_datum("D", m=2, n=2)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (WHITE, GREY, WHITE, WHITE)
    assert diag.count(1, 2) == 1 and diag.count(1, 3) == 1
    assert diag.count(2, 3) == 0


def test_table1_f4():
    datum = build_root_datum("F4")
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (GREY, WHITE, WHITE, WHITE)
    assert diag.count(0, 1) == 1
    e = diag.edge(1, 2)
    assert e.count == 2 and e.arrow_towards == 1
    assert diag.count(2, 3) == 1


def test_table1_g3():
    datum = build_root_datum("G3")
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    assert diag.nodes == (GREY, WHITE, WHITE)
    assert diag.count(0, 1) == 1
    e = diag.edge(1, 2)
    assert e.count == 3 and e.arrow_towards == 1


# ---- Table 2: every enumerated diagram matches a reference shape ---------------


def _c_series_shapes(diag):
    greys = [k for k, c in enumerate(diag.nodes) if c == GREY]
    if len(greys) != 2:
        return False
    a, b = greys
    return diag.count(a, b) in (1, 2)


def test_table2_c_remark():
    # C(n): non-distinguished diagrams have exactly two adjacent grey nodes,
    # except for the parameter-sign twin of the distinguished class, whose
    # decorated diagram coincides with the distinguished one
    datum = build_root_datum("C", n=3)
    systems = enumerate_simple_systems(datum)
    distinguished_shape = shape_of(datum, systems[0])
    twins = 0
    for system in systems[1:]:
        diag = build_diagram(cartan_matrix(datum, system))
        if shape_of(datum, system) == distinguished_shape:
            twins += 1
            continue
        assert _c_series_shapes(diag)
    assert twins == 1


def test_table2_d21a_shapes():
    datum = build_root_datum("D21a")
    systems = enumerate_simple_systems(datum)
    shapes = {shape_of(datum, s) for s in systems[1:]}
    expected = {
        make_shape([GREY, GREY, GREY], [(0, 1, 1, None, "1"), (0, 2, 1, None, "a"),
                                        (1, 2, 1, None, "-(1+a)")]),
        make_shape([GREY, WHITE, WHITE], [(0, 1, 1, None, "-1"), (0, 2, 1, None, "1+a")]),
        make_shape([GREY, WHITE, WHITE], [(0, 1, 1, None, "-a"), (0, 2, 1, None, "1+a")]),
    }
    assert shapes == expected


def test_table2_f4_shapes():
    datum = build_root_datum("F4")
    systems = enumerate_simple_systems(datum)
    shapes = [shape_of(datum, s) for s in systems]
    expected = [
        # distinguished: grey - white <= white - white
        make_shape([GREY, WHITE, WHITE, WHITE],
                   [(0, 1, 1, None, None), (1, 2, 2, 1, None), (2, 3, 1, None, None)]),
        # grey - grey <= white - white
        make_shape([GREY, GREY, WHITE, WHITE],
                   [(0, 1, 1, None, None), (1, 2, 2, 1, None), (2, 3, 1, None, None)]),
        # triangle white/grey/grey with double tail to white
        make_shape([WHITE, GREY, GREY, WHITE],
                   [(0, 1, 1, None, None), (0, 2, 1, None, None), (1, 2, 2, None, None),
                    (2, 3, 2, 2, None)]),
        # white => grey with grey/grey/white triangle (single, double, triple)
        make_shape([GREY, WHITE, GREY, GREY],
                   [(0, 2, 1, None, None), (0, 3, 3, None, None), (1, 2, 2, 2, None),
                    (2, 3, 2, None, None)]),
        # white => white - grey <=3= white
        make_shape([WHITE, WHITE, GREY, WHITE],
                   [(0, 1, 2, 1, None), (1, 2, 1, None, None), (2, 3, 3, 2, None)]),
        # white =3=> grey <= white - white
        make_shape([WHITE, GREY, WHITE, WHITE],
                   [(0, 1, 3, 1, None), (1, 2, 2, 1, None), (2, 3, 1, None, None)]),
    ]
    assert shapes == expected


def test_table2_g3_shapes():
    datum = build_root_datum("G3")
    systems = enumerate_simple_systems(datum)
    shapes = [shape_of(datum, s) for s in systems]
    expected = [
        # distinguished: grey - white <=3= white
        make_shape([GREY, WHITE, WHITE], [(0, 1, 1, None, None), (1, 2, 3, 1, None)]),
        # grey - grey <=3= white
        make_shape([GREY, GREY, WHITE], [(0, 1, 1, None, None), (0, 2, 3, 0, None)]),
        # triangle white/grey/grey with multiplicities 1, 2, 3
        make_shape([GREY, GREY, WHITE], [(0, 1, 3, None, None), (0, 2, 1, None, None),
                                         (1, 2, 2, 2, None)]),
        # black <= grey <=3= white
        make_shape([BLACK, GREY, WHITE], [(0, 1, 2, 0, None), (1, 2, 3, 1, None)]),
    ]
    assert shapes == expected


def test_nonstandard_subdiagram_extraction():
    # the F(4) diagram of the worked example has full sub-diagrams
    # white => grey = grey (3 nodes) and a triple-edge grey pair
    datum = build_root_datum("F4")
    systems = enumerate_simple_systems(datum)
    target = None
    for system in systems:
        diag = build_diagram(cartan_matrix(datum, system))
        counts = sorted(e.count for e in diag.edges.values())
        if counts == [1, 2, 2, 3]:
            target = diag
            break
    assert target is not None
    subs = full_subdiagrams(target, 3)
    shapes = {diagram_shape(sub) for _, sub in subs}
    wanted = make_shape([WHITE, GREY, GREY], [(0, 1, 2, 1, None), (1, 2, 2, None, None)])
    assert wanted in shapes
    # the triple-edge grey pair survives inside every 3-subset containing it
    pair = next(
        (i, j) for (i, j), e in target.edges.items() if e.count == 3
    )
    for subset, sub in subs:
        if pair[0] in subset and pair[1] in subset:
            a, b = subset.index(pair[0]), subset.index(pair[1])
            assert sub.count(a, b) == 3


def test_full_subdiagrams_counts_and_trivial():
    datum = build_root_datum("A", m=2, n=0)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    subs = full_subdiagrams(diag, 3)
    assert len(subs) == 1
    subset, sub = subs[0]
    assert subset == (0, 1, 2)
    assert sub.nodes == diag.nodes and sub.edges == diag.edges
    with pytest.raises(ValueError):
        full_subdiagrams(diag, 4)


def _connected_subsets(diag, k):
    """Brute force: every k-subset whose induced edges connect it."""
    out = []
    for subset in combinations(range(diag.size), k):
        seen, frontier = {subset[0]}, [subset[0]]
        while frontier:
            v = frontier.pop()
            for i, j in diag.edges:
                for a, b in ((i, j), (j, i)):
                    if a == v and b in subset and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        if len(seen) == k:
            out.append(subset)
    return out


def test_adjacency_is_the_edge_scan():
    # one sorted tuple of neighbours per node, as a scan of every edge gives
    for fam, kw in [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + CATALOGUE:
        datum = build_root_datum(fam, **kw)
        for k, system in enumerate(enumerate_simple_systems(datum)):
            diag = build_diagram(cartan_matrix(datum, system))
            assert len(diag.adjacent) == diag.size
            for v in range(diag.size):
                scan = tuple(sorted(b if a == v else a for a, b in diag.edges if v in (a, b)))
                assert diag.adjacent[v] == scan, (datum.name, k, v)
            # the JSON reader's diagrams get theirs the same way
            assert parse_diagram(serialize_diagram(diag, "json")).adjacent == diag.adjacent


def test_full_subdiagrams_are_the_connected_subsets():
    # the matrix and every class of the catalogue algebras (rank up to 8),
    # whose D-type fork is a connected 4-node sub-diagram that is no path;
    # every stage of one growth is the brute-force list of its size
    disconnected_seen = claw_seen = False
    for fam, kw in [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + CATALOGUE:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            stages = connected_subsets(diag, min(4, diag.size))
            assert len(stages) == min(4, diag.size)
            for s, stage in enumerate(stages, 1):
                assert stage == _connected_subsets(diag, s), (datum.name, s)
            for k in (3, 4):
                if k > diag.size:
                    continue
                subs = full_subdiagrams(diag, k)
                wanted = _connected_subsets(diag, k)
                assert [subset for subset, _ in subs] == wanted, (datum.name, k)
                disconnected_seen |= len(wanted) < comb(diag.size, k)
                for subset, sub in subs:
                    claw_seen |= max(len(sub.adjacent[v]) for v in range(k)) == 3
                    assert list(sub.nodes) == [diag.nodes[v] for v in subset]
                    assert sub.labelled == diag.labelled
                    for (a, i), (b, j) in combinations(enumerate(subset), 2):
                        e, f = diag.edge(i, j), sub.edge(a, b)
                        assert (e is None) == (f is None)
                        if e is not None:
                            arrow = None if e.arrow_towards is None else subset.index(e.arrow_towards)
                            assert (f.count, f.arrow_towards, f.sign, f.b_label) == (
                                e.count, arrow, e.sign, e.b_label
                            )
    # there are disconnected subsets to leave out, and claws to grow into
    assert disconnected_seen and claw_seen


def test_serialize_round_trip_and_formats():
    for fam, kw in [("A", dict(m=1, n=1)), ("F4", {}), ("D21a", {})]:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            text = serialize_diagram(diag, "json")
            assert parse_diagram(text) == diag
            assert serialize_diagram(diag, "ascii")
            assert serialize_diagram(diag, "latex")
    with pytest.raises(ValueError):
        serialize_diagram(diag, "png")


def test_single_grey_node_json():
    from superserre.cartan_dynkin import DynkinDiagram

    diag = DynkinDiagram([GREY], {})
    data = json.loads(serialize_diagram(diag, "json"))
    assert data["nodes"] == ["grey"]
    assert data["edges"] == []


def test_path_order_is_the_least_ordering_along_every_edge():
    # every graph on up to 5 nodes, disconnected ones and cycles included:
    # the order is the least ordering whose consecutive pairs are the edges
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = {ij: Edge(1, None, 0) for k, ij in enumerate(pairs) if mask >> k & 1}
            want = next(
                (
                    list(perm)
                    for perm in permutations(range(n))
                    if {tuple(sorted(p)) for p in zip(perm, perm[1:])} == set(edges)
                ),
                None,
            )
            assert _path_order(DynkinDiagram([WHITE] * n, edges)) == want, (n, sorted(edges))


def test_sl22_ascii():
    datum = build_root_datum("A", m=1, n=1)
    diag = build_diagram(cartan_matrix(datum, distinguished_simple_system(datum)))
    text = serialize_diagram(diag, "ascii")
    assert text == "O--[-]--(X)--[+]--O"


def _is_path(diag):
    deg = [len(ns) for ns in diag.adjacent]
    reached, stack = {0}, [0]  # a walk from node 0 over the neighbours
    while stack:
        for u in diag.adjacent[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    return len(reached) == diag.size and all(d <= 2 for d in deg) and (
        diag.size == 1 or deg.count(1) == 2
    )


def test_table2_series_shapes_conform():
    # every enumerated diagram of the series families matches its table row:
    # type A is a single-edge path of white/grey nodes; type B is such a path
    # with a double-edge tail pointing at a final white or black node; type D
    # ends in a fork of two whites, a double-joined grey pair, or a double
    # tail toward a white end
    for m, n in [(1, 1), (2, 1)]:
        datum = build_root_datum("A", m=m, n=n)
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            assert _is_path(diag)
            assert all(c in (WHITE, GREY) for c in diag.nodes)
            assert all(e.count == 1 and e.arrow_towards is None for e in diag.edges.values())

    for m, n in [(1, 1), (1, 2)]:
        datum = build_root_datum("B", m=m, n=n)
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            assert _is_path(diag)
            doubles = [(k, e) for k, e in diag.edges.items() if e.count == 2]
            assert len(doubles) == 1
            (i, j), e = doubles[0]
            end = e.arrow_towards
            assert end in (i, j) and len(diag.adjacent[end]) == 1
            assert diag.nodes[end] in (WHITE, BLACK)
            assert all(x.count == 1 for k, x in diag.edges.items() if x is not e)

    datum = build_root_datum("D", m=2, n=2)
    for system in enumerate_simple_systems(datum):
        diag = build_diagram(cartan_matrix(datum, system))
        doubles = [(k, e) for k, e in diag.edges.items() if e.count == 2]
        if not doubles:
            # fork of two white leaves on a common neighbour
            leaves = [v for v in range(diag.size) if len(diag.adjacent[v]) == 1]
            forks = [v for v in range(diag.size) if len(diag.adjacent[v]) == 3]
            assert len(forks) == 1
            fork_leaves = [v for v in leaves if forks[0] in diag.adjacent[v]]
            assert len(fork_leaves) >= 2
        elif any(diag.nodes[i] == GREY and diag.nodes[j] == GREY for (i, j), _ in doubles):
            (i, j), e = doubles[0]
            assert e.arrow_towards is None  # grey pair carries no arrow
        else:
            # double tail: the arrow points inward, the terminal is white
            (i, j), e = doubles[0]
            other = j if e.arrow_towards == i else i
            assert diag.nodes[other] == WHITE and len(diag.adjacent[other]) == 1


def _canonical_entry(x):
    """An int, a Fraction that is not an integer, or a Scalar that involves a."""
    if type(x) is Fraction:
        return x.denominator != 1
    return type(x) is int or (type(x) is Scalar and not x.is_constant())


@pytest.mark.parametrize(
    "family,kw",
    [(fam, kw) for fam, kw, _ in FAMILY_MATRIX]
    + [("D21a", dict(alpha=Fraction(2))), ("D21a", dict(alpha=Fraction(-1, 2)))]
    + [("B", dict(m=3, n=3)), ("D", dict(m=3, n=3)), ("A", dict(m=4, n=2))],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}{x}" for k, x in v.items()),
)
def test_native_cartan_entries_are_canonical(family, kw):
    # B, D, A, l_m^2 and the diagram labels are built natively: no float, no
    # constant Scalar and no integral Fraction; the Scalar views hold the same
    # values
    datum = build_root_datum(family, **kw)
    parametric = 0
    for system in enumerate_simple_systems(datum):
        cd = cartan_matrix(datum, system)
        labels = [e.b_label for e in build_diagram(cd).edges.values() if e.b_label is not None]
        entries = [x for row in cd.native_b + cd.native_a for x in row] + [*cd.d, cd.lm2, *labels]
        for x in entries:
            assert _canonical_entry(x), (datum.name, x, type(x))
        parametric += sum(type(x) is Scalar for x in entries)
        for view, rows in ((cd.a, cd.native_a), (cd.b, cd.native_b)):
            assert all(type(x) is Scalar for row in view for x in row)
            assert [[x.render() for x in row] for row in view] == [
                [render(x) for x in row] for row in rows
            ]
    # only generic D(2,1;a) carries the parameter
    assert bool(parametric) == (family == "D21a" and "alpha" not in kw)


def test_minimal_square_length_is_the_least_nonzero_norm():
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        norms = [datum.form_value(b, b) for b in datum.all_roots]
        # in generic D(2,1;a) only the rational norms are parameter-free
        brute = min(abs(Fraction(v)) for v in norms if v and not isinstance(v, Scalar))
        assert minimal_square_length(datum) == brute, datum.name
        assert type(minimal_square_length(datum)) in (int, Fraction), datum.name


def test_minimal_square_length_ignores_the_specialised_parameter():
    datum = build_root_datum("D21a", alpha=Fraction(1, 2))
    assert min(abs(Fraction(datum.form_value(b, b))) for b in datum.even_roots) == 2
    assert minimal_square_length(datum) == 4


def test_minimal_square_length_needs_a_non_isotropic_root():
    from superserre.rootdata import RootDatum, wv

    odd = [wv({"e1": 1, "d1": -1}), wv({"e1": -1, "d1": 1})]
    datum = RootDatum("A", "A(0,0)", {"e1": ONE, "d1": -ONE}, [], odd, odd[:1])
    with pytest.raises(CartanDataError):
        minimal_square_length(datum)


@pytest.mark.parametrize(
    "text, field",
    [
        ("{}", "nodes"),
        ("[1]", "JSON object"),
        ('{"nodes": ["purple"], "edges": []}', "nodes[0]"),
        ('{"nodes": ["white"], "edges": [{"i": 0, "j": 5, "count": 1}]}', "edges[0].j"),
        (
            '{"nodes": ["white", "grey"], "edges": [{"i": 0, "j": 1, "count": 1, "bLabel": "'
            + "(" * 5000 + "a" + ")" * 5000 + '"}]}',
            "edges[0].bLabel",
        ),
    ],
    ids=["empty-object", "list", "purple-node", "edge-off-the-diagram", "label-nested-too-deep"],
)
def test_parse_diagram_rejects_malformed_input(text, field):
    with pytest.raises(ValueError) as info:
        parse_diagram(text)
    assert field in str(info.value)


def test_parse_diagram_refuses_a_high_power_promptly():
    # a power costs time quadratic in its exponent, so these labels of a few
    # characters once took seconds to refuse, a constant base included
    for label in ("(1+a)^2000", "2^100000"):
        text = (
            '{"nodes": ["white", "grey"], "edges": '
            '[{"i": 0, "j": 1, "count": 1, "bLabel": "' + label + '"}]}'
        )
        start = time.process_time()
        with pytest.raises(ValueError, match=r"edges\[0\]\.bLabel: power of degree above 64"):
            parse_diagram(text)
        assert time.process_time() - start < 1
