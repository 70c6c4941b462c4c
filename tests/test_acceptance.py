"""Acceptance suite: every criterion runs with exact arithmetic and prints
one PASS line.  Tolerances are zero throughout; every expected value is
either combinatorial (root counts) or a frozen reference computation."""

import itertools
import json
import pathlib
import random

from conftest import (
    FAMILY_MATRIX,
    _all_words,
    left_normed_tree,
    make_shape,
    shape_of,
    span_dimension_by_identities,
    verify_all_borels,
)
from superserre.cartan_dynkin import (
    GREY,
    WHITE,
    build_diagram,
    cartan_matrix,
    diagram_to_json_dict,
    serialize_diagram,
)
from superserre.freelie import expand_terms, free_dimension
from superserre.linalg import Echelon
from superserre.quotient import check_lowering_stability
from superserre.rootdata import build_root_datum, enumerate_simple_systems
from superserre.scalars import ONE
from superserre.serre import presentation
from superserre.verify import (
    compare_z_grading,
    necessity_survey,
    verify_presentation,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_dimension_theorem():
    """Theorem check: every Borel class of the full family matrix."""
    checked = 0
    for fam, kw, expected_total in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        reports = verify_all_borels(datum)
        for rep in reports:
            assert rep.passed, (datum.name, rep.to_json())
            assert rep.got_total == expected_total
            checked += 1
    _report(1, f"dimension theorem verified on {checked} Borel classes "
               f"across {len(FAMILY_MATRIX)} algebras, exact totals")


def test_criterion_2_sign_disambiguation():
    sl22 = build_root_datum("A", m=1, n=1)
    osp42 = build_root_datum("D", m=2, n=1)
    s1 = enumerate_simple_systems(sl22)[0]
    s2 = enumerate_simple_systems(osp42)[0]
    cd1, cd2 = cartan_matrix(sl22, s1), cartan_matrix(osp42, s2)
    d1, d2 = build_diagram(cd1), build_diagram(cd2)

    def undecorated(diag):
        from conftest import diagram_shape
        from superserre.cartan_dynkin import DynkinDiagram, Edge

        return diagram_shape(DynkinDiagram(
            diag.nodes,
            {k: Edge(e.count, None, 0, None) for k, e in diag.edges.items()},
        ))

    assert undecorated(d1) == undecorated(d2)
    assert (cd1.sgn[0][1], cd1.sgn[1][2]) == (-1, 1)
    grey = d2.nodes.index(GREY)
    signs = sorted(cd2.sgn[grey][w] for w in range(3) if w != grey)
    assert signs == [-1, -1]
    p1, p2 = presentation(sl22, s1), presentation(osp42, s2)
    assert [el.render() for el in p1.higher_order] == ["[e2,[e1,[e2,e3]]]"]
    assert p2.higher_order == []
    _report(2, "sl(2|2)/osp(4|2): identical undecorated diagrams, signs (-,+) vs (-,-), "
               "quartic emitted only for sl(2|2)")


def _find_class_by_shape(datum, shape):
    for system in enumerate_simple_systems(datum):
        if shape_of(datum, system) == shape:
            return system
    raise AssertionError("diagram shape not found")


def test_criterion_3_z_grading_tables():
    f4 = build_root_datum("F4")
    # case 1: white =3=> grey <== white -- white, graded at the grey node
    system = _find_class_by_shape(
        f4,
        make_shape([WHITE, GREY, WHITE, WHITE],
                   [(0, 1, 3, 1, None), (1, 2, 2, 1, None), (2, 3, 1, None, None)]),
    )
    diag = build_diagram(cartan_matrix(f4, system))
    d = diag.nodes.index(GREY) + 1
    table = compare_z_grading(verify_presentation(f4, system), d)
    dims = [table[k][0] for k in sorted(table)]
    assert dims == [12, 6, 3, 2, 3, 0]
    assert all(eq for _, _, eq in table.values())

    # case 4: triangle white/grey/grey with a double-edge tail, graded at
    # the tail's white node
    system = _find_class_by_shape(
        f4,
        make_shape([WHITE, GREY, GREY, WHITE],
                   [(0, 1, 1, None, None), (0, 2, 1, None, None), (1, 2, 2, None, None),
                    (2, 3, 2, 2, None)]),
    )
    diag = build_diagram(cartan_matrix(f4, system))
    tail_white = next(
        v for v in range(4)
        if diag.nodes[v] == WHITE and any(diag.count(v, u) == 2 for u in range(4) if u != v)
    )
    table = compare_z_grading(verify_presentation(f4, system), tail_white + 1)
    assert table[1][0] == 10 and table[1][2]
    assert table.get(2, (0, 0, True))[0] == 0

    g3 = build_root_datum("G3")
    system = _find_class_by_shape(
        g3, make_shape([GREY, GREY, WHITE], [(0, 1, 1, None, None), (0, 2, 3, 0, None)])
    )
    diag = build_diagram(cartan_matrix(g3, system))
    d = diag.nodes.index(WHITE) + 1
    res = verify_presentation(g3, system)
    table = compare_z_grading(res, d)
    assert [table[k][0] for k in sorted(table) if k > 0] == [7, 4, 0]
    # the seven layer-1 weights are a3 + k(a1+a2) and a3 + p(a1+a2) + a2
    g1 = {w for w, (_, _, q) in res.quotient_report.per_weight.items()
          if q and w[d - 1] == 1}
    expected = {(k, k, 1) for k in range(4)} | {(p, p + 1, 1) for p in range(3)}
    assert d == 3 and g1 == expected

    d21a = build_root_datum("D21a")
    system = enumerate_simple_systems(d21a)[1]  # the all-grey triangle
    res = verify_presentation(d21a, system)
    table = compare_z_grading(res, 3)
    assert [table[k][0] for k in sorted(table) if k > 0] == [4, 0]
    # layer 1 is spanned by e3, [e1,e3], [e2,e3], [e1,[e2,e3]]
    g1 = {w for w, (_, _, q) in res.quotient_report.per_weight.items() if q and w[2] == 1}
    assert g1 == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)}
    _report(3, "Z-grading tables reproduced: F(4) (12,6,3,2,3,0) and g1=10/g2=0; "
               "G(3) (7,4,0); D(2,1;a) (4,0)")


def test_criterion_4_lowering_stability():
    entries = 0
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            report = check_lowering_stability(pres)
            assert report.ok, (datum.name, [vars(v) for v in report.violations])
            entries += len(report.entries)
    _report(4, f"lowering stability: zero violations over {entries} (element, i) pairs")


def test_criterion_5_necessity():
    tested = 0
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            for res in necessity_survey(datum, system):
                assert res.necessary, (datum.name, res.to_json())
                assert res.first_excess is not None
                tested += 1
    _report(5, f"necessity: deleting any of the {tested} emitted higher order elements "
               "breaks the dimension theorem, first-failure weight recorded")


def test_criterion_6_table_regeneration():
    golden = json.loads((GOLDEN / "diagrams.json").read_text())
    regenerated = {}
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            rows.append({"ascii": serialize_diagram(diag, "ascii"),
                         "json": diagram_to_json_dict(diag)})
        regenerated[datum.name] = rows
    assert regenerated == golden
    # the worked sub-diagram extraction: white => grey = grey inside the
    # F(4) diagram with edge multiplicities {1, 2, 2, 3}
    from conftest import diagram_shape, full_subdiagrams

    f4 = build_root_datum("F4")
    target = next(
        build_diagram(cartan_matrix(f4, s))
        for s in enumerate_simple_systems(f4)
        if sorted(e.count for e in build_diagram(cartan_matrix(f4, s)).edges.values()) == [1, 2, 2, 3]
    )
    shapes = {diagram_shape(sub) for _, sub in full_subdiagrams(target, 3)}
    assert make_shape([WHITE, GREY, GREY], [(0, 1, 2, 1, None), (1, 2, 2, None, None)]) in shapes
    _report(6, f"golden diagram tables regenerated byte-identically "
               f"({sum(len(v) for v in regenerated.values())} diagrams) "
               "and the non-standard sub-diagram extraction reproduced")


def test_criterion_7_free_lie_kernel_oracle():
    rng = random.Random(20260810)
    checks = 0
    for r in (2, 3):
        contents = [c for c in itertools.product(range(7), repeat=r) if 1 <= sum(c) <= 6]
        for content in contents:
            if r == 2:
                parity_choices = list(itertools.product((0, 1), repeat=2))
            else:
                parity_choices = rng.sample(list(itertools.product((0, 1), repeat=3)), 3)
            for parities in parity_choices:
                brute = span_dimension_by_identities(parities, content)
                counted = free_dimension(parities, content)
                ech = Echelon()
                for w in _all_words(content):
                    ech.insert(expand_terms({left_normed_tree(w): ONE}, parities))
                assert brute == counted == ech.rank, (parities, content)
                checks += 1
    _report(7, f"free Lie kernel oracle: {checks} multidegrees of height <= 6, "
               "brute-force span = canonical basis size = normal-form rank, exact")


def test_criterion_8_alpha_genericity():
    from fractions import Fraction

    generic = build_root_datum("D21a")
    generic_tables = []
    for system in enumerate_simple_systems(generic):
        res = verify_presentation(generic, system)
        assert res.passed
        generic_tables.append(dict(res.quotient_report.per_weight))
    for a0 in (Fraction(2), Fraction(3), Fraction(-1, 2)):
        special = build_root_datum("D21a", alpha=a0)
        for k, system in enumerate(enumerate_simple_systems(special)):
            res = verify_presentation(special, system)
            assert res.passed and res.got_total == 17
            assert dict(res.quotient_report.per_weight) == generic_tables[k], (a0, k)
    _report(8, "D(2,1;a) generic verification agrees exactly with the "
               "specialisations a = 2, 3, -1/2 on every weight of every class")
