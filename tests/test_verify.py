import pytest

from conftest import FAMILY_MATRIX, algebras_of_rank, necessity_oracle, verify_all_borels, without_element
from superserre.rootdata import (
    PreconditionError,
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
)
from superserre.verify import (
    compare_z_grading,
    expected_total_dimension,
    necessity_survey,
    necessity_test,
    reference_multiplicities,
    survey_presentation,
    verify_presentation,
)


def test_verify_a10_distinguished():
    datum = build_root_datum("A", m=1, n=0)
    res = verify_presentation(datum, distinguished_simple_system(datum))
    assert res.passed
    assert res.got_total == res.expected_total == 8
    assert res.mismatches == []


def test_verify_d21a_all_grey_generic():
    datum = build_root_datum("D21a")
    system = enumerate_simple_systems(datum)[1]
    res = verify_presentation(datum, system)
    assert res.passed and res.got_total == 17


def test_verify_all_borels_counts():
    datum = build_root_datum("A", m=1, n=0)
    reports = verify_all_borels(datum)
    assert len(reports) == 3 and all(r.passed for r in reports)
    datum = build_root_datum("B", m=0, n=2)
    reports = verify_all_borels(datum)
    assert len(reports) == 1 and reports[0].passed
    datum = build_root_datum("D21a")
    reports = verify_all_borels(datum)
    assert len(reports) == 4 and all(r.passed for r in reports)


def test_verify_report_json():
    datum = build_root_datum("A", m=1, n=0)
    res = verify_presentation(datum, distinguished_simple_system(datum))
    data = res.to_json()
    assert data["pass"] is True
    assert data["gotTotal"] == data["expectedTotal"] == 8
    assert data["mismatches"] == []


def test_broken_presentation_fails_honestly():
    datum = build_root_datum("A", m=1, n=1)
    system = distinguished_simple_system(datum)
    # removing the higher order element must break verification
    from superserre.serre import presentation
    from superserre.quotient import quotient_dimensions
    from superserre.verify import reference_multiplicities

    pres = presentation(datum, system)
    idx = next(k for k, el in enumerate(pres.e_side) if el.provenance != "standard")
    ref = reference_multiplicities(system)
    top = max(sum(w) for w in ref)
    rep = quotient_dimensions(without_element(pres, idx), top + 1, excess_guard=ref)
    assert any(q > ref.get(w, 0) for w, (_, _, q) in rep.per_weight.items())


def test_necessity_examples():
    datum = build_root_datum("A", m=1, n=1)
    system = distinguished_simple_system(datum)
    from superserre.serre import presentation

    pres = presentation(datum, system)
    idx = next(k for k, el in enumerate(pres.e_side) if el.provenance == "case-1")
    res = necessity_test(datum, system, idx)
    assert res.necessary
    assert res.first_excess == (1, 2, 1)  # alpha_1 + 2 alpha_2 + alpha_3

    d21a = build_root_datum("D21a")
    system = enumerate_simple_systems(d21a)[1]
    pres = presentation(d21a, system)
    idx = next(k for k, el in enumerate(pres.e_side) if el.provenance == "case-14")
    assert necessity_test(d21a, system, idx).necessary

    g3 = build_root_datum("G3")
    for k, system in enumerate(enumerate_simple_systems(g3)):
        pres = presentation(g3, system)
        for idx, el in enumerate(pres.e_side):
            if el.provenance == "case-11":
                assert necessity_test(g3, system, idx).necessary


def test_necessity_rejects_standard_elements():
    datum = build_root_datum("A", m=1, n=0)
    system = distinguished_simple_system(datum)
    with pytest.raises(PreconditionError):
        necessity_test(datum, system, 0)


def test_necessity_rejects_an_index_outside_the_elements():
    # -1 used to address the last element in `e_side` but delete nothing
    # in `without_element`, so the last element read as unnecessary
    from superserre.serre import presentation

    f4 = build_root_datum("F4")
    system = enumerate_simple_systems(f4)[5]
    pres = presentation(f4, system)
    last = len(pres.e_side) - 1
    assert pres.e_side[last].provenance != "standard"
    assert necessity_test(f4, system, last).necessary
    for idx in (-1, last + 1):
        with pytest.raises(PreconditionError, match="outside"):
            without_element(pres, idx)
        with pytest.raises(PreconditionError, match="outside"):
            necessity_test(f4, system, idx)


def test_compare_z_grading_all_nodes_agree():
    # the grading comparison holds for every admissible d, not just the
    # ones used in the reference computations
    for fam, kw in [("A", dict(m=1, n=1)), ("C", dict(n=3)), ("D21a", {})]:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            report = verify_presentation(datum, system)
            for d in range(1, system.rank + 1):
                table = compare_z_grading(report, d)
                assert all(eq for _, _, eq in table.values()), (fam, d)


def test_compare_z_grading_d_series_top_vanishes():
    datum = build_root_datum("D", m=2, n=2)
    system = distinguished_simple_system(datum)
    (s,) = system.theta
    table = compare_z_grading(verify_presentation(datum, system), s)
    assert table[2][2] and table[2][0] > 0
    assert table.get(3, (0, 0, True))[0] == 0


def test_expected_totals():
    assert expected_total_dimension(build_root_datum("F4")) == 40
    assert expected_total_dimension(build_root_datum("G3")) == 31
    assert expected_total_dimension(build_root_datum("B", m=1, n=2)) == 25


def test_extended_families_beyond_the_matrix():
    # larger ranks exercise the deeper recursions: A(2,2) carries the rank-5
    # degenerate Cartan matrix (the sl(3|3) center), C(4) a longer chain,
    # D(3,1) the wider fork
    for fam, kw, expected in [
        ("A", dict(m=2, n=2), 35),
        ("B", dict(m=2, n=1), 23),
        ("C", dict(n=4), 34),
        ("D", dict(m=3, n=1), 30),
    ]:
        datum = build_root_datum(fam, **kw)
        reports = verify_all_borels(datum)
        assert all(r.passed and r.got_total == expected for r in reports), datum.name


def test_necessity_survey_matches_per_element_tests():
    from superserre.serre import presentation

    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum)[:2]:
            pres = presentation(datum, system)
            expected = [
                necessity_test(datum, system, idx).to_json()
                for idx, el in enumerate(pres.e_side)
                if el.provenance != "standard"
            ]
            assert [r.to_json() for r in necessity_survey(datum, system)] == expected


def test_report_carries_its_reference_table():
    datum = build_root_datum("G3")
    for system in enumerate_simple_systems(datum):
        report = verify_presentation(datum, system)
        assert report.reference == reference_multiplicities(system)


def test_a_redundant_element_is_not_necessary(monkeypatch):
    # no matrix class reaches the "unnecessary" branch: append a doubled copy
    # of the case-1 element, and deleting either copy leaves the other
    import superserre.verify as verify
    from superserre.serre import Presentation, SerrePolynomial, presentation

    datum = build_root_datum("A", m=1, n=1)
    system = enumerate_simple_systems(datum)[0]
    pres = presentation(datum, system)
    case1 = next(el for el in pres.e_side if el.provenance == "case-1")
    doubled = SerrePolynomial(
        {t: 2 * c for t, c in case1.terms.items()}, case1.provenance, case1.nodes, len(case1.content)
    )
    augmented = Presentation(datum, system, pres.cartan, pres.diagram, pres.e_side + [doubled])
    monkeypatch.setattr(verify, "presentation", lambda *_: augmented)
    copies = [res for res in necessity_survey(datum, system) if res.provenance == "case-1"]
    assert len(copies) == 2
    for res in copies:
        assert not res.necessary and res.first_excess is None
    assert verify_presentation(datum, system).passed


def check_necessity(max_rank):
    """(algebras, classes) up to `max_rank`, every necessity verdict as the rerun oracle's."""
    from superserre.serre import presentation

    algebras = classes = 0
    for r in range(1, max_rank + 1):
        for fam, kw in algebras_of_rank(r):
            datum = build_root_datum(fam, **kw)
            for k, system in enumerate(enumerate_simple_systems(datum)):
                got = [res.to_json() for res in necessity_survey(datum, system)]
                assert got == necessity_oracle(presentation(datum, system)), (datum.name, k)
                classes += 1
            algebras += 1
    return algebras, classes


def check_verify(max_rank):
    """(algebras, classes) up to `max_rank`, every class verified, with one
    verify run per class whose presentation the other checks read: every
    ideal rank of height <= 5 is the word engine's, every higher order
    element is necessary, and the class is lowering-stable."""
    from superserre.quotient import IdealWordEngine, check_lowering_stability

    algebras = classes = 0
    for r in range(1, max_rank + 1):
        for fam, kw in algebras_of_rank(r):
            datum = build_root_datum(fam, **kw)
            for k, system in enumerate(enumerate_simple_systems(datum)):
                report = verify_presentation(datum, system)
                assert report.passed, (datum.name, k)
                pres = report.presentation
                word = IdealWordEngine(pres.parities, pres.e_side)
                for nu, (_, ideal_rank, _) in report.quotient_report.per_weight.items():
                    if sum(nu) <= 5:
                        assert word.rank(nu) == ideal_rank, (datum.name, k, nu)
                for res in survey_presentation(pres):
                    assert res.necessary, (datum.name, k, res.provenance, res.nodes)
                assert check_lowering_stability(pres).ok, (datum.name, k)
                classes += 1
            algebras += 1
    return algebras, classes


def test_verify_and_stability_sweep():
    assert check_verify(4) == (23, 98)


def test_necessity_survey_matches_the_rerun_oracle():
    # ranks 1 to 4, here and for positive roots, hold every matrix algebra
    within = [alg for r in range(1, 5) for alg in algebras_of_rank(r)]
    assert all((fam, kw) in within for fam, kw, _ in FAMILY_MATRIX)
    assert check_necessity(4) == (23, 98)


def test_an_element_in_the_ideal_by_jacobi_is_not_necessary(monkeypatch):
    # every matrix element is necessary, so none needs the Jacobi rows at its
    # weight: add the case-1 element [e2,[e1,[e2,e3]]] of A(1,1) rebracketed
    # as [[e2,e1],[e2,e3]].  By super-Jacobi the two differ by
    # [e1,[e2,[e2,e3]]], which lies in the ideal of [e2,e2] for odd e2, so
    # each lies in the ideal of the other elements, although their rows have
    # no pair symbol in common
    import superserre.verify as verify
    from superserre.serre import Presentation, SerrePolynomial, presentation

    datum = build_root_datum("A", m=1, n=1)
    system = enumerate_simple_systems(datum)[0]
    pres = presentation(datum, system)
    case1 = next(el for el in pres.e_side if el.provenance == "case-1")
    assert case1.terms == {(2, (1, (2, 3))): 1}
    rebracketed = SerrePolynomial({((2, 1), (2, 3)): 1}, "case-1", case1.nodes, len(case1.content))
    augmented = Presentation(datum, system, pres.cartan, pres.diagram, pres.e_side + [rebracketed])
    monkeypatch.setattr(verify, "presentation", lambda *_: augmented)
    got = [res.to_json() for res in necessity_survey(datum, system)]
    assert got == necessity_oracle(augmented)
    assert [res["necessary"] for res in got] == [False, False]
    assert verify_presentation(datum, system).passed


def test_runs_stop_by_themselves_and_stability_needs_no_span(monkeypatch):
    # verify's guarded run closes at or below top + 1; the necessity survey
    # makes an engine only for a class with higher order elements and reads
    # its levels only below the highest of them; and every lowered element
    # is zero or rewrites to zero on the engine, with no verdict left to a
    # span stage
    import superserre.verify as verify
    from superserre.freelie import content_height
    from superserre.quotient import check_lowering_stability

    runs, made = [], []
    quotient_dimensions, presentation = verify.quotient_dimensions, verify.presentation

    def recording(pres, max_height, excess_guard=None):
        report = quotient_dimensions(pres, max_height, excess_guard)
        runs.append(report)
        return report

    def recording_presentation(datum, system):
        made.append(presentation(datum, system))
        return made[-1]

    monkeypatch.setattr(verify, "quotient_dimensions", recording)
    monkeypatch.setattr(verify, "presentation", recording_presentation)
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            top = max(sum(w) for w in reference_multiplicities(system))
            del runs[:]
            report = verify_presentation(datum, system)
            assert runs == [report.quotient_report], datum.name
            assert report.quotient_report.closed, datum.name
            assert report.quotient_report.max_height_reached <= top + 1, datum.name
            del made[:]
            necessity_survey(datum, system)
            (pres,) = made
            heights = [content_height(el.content) for el in pres.higher_order]
            assert ("engine" in vars(pres)) == bool(heights), datum.name
            if heights:
                assert pres.engine.completed < max(heights), datum.name
            hows = {e.how for e in check_lowering_stability(report.presentation).entries}
            assert hows <= {"zero", "ideal"}, (datum.name, hows)
