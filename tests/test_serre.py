import re
from fractions import Fraction

import pytest

from superserre.cartan_dynkin import _path_order, build_diagram, cartan_matrix
from conftest import (
    CATALOGUE,
    FAMILY_MATRIX,
    _match_3node,
    _match_4node_every_ordering,
    _match_d21a as oracle_match_d21a,
    algebras_of_rank,
    evaluate_at,
    expansion_oracle,
    full_subdiagrams,
    without_element,
)
from superserre.rootdata import (
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
)
from superserre.scalars import ALPHA, ONE, Scalar
from superserre.serre import (
    SerrePolynomial,
    _match_d21a,
    _match_path,
    _match_triangle,
    higher_order_serre_elements,
    presentation,
    standard_serre_elements,
)


def setup_cd(family, borel=0, **kw):
    datum = build_root_datum(family, **kw)
    system = enumerate_simple_systems(datum)[borel]
    cd = cartan_matrix(datum, system)
    return datum, system, cd, build_diagram(cd)


def renders(elements):
    return sorted(el.render() for el in elements)


def test_standard_elements_a10():
    _, _, cd, _ = setup_cd("A", m=1, n=0)
    els = standard_serre_elements(cd)
    assert renders(els) == sorted(["[e1,[e1,e2]]", "[e2,e2]"])
    # no element for the pair (2,1): a_22 = 0 and a_21 != 0
    assert all(el.nodes != (2, 1) for el in els)


def test_standard_elements_rank1():
    _, _, cd, _ = setup_cd("B", m=0, n=1)
    assert standard_serre_elements(cd) == []


def test_standard_elements_orthogonal_isotropic_pair():
    # two isotropic nodes with a_12 = 0 contribute [e1,e2] plus both squares
    datum, system, cd, _ = setup_cd("A", m=1, n=1, borel=2)
    els = standard_serre_elements(cd)
    texts = renders(els)
    assert "[e1,e3]" in texts or "[e3,e1]" in texts
    assert "[e1,e1]" in texts and "[e3,e3]" in texts


def test_higher_order_sl22():
    _, _, cd, diag = setup_cd("A", m=1, n=1)
    els = higher_order_serre_elements(cd)
    assert renders(els) == ["[e2,[e1,[e2,e3]]]"]
    assert els[0].provenance == "case-1"


def test_higher_order_osp42_empty():
    _, _, cd, diag = setup_cd("D", m=2, n=1)
    assert higher_order_serre_elements(cd) == []


def test_higher_order_d21a_triangle():
    datum, system, cd, diag = setup_cd("D21a", borel=1)
    els = higher_order_serre_elements(cd)
    assert len(els) == 1
    el = els[0]
    assert el.provenance == "case-14"
    coeffs = sorted(c.render() for c in el.terms.values())
    assert coeffs == sorted([ALPHA.render(), (ONE + ALPHA).render()])


def test_higher_order_d21a_distinguished_and_chains_empty():
    datum = build_root_datum("D21a")
    systems = enumerate_simple_systems(datum)
    for k, system in enumerate(systems):
        cd = cartan_matrix(datum, system)
        els = higher_order_serre_elements(cd)
        assert len(els) == (1 if k == 1 else 0)


def test_f4_sextic_pair():
    datum = build_root_datum("F4")
    found = None
    for system in enumerate_simple_systems(datum):
        pres = presentation(datum, system)
        for el in pres.e_side:
            if el.provenance == "case-7":
                found = el
    assert found is not None
    # the sextet [E,[E,[e2,[e3,e4]]]] has multidegree 2*wt(E) + (0,1,1,1)-type
    assert sum(found.content) == 11


def test_presentation_b01_quadratic_only():
    datum = build_root_datum("B", m=0, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    assert pres.e_side == []


def test_presentation_a10_counts():
    datum = build_root_datum("A", m=1, n=0)
    pres = presentation(datum, distinguished_simple_system(datum))
    assert len(pres.e_side) == 2
    assert pres.higher_order == []


def _on_f_side(word):
    """A json word tree with each leaf "eN" as "fN"."""
    if isinstance(word, str):
        assert word[0] == "e" and word[1:].isdigit(), word
        return "f" + word[1:]
    return [_on_f_side(w) for w in word]


def test_f_side_mirrors_e_side():
    # one element list prints both sides: the f side is the e side with the
    # side and every leaf relabelled, in the same order
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            data = pres.to_json()
            assert len(data["fSide"]) == len(data["eSide"]) == len(pres.e_side)
            for e_json, f_json in zip(data["eSide"], data["fSide"]):
                want = dict(e_json, side="f")
                want["terms"] = [
                    dict(term, word=_on_f_side(term["word"])) for term in e_json["terms"]
                ]
                assert f_json == want, (datum.name, e_json)
            for fmt in ("text", "latex"):
                lines = pres.render(fmt).split("\n")[2:]
                n = len(pres.e_side)
                assert len(lines) == 2 * n
                for el, e_line, f_line in zip(pres.e_side, lines, lines[n:]):
                    head = f"  ({el.provenance}; nodes {list(el.nodes)})  "
                    body = el.render(fmt)
                    # the body's only `e`s are generator letters, which the swap relabels
                    assert "e" not in re.sub(r"e_?\d+", "", body), body
                    assert e_line == head + body + " = 0"
                    assert f_line == head + body.replace("e", "f") + " = 0"


def test_elements_homogeneous_in_degree_and_parity():
    from superserre.freelie import tree_content

    for fam, kw in [("A", dict(m=2, n=1)), ("F4", {}), ("G3", {})]:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            for el in pres.e_side:
                contents = {tree_content(t, pres.rank) for t in el.terms}
                assert len(contents) == 1


def _native_or_parametric(c):
    """int or Fraction, or a Scalar that involves the parameter a."""
    return type(c) in (int, Fraction) or (type(c) is Scalar and not c.is_constant())


_ALGEBRAS = [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + [("D21a", dict(alpha=2))]
_ALGEBRAS += [("B", dict(m=3, n=3)), ("D", dict(m=3, n=3)), ("A", dict(m=4, n=2))]


@pytest.mark.parametrize(
    "family,kw",
    [
        pytest.param(fam, kw, id=fam + "".join(f"-{k}{v}" for k, v in kw.items()))
        for fam, kw in _ALGEBRAS
    ],
)
def test_relation_coefficients_are_native_from_birth(family, kw):
    # every element of every presentation, deletions included: no float and no
    # constant Scalar, so the engines need no conversion of their own
    datum = build_root_datum(family, **kw)
    parametric = 0
    for system in enumerate_simple_systems(datum):
        pres = presentation(datum, system)
        sides = [pres]
        sides += [without_element(pres, k) for k in range(len(pres.e_side))]
        for p in sides:
            for el in p.e_side:
                for c in el.terms.values():
                    assert _native_or_parametric(c), (datum.name, el, type(c))
                    parametric += type(c) is Scalar
    # only generic D(2,1;a) carries the parameter, on its labelled triangles
    assert bool(parametric) == (family == "D21a" and "alpha" not in kw)


def test_specialisation_commutes_with_generation():
    generic = build_root_datum("D21a")
    gen_systems = enumerate_simple_systems(generic)
    for a0 in (Fraction(2), Fraction(3), Fraction(-1, 2)):
        special = build_root_datum("D21a", alpha=a0)
        sp_systems = enumerate_simple_systems(special)
        assert len(sp_systems) == len(gen_systems)
        for gs, ss_ in zip(gen_systems, sp_systems):
            pg = presentation(generic, gs)
            ps = presentation(special, ss_)
            gen_then_eval = set()
            for el in pg.e_side:
                vec = {}
                for t, c in el.terms.items():
                    vec[t] = evaluate_at(Scalar(c), a0)
                # normalise sign so span comparison is fair
                key = tuple(sorted((repr(t), str(q)) for t, q in vec.items()))
                neg = tuple(sorted((repr(t), str(-q)) for t, q in vec.items()))
                gen_then_eval.add(min(key, neg))
            eval_then_gen = set()
            for el in ps.e_side:
                vec = {t: Fraction(c) for t, c in el.terms.items()}
                key = tuple(sorted((repr(t), str(q)) for t, q in vec.items()))
                neg = tuple(sorted((repr(t), str(-q)) for t, q in vec.items()))
                eval_then_gen.add(min(key, neg))
            assert gen_then_eval == eval_then_gen, (a0,)


def test_provenance_tags_and_json():
    datum = build_root_datum("A", m=1, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    data = pres.to_json()
    assert data["rank"] == 3
    assert any(el["provenance"] == "case-1" for el in data["eSide"])
    latex = pres.render("latex")
    assert "[e_2,[e_1,[e_2,e_3]]]" in latex


def test_an_element_below_height_2_is_refused():
    # e_1 = 0 would kill a generator, which the engines take as free, so an
    # accepted one would be silently ignored
    with pytest.raises(ValueError, match="height at least 2"):
        SerrePolynomial({1: 1}, "hand", (1,), 2)
    assert SerrePolynomial({(1, 1): 1}, "hand", (1,), 2).content == (2, 0)


def test_an_inhomogeneous_element_is_refused_naming_every_content():
    # the first term fixes the content (1, 1, 0); the error names every
    # content among the terms, in term order, each once
    terms = {(1, 2): 1, (1, 3): 1, (2, (1, 3)): 1, (3, 1): 2, (2, 1): 1}
    with pytest.raises(ValueError, match="inhomogeneous") as info:
        SerrePolynomial(terms, "hand", (1, 2, 3), 3)
    assert str(info.value).endswith("[(1, 1, 0), (1, 0, 1), (1, 1, 1)]")


def test_exponent_requires_integer_entry():
    from superserre.cartan_dynkin import CartanDataError

    datum = build_root_datum("D21a")
    cd = cartan_matrix(datum, distinguished_simple_system(datum))
    with pytest.raises(CartanDataError):
        cd.a_integer(1, 3)  # a_13 = -a is not an integer


def test_family_guard_for_exceptional_cases():
    # structural matching is not family-gated, so assert that the patterns
    # the reference restricts to F(4), G(3) and D(2,1;a) only ever fire there
    import collections

    from conftest import FAMILY_MATRIX

    where = collections.defaultdict(set)
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            for el in presentation(datum, system).higher_order:
                where[el.provenance].add(fam)
    for case in ("case-7", "case-8", "case-9", "case-10"):
        assert where[case] == {"F4"}, (case, where[case])
    for case in ("case-11", "case-12", "case-13"):
        assert where[case] == {"G3"}, (case, where[case])
    assert where["case-14"] == {"D21a"}
    # every one of the fourteen families fires somewhere in the matrix
    assert set(where) == {f"case-{k}" for k in range(1, 15)}


def test_distinguished_systems_reduce_to_the_two_patterns():
    # in the distinguished root system only the two 3-node patterns appear:
    # x - grey - x with sign product -1, and x - grey => (non-grey), both
    # centred at the unique odd simple root (two quartics for the D fork at
    # the odd node, one otherwise)
    from conftest import FAMILY_MATRIX

    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        system = distinguished_simple_system(datum)
        pres = presentation(datum, system)
        (s,) = pres.cartan.theta
        for el in pres.higher_order:
            assert el.provenance in ("case-1", "case-2", "case-3"), el
            assert el.nodes[1] == s and el.nodes[0] == s - 1, el


def check_relation_sets(max_rank):
    """(algebras, classes) up to `max_rank`, and D(2,1;a) with a = 2, -1/2, 1,
    every relation set as the expansion oracle's.

    The builder leaves out [e_i, e_j], i > j, of two odd generators and
    expands nothing; the oracle keeps both orders of every standard pair and
    deduplicates by expansion into free-Lie words, so a repeated element
    makes the built list the longer.  Its higher order matches come from the
    tests' own copy of the earlier matchers (a loop per 3-node shape, all 24
    orderings of a 4-node path), not the library's, so a matcher change
    shows up as a difference.  No other element may have a higher order
    element's content, as the docstring of `verify._necessity` argues."""
    special = [("D21a", dict(alpha=x)) for x in (2, Fraction(-1, 2), 1)]
    algebras = classes = 0
    for r in range(1, max_rank + 1):
        for fam, kw in algebras_of_rank(r) + (special if r == 3 else []):
            datum = build_root_datum(fam, **kw)
            for k, system in enumerate(enumerate_simple_systems(datum)):
                pres = presentation(datum, system)
                got = [el.to_json() for el in pres.e_side]
                want = [el.to_json() for el in expansion_oracle(datum, system)]
                assert got == want, (datum.name, k)
                contents = [el.content for el in pres.e_side]
                for el in pres.higher_order:
                    assert contents.count(el.content) == 1, (datum.name, k, el.provenance)
                classes += 1
            algebras += 1
    return algebras, classes


def test_relation_set_equals_the_expansion_oracle_up_to_rank_6():
    assert check_relation_sets(6) == (52, 446)


def test_match_4node_equals_the_every_ordering_oracle():
    # every connected 4-node sub-diagram of the matrix and of the catalogue
    # algebras, whose D-type fork is a 4-node claw (connected, not a path)
    algebras = [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + CATALOGUE
    cases, not_paths, subs = set(), 0, 0
    for fam, kw in algebras:
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            diag = build_diagram(cartan_matrix(datum, system))
            if diag.size < 4:
                continue
            for subset, sub in full_subdiagrams(diag, 4):
                nodes = tuple(v + 1 for v in subset)
                got = list(_match_path(diag, subset))
                assert got == list(_match_4node_every_ordering(sub, nodes)), (datum.name, subset)
                cases |= {case for case, _, _ in got}
                not_paths += _path_order(sub) is None
                subs += 1
    assert cases == {"case-5", "case-7", "case-8"}
    assert not_paths and subs > not_paths


def test_matchers_equal_the_oracle_matchers_on_every_sub_diagram_up_to_rank_6():
    # every connected 3- and 4-node sub-diagram of every class up to rank 6
    # and of D(2,1;a), generic and specialised, against the test suite's own
    # matchers, one sub-diagram at a time; all fourteen cases occur
    special = [("D21a", dict(alpha=x)) for x in (2, Fraction(-1, 2), 1)]
    cases = set()
    for r in range(3, 7):
        for fam, kw in algebras_of_rank(r) + (special if r == 3 else []):
            datum = build_root_datum(fam, **kw)
            for system in enumerate_simple_systems(datum):
                diag = build_diagram(cartan_matrix(datum, system))
                for size in range(3, min(diag.size, 4) + 1):
                    for subset, sub in full_subdiagrams(diag, size):
                        nodes = tuple(v + 1 for v in subset)
                        if diag.labelled:
                            got = list(_match_d21a(diag, subset))
                            want = list(oracle_match_d21a(sub, nodes))
                        elif size == 3:
                            got = list(_match_path(diag, subset)) + list(_match_triangle(diag, subset))
                            want = list(_match_3node(sub, nodes))
                        else:
                            got = list(_match_path(diag, subset))
                            want = list(_match_4node_every_ordering(sub, nodes))
                        assert got == want, (datum.name, subset)
                        assert len(got) <= 1, (datum.name, subset)
                        cases |= {case for case, _, _ in got}
    assert cases == {f"case-{n}" for n in range(1, 15)}
