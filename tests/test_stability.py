"""Lowering stability: coefficient types of the lowering operators, the
rule that the covering engine is built only where a residual survives, and
the one engine that verification, necessity and stability share."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superserre.quotient as quotient
from conftest import FAMILY_MATRIX
from superserre.freelie import expand_terms, lower_terms
from superserre.linalg import axpy
from superserre.quotient import check_lowering_stability
from superserre.rootdata import build_root_datum, enumerate_simple_systems
from superserre.scalars import Scalar
from superserre.serre import presentation
from superserre.verify import necessity_survey, survey_presentation, verify_presentation


def _presentation(family, k, **kw):
    datum = build_root_datum(family, **kw)
    return presentation(datum, enumerate_simple_systems(datum)[k])


def _types(values):
    return {type(c) for c in values}


@pytest.mark.parametrize("k", range(6))
def test_native_terms_lower_and_expand_natively(k):
    # over Q, native terms in give int/Fraction out: no Scalar, no float
    pres = _presentation("F4", k)
    lowered_any = False
    for el in pres.e_side:
        for i in range(1, pres.rank + 1):
            lowered, h = lower_terms(pres.cartan, i, el.terms)
            words = expand_terms(lowered, pres.parities)
            lowered_any = lowered_any or bool(lowered)
            assert type(h) in (int, Fraction)
            assert _types(lowered.values()) | _types(words.values()) <= {int, Fraction}
    assert lowered_any


def test_scalar_terms_lower_to_scalars():
    pres = _presentation("F4", 3)
    for el in pres.e_side:
        terms = {tree: Scalar(c) for tree, c in el.terms.items()}
        for i in range(1, pres.rank + 1):
            lowered, h = lower_terms(pres.cartan, i, terms)
            assert isinstance(h, Scalar)
            assert _types(lowered.values()) <= {Scalar}


def _lower_reference(cd, i, tree):
    """ad f_i on one tree, straight from the convention in `lower_terms`'s
    docstring, in Scalar arithmetic on the Cartan entries: (word expansion
    of the positive part, H_i coefficient)."""
    r, parities = cd.rank, cd.parities
    p_i = parities[i - 1]

    def content(t):
        return [t == j for j in range(1, r + 1)] if isinstance(t, int) else [
            a + b for a, b in zip(content(t[0]), content(t[1]))
        ]

    def kappa(t):
        acc = sum((cd.native_a[i - 1][j] * n for j, n in enumerate(content(t))), Scalar(0))
        return acc if p_i else -acc

    def parity(t):
        return sum(n for n, p in zip(content(t), parities) if p) & 1

    def go(t):
        if isinstance(t, int):
            return {}, Scalar(1 if t == i else 0)
        u, v = t
        (du, hu), (dv, hv) = go(u), go(v)
        sign = -1 if (p_i and parity(u)) else 1
        out = {}
        for tree, c in du.items():
            out[(tree, v)] = out.get((tree, v), 0) + c
        for tree, c in dv.items():
            out[(u, tree)] = out.get((u, tree), 0) + sign * c
        out[v] = out.get(v, 0) + hu * kappa(v)
        out[u] = out.get(u, 0) - sign * hv * kappa(u)
        return out, Scalar(0)

    d, h = go(tree)
    return expand_terms(d, parities), h


def _trees(r):
    leaves = st.integers(min_value=1, max_value=r)
    return st.recursive(leaves, lambda sub: st.tuples(sub, sub), max_leaves=6)


_coefficients = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


# F(4) runs over Q; generic D(2,1;a) class 1 has Cartan entries in Q(a)
_CASES = {("F4", 0): _presentation("F4", 0).cartan, ("D21a", 1): _presentation("D21a", 1).cartan}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_CASES)), st.data())
def test_native_and_scalar_lowerings_agree(case, data):
    cd = _CASES[case]
    i = data.draw(st.integers(min_value=1, max_value=cd.rank), label="i")
    terms = data.draw(st.dictionaries(_trees(cd.rank), _coefficients, min_size=1, max_size=3), label="terms")
    native_out, native_h = lower_terms(cd, i, terms)
    scalar_out, scalar_h = lower_terms(cd, i, {t: Scalar(c) for t, c in terms.items()})
    assert native_out == scalar_out and native_h == scalar_h
    assert float not in _types(native_out.values()) | {type(native_h)}
    assert _types(scalar_out.values()) <= {Scalar}
    # both agree with the convention applied directly, tree by tree
    words, h = {}, Scalar(0)
    for tree, c in terms.items():
        w, ht = _lower_reference(cd, i, tree)
        for word, x in w.items():
            words[word] = words.get(word, 0) + c * x
        h = h + c * ht
    words = {w: x for w, x in words.items() if x}
    assert expand_terms(native_out, cd.parities) == words and native_h == h


def _full_lowering_entry(pres, idx, i):
    """How the (element, i) entry comes out with every element lowered:
    `zero` on an empty word expansion, else by the image on the engine."""
    el = pres.e_side[idx]
    lowered, _ = lower_terms(pres.cartan, i, el.terms)
    if not expand_terms(lowered, pres.parities):
        return "zero"
    pres.engine.level(sum(el.content) - 1)
    image = {}
    for tree, coeff in lowered.items():
        axpy(image, pres.engine.rho(tree), coeff)
    return "violation" if image else "ideal"


def test_entries_without_e_i_equal_the_full_lowering_entries():
    # an element without e_i is recorded zero with no lowering; on every
    # matrix class, generic D(2,1;a) among them, each entry is the one that
    # full lowering plus word expansion give
    unlowered = 0
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for k, system in enumerate(enumerate_simple_systems(datum)):
            pres = presentation(datum, system)
            got = [(e.element_index, e.provenance, e.i, e.stable, e.how)
                   for e in check_lowering_stability(pres).entries]
            want = []
            for idx, el in enumerate(pres.e_side):
                for i in range(1, pres.rank + 1):
                    how = _full_lowering_entry(pres, idx, i)
                    want.append((idx, el.provenance, i, how != "violation", how))
                    unlowered += not el.content[i - 1]
            assert got == want, (datum.name, k)
    assert unlowered


@pytest.fixture
def engine_builds(monkeypatch):
    """Counts CoveringEngine constructions."""
    count = [0]
    init = quotient.CoveringEngine.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(quotient.CoveringEngine, "__init__", counting_init)
    return count


_A11 = dict(m=1, n=1)


@pytest.mark.parametrize("family,kw,k", [("A", _A11, 2), ("G3", {}, 0), ("F4", {}, 0), ("D21a", {}, 1)])
def test_no_engine_when_every_entry_is_zero_or_span(family, kw, k, engine_builds):
    # every lowered element of these classes has an empty word expansion
    rep = check_lowering_stability(_presentation(family, k, **kw))
    assert rep.ok and rep.entries
    assert {e.how for e in rep.entries} == {"zero"}
    assert engine_builds[0] == 0


@pytest.mark.parametrize("family,kw,k", [("A", _A11, 0), ("G3", {}, 1), ("F4", {}, 3)])
def test_one_engine_when_an_entry_needs_the_ideal(family, kw, k, engine_builds, monkeypatch):
    heights = []
    build_level = quotient.CoveringEngine.build_level

    def recording_build_level(self, h_next):
        heights.append(h_next)
        return build_level(self, h_next)

    monkeypatch.setattr(quotient.CoveringEngine, "build_level", recording_build_level)
    pres = _presentation(family, k, **kw)
    rep = check_lowering_stability(pres)
    assert rep.ok and any(e.how == "ideal" for e in rep.entries)
    assert engine_builds[0] == 1
    # levels are built on demand: none above the highest weight nu = wt(s) - alpha_i
    # of an entry that needed the engine
    top = max(
        sum(pres.e_side[e.element_index].content) - 1
        for e in rep.entries
        if e.how in ("ideal", "violation")
    )
    assert heights and max(heights) <= top


def test_verify_necessity_and_stability_share_one_engine(engine_builds):
    # on every matrix class, and on three rank-6 algebras, the three checks
    # read the levels of one engine, the verified presentation's, and each
    # gives what it gives on a fresh presentation
    algebras = [(fam, kw) for fam, kw, _ in FAMILY_MATRIX]
    algebras += [("B", dict(m=3, n=3)), ("D", dict(m=3, n=3)), ("A", dict(m=4, n=2))]
    for fam, kw in algebras:
        datum = build_root_datum(fam, **kw)
        for k, system in enumerate(enumerate_simple_systems(datum)):
            engine_builds[0] = 0
            report = verify_presentation(datum, system)
            pres = report.presentation
            necessity = [res.to_json() for res in survey_presentation(pres)]
            stability = check_lowering_stability(pres)
            assert report.passed and engine_builds[0] == 1, (datum.name, k)
            assert necessity == [res.to_json() for res in necessity_survey(datum, system)], (datum.name, k)
            fresh = check_lowering_stability(presentation(datum, system))
            assert stability.to_json() == fresh.to_json(), (datum.name, k)
            # every entry is zero or rewrites to zero on the engine, so stable
            assert {e.how for e in stability.entries} <= {"zero", "ideal"}, (datum.name, k)
