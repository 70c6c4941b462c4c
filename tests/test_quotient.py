import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_MATRIX, without_element
from superserre.freelie import content_height, expand_terms, free_dimension
from superserre.linalg import axpy
from superserre.quotient import (
    FIELD_BITS,
    CoveringEngine,
    EngineError,
    IdealWordEngine,
    check_lowering_stability,
    quotient_dimensions,
)
from superserre.rootdata import (
    PreconditionError,
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
)
from superserre.scalars import ALPHA, Scalar
from superserre.serre import SerrePolynomial, presentation
from superserre.verify import compare_z_grading, verify_presentation


def _element(terms, nodes, rank=2):
    """A native e-side relation element, as the engines take them."""
    return SerrePolynomial(terms, "standard", nodes, rank)


def test_ideal_component_examples():
    # S = {[e2,e2]} with e2 odd kills the square at (0,2)
    assert IdealWordEngine((0, 1), [_element({(2, 2): 1}, (2,))]).rank((0, 2)) == 1
    # S = {[e1,[e1,e2]]}: the whole (3,1) component dies
    engine = IdealWordEngine((0, 0), [_element({(1, (1, 2)): 1}, (1, 2))])
    assert engine.rank((3, 1)) == free_dimension((0, 0), (3, 1))
    # S empty
    assert IdealWordEngine((0, 0), []).rank((2, 1)) == 0


def test_quotient_dimensions_a10():
    datum = build_root_datum("A", m=1, n=0)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = quotient_dimensions(pres, 8)
    assert rep.closed
    assert rep.surviving_weights() == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert rep.positive_dimension == 3
    assert rep.total_dim == 8
    # the presentation keeps the engine that built the report's levels
    assert pres.engine.completed == rep.max_height_reached


def _report_data(rep):
    return rep.to_json(), rep.per_weight, rep.max_height_reached, rep.closed, rep.warning


def test_runs_on_one_presentation_read_its_levels():
    # a lower run, a higher one and a repeat on one presentation: each
    # report is the fresh presentation's, and the engine holds no level
    # above the last report's
    for fam, kw in (("A", dict(m=2, n=1)), ("G3", {}), ("F4", {}), ("D21a", {})):
        datum = build_root_datum(fam, **kw)
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            for cap in (2, 8, 8):
                rep = quotient_dimensions(pres, cap)
                fresh = quotient_dimensions(presentation(datum, system), cap)
                assert _report_data(rep) == _report_data(fresh), (datum.name, cap)
            assert pres.engine.completed == rep.max_height_reached


def test_quotient_dimensions_a11_center_survives():
    datum = build_root_datum("A", m=1, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = quotient_dimensions(pres, 10)
    assert rep.closed and rep.positive_dimension == 6 and rep.total_dim == 15


def test_quotient_dimensions_d21a_generic():
    datum = build_root_datum("D21a")
    systems = enumerate_simple_systems(datum)
    pres = presentation(datum, systems[1])  # the all-grey triangle, over Q(a)
    rep = quotient_dimensions(pres, 10)
    assert rep.closed and rep.positive_dimension == 7 and rep.total_dim == 17


def test_zero_max_height_is_rejected():
    datum = build_root_datum("A", m=1, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    with pytest.raises(ValueError, match="max_height"):
        quotient_dimensions(pres, 0)


def test_total_dimension_requires_closure():
    datum = build_root_datum("A", m=1, n=0)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = quotient_dimensions(pres, 2)  # too small a cap to close
    assert not rep.closed
    assert rep.total_dim is None


def test_unbounded_growth_warning():
    datum = build_root_datum("A", m=1, n=0)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = quotient_dimensions(without_element(pres, 0), 6)
    assert not rep.closed and rep.warning


def test_cross_validation_against_word_engine():
    # the covering engine and the direct ideal-rank engine agree per weight
    cases = [
        ("A", dict(m=1, n=1), None),  # all six classes, incl. the all-grey ones
        ("B", dict(m=1, n=1), None),
        ("C", dict(n=3), [0, 2]),
        ("G3", {}, [0]),
        ("D21a", {}, None),  # exercises Q(a) in both engines
    ]
    for fam, kw, selection in cases:
        datum = build_root_datum(fam, **kw)
        systems = enumerate_simple_systems(datum)
        if selection is not None:
            systems = [systems[k] for k in selection]
        for system in systems:
            pres = presentation(datum, system)
            rep = quotient_dimensions(pres, 24)
            assert rep.closed
            word = IdealWordEngine(pres.parities, pres.e_side)
            for nu, (free, ideal_rank, q) in rep.per_weight.items():
                assert free == free_dimension(pres.parities, nu)
                assert word.rank(nu) == ideal_rank, (fam, nu)
                assert free - ideal_rank == q


def _random_tree(rng, letters):
    """A random bracketing of the generator indices `letters`, in order."""
    if len(letters) == 1:
        return letters[0]
    cut = rng.randrange(1, len(letters))
    return (_random_tree(rng, letters[:cut]), _random_tree(rng, letters[cut:]))


def _random_coefficient(rng):
    """A nonzero `int`, a `Fraction`, or a `Scalar` that involves a."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((-2, -1, 1, 2, 3))
    if kind == 1:
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 5)))
    return rng.choice((-1, 1, 2)) * ALPHA + rng.randrange(-2, 3)


def _random_element(rng, r):
    """A nonzero homogeneous element of height 2 to 4 in r generators: one to
    three random bracketings of one random word's letters."""
    while True:
        letters = [rng.randrange(1, r + 1) for _ in range(rng.randrange(2, 5))]
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            rng.shuffle(letters)
            tree = _random_tree(rng, tuple(letters))
            terms[tree] = terms.get(tree, 0) + _random_coefficient(rng)
        terms = {t: c for t, c in terms.items() if c}
        if terms:
            return SerrePolynomial(terms, "random", sorted(set(letters)), r)


def check_random_ideals(count, seed):
    """(cases, weights compared) over `count` random homogeneous ideals, not
    Serre ones: rank 1 to 3, random parities, one to three elements of
    height 2 to 4 with `int`, `Fraction` and `Scalar` coefficients.  At every
    weight of the covering engine's report, up to height 7 for rank <= 2 and
    5 for rank 3, its ideal rank is `IdealWordEngine`'s.  Unlike Serre rows
    of type A, these rows have pivots other than 1."""
    rng = random.Random(seed)
    weights = 0
    for case in range(count):
        r = rng.randrange(1, 4)
        parities = tuple(rng.randrange(2) for _ in range(r))
        elements = [_random_element(rng, r) for _ in range(rng.randrange(1, 4))]
        ideal = SimpleNamespace(parities=parities, engine=CoveringEngine(parities, elements))
        rep = quotient_dimensions(ideal, 7 if r <= 2 else 5)
        word = IdealWordEngine(parities, elements)
        for nu, (free, ideal_rank, q) in rep.per_weight.items():
            assert free == free_dimension(parities, nu)
            assert word.rank(nu) == ideal_rank, (case, nu)
            assert free - ideal_rank == q
            weights += 1
    return count, weights


def test_random_ideal_ranks_match_the_word_engine():
    assert check_random_ideals(200, 0) == (200, 4148)


def test_monotonicity_more_relations_never_grow():
    datum = build_root_datum("A", m=1, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    idx = next(k for k, el in enumerate(pres.e_side) if el.provenance != "standard")
    smaller = without_element(pres, idx)
    full = quotient_dimensions(pres, 8)
    part = quotient_dimensions(smaller, 8)
    for nu, (_, _, q) in full.per_weight.items():
        assert q <= part.per_weight.get(nu, (0, 0, 0))[2] or nu not in part.per_weight


def test_z_grading_d_series_g3_vanishes():
    # distinguished D(m,n): the layer grading at the odd node has g_3 = 0
    datum = build_root_datum("D", m=2, n=2)
    report = verify_presentation(datum, distinguished_simple_system(datum))
    (s,) = report.presentation.cartan.theta
    grading = {k: g for k, (g, _, _) in compare_z_grading(report, s).items()}
    assert grading.get(2, 0) > 0
    assert grading.get(3, 0) == 0
    # mirror symmetry built in: dims are for k >= 0, layer 0 counts both signs
    total = grading[0] + 2 * sum(v for k, v in grading.items() if k > 0)
    assert total == report.quotient_report.total_dim


def test_z_grading_requires_closed_report(monkeypatch):
    import superserre.verify as verify

    # without its case-1 element, A(1,1) trips the excess guard: a failing report
    def reduced(datum, system):
        pres = presentation(datum, system)
        return without_element(
            pres, next(k for k, el in enumerate(pres.e_side) if el.provenance == "case-1")
        )

    monkeypatch.setattr(verify, "presentation", reduced)
    datum = build_root_datum("A", m=1, n=1)
    report = verify_presentation(datum, distinguished_simple_system(datum))
    assert not report.passed and not report.quotient_report.closed
    with pytest.raises(PreconditionError):
        compare_z_grading(report, 1)


def test_z_grading_rejects_node_out_of_range():
    datum = build_root_datum("A", m=1, n=0)
    report = verify_presentation(datum, distinguished_simple_system(datum))
    for d in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            compare_z_grading(report, d)


def test_report_json_schema():
    datum = build_root_datum("A", m=1, n=0)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = quotient_dimensions(pres, 8)
    data = rep.to_json()
    assert data["closed"] is True and data["total"] == 8
    assert {"nu", "free", "idealRank", "dim"} == set(data["weights"][0])


def test_lowering_stability_examples():
    datum = build_root_datum("A", m=1, n=1)
    pres = presentation(datum, distinguished_simple_system(datum))
    rep = check_lowering_stability(pres)
    assert rep.ok
    # the quartic lowers to zero or into the ideal, never outside
    quartic_entries = [e for e in rep.entries if e.provenance == "case-1"]
    assert quartic_entries and all(e.stable for e in quartic_entries)
    # weight-mismatched lowerings vanish identically
    standard = [e for e in rep.entries if e.provenance == "standard"]
    assert any(e.how == "zero" for e in standard)


def test_cross_validation_f4_low_heights():
    # the F(4) components grow too fast for the word engine at closure, but
    # every weight of height <= 5 across two classes is cheap to confirm
    datum = build_root_datum("F4")
    systems = enumerate_simple_systems(datum)
    for system in (systems[0], systems[3]):
        pres = presentation(datum, system)
        rep = quotient_dimensions(pres, 26)
        assert rep.closed and rep.total_dim == 40
        word = IdealWordEngine(pres.parities, pres.e_side)
        checked = 0
        for nu, (free, ideal_rank, q) in rep.per_weight.items():
            if sum(nu) > 5:
                continue
            assert word.rank(nu) == ideal_rank, nu
            assert free - ideal_rank == q
            checked += 1
        assert checked > 10


def test_engine_determinism():
    datum = build_root_datum("G3")
    system = enumerate_simple_systems(datum)[2]
    pres = presentation(datum, system)
    first = quotient_dimensions(pres, 20)
    second = quotient_dimensions(presentation(datum, system), 20)
    assert first.per_weight == second.per_weight
    assert first.to_json() == second.to_json()


pack = CoveringEngine.pack


def _fields(v, r):
    """The r fields of a nonnegative int below 2^(FIELD_BITS r), highest first."""
    mask = (1 << FIELD_BITS) - 1
    return [(v >> (FIELD_BITS * (r - 1 - k))) & mask for k in range(r)]


def _weights(r, top=(1 << FIELD_BITS) - 1):
    return st.lists(st.integers(0, top), min_size=r, max_size=r)


def _addend_below_the_field(a):
    """(a, b) with every coordinate of a + b below 2^FIELD_BITS."""
    return st.tuples(st.just(a), st.tuples(*(st.integers(0, (1 << FIELD_BITS) - 1 - c) for c in a)))


_ranks = st.integers(1, 8)


@settings(max_examples=200, deadline=None)
@given(_ranks.flatmap(lambda r: st.tuples(_weights(r), _weights(r))))
def test_pack_preserves_order_within_a_rank(pair):
    a, b = pair
    assert (pack(a) < pack(b)) == (a < b)
    assert (pack(a) == pack(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(_ranks.flatmap(_weights).flatmap(_addend_below_the_field))
def test_pack_adds_without_carry_below_the_field_width(pair):
    a, b = pair
    total = [x + y for x, y in zip(a, b)]
    assert pack(a) + pack(b) == pack(total)
    assert _fields(pack(total), len(total)) == total


def test_packed_weights_match_the_tuples():
    datum = build_root_datum("F4")
    report = verify_presentation(datum, enumerate_simple_systems(datum)[1])
    engine = report.presentation.engine
    assert engine.packed_of == [pack(w) for w in engine.weight_of]


def test_every_level_lists_its_weights_in_ascending_order():
    # quotient_dimensions reads each level as the engine stored it, with no
    # sort, so its walk and the excess guard's first excess weight follow
    # the ascending order that sorting would give; level 1 included
    for fam, kw, _ in FAMILY_MATRIX:
        datum = build_root_datum(fam, **kw)
        for k, system in enumerate(enumerate_simple_systems(datum)):
            report = verify_presentation(datum, system)
            engine = report.presentation.engine
            assert len(engine.dims[1]) == datum.rank
            for h, dims in engine.dims.items():
                assert list(dims) == sorted(dims), (datum.name, k, h)
            # so the report's weights come in (height, weight) order, and
            # its to_json and verify's mismatch walk need no sort
            keys = [(sum(nu), nu) for nu in report.quotient_report.per_weight]
            assert keys == sorted(keys), (datum.name, k)


def test_a_height_beyond_the_field_is_refused():
    # build_level checks the width first, so no level is built: the
    # highest height that fits passes on to the order check
    engine = CoveringEngine((0, 1), [])
    with pytest.raises(EngineError, match="field"):
        engine.build_level(1 << FIELD_BITS)
    with pytest.raises(EngineError, match="in order"):
        engine.build_level((1 << FIELD_BITS) - 1)
    assert engine.completed == 1


def test_a_product_beyond_the_completed_level_is_refused():
    # e1 even, e2 odd: a pair above `completed` has no entry in `products`,
    # in either order, the odd square [e2, e2] included
    engine = CoveringEngine((0, 1), [])
    for x, y in ((0, 1), (1, 0), (1, 1)):
        with pytest.raises(EngineError, match="beyond the completed level"):
            engine.product(x, y)
    engine.build_level(2)
    e22, e12 = engine.level_ids[2]  # weights (0, 2) < (1, 1)
    assert engine.product(0, 1) == {e12: 1} and engine.product(1, 1) == {e22: 1}
    for x, y in ((0, e12), (e22, 1), (e12, e22)):
        with pytest.raises(EngineError, match="beyond the completed level"):
            engine.product(x, y)


def test_a_dimension_above_the_free_dimension_is_refused(monkeypatch):
    import superserre.quotient as quotient

    monkeypatch.setattr(quotient, "free_dimension", lambda parities, content: 0)
    engine = CoveringEngine((0, 0), [])
    with pytest.raises(EngineError, match=r"covering produced dimension 1 > free dimension at \(1, 1\)"):
        engine.build_level(2)


def test_ideal_component_row_values():
    # at (0,2) the single ideal row spans the line of the square monomial,
    # which is the whole one-dimensional free component
    parities = (0, 1)
    ech = IdealWordEngine(parities, [_element({(2, 2): 1}, (2,))]).echelon((0, 2))
    assert ech.rank == 1 == free_dimension(parities, (0, 2))
    row, = ech.rows.values()
    assert set(row) == set(expand_terms({(2, 2): 1}, parities)) == {(2, 2)}


@pytest.mark.parametrize("family,k,over_qa", [("F4", 0, False), ("D21a", 0, False), ("D21a", 1, True)])
def test_jacobi_boundary_permutations_span_one_line(family, k, over_qa):
    # every permutation of a basis triple of height 4 gives +-1 times the
    # boundary of the sorted triple, which is why build_level visits sorted
    # triples only; F(4) runs over Q, generic D(2,1;a) over Q(a), and its
    # class 1 has boundaries with coefficients that are not constants
    datum = build_root_datum(family)
    pres = presentation(datum, enumerate_simple_systems(datum)[k])
    engine = CoveringEngine(pres.parities, pres.e_side)
    for h in (2, 3):
        engine.build_level(h)
    height = {b: h for h, ids in engine.level_ids.items() for b in ids}
    nonzero = qa_terms = 0
    for triple in combinations_with_replacement(sorted(height), 3):
        if sum(height[b] for b in triple) != 4:
            continue
        base = engine._jacobi_boundary(*triple)
        negated = {s: -c for s, c in base.items()}
        nonzero += bool(base)
        qa_terms += sum(isinstance(c, Scalar) and not c.is_constant() for c in base.values())
        for perm in set(permutations(triple)):
            assert engine._jacobi_boundary(*perm) in (base, negated), (triple, perm)
    assert nonzero
    assert bool(qa_terms) == over_qa


# Oracle for the one-pass row kernel `CoveringEngine._bracket_into`: one
# dict per pair symbol and one per right-hand vector, summed with `axpy`.


def _sym(engine, x, y):
    """Canonical pair-symbol vector of [x, y] at the current level."""
    if x == y:
        if engine.parity_of[x] == 0:
            return {}
        return {(x, x): 1}
    if x < y:
        return {(x, y): 1}
    sign = engine._koszul(x, y)
    return {(y, x): -sign}


def _sym_vec_right(engine, x, yvec):
    out = {}
    for y, c in yvec.items():
        axpy(out, _sym(engine, x, y), c)
    return out


def _rho_pair_oracle(engine, terms):
    out = {}
    for (u, v), coeff in terms.items():
        rv = engine.rho(v)
        for x, cx in engine.rho(u).items():
            axpy(out, _sym_vec_right(engine, x, rv), coeff * cx)
    return out


def _jacobi_boundary_oracle(engine, x, y, z):
    vec = _sym_vec_right(engine, x, engine.product(y, z))
    sign = -1 if engine.parity_of[x] != engine.parity_of[y] and engine.parity_of[z] else 1
    axpy(vec, _sym_vec_right(engine, z, engine.product(x, y)), sign)
    axpy(vec, _sym_vec_right(engine, y, engine.product(x, z)), -engine._koszul(x, y))
    return vec


@pytest.mark.parametrize("family,k", [("F4", 0), ("D21a", 0), ("D21a", 1)])
def test_one_pass_rows_match_the_per_symbol_oracle(family, k):
    # every ordered basis triple of height <= 4 and every relation element of
    # height <= 4 gives the row the per-symbol composition gives; F(4) runs
    # over Q, generic D(2,1;a) class 1 over Q(a)
    datum = build_root_datum(family)
    pres = presentation(datum, enumerate_simple_systems(datum)[k])
    engine = CoveringEngine(pres.parities, pres.e_side)
    for h in (2, 3):
        engine.build_level(h)
    height = {b: h for h, ids in engine.level_ids.items() for b in ids}
    triples = nonzero = 0
    for triple in product(sorted(height), repeat=3):
        if sum(height[b] for b in triple) <= 4:
            got = engine._jacobi_boundary(*triple)
            assert got == _jacobi_boundary_oracle(engine, *triple), triple
            triples += 1
            nonzero += bool(got)
    rows = 0
    for el in pres.e_side:
        if content_height(el.content) <= 4:
            got = engine.rho_pair(el.terms)
            assert got == _rho_pair_oracle(engine, el.terms), el.render()
            rows += bool(got)
    assert nonzero and rows and triples > nonzero


def _coefficients(engine):
    return [c for vec in engine.products.values() for c in vec.values()]


def test_engine_coefficients_are_native_rationals_over_q():
    # a presentation without the parameter runs on int and Fraction only,
    # and no structure constant is a Fraction with denominator 1
    datum = build_root_datum("F4")
    for system in enumerate_simple_systems(datum):
        pres = presentation(datum, system)
        rep = quotient_dimensions(pres, 26)
        coeffs = _coefficients(pres.engine)
        assert rep.closed and coeffs
        assert all(type(c) in (int, Fraction) for c in coeffs)
        assert not any(type(c) is Fraction and c.denominator == 1 for c in coeffs)


def test_engine_coefficients_keep_the_parameter_as_scalar():
    # generic D(2,1;a) class 1 has products that depend on a; no coefficient
    # of any class is ever a float
    datum = build_root_datum("D21a")
    for k, system in enumerate(enumerate_simple_systems(datum)):
        pres = presentation(datum, system)
        quotient_dimensions(pres, 10)
        coeffs = _coefficients(pres.engine)
        assert all(type(c) in (int, Fraction, Scalar) for c in coeffs)
        if k == 1:
            assert any(isinstance(c, Scalar) and not c.is_constant() for c in coeffs)


def _deletion_cases():
    """Every class of A(1,1), B(1,1) and generic D(2,1;a), and G(3) classes
    0 and 1."""
    cases = []
    for fam, kw, selection in (("A", dict(m=1, n=1), None), ("B", dict(m=1, n=1), None),
                               ("G3", {}, [0, 1]), ("D21a", {}, None)):
        datum = build_root_datum(fam, **kw)
        systems = enumerate_simple_systems(datum)
        if selection is not None:
            systems = [systems[k] for k in selection]
        cases.extend(presentation(datum, system) for system in systems)
    return cases


_DELETION_CASES = _deletion_cases()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_deletion_ranks_match_the_word_engine(data):
    # deleting any one element (a standard one included) and stopping at a
    # low height: the covering engine's ideal ranks, live or skipped weights
    # alike, equal the word engine's ranks of the reduced relation set, over
    # Q (A(1,1), B(1,1), G(3)) and over Q(a) (generic D(2,1;a))
    pres = data.draw(st.sampled_from(_DELETION_CASES))
    k = data.draw(st.integers(min_value=0, max_value=len(pres.e_side) - 1))
    h = data.draw(st.integers(min_value=2, max_value=5))
    reduced = without_element(pres, k)
    rep = quotient_dimensions(reduced, h)
    word = IdealWordEngine(reduced.parities, reduced.e_side)
    for nu, (free, ideal_rank, q) in rep.per_weight.items():
        assert word.rank(nu) == ideal_rank, (nu, k)
        assert free - ideal_rank == q
