import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_MATRIX, algebras_of_rank
from superserre.rootdata import (
    InconsistencyError,
    ParameterError,
    PreconditionError,
    SimpleSystem,
    WeightVector,
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
    odd_reflection,
    positive_roots,
    wv,
)
from superserre.scalars import ALPHA, ONE, Scalar, native, render


def test_b01_roots():
    d = build_root_datum("B", m=0, n=1)
    assert d.odd_roots == {wv({"d1": 1}), wv({"d1": -1})}
    assert d.even_roots == {wv({"d1": 2}), wv({"d1": -2})}


def test_d21a_roots():
    d = build_root_datum("D21a")
    assert len(d.odd_roots) == 8
    assert d.even_roots == {
        wv({s: c}) for s in ("e1", "e2", "d") for c in (2, -2)
    }


def test_g3_root_counts():
    d = build_root_datum("G3")
    assert len(d.odd_roots) == 14
    assert len(d.even_roots) == 14


def test_f4_root_counts():
    d = build_root_datum("F4")
    assert len(d.even_roots) == 20
    assert len(d.odd_roots) == 16
    # rank + roots = dimension 40
    assert 4 + len(d.all_roots) == 40


def test_roots_closed_under_negation_and_isotropy():
    for fam, kw in [("A", dict(m=2, n=1)), ("B", dict(m=1, n=2)), ("C", dict(n=3)),
                    ("D", dict(m=2, n=2)), ("F4", {}), ("G3", {}), ("D21a", {})]:
        d = build_root_datum(fam, **kw)
        assert not (d.even_roots & d.odd_roots)
        for beta in d.all_roots:
            assert -beta in d.all_roots
        for beta in d.isotropic_roots:
            assert beta in d.odd_roots  # all isotropic roots are odd


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_root_datum("A", m=0, n=0)
    with pytest.raises(ParameterError):
        build_root_datum("C", n=2)
    with pytest.raises(ParameterError):
        build_root_datum("D", m=1, n=1)
    with pytest.raises(ParameterError):
        build_root_datum("D21a", alpha=Fraction(-1))
    with pytest.raises(ParameterError):
        build_root_datum("X7")


def test_alpha_must_be_exact():
    with pytest.raises(TypeError, match="0.1"):
        build_root_datum("D21a", alpha=0.1)
    assert build_root_datum("D21a", alpha=2).name == "D(2,1;2)"


@pytest.mark.parametrize(
    "family, params, unread",
    [
        ("F4", dict(m=3), "m"),
        ("C", dict(m=1, n=3), "m"),  # C reads n only
        ("A", dict(m=1, n=0, alpha=2), "alpha"),
        ("D21a", dict(n=1), "n"),
        ("G3", dict(alpha=None), "alpha"),  # passed counts as given, even as None
        ("B", dict(k=1), "k"),  # no family reads k
    ],
)
def test_a_parameter_the_family_does_not_read_is_refused(family, params, unread):
    with pytest.raises(ParameterError, match=f"family {family} does not take --{unread}$"):
        build_root_datum(family, **params)


def test_each_family_row_gives_a_distinct_name_and_its_simple_roots():
    names = []
    for r in range(1, 9):
        for fam, kw in algebras_of_rank(r):
            datum = build_root_datum(fam, **kw)
            names.append(datum.name)
            assert distinguished_simple_system(datum).roots == datum.simple_roots, datum.name
            assert datum.rank == r, datum.name
    assert len(names) == len(set(names)) == 85


def test_root_coefficients_must_be_exact():
    with pytest.raises(TypeError, match="0.5"):
        wv({"e1": 0.5})
    with pytest.raises(TypeError, match="0.5"):
        wv({"e1": 1}).scale(0.5)
    with pytest.raises(TypeError):
        wv({"e1": ALPHA})


def test_bilinear_examples():
    a10 = build_root_datum("A", m=1, n=0)
    assert a10.form_value(wv({"e1": 1, "e2": -1}), wv({"e2": 1, "d1": -1})) == Scalar(-1)
    lam = wv({"e1": 1, "d1": -1})
    assert not a10.form_value(lam, lam)
    d21a = build_root_datum("D21a")
    assert d21a.form_value(wv({"e2": 2}), wv({"e2": 2})) == ALPHA * 4
    assert d21a.form_value(wv({"d": 1}), wv({"d": 1})) == -(ONE + ALPHA)
    f4 = build_root_datum("F4")
    assert f4.form_value(wv({"d": 1}), wv({"d": 1})) == Scalar(-6)
    assert f4.form_value(wv({"e1": 1}), wv({"e1": 1})) == Scalar(2)


def test_bilinear_foreign_symbol():
    a10 = build_root_datum("A", m=1, n=0)
    with pytest.raises(TypeError):
        a10.form_value(wv({"e9": 1}), wv({"e1": 1}))


def test_distinguished_systems():
    a10 = build_root_datum("A", m=1, n=0)
    s = distinguished_simple_system(a10)
    assert s.roots == (wv({"e1": 1, "e2": -1}), wv({"e2": 1, "d1": -1}))
    assert s.theta == frozenset({2})

    g3 = build_root_datum("G3")
    s = distinguished_simple_system(g3)
    assert s.roots[0] == wv({"d": 1, "e1": -1, "e3": 1})
    assert s.theta == frozenset({1})

    f4 = build_root_datum("F4")
    s = distinguished_simple_system(f4)
    half = Fraction(1, 2)
    assert s.roots[0] == wv({"e1": half, "e2": half, "e3": half, "d": half})
    assert s.theta == frozenset({1})

    for fam, kw in [("A", dict(m=2, n=1)), ("B", dict(m=0, n=2)), ("B", dict(m=1, n=2)),
                    ("C", dict(n=3)), ("D", dict(m=2, n=2)), ("D21a", {})]:
        d = build_root_datum(fam, **kw)
        assert len(distinguished_simple_system(d).theta) == 1


def test_odd_reflection_examples():
    a10 = build_root_datum("A", m=1, n=0)
    s = distinguished_simple_system(a10)
    refl = odd_reflection(a10, s, 2)
    assert refl.roots == (wv({"e1": 1, "d1": -1}), wv({"d1": 1, "e2": -1}))
    # reflecting twice returns the original system
    back = odd_reflection(a10, refl, 2)
    assert back.key() == s.key()

    d21a = build_root_datum("D21a")
    s = distinguished_simple_system(d21a)
    refl = odd_reflection(d21a, s, 1)
    assert refl.roots == (
        wv({"e1": 1, "e2": 1, "d": -1}),
        wv({"d": 1, "e1": 1, "e2": -1}),
        wv({"d": 1, "e1": -1, "e2": 1}),
    )


def test_odd_reflection_precondition():
    a10 = build_root_datum("A", m=1, n=0)
    s = distinguished_simple_system(a10)
    with pytest.raises(PreconditionError):
        odd_reflection(a10, s, 1)  # e1 - e2 is not isotropic


def test_enumeration_counts():
    expected = {
        ("A", (1, 0)): 3,
        ("A", (1, 1)): 6,
        ("A", (2, 1)): 10,
        ("B", (0, 1)): 1,
        ("B", (0, 2)): 1,
        ("B", (1, 1)): 2,
        ("B", (1, 2)): 3,
        ("D21a", None): 4,
        ("G3", None): 4,
        ("F4", None): 6,
    }
    for (fam, mn), count in expected.items():
        kw = {} if mn is None else dict(m=mn[0], n=mn[1])
        d = build_root_datum(fam, **kw)
        assert len(enumerate_simple_systems(d)) == count, (fam, mn)


def test_positive_roots_examples():
    a10 = build_root_datum("A", m=1, n=0)
    s = distinguished_simple_system(a10)
    pos = positive_roots(s)
    assert set(pos) == {
        wv({"e1": 1, "e2": -1}),
        wv({"e2": 1, "d1": -1}),
        wv({"e1": 1, "d1": -1}),
    }
    f4 = build_root_datum("F4")
    for system in enumerate_simple_systems(f4):
        assert len(positive_roots(system)) == 18
    d21a = build_root_datum("D21a")
    for system in enumerate_simple_systems(d21a):
        assert len(positive_roots(system)) == 7


def test_positive_roots_half_property_and_length_multiset():
    for fam, kw in [("A", dict(m=1, n=1)), ("B", dict(m=1, n=1)), ("C", dict(n=3)),
                    ("D", dict(m=2, n=1)), ("G3", {}), ("D21a", {})]:
        d = build_root_datum(fam, **kw)
        lengths = sorted(
            render(d.form_value(b, b)) for b in d.all_roots
        )
        for system in enumerate_simple_systems(d):
            assert 2 * len(positive_roots(system)) == len(d.all_roots)
            # odd reflections permute the ambient roots, lengths unchanged
            assert sorted(render(d.form_value(b, b)) for b in d.all_roots) == lengths


def test_enumeration_is_order_independent():
    # closing from any member of the closure gives the same family of systems
    d = build_root_datum("A", m=1, n=1)
    systems = enumerate_simple_systems(d)
    keys = {s.key() for s in systems}
    for start in systems:
        seen = {start.key()}
        frontier = [start]
        while frontier:
            nxt = []
            for sys_ in frontier:
                for t in sys_.isotropic_indices():
                    refl = odd_reflection(d, sys_, t)
                    if refl.key() not in seen:
                        seen.add(refl.key())
                        nxt.append(refl)
            frontier = nxt
        assert seen == keys


def test_weight_vector_json():
    v = wv({"e1": Fraction(1, 2), "d": -1})
    assert v.to_json() == {"d": "-1", "e1": "1/2"}


def _fraction_repr(key):
    """The text of a vector whose (symbol, coefficient) key holds every
    coefficient as a `Fraction`, as `repr` printed it before coefficients
    were native."""
    parts = []
    for s, c in key:
        if c == 1:
            parts.append(f"+{s}")
        elif c == -1:
            parts.append(f"-{s}")
        else:
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{s}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text or "0"


_SYMBOLS = ("d", "d1", "e1", "e2", "e3")
_RATIONALS = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_SYMBOLS), _RATIONALS, max_size=4),
    st.dictionaries(st.sampled_from(_SYMBOLS), _RATIONALS, max_size=4),
    st.data(),
)
def test_weight_vector_canonical_form(coefficients, other, data):
    # the Fraction key every vector had before coefficients were native
    old_key = tuple(sorted((s, Fraction(c)) for s, c in coefficients.items() if c))
    pairs = []  # each coefficient split in two, so a symbol comes twice
    for s, c in coefficients.items():
        part = data.draw(_RATIONALS)
        pairs += [(s, part), (s, c - part)]
    v = wv(coefficients)  # Fraction(4, 2) and the like
    w = wv(other)
    k = data.draw(_RATIONALS.filter(bool))
    routes = [
        v,
        WeightVector(pairs),
        wv({s: c.numerator if c.denominator == 1 else c for s, c in coefficients.items()}),
        v + w - w,
        w + v - w,
        -(-v),
        v.scale(k).scale(1 / k),
    ]
    for u in routes:
        assert u == v and hash(u) == hash(v) == hash(old_key)
        assert u.items() == old_key
        for _, c in u.items():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for s in _SYMBOLS:
            c = u.coefficient(s)
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert repr(u) == _fraction_repr(old_key)
        assert u.to_json() == {s: str(c) for s, c in old_key}
    assert (v - v).is_zero() and repr(v - v) == "0" and hash(v - v) == hash(())


def _borel_class_count(family, m=None, n=None):
    """The number of Borel classes, from the classification: the words in
    the epsilon and delta simple roots of the distinguished chain, counted
    as shuffles, m + 1 epsilons with n + 1 deltas for A(m,n) and m with n
    for B(m,n); D(m,n), with C(n) as D(1, n - 1), counts the words that end
    in a delta twice; F(4), G(3) and D(2,1;a) have 6, 4 and 4."""
    if family == "A":
        return comb(m + n + 2, m + 1)
    if family == "B":
        return comb(m + n, m)
    if family == "C":
        return comb(n, 1) + comb(n - 1, 1)  # D(1, n - 1): 2n - 1
    if family == "D":
        return comb(m + n, m) + comb(m + n - 1, m)
    return {"F4": 6, "G3": 4, "D21a": 4}[family]


def _matrix_rank(vectors):
    """Rank of the coefficient rows of `vectors`, by a plain `Fraction`
    elimination."""
    syms = sorted({s for v in vectors for s in v.symbols()})
    rows = [[Fraction(v.coefficient(s)) for s in syms] for v in vectors]
    rank = 0
    for col in range(len(syms)):
        p = next((k for k in range(rank, len(rows)) if rows[k][col] != 0), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pivot = rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][col] / pivot[col]
            rows[k] = [a - f * b for a, b in zip(rows[k], pivot)]
        rank += 1
    return rank


def check_borel_classes(max_rank):
    """(algebras, classes) up to `max_rank`, every class count as classified."""
    algebras = classes = 0
    for r in range(1, max_rank + 1):
        for fam, kw in algebras_of_rank(r):
            datum = build_root_datum(fam, **kw)
            systems = enumerate_simple_systems(datum)
            assert len(systems) == _borel_class_count(fam, **kw), datum.name
            assert datum.rank == r == distinguished_simple_system(datum).rank, datum.name
            # positive_roots' argument: the roots span a space of dimension
            # datum.rank, and the distinguished roots span it too
            assert _matrix_rank(list(datum.all_roots)) == datum.rank, datum.name
            assert _matrix_rank(distinguished_simple_system(datum).roots) == datum.rank, datum.name
            for system in systems:
                positive_roots(system)  # raises unless exactly half the roots are positive
            algebras += 1
            classes += len(systems)
    return algebras, classes


def test_borel_class_counts_up_to_rank_7():
    assert check_borel_classes(7) == (66, 912)


def _solve_coordinates(system, vector):
    """Oracle: exact coordinates of `vector` in the simple basis, or None,
    by one Gauss-Jordan elimination per vector."""
    syms = sorted({s for b in system.roots for s, _ in b.items()} | set(vector.symbols()))
    r = system.rank
    # coefficients are native ints where integral; divide as Fractions
    rows = [[Fraction(b.coefficient(s)) for b in system.roots] + [Fraction(vector.coefficient(s))]
            for s in syms]
    pivots = []
    row = 0
    for col in range(r):
        p = next((k for k in range(row, len(rows)) if rows[k][col] != 0), None)
        if p is None:
            continue
        rows[row], rows[p] = rows[p], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for k in range(len(rows)):
            if k != row and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[row])]
        pivots.append(col)
        row += 1
    sol = [Fraction(0)] * r
    for idx, col in enumerate(pivots):
        sol[col] = rows[idx][r]
    for k in range(row, len(rows)):
        if rows[k][r] != 0:
            return None
    return tuple(sol)


def check_positive_roots(max_rank):
    """(algebras, classes) up to `max_rank`, every positive root as the solver's."""
    algebras = classes = 0
    for r in range(1, max_rank + 1):
        for fam, kw in algebras_of_rank(r):
            datum = build_root_datum(fam, **kw)
            for k, system in enumerate(enumerate_simple_systems(datum)):
                expected = {}
                for root in datum.all_roots:
                    sol = _solve_coordinates(system, root)
                    assert sol is not None and all(c.denominator == 1 for c in sol), (datum.name, k, root)
                    if min(sol) >= 0:
                        expected[root] = tuple(int(c) for c in sol)
                assert positive_roots(system) == expected, (datum.name, k)
                classes += 1
            algebras += 1
    return algebras, classes


def test_positive_roots_match_per_root_solver_up_to_rank_4():
    assert check_positive_roots(4) == (23, 98)


# the three catalogue-sized series algebras, the exceptional ones, and
# D(2,1;a) generic and at two specialised values
_COORDINATE_ALGEBRAS = (
    ("A", dict(m=4, n=3)),
    ("B", dict(m=3, n=3)),
    ("C", dict(n=5)),
    ("D", dict(m=4, n=3)),
    ("F4", {}),
    ("G3", {}),
    ("D21a", {}),
    ("D21a", dict(alpha=2)),
    ("D21a", dict(alpha=Fraction(-1, 2))),
)


def test_coordinate_map_matches_the_oracle_on_every_class():
    # the coordinate map is positive_roots' dict: a positive root to its coordinates
    for fam, kw in _COORDINATE_ALGEBRAS:
        datum = build_root_datum(fam, **kw)
        systems = enumerate_simple_systems(datum)
        roots = sorted(datum.all_roots, key=repr)
        # every root of the exceptional algebras; about six per class of the
        # series, a different six from class to class
        stride = 1 if len(roots) <= 36 else len(roots) // 6
        for k, system in enumerate(systems):
            pos = positive_roots(system)
            for root in roots[k % stride :: stride]:
                sol = _solve_coordinates(system, root)
                assert sol is not None and all(c.denominator == 1 for c in sol)
                want = tuple(int(c) for c in sol) if min(sol) >= 0 else None
                assert pos.get(root) == want, (system, root)


def test_root_rows_are_an_additive_one_to_one_integer_table():
    # the rows positive_roots sums: made once per datum, so every class of
    # the datum reads the same table
    algebras = list(_COORDINATE_ALGEBRAS) + [(fam, kw) for fam, kw, _ in FAMILY_MATRIX]
    for fam, kw in algebras:
        datum = build_root_datum(fam, **kw)
        rows, symbols = datum.root_rows, list(datum.norms)
        assert datum.row_scale == (2 if fam == "F4" else 1), datum.name
        assert rows.keys() == datum.all_roots
        for b, row in rows.items():
            assert all(type(c) is int for c in row), (datum.name, b)
            assert row == tuple(b.coefficient(s) * datum.row_scale for s in symbols)
        assert len(set(rows.values())) == len(rows)
        assert datum.root_of_row == {row: b for b, row in rows.items()}
        for b in datum.all_roots:
            for c in datum.all_roots:
                if b + c in datum.all_roots:
                    assert tuple(x + y for x, y in zip(rows[b], rows[c])) == rows[b + c]


def test_dependent_simple_roots_are_rejected():
    a10 = build_root_datum("A", m=1, n=0)
    b = distinguished_simple_system(a10).roots[0]
    system = SimpleSystem(a10, [b, -b])
    with pytest.raises(InconsistencyError, match="linearly dependent"):
        positive_roots(system)


def test_a_system_of_the_wrong_size_is_rejected():
    a10 = build_root_datum("A", m=1, n=0)
    a1, a2 = distinguished_simple_system(a10).roots
    # a1, a2 and a1 + a2 generate exactly half of the roots, with no root and its negative
    dependent = "3 simple roots, .* span rank 2: they are linearly dependent"
    with pytest.raises(InconsistencyError, match=dependent):
        positive_roots(SimpleSystem(a10, [a1, a2, a1 + a2]))
    with pytest.raises(InconsistencyError, match=r"1 simple roots, .* span rank 2$"):
        positive_roots(SimpleSystem(a10, [a1]))


def test_a_basis_that_is_not_simple_is_rejected():
    a10 = build_root_datum("A", m=1, n=0)
    a1, a2 = distinguished_simple_system(a10).roots
    # a basis of the root lattice in which a2 = (a1 + a2) - a1 is neither sign
    with pytest.raises(InconsistencyError, match="2 positive roots out of 6"):
        positive_roots(SimpleSystem(a10, [a1, a1 + a2]))


_FORM_TABLES = {
    "F4": {"e1": Scalar(2), "e2": Scalar(2), "e3": Scalar(2), "d": Scalar(-6)},
    "D21a": {"e1": ONE, "e2": ALPHA, "d": -(ONE + ALPHA)},
}
_SORTED_ROOTS = {
    fam: sorted(build_root_datum(fam).all_roots, key=repr) for fam in _FORM_TABLES
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_FORM_TABLES)), st.data())
def test_form_value_matches_the_double_loop(fam, data):
    datum = build_root_datum(fam)
    roots = _SORTED_ROOTS[fam]
    lam = data.draw(st.sampled_from(roots))
    mu = data.draw(st.sampled_from(roots))
    k = data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2)]))
    lam = lam.scale(k)
    table = _FORM_TABLES[fam]
    expected = Scalar(0)
    for s, c in lam.items():
        for t, d in mu.items():
            if s == t:
                expected = expected + table[s] * Scalar(c * d)
    for got in (datum.form_value(lam, mu), datum.form_value(mu, lam)):
        assert got == expected
        assert type(got) is type(native(expected))  # canonical: Scalar only where a appears


@pytest.mark.parametrize("family", ["D21a", "F4"])
def test_data_and_systems_survive_a_pickle_round_trip(family):
    # `verify --jobs N` sends the datum and each system to its workers as
    # pickles; generic D(2,1;a) carries `Scalar` norms across
    datum = build_root_datum(family)
    system = enumerate_simple_systems(datum)[-1]
    datum_copy = pickle.loads(pickle.dumps(datum))
    system_copy = pickle.loads(pickle.dumps(system))
    for copy in (datum_copy, system_copy.datum):
        assert copy.norms == datum.norms
        assert (copy.even_roots, copy.odd_roots, copy.all_roots) == (
            datum.even_roots, datum.odd_roots, datum.all_roots
        )
        assert copy.rank == datum.rank
        assert copy.row_scale == datum.row_scale
        assert copy.root_rows == datum.root_rows
        assert copy.root_of_row == datum.root_of_row
    assert system_copy.roots == system.roots
    assert system_copy.rank == system.rank
    assert positive_roots(system_copy) == positive_roots(system)
