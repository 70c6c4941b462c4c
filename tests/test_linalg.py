"""Properties of the sparse linear-algebra core on random sparse rows, over
Q as `Scalar`, over Q as native `int`/`Fraction`, over Q(a), and on rows
that mix native rationals with Q(a) `Scalar`s."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superserre.linalg import Echelon, axpy
from superserre.scalars import ONE, Poly, Scalar, ZERO

KEYS = range(6)

_small = st.integers(min_value=-3, max_value=3)
_fraction = st.builds(Fraction, _small, st.integers(min_value=1, max_value=3))
_q = _fraction.map(Scalar)
_native = st.one_of(_small, _fraction)  # int and Fraction coefficients


@st.composite
def _qa(draw):
    num = Poly([draw(_small) for _ in range(2)])
    den = Poly([draw(_small) for _ in range(2)])
    return Scalar(num, den if den else Poly([1]))


def _vectors(scalars):
    """Sparse vectors over KEYS with no stored zero."""
    return st.dictionaries(st.sampled_from(KEYS), scalars, max_size=len(KEYS)).map(
        lambda d: {k: v for k, v in d.items() if v}
    )


def _combine(pairs):
    """Dense sum of c * vec over (c, vec) pairs, as a dict with zeros dropped."""
    out = {k: ZERO for k in KEYS}
    for c, vec in pairs:
        for k, v in vec.items():
            out[k] = out[k] + c * v
    return {k: v for k, v in out.items() if v}


def _as_fraction(c):
    return c.as_fraction() if isinstance(c, Scalar) else Fraction(c)


def _no_float(vec):
    return all(type(v) in (int, Fraction, Scalar) for v in vec.values())


def _substitute(vec, expr):
    """vec with every pivot key replaced by its read-off expression."""
    out = {}
    for k, v in vec.items():
        axpy(out, expr.get(k, {k: ONE}), v)
    return out


def _dense_rank(rows):
    """Rank by textbook Gaussian elimination on dense Fraction rows."""
    m = [[_as_fraction(row.get(k, 0)) for k in KEYS] for row in rows]
    rank = 0
    for col in KEYS:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _echelon_of(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(dict(row))
    return ech


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(_vectors(_q), _vectors(_q), _q),
    st.tuples(_vectors(_native), _vectors(_native), _native),
    st.tuples(_vectors(_qa()), _vectors(_qa()), _qa()),
    st.tuples(_vectors(_native), _vectors(_qa()), _native),
))
def test_axpy_is_the_dense_sum_without_zeros(args):
    dst, src, c = args
    expected = _combine([(ONE, dst), (c, src)])
    got = axpy(dict(dst), src, c)
    assert got == expected
    assert all(got.values()) and _no_float(got)
    assert axpy(dict(dst), src) == _combine([(ONE, dst), (ONE, src)])
    assert axpy(dict(src), src, -1) == {}
    assert axpy(dict(src), src, -ONE) == {}


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(_vectors(_q), max_size=8), st.lists(_vectors(_native), max_size=8)))
def test_rank_over_q_matches_dense_gaussian_elimination(rows):
    assert _echelon_of(rows).rank == _dense_rank(rows)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(_vectors(_q), max_size=6),
    st.lists(_vectors(_native), max_size=6),
    st.lists(_vectors(_qa()), max_size=4),
    st.lists(_vectors(st.one_of(_native, _qa())), max_size=4),
))
def test_read_off_annihilates_every_inserted_row(rows):
    ech = _echelon_of(rows)
    expr = ech.read_off()
    assert set(expr) == set(ech.rows)
    for q in {k for e in expr.values() for k in e}:
        assert q not in expr
    for row in rows:
        assert _substitute(row, expr) == {}
    assert all(_no_float(vec) for vec in ech.rows.values())
    assert all(_no_float(e) for e in expr.values())


def _settled(v):
    """An int, or a Fraction that is not an integer."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_vectors(_native), max_size=6))
def test_native_rows_stay_native(rows):
    # over Q the echelon never leaves int and Fraction: no float, no Scalar,
    # and no Fraction with denominator 1 in a stored row or a read-off
    ech = _echelon_of(rows)
    for vec in ech.rows.values():
        assert all(_settled(v) for v in vec.values()), vec
    for e in ech.read_off().values():
        assert all(_settled(v) for v in e.values())


def test_native_pivots_are_exact():
    # an int pivot is inverted as a Fraction, never as a float; the stored
    # pivot is the int 1
    ech = Echelon()
    assert ech.insert({0: 3, 1: 1}) == 0
    vec, = ech.rows.values()
    assert vec == {0: 1, 1: Fraction(1, 3)}
    assert type(vec[0]) is int and type(vec[1]) is Fraction
    # unit pivots keep the row on int; a negative unit flips its sign
    ech.insert({2: -1, 3: 4})
    assert ech.rows[2] == {2: 1, 3: -4}
    assert all(type(v) is int for v in ech.rows[2].values())
    assert ech.read_off() == {0: {1: Fraction(-1, 3)}, 2: {3: 4}}


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(True), st.lists(_vectors(_q), max_size=6), st.lists(_q, min_size=6, max_size=6),
              _vectors(_q)),
    st.tuples(st.just(False), st.lists(_vectors(_qa()), max_size=4),
              st.lists(_qa(), min_size=4, max_size=4), _vectors(_qa())),
))
def test_reduce_leaves_a_residual_off_the_pivots_and_in_the_coset(args):
    over_q, rows, weights, extra = args
    ech = _echelon_of(rows)
    in_span = _combine(list(zip(weights, rows)))
    for vec, spanned in ((in_span, True), (_combine([(ONE, in_span), (ONE, extra)]), False)):
        residual = dict(vec)
        ech.reduce(residual)
        assert not any(k in ech.rows for k in residual)
        if spanned:
            assert residual == {}
        # what reduce subtracted, vec - residual, lies in the span of the rows
        removed = _combine([(ONE, vec), (-ONE, residual)])
        if over_q:
            assert _dense_rank(rows + [removed]) == _dense_rank(rows)
        else:
            _echelon_of(rows).reduce(removed)
            assert removed == {}
