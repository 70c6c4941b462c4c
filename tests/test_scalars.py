import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AlphaDomainError, PoleError, evaluate_at
from superserre.linalg import _reciprocal
from superserre.scalars import (
    ALPHA,
    ONE,
    Scalar,
    ZERO,
    _ONE_POLY,
    _exact_quotient,
    _poly_add,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_neg,
    _poly_scale,
    native,
    parse_scalar,
    render,
)


def test_rational_arithmetic():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))
    assert Scalar(3) * Scalar(Fraction(1, 3)) == ONE
    assert (Scalar(2) - Scalar(5)) == Scalar(-3)


def test_alpha_cancellation():
    # a * (1+a)/a = 1+a
    x = ALPHA * ((ONE + ALPHA) / ALPHA)
    assert x == ONE + ALPHA


def test_powers_are_bounded_in_degree():
    # numerator and denominator degree at most 64, nested powers included
    assert len(parse_scalar("a^64").num) - 1 == 64
    assert parse_scalar("(a^8)^8") == parse_scalar("a^64")
    assert parse_scalar("2^64") == Scalar(2**64)
    for text in ("a^65", "(1/a)^65", "(a^9)^8", "(1+a)^2000", "2^65"):
        with pytest.raises(ValueError, match="power of degree above 64 at"):
            parse_scalar(text)


def test_inverse():
    v = -(ONE + ALPHA)
    assert v.inverse() == Scalar(-1) / (ONE + ALPHA)
    assert (v * v.inverse()) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / Scalar(0)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_canonical_form_monic_denominator():
    # 2a / (2+2a) must normalize to a/(1+a)
    x = (ALPHA * 2) / (Scalar(2) + ALPHA * 2)
    assert x == ALPHA / (ONE + ALPHA)
    assert x.den[-1] == 1


def test_evaluate_at():
    assert evaluate_at(-(ONE + ALPHA), 1) == Fraction(-2)
    assert evaluate_at(ALPHA / (ONE + ALPHA), 2) == Fraction(2, 3)


def test_evaluate_forbidden_and_pole():
    with pytest.raises(AlphaDomainError):
        evaluate_at(ALPHA, 0)
    with pytest.raises(AlphaDomainError):
        evaluate_at(ALPHA, -1)
    with pytest.raises(PoleError):
        evaluate_at(ONE / ALPHA, Fraction(0))  # the pole check fires first
    with pytest.raises(PoleError):
        evaluate_at(ONE / (ALPHA - 2), 2)


def test_render_and_parse_round_trip():
    cases = [
        Scalar(Fraction(-5, 6)),
        ALPHA,
        -(ONE + ALPHA) / ALPHA,
        (ALPHA * ALPHA - 1) / (ALPHA * 3),
        Scalar(0),
    ]
    for x in cases:
        assert parse_scalar(x.render()) == x
    assert (-(ONE + ALPHA) / ALPHA).render() == "-(1+a)/a"


def test_sign_on_positive_a():
    assert (ALPHA * 2).sign_on_positive_a() == 1
    assert (-(ONE + ALPHA)).sign_on_positive_a() == -1
    assert Scalar(0).sign_on_positive_a() == 0
    assert Scalar(Fraction(-3, 4)).sign_on_positive_a() == -1
    assert (-(ONE + ALPHA) / ALPHA).sign_on_positive_a() == -1
    assert (ALPHA / (ALPHA * ALPHA + 2)).sign_on_positive_a() == 1


def test_sign_on_positive_a_refuses_a_sign_change():
    # a - 2 is negative on (0, 2) and positive beyond; sampling at a = 1 said -1
    for x in (ALPHA - 2, ONE / (ALPHA - 2), (ALPHA + 1) / (ALPHA * ALPHA - 3)):
        with pytest.raises(ValueError, match="not constant"):
            x.sign_on_positive_a()


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def _scalars(draw):
    num = [Fraction(draw(_small)) for _ in range(draw(st.integers(0, 2)) + 1)]
    den = [Fraction(draw(_small)) for _ in range(draw(st.integers(0, 2)) + 1)]
    if not any(den):
        den = [1]
    return Scalar(num, den)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert a - a == Scalar(0)
    if not a.is_zero():
        assert a * a.inverse() == ONE


@settings(max_examples=40, deadline=None)
@given(_scalars())
def test_canonicalization_idempotent(a):
    again = Scalar(a.num, a.den)
    assert again == a
    assert again.num == a.num and again.den == a.den


_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=60)


def _assert_round_trip(x):
    parsed = parse_scalar(x.render())
    assert parsed == x and hash(parsed) == hash(x)
    assert parsed.render() == x.render()


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions)
def test_rational_fast_path_agrees_with_fraction(p, q):
    x, y = Scalar(p), Scalar(q)
    results = [(x + y, p + q), (x - y, p - q), (x * y, p * q), (-x, -p)]
    if q:
        results += [(x / y, p / q), (y.inverse(), 1 / q)]
    for value, expected in results:
        assert value.as_fraction() == expected
        assert value == Scalar(expected) and hash(value) == hash(expected)
        assert value.den is _ONE_POLY
        assert all(type(c) is Fraction for c in value.num)
        _assert_round_trip(value)


def _assert_canonical(value, num, den):
    """`value` is the canonical form of num/den: same element, coprime
    numerator and denominator, monic denominator, shared unit denominator."""
    assert _poly_mul(value.num, den) == _poly_mul(num, value.den)
    assert value.den[-1] == 1
    if value.is_zero():
        assert value.den is _ONE_POLY
    else:
        assert _poly_gcd(value.num, value.den) == (1,)
    assert (value.den is _ONE_POLY) == (value.den == (1,))
    _assert_round_trip(value)


@settings(max_examples=100, deadline=None)
@given(_fractions, _scalars())
def test_mixed_constant_and_qa_operands_stay_canonical(p, a):
    c = _trimmed([p])
    x = Scalar(p)
    _assert_canonical(x + a, _poly_add(_poly_mul(c, a.den), a.num), a.den)
    _assert_canonical(a - x, _poly_sub(a.num, _poly_mul(c, a.den)), a.den)
    _assert_canonical(x * a, _poly_mul(c, a.num), a.den)
    if not a.is_zero():
        _assert_canonical(x / a, _poly_mul(c, a.den), a.num)
        _assert_canonical(a.inverse(), a.den, a.num)
    if p:
        _assert_canonical(a / x, a.num, _poly_mul(c, a.den))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=-10**9, max_value=10**9), _fractions))
def test_render_of_a_rational_equals_the_scalar_text(c):
    # `render` prints int and Fraction with `str`, building no Scalar
    assert render(c) == Scalar(c).render()
    assert render(native(c)) == render(c)
    if type(c) is int:
        assert native(c) is c


def _coefficient_lists_product(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_sub(p, r):
    return _poly_add(p, _poly_neg(r))


_polys = st.lists(_small, max_size=4).map(lambda coeffs: _trimmed(map(Fraction, coeffs)))
_nonzero_polys = _polys.filter(bool)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _fractions)
def test_poly_operations_agree_with_coefficient_lists(p, r, k):
    a, b = list(p), list(r)
    n = max(len(a), len(b))
    pairs = list(zip(a + [0] * (n - len(a)), b + [0] * (n - len(b))))
    assert _poly_add(p, r) == _trimmed(x + y for x, y in pairs)
    assert _poly_sub(p, r) == _trimmed(x - y for x, y in pairs)
    assert _poly_mul(p, r) == _trimmed(_coefficient_lists_product(a, b))
    assert _poly_scale(p, k) == _trimmed(c * k for c in a)
    for value in (_poly_add(p, r), _poly_sub(p, r), _poly_mul(p, r), _poly_scale(p, k), _poly_neg(p)):
        assert all(type(c) is Fraction for c in value)
        assert not value or value[-1] != 0


def _euclid_gcd(a, b):
    """Monic gcd of two coefficient tuples by the textbook Euclid loop, each
    remainder taken by long division written out here."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            f, k = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] -= f * c
            a = list(_trimmed(a))
        a, b = b, a
    return tuple(c / a[-1] for c in a)


_linear_polys = st.tuples(_fractions, _fractions.filter(bool))


@settings(max_examples=200, deadline=None)
@given(_linear_polys, _linear_polys, _fractions.filter(bool))
def test_gcd_of_two_linear_polynomials_is_euclids(a, b, k):
    # a random pair is almost always coprime; k * b shares b's root; a and
    # 2a share the root 0
    for p, r in ((a, b), (_poly_scale(b, k), b), (b, _poly_scale(b, k)), ((0, 1), (0, 2))):
        p, r = tuple(map(Fraction, p)), tuple(map(Fraction, r))
        got = _poly_gcd(p, r)
        assert got == _euclid_gcd(p, r)
        assert all(type(c) is Fraction for c in got)
        if len(got) == 1:
            assert got is _ONE_POLY
        else:
            assert got[-1] == 1 and p[0] * r[1] == p[1] * r[0]


@settings(max_examples=150, deadline=None)
@given(_nonzero_polys, _fractions.filter(bool))
def test_exact_quotient_by_a_monic_divisor_of_equal_degree_is_a_constant(g, k):
    g = _poly_scale(g, 1 / g[-1])  # monic, as `_poly_gcd` returns it
    p = _poly_scale(g, k)
    q, rem = _poly_divmod(p, g)
    assert rem == ()
    assert _exact_quotient(p, g) == q == (k,)


def _assert_as_oracle(value, num, den):
    """`value` carries exactly the form the general constructor gives num/den."""
    oracle = Scalar(num, den)
    assert value.num == oracle.num
    assert value.den == oracle.den
    assert value.render() == oracle.render()
    assert value == oracle and hash(value) == hash(oracle)
    assert (value.den is _ONE_POLY) == (value.den == (Fraction(1),))
    assert all(type(c) is Fraction for c in value.num + value.den)


@settings(max_examples=150, deadline=None)
@given(_nonzero_polys, _nonzero_polys, _nonzero_polys, _nonzero_polys, _nonzero_polys)
def test_product_with_cross_factors_matches_the_constructor(f, g, h, k, m):
    # f is built into the numerator of x and the denominator of y, so the
    # cross gcds of x * y are not trivial
    x, y = Scalar(_poly_mul(f, g), h), Scalar(k, _poly_mul(f, m))
    _assert_as_oracle(x * y, _poly_mul(x.num, y.num), _poly_mul(x.den, y.den))
    _assert_as_oracle(y * x, _poly_mul(x.num, y.num), _poly_mul(x.den, y.den))
    _assert_as_oracle(x / y.inverse(), _poly_mul(x.num, y.num), _poly_mul(x.den, y.den))
    _assert_as_oracle(x / y, _poly_mul(x.num, y.den), _poly_mul(x.den, y.num))
    _assert_as_oracle(y * y, _poly_mul(y.num, y.num), _poly_mul(y.den, y.den))


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _fractions)
def test_polynomial_sums_match_the_constructor(p, r, c):
    x, y = Scalar(p), Scalar(r)
    _assert_as_oracle(x + y, _poly_add(p, r), _ONE_POLY)
    _assert_as_oracle(x - y, _poly_sub(p, r), _ONE_POLY)
    # the degree collapses: (p + c) - p = c, and p - p = 0
    collapsed = Scalar(_poly_add(p, _trimmed([c])))
    _assert_as_oracle(collapsed - x, _trimmed([c]), _ONE_POLY)
    _assert_as_oracle(x - x, (), _ONE_POLY)
    _assert_as_oracle(x + (-x), (), _ONE_POLY)


_rationals = st.one_of(st.sampled_from([0, 1, -1]), _small, _fractions)


@settings(max_examples=200, deadline=None)
@given(_rationals, _scalars())
def test_rational_operands_on_either_side_match_the_constructor(q, a):
    c = _trimmed([Fraction(q)])
    n, d = a.num, a.den
    _assert_as_oracle(a + q, _poly_add(n, _poly_mul(c, d)), d)
    _assert_as_oracle(q + a, _poly_add(n, _poly_mul(c, d)), d)
    _assert_as_oracle(a - q, _poly_sub(n, _poly_mul(c, d)), d)
    _assert_as_oracle(q - a, _poly_sub(_poly_mul(c, d), n), d)
    _assert_as_oracle(a * q, _poly_mul(c, n), d)
    _assert_as_oracle(q * a, _poly_mul(c, n), d)
    if q:
        _assert_as_oracle(a / q, n, _poly_mul(c, d))
    if a:
        _assert_as_oracle(q / a, _poly_mul(c, d), n)


@settings(max_examples=150, deadline=None)
@given(_nonzero_polys, _nonzero_polys, st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 4)]))
def test_inverse_of_a_non_monic_numerator_matches_the_constructor(p, r, lead):
    # a monic denominator of degree >= 1 keeps the numerator's lead coefficient
    x = Scalar(list(p) + [lead], list(r) + [1])
    assert x.num[-1] != 1
    _assert_as_oracle(x.inverse(), x.den, x.num)
    _assert_as_oracle(_reciprocal(x), x.den, x.num)
    _assert_as_oracle(1 / x, x.den, x.num)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scalar([1, 0.1]),
        lambda: Scalar(1, [1, 0.5]),
        lambda: Scalar(0.1),
        lambda: Scalar(1, 0.5),
        lambda: native(0.1),
        lambda: evaluate_at(ALPHA, 0.1),
    ],
    ids=["Scalar-num-coefficient", "Scalar-den-coefficient", "Scalar-num", "Scalar-den", "native", "evaluate_at"],
)
def test_a_float_is_refused(build):
    with pytest.raises(TypeError, match="0.1|0.5"):
        build()


def test_a_float_operand_is_refused():
    for op in (lambda: ALPHA + 0.5, lambda: 0.5 * ALPHA, lambda: 0.5 / ALPHA, lambda: ALPHA - 0.5):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize(
    "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
@pytest.mark.parametrize(
    "x",
    [ZERO, ONE, Scalar(Fraction(3, 2)), ALPHA, (ONE + ALPHA) / ALPHA],
    ids=["zero", "one", "three-halves", "a", "(1+a)/a"],
)
def test_a_copied_scalar_keeps_its_canonical_form(round_trip, x):
    y = round_trip(x)
    assert y == x and hash(y) == hash(x)
    assert y.is_constant() == x.is_constant()
    assert (y.den is _ONE_POLY) == (y.den == _ONE_POLY)
    assert native(y) == native(x) and type(native(y)) is type(native(x))
