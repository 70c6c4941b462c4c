"""Exact field arithmetic over Q and over Q(a), the rational functions in one
indeterminate `a`.

Values are native where they are made (`native` converts): a rational
constant is an `int` or a `Fraction`, and only a value that involves a is a
`Scalar`.  So the Gram and Cartan matrices, the relation coefficients and
the linear algebra on them run on Python's own rationals, and this field
does the work only where the parameter a appears; `render` prints either
kind in one grammar.  There is no floating point anywhere in the package:
`Scalar` (each coefficient too) and `native` refuse a float with a TypeError.

A `Scalar` is kept in one canonical form (see the class), and each operation
builds that form directly from canonical operands, as Henrici's
cross-cancellation does for rationals (Knuth, TAOCP vol. 2, 4.5.1 and
4.6.1): a rational operand only scales or shifts the numerator, a product
cancels the two cross gcds before it multiplies, and an inverse swaps and
rescales.  Only a sum of two proper fractions runs the general normaliser,
`Scalar(num, den)`, which stays the constructor and the reference that the
tests compare each shortcut with.
"""

from __future__ import annotations

from fractions import Fraction


FORBIDDEN_ALPHA = (Fraction(0), Fraction(-1))


def exact(c):
    """The `Fraction` of an `int` or a `Fraction`; TypeError for anything
    else.  A float is refused: it holds a binary approximation, and 0.1
    would enter as 3602879701896397/36028797018963968."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise TypeError(f"{c!r} is not exact: pass an int or a Fraction")


def _trim(coeffs):
    """The polynomial of a list of `Fraction` coefficients, taken as they
    are: the trailing zeros are popped and the rest is the tuple.  A
    polynomial over Q is always such a tuple, by ascending degree with no
    trailing zero (() for zero), and each `_poly_*` function returns one."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(p, r):
    if len(p) < len(r):
        p, r = r, p
    out = list(p)
    for i, c in enumerate(r):
        out[i] += c
    return _trim(out)


def _poly_neg(p):
    return tuple([-c for c in p])


def _poly_mul(p, r):
    if not p or not r:
        return ()
    if len(p) == 1:
        return _poly_scale(r, p[0])
    if len(r) == 1:
        return _poly_scale(p, r[0])
    out = [_FRACTION_ZERO] * (len(p) + len(r) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(r):
            out[i + j] += c * d
    return _trim(out)


def _poly_scale(p, k):
    """k times p for a rational k; p itself when k = 1."""
    if k == 1:
        return p
    return _trim([c * k for c in p])


def _poly_divmod(p, d):
    """Quotient and remainder of p by a nonzero d."""
    rem = list(p)
    quo = [_FRACTION_ZERO] * max(len(rem) - len(d) + 1, 0)
    while len(rem) >= len(d):
        k = len(rem) - len(d)
        f = rem[-1] / d[-1]
        quo[k] = f
        for i, c in enumerate(d):
            rem[k + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return _trim(quo), tuple(rem)


def _poly_gcd(a, b):
    """The monic gcd; `_ONE_POLY` as soon as a remainder is a nonzero
    constant, which divides everything.

    Two linear polynomials, the common case on D(2,1;a), take no division:
    each has one root, -a0/a1 and -b0/b1, and these agree exactly when
    a0*b1 = a1*b0.  Then a is a multiple of b, and the gcd is b made monic;
    otherwise they are coprime.  Any other degree runs Euclid."""
    if len(a) == 2 == len(b):
        if a[0] * b[1] != a[1] * b[0]:
            return _ONE_POLY
        return b if b[1] == 1 else (b[0] / b[1], _FRACTION_ONE)
    while b:
        if len(b) == 1:
            return _ONE_POLY
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_scale(a, 1 / a[-1]) if a else a


def _exact_quotient(p, g):
    """p / g for a monic g that divides p, as `_poly_gcd` returns it: p
    itself when g is the constant 1, and the constant (p[-1],) when g has
    p's degree, since then p = p[-1] * g."""
    if len(g) == 1:
        return p
    return (p[-1],) if len(p) == len(g) else _poly_divmod(p, g)[0]


_ONE_POLY = (Fraction(1),)
_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _coefficients(x):
    """The polynomial of an `int`, a `Fraction` or a list or tuple of them,
    each converted by `exact`."""
    return _trim([exact(c) for c in (x if isinstance(x, (list, tuple)) else (x,))])


def _scalar(num, den):
    """The Scalar num/den of a pair already in canonical form."""
    s = object.__new__(Scalar)
    s.num, s.den = num, den
    return s


def _rational(q):
    """Canonical Scalar of the `Fraction` q."""
    return _scalar((q,) if q else (), _ONE_POLY)


def _constant(x):
    """The Fraction value of a rational constant Scalar, or None."""
    if x.den is _ONE_POLY:
        c = x.num
        if not c:
            return _FRACTION_ZERO
        if len(c) == 1:
            return c[0]
    return None


def _value(x):
    """x as a rational when it is one (an `int`, a `Fraction`, or the
    `Fraction` of a constant Scalar), else the Scalar x, which involves a;
    NotImplemented for any other type."""
    if isinstance(x, Scalar):
        q = _constant(x)
        return x if q is None else q
    if isinstance(x, (int, Fraction)):
        return x
    return NotImplemented


def _sum(x, y):
    """x + y for two `_value`s, at least one of them a `Fraction` or a
    Scalar (so a rational sum is a `Fraction`)."""
    if type(x) is Scalar:
        return _sum_proper(x, y) if type(y) is Scalar else _shift(x, y)
    if type(y) is Scalar:
        return _shift(y, x)
    return _rational(x + y)


def _sum_proper(x, y):
    """x + y for two Scalars that involve a.

    Two polynomials (denominator 1 on both sides) add with no gcd: the sum
    is a polynomial, canonical over 1 whatever its degree, zero included.
    Only a sum with a proper fraction on a side runs the general normaliser:
    n1/d1 + n2/d2 can cancel against any factor of d1*d2."""
    if x.den is _ONE_POLY and y.den is _ONE_POLY:
        return _scalar(_poly_add(x.num, y.num), _ONE_POLY)
    num = _poly_add(_poly_mul(x.num, y.den), _poly_mul(y.num, x.den))
    return Scalar(num, _poly_mul(x.den, y.den))


def _shift(x, q):
    """x + q for x = n/d that involves a and a rational q: (n + q*d)/d.

    No gcd is needed: gcd(n + q*d, d) = gcd(n, d) = 1, and d is kept, so it
    stays monic (and `_ONE_POLY` when it is 1).  The sum still involves a:
    for d = 1 the constant term moves and the degree of n, at least 1,
    stays; for d != 1 the denominator stays."""
    if not q:
        return x
    n, d = x.num, x.den
    if d is _ONE_POLY:
        coeffs = list(n)
        coeffs[0] += q
        return _scalar(tuple(coeffs), d)
    return _scalar(_poly_add(n, _poly_scale(d, q)), d)


def _scale(x, q):
    """q * x for x = n/d that involves a and a rational q: (q*n)/d.

    For q != 0, gcd(q*n, d) = gcd(n, d) = 1 and d is kept, so q*n/d is
    canonical as it stands; q = 0 gives the canonical zero."""
    if not q:
        return _rational(_FRACTION_ZERO)
    if q == 1:
        return x
    return _scalar(_poly_scale(x.num, q), x.den)


def _product(x, y):
    """x * y for two Scalars that involve a, by Henrici's cross-cancellation.

    With x = n1/d1 and y = n2/d2 canonical, let g1 = gcd(n1, d2) and
    g2 = gcd(n2, d1).  Then (n1/g1)(n2/g2) / ((d1/g2)(d2/g1)) is canonical:
    n1/g1 is prime to d2/g1 by the choice of g1 and to d1/g2, a factor of
    d1, since gcd(n1, d1) = 1; likewise for n2/g2.  The denominator is a
    product of quotients of monic polynomials by monic gcds, so it is monic;
    when it has degree 0 it is 1, and the shared `_ONE_POLY` is used.  A
    side with denominator 1 has no gcd to cancel."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if d2 is not _ONE_POLY:
        g = _poly_gcd(n1, d2)
        n1, d2 = _exact_quotient(n1, g), _exact_quotient(d2, g)
    if d1 is not _ONE_POLY:
        g = _poly_gcd(n2, d1)
        n2, d1 = _exact_quotient(n2, g), _exact_quotient(d1, g)
    den = _poly_mul(d1, d2)
    return _scalar(_poly_mul(n1, n2), _ONE_POLY if len(den) == 1 else den)


class Scalar:
    """Element of Q(a) in canonical form: gcd(num, den) = 1, den monic.

    Rationals embed as degree-zero numerators over denominator 1, so equality
    and hashing agree with rational equality on that subfield.  Every
    canonical Scalar whose denominator is 1 holds the shared `_ONE_POLY`
    object, so a rational constant is recognised by identity: its `den` is
    `_ONE_POLY` and its numerator has one `Fraction` coefficient (none for
    zero).  The form is unique, so `==`, `hash` and `render` see the same
    coefficients however a value was computed.

    Where each canonical form comes from:

    - `Scalar(num, den)`, the constructor, normalises any pair: it divides
      out the polynomial gcd and makes the denominator monic.  Each of
      `num` and `den` is an `int`, a `Fraction`, or a list or tuple of
      them as coefficients by ascending degree.
    - Arithmetic between two constants is plain `Fraction` arithmetic, with
      no polynomial gcd; an `int` or `Fraction` operand is used as it is.
    - A rational operand meeting a value that involves a shifts or scales
      the numerator and keeps the denominator (`_shift`, `_scale`, and
      division by q as the scale by 1/q).
    - Two polynomials add over 1 with no gcd; a product cancels the two
      cross gcds first (`_product`); `inverse` swaps and rescales.
    - Only a sum with a proper fraction on a side runs `Scalar(num, den)`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None):
        if isinstance(num, Scalar):
            if den is not None:
                raise TypeError("cannot re-wrap a Scalar with a denominator")
            self.num, self.den = num.num, num.den
            return
        num = _coefficients(num)
        den = _ONE_POLY if den is None else _coefficients(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(a)")
        if not num:
            self.num, self.den = (), _ONE_POLY
            return
        if len(den) == 1:
            # gcd(num, d) = 1 for a constant d: the canonical form is num/d over 1
            self.num, self.den = _poly_scale(num, 1 / den[0]), _ONE_POLY
            return
        g = _poly_gcd(num, den)
        num = _exact_quotient(num, g)
        den = _exact_quotient(den, g)
        lead = den[-1]
        if lead != 1:
            num = _poly_scale(num, 1 / lead)
            den = _poly_scale(den, 1 / lead)
        self.num, self.den = num, _ONE_POLY if den == _ONE_POLY else den

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return self.den is _ONE_POLY and len(self.num) < 2

    def as_fraction(self):
        q = _constant(self)
        if q is None:
            raise ValueError(f"{self} is not a rational constant")
        return q

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        y = _value(other)
        if y is NotImplemented:
            return NotImplemented
        return _sum(_value(self), y)

    __radd__ = __add__

    def __neg__(self):
        q = _constant(self)
        if q is not None:
            return _rational(-q)
        return _scalar(_poly_neg(self.num), self.den)

    def __sub__(self, other):
        y = _value(other)
        if y is NotImplemented:
            return NotImplemented
        return _sum(_value(self), -y)

    def __rsub__(self, other):
        y = _value(other)
        if y is NotImplemented:
            return NotImplemented
        return _sum(y, -_value(self))

    def __mul__(self, other):
        y = _value(other)
        if y is NotImplemented:
            return NotImplemented
        x = _value(self)
        if type(x) is Scalar:
            return _product(x, y) if type(y) is Scalar else _scale(x, y)
        if type(y) is Scalar:
            return _scale(y, x)
        return _rational(x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self * (1/other): a rational divisor q is the scale by 1/q, any
        other goes through `inverse`."""
        y = _value(other)
        if y is NotImplemented:
            return NotImplemented
        if type(y) is Scalar:
            return self * y.inverse()
        if not y:
            raise ZeroDivisionError("division by zero in Q(a)")
        return self * (_FRACTION_ONE / y)

    def __rtruediv__(self, other):
        """other / self for a rational other, as `linalg._reciprocal`'s
        `1 / c`: the inverse, scaled."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def inverse(self):
        """d/n for self = n/d, scaled by 1/lead(n) so that the denominator
        is monic.  Swapping keeps gcd 1, so no gcd is taken; a constant n
        leaves the denominator 1, held as `_ONE_POLY`."""
        n, d = self.num, self.den
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(a)")
        inv = _FRACTION_ONE / n[-1]
        if len(n) == 1:
            if d is _ONE_POLY:
                return _rational(inv)
            return _scalar(_poly_scale(d, inv), _ONE_POLY)
        return _scalar(_poly_scale(d, inv), _poly_scale(n, inv))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return _constant(self) == other
        return NotImplemented

    def __hash__(self):
        q = _constant(self)
        if q is not None:
            return hash(q)
        return hash((self.num, self.den))

    def __reduce__(self):
        """Pickle and copy through the constructor, which restores `_ONE_POLY`."""
        return Scalar, (self.num, self.den)

    def sign_on_positive_a(self):
        """Sign in {-1, 0, +1} that this function keeps for every a > 0.

        The sign is proved, not sampled, by Descartes' rule of signs with no
        sign change: a polynomial whose nonzero coefficients all share one
        sign has that sign at every a > 0.  When the numerator and the
        denominator each pass this test the quotient's sign is theirs
        multiplied; otherwise raises ValueError, since the sign may vary.
        """
        if self.is_zero():
            return 0
        sign = 1
        for poly in (self.num, self.den):
            signs = {c > 0 for c in poly if c}
            if len(signs) != 1:
                raise ValueError(f"the sign of {self.render()} is not constant on a > 0")
            if not signs.pop():
                sign = -sign
        return sign

    # -- text form ---------------------------------------------------------

    def render(self):
        """Fixed textual grammar: rationals as 'p/q', e.g. '-(1+a)/a'.

        A numerator of several terms is parenthesised unless its text is
        already '-(...)'.  `_render_poly` never starts with '(', and starts
        with '-(' only when it negates several terms, which it then wraps
        whole, with no parenthesis inside (its terms are signed
        coefficients and powers of a).  So '-(' at the start means the
        parentheses span the rest of the text."""
        num, den = _render_poly(self.num), _render_poly(self.den)
        if self.den == _ONE_POLY:
            return num
        if _needs_parens(self.num) and not num.startswith("-("):
            num = f"({num})"
        if _needs_parens(self.den) or den.startswith("-"):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return self.render()


ZERO = Scalar(0)
ONE = Scalar(1)
ALPHA = Scalar((0, 1))


def native(c):
    """An exact value in the cheapest type that holds it: a rational
    constant as `int` when integral, else `Fraction`; a value that involves
    the parameter a stays its `Scalar`.  `RootDatum.form_value`,
    `cartan_matrix` and `SerrePolynomial` convert with this at the source,
    so a datum without the parameter runs on Python's own rationals.  An
    `int` is returned as it is (a `bool` is not an `int` here); a float is
    refused with a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Scalar):
        if not c.is_constant():
            return c
        c = c.as_fraction()
    elif type(c) is not Fraction:
        c = exact(c)
    return c.numerator if c.denominator == 1 else c


def ratio(num, den):
    """num / den for native values, den != 0, native again.  For two `int`s
    it is the `int` quotient when den divides num, found without building a
    `Fraction`, else the reduced `Fraction`; anything else divides in its
    own type (`Fraction`, or `Scalar` where a appears) and is converted by
    `native`."""
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return native(num / den)


def render(c):
    """Text of an exact value in `Scalar.render`'s grammar: `c.render()` for
    a `Scalar`, `str(c)` for an `int` or a `Fraction`.

    This equals `Scalar(c).render()` for a rational c.  `Scalar(c)` has the
    degree-0 numerator (c,) over the shared denominator 1 (none for zero),
    so `render` returns `_render_poly` of the numerator alone.  That is "0"
    for zero, which is `str(0)`; else the one coefficient's `str`, with the
    sign pulled out and put back when c < 0: "-" + str(-c), which is
    `str(c)` for an `int` and for a `Fraction` ('-3/2', '5', never '5/1').
    So rational output is the same text without building a `Scalar`.
    """
    return c.render() if isinstance(c, Scalar) else str(c)


def _needs_parens(p):
    return sum(1 for c in p if c != 0) > 1


def _render_poly(p):
    if not p:
        return "0"
    # ascending powers, leading minus pulled out when every term is negative
    negate = all(c <= 0 for c in p)
    coeffs = [-c for c in p] if negate else p
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mon = "a" if k == 1 else f"a^{k}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
            parts.append(term)
    text = parts[0]
    for t in parts[1:]:
        text += t if t.startswith("-") else "+" + t
    if negate:
        text = f"-({text})" if len(parts) > 1 else f"-{text}"
    return text


# -- parser for the same grammar ------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text.replace(" ", "")
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ValueError(f"expected {ch!r} at {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self):
        v = self.expr()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.pos} in {self.text!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            f = self.factor()
            v = v * f if op == "*" else v / f
        return v

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        if self.peek() == "+":
            self.pos += 1
            return self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.pos += 1
            at, n = self.pos, self.integer()
            if n * max(1, len(v.num) - 1, len(v.den) - 1) > 64:  # time grows as n squared, even for 2^n
                raise ValueError(f"power of degree above 64 at {at} in {self.text!r}")
            out = ONE
            for _ in range(n):
                out = out * v
            return out
        return v

    def atom(self):
        if self.peek() == "(":
            self.take("(")
            v = self.expr()
            self.take(")")
            return v
        if self.peek() == "a":
            self.pos += 1
            return ALPHA
        return Scalar(self.integer())

    def integer(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])


def parse_scalar(text):
    """Inverse of Scalar.render for the fixed grammar ('a' is the parameter)."""
    return _Parser(text).parse()
