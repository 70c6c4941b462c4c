"""Exact field arithmetic over Q and over Q(a), the rational functions in one
indeterminate `a`.

Values are native where they are made (`native` converts): a rational
constant is an `int` or a `Fraction`, and only a value that involves a is a
`Scalar`.  So the Gram and Cartan matrices, the relation coefficients and
the linear algebra on them run on Python's own rationals, and this field
does the work only where the parameter a appears; `render` prints either
kind in one grammar.  There is no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction


class AlphaDomainError(ValueError):
    """Raised when the deformation parameter is specialised to 0 or -1."""


class PoleError(ZeroDivisionError):
    """Raised when a substitution makes a denominator vanish."""


FORBIDDEN_ALPHA = (Fraction(0), Fraction(-1))


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Dense univariate polynomial over Q, coefficients by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(Fraction(c) for c in coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = a + (Fraction(0),) * (n - len(a))
        b = b + (Fraction(0),) * (n - len(b))
        return Poly(x + y for x, y in zip(a, b))

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return Poly(out)

    def scale(self, k):
        return Poly(c * k for c in self.coeffs)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
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
        return Poly(quo), Poly(rem)

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly(c / lead for c in self.coeffs)

    def evaluate(self, a0):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a0 + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _poly_gcd(a, b):
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


_ONE_POLY = Poly([1])
_FRACTION_ZERO = Fraction(0)


def _constant_poly(q):
    """Poly of the rational q, built without normalising."""
    p = Poly.__new__(Poly)
    p.coeffs = (q,) if q else ()
    return p


def _rational(q):
    """Canonical Scalar of the rational q."""
    s = Scalar.__new__(Scalar)
    s.num, s.den = _constant_poly(q), _ONE_POLY
    return s


def _constant(x):
    """The Fraction value of a rational constant Scalar, or None."""
    if x.den is _ONE_POLY:
        c = x.num.coeffs
        if not c:
            return _FRACTION_ZERO
        if len(c) == 1:
            return c[0]
    return None


class Scalar:
    """Element of Q(a) in canonical form: gcd(num, den) = 1, den monic.

    Rationals embed as degree-zero numerators over denominator 1, so equality
    and hashing agree with rational equality on that subfield.  Every
    canonical Scalar whose denominator is 1 holds the shared `_ONE_POLY`
    object, so a rational constant is recognised by identity: its `den` is
    `_ONE_POLY` and its numerator has one `Fraction` coefficient (none for
    zero).  Arithmetic between two constants is plain `Fraction` arithmetic,
    with no polynomial gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None):
        if isinstance(num, Scalar):
            if den is not None:
                raise TypeError("cannot re-wrap a Scalar with a denominator")
            self.num, self.den = num.num, num.den
            return
        if not isinstance(num, Poly):
            num = _constant_poly(Fraction(num))
        if den is None:
            den = _ONE_POLY
        elif not isinstance(den, Poly):
            den = _constant_poly(Fraction(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(a)")
        if num.is_zero():
            self.num, self.den = Poly(), _ONE_POLY
            return
        if len(den.coeffs) == 1:
            # gcd(num, d) = 1 for a constant d: the canonical form is num/d over 1
            d = den.coeffs[0]
            if d != 1:
                num = _constant_poly(num.coeffs[0] / d) if len(num.coeffs) == 1 else num.scale(1 / d)
            self.num, self.den = num, _ONE_POLY
            return
        g = _poly_gcd(num, den)
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num, self.den = num, _ONE_POLY if den == _ONE_POLY else den

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num.coeffs

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_constant(self):
        return self.den is _ONE_POLY and len(self.num.coeffs) < 2

    def as_fraction(self):
        q = _constant(self)
        if q is None:
            raise ValueError(f"{self} is not a rational constant")
        return q

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _rational(Fraction(x))
        return NotImplemented

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = _constant(self), _constant(other)
        if p is not None and q is not None:
            return _rational(p + q)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        q = _constant(self)
        if q is not None:
            return _rational(-q)
        s = Scalar.__new__(Scalar)
        s.num, s.den = -self.num, self.den
        return s

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = _constant(self), _constant(other)
        if p is not None and q is not None:
            return _rational(p - q)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = _constant(self), _constant(other)
        if p is not None and q is not None:
            return _rational(p * q)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(a)")
        p, q = _constant(self), _constant(other)
        if p is not None and q is not None:
            return _rational(p / q)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Scalar(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(a)")
        q = _constant(self)
        if q is not None:
            return _rational(1 / q)
        return Scalar(self.den, self.num)

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        q = _constant(self)
        if q is not None:
            return hash(q)
        return hash((self.num, self.den))

    # -- specialisation ----------------------------------------------------

    def evaluate_at(self, a0):
        """Substitute a := a0 exactly; a0 must avoid {0, -1} and all poles."""
        a0 = Fraction(a0)
        d = self.den.evaluate(a0)
        if d == 0:
            raise PoleError(f"denominator of {self} vanishes at a = {a0}")
        if a0 in FORBIDDEN_ALPHA:
            raise AlphaDomainError(
                f"a = {a0} is excluded: the parameter ranges over C \\ {{0, -1}}"
            )
        return self.num.evaluate(a0) / d

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
            signs = {c > 0 for c in poly.coeffs if c}
            if len(signs) != 1:
                raise ValueError(f"the sign of {self.render()} is not constant on a > 0")
            if not signs.pop():
                sign = -sign
        return sign

    # -- text form ---------------------------------------------------------

    def render(self):
        """Fixed textual grammar: rationals as 'p/q', e.g. '-(1+a)/a'."""
        num, den = _render_poly(self.num), _render_poly(self.den)
        if self.den == _ONE_POLY:
            return num
        if _needs_parens(self.num) and not _is_wrapped(num):
            num = f"({num})"
        if _needs_parens(self.den) or den.startswith("-"):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return self.render()


ZERO = Scalar(0)
ONE = Scalar(1)
ALPHA = Scalar(Poly([0, 1]))


def native(c):
    """An exact value in the cheapest type that holds it: a rational
    constant as `int` when integral, else `Fraction`; a value that involves
    the parameter a stays its `Scalar`.  `RootDatum.form_value`,
    `cartan_matrix` and `SerrePolynomial` convert with this at the source,
    so a datum without the parameter runs on Python's own rationals.  An
    `int` is returned as it is (a `bool` is not an `int` here)."""
    if type(c) is int:
        return c
    if isinstance(c, Scalar):
        if not c.is_constant():
            return c
        c = c.as_fraction()
    elif type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(num, den):
    """num / den for integers, den != 0, as `native` gives it: the `int`
    quotient when den divides num, found without building a `Fraction`,
    else the reduced `Fraction`."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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
    return sum(1 for c in p.coeffs if c != 0) > 1


def _is_wrapped(text):
    """True for '(...)' or '-(...)' with the parentheses spanning everything."""
    if text.startswith("-("):
        body = text[1:]
    elif text.startswith("("):
        body = text
    else:
        return False
    if not body.endswith(")"):
        return False
    depth = 0
    for k, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and k < len(body) - 1:
            return False
    return True


def _render_poly(p):
    if p.is_zero():
        return "0"
    # ascending powers, leading minus pulled out when every term is negative
    negate = all(c <= 0 for c in p.coeffs)
    coeffs = [-c for c in p.coeffs] if negate else list(p.coeffs)
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
            n = self.integer()
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
