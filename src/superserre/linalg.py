"""Sparse exact linear algebra over Q and Q(a).

A vector is a dict key -> coefficient that stores no zero entry; keys are
any totally ordered values (word tuples, pair symbols, basis ids).  `axpy`
is the one accumulation step, and `Echelon` the one elimination, behind the
word expansion, the word-space ideal engine, the relation echelons of the
covering engine and the necessity test (`verify._necessity`).

Coefficients are exact and may be of any type closed under the field
operations with Python's operators: native `int` and `Fraction`, or
`Scalar` for Q(a).  The module names no coefficient type of its own: the
relation elements arrive with native coefficients (`SerrePolynomial`
converts them once), and only coefficients that involve a are `Scalar`,
which meets an `int` or a `Fraction` through its coercion.  Zero is tested
with `not c`.  No float ever arises: an `int` is never divided with `/`,
only exactly with `//` or into a `Fraction`.

`Echelon` stores a row in one of two kinds (the class says when).  A row of
native rationals is a primitive integer vector, reduced by
cross-multiplication as in fraction-free elimination (Bareiss, Math. Comp.
1968), so elimination over Q runs on `int` and builds no `Fraction` until
the read-off divides by a pivot entry.  A row that meets a `Scalar` is
scaled to pivot 1, since clearing its denominators would take a
polynomial gcd; such rows are few.  The reduced echelon form of a row
space is unique, so the read-off is the same whatever the kinds.

What the echelon makes, it makes native: a reciprocal, a stored row entry
and a read-off coefficient that is a `Fraction` with denominator 1 is kept
as its `int` (`_native`, a rule of this module, so that it imports nothing
from `scalars`).  Only the type changes: an `int` equals, and hashes as,
the `Fraction` it replaces, so every value, hence every support, pivot and
read-off, is what it was.
Later arithmetic on that entry runs on `int` and skips `Fraction`'s
normalisation, and a pivot `Fraction(1)` becomes the `int` 1 that spares a
row its rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def axpy(dst, src, c=1):
    """dst += c * src in place, dropping entries that cancel; returns dst.

    The `int` 1 skips the multiplication."""
    unit = type(c) is int and c == 1
    for k, v in src.items():
        if not unit:
            v = c * v
        old = dst.get(k)
        if old is not None:
            v = old + v
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)
    return dst


def _native(v):
    """v, or its `int` when v is a `Fraction` with denominator 1."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _settle(vec, c=1):
    """vec scaled by c in place, each `Fraction` entry with denominator 1
    replaced by its `int`; returns vec.  The `int` 1 skips the
    multiplication, and an entry that is no `Fraction` is left as it is:
    `_native` would return it unchanged."""
    unit = type(c) is int and c == 1
    for k, v in vec.items():
        if not unit:
            v = vec[k] = c * v
        if type(v) is Fraction:
            vec[k] = _native(v)
    return vec


def _reciprocal(c):
    """1 / c exactly, never a float, and an `int` when it is integral.

    A bare `1 / c` turns an `int` into a float, so an `int` goes through
    `Fraction(1, c)`, and the units 1 and -1 stay `int`.  `Fraction` and
    `Scalar` invert exactly with `/`; the inverse of a `Fraction` 1/n is
    the `int` n, so a pivot `Fraction(1)` or `Fraction(-1)` gives a unit.
    """
    if type(c) is int:
        return c if c == 1 or c == -1 else Fraction(1, c)
    return _native(1 / c)


def _clear_denominators(vec):
    """Whether every entry of vec is an `int` or a `Fraction`; if so, vec
    is scaled in place by the lcm of the denominators, so that every entry
    is an `int`, a `Fraction(n)` included.  A vector with another entry
    type is left as it is."""
    den = None  # while no entry is a Fraction
    for v in vec.values():
        t = type(v)
        if t is Fraction:
            den = v.denominator if den is None else lcm(den, v.denominator)
        elif t is not int:
            return False
    if den is not None:
        for k, v in vec.items():
            vec[k] = v.numerator * (den // v.denominator)
    return True


class Echelon:
    """Sparse row echelon keyed by the least key of each row's support.

    A stored row's pivot is the minimum of its support, and no two rows
    share one.  Reducing by the least pivot hit only introduces keys above
    it, so the sweep visits pivots in ascending order and terminates.  A
    row is stored in one of two kinds, decided once per insert:

    - An integer row, while every row of the echelon is one and the new
      vector's entries are all `int` or `Fraction`: its denominators are
      cleared with their lcm, it is reduced by cross-multiplication,
      c_p * vec - vec[p] * row with the common factor gcd(c_p, vec[p])
      taken out of both sides, and it is stored primitive (the gcd of its
      entries divided out) with a positive pivot entry c_p.  No `Fraction`
      is built until `read_off` divides by c_p.
    - A pivot-1 row, as soon as a `Scalar` is in play: such a vector is
      reduced by subtraction and scaled to pivot 1, and from then on so is
      every later vector, since reduction by a pivot-1 row can bring in a
      `Fraction` or a `Scalar`.  An integer row met on this path is used
      as row / c_p.  Clearing denominators over Q(a) would need polynomial
      gcds in every row, and these rows are rare: on the generic D(2,1;a)
      benchmark workload 11 of the 223 inserts of a pass carry a `Scalar`.

    Each kind spans what a pivot-1 echelon of the same rows spans, and the
    reduced echelon form of a row space is unique, so `read_off` returns
    the same values whatever the kinds of its rows.
    """

    def __init__(self):
        self.rows = {}  # pivot -> row vector
        self.integral = True  # every stored row is an integer row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Reduce `vec` in place until it hits no pivot; returns whether it
        took the integer path.

        On the integer path the denominators are cleared first and each
        step scales `vec` by a positive integer, so the residual is a
        nonzero multiple of an element of the coset vec + span; on the
        other path it is an element of the coset.  Either way it is zero
        exactly when `vec` lies in the span."""
        integral = self.integral and _clear_denominators(vec)
        rows = self.rows
        while True:
            p = min((k for k in vec if k in rows), default=None)
            if p is None:
                return integral
            row = rows[p]
            lead, c = row[p], vec[p]
            if lead != 1:
                if not integral:
                    c = Fraction(c, lead) if type(c) is int else c / lead
                else:
                    g = gcd(lead, c)
                    if g != lead:
                        s = lead // g
                        for k in vec:
                            vec[k] *= s
                    c //= g
            axpy(vec, row, -c)

    def insert(self, vec):
        """Reduce and, if independent, store; returns the new pivot or None.

        `vec` is reduced and stored in place, so the caller must not reuse
        it.  An integer row is divided by the gcd of its entries, negated
        if its pivot entry is negative.  A pivot-1 row is scaled by the
        reciprocal of its pivot entry, keeping each integral entry as an
        `int` (`_settle`), the pivot included, also when the pivot was
        already 1 and nothing is multiplied: reduction by rows with
        `Fraction` entries may leave a `Fraction(n)` behind."""
        integral = self.reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        if integral:
            g = gcd(*vec.values())
            if vec[pivot] < 0:
                g = -g
            if g != 1:
                for k, v in vec.items():
                    vec[k] = v // g
        else:
            self.integral = False
            _settle(vec, _reciprocal(vec[pivot]))
        self.rows[pivot] = vec
        return pivot

    def read_off(self):
        """Every pivot as a combination of non-pivot keys on the solution
        set of the stored rows, back-substituted in descending pivot order.
        Only here is an integer row divided by its pivot entry."""
        expr = {}
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            acc = {}
            for q, c in row.items():
                if q != p:
                    axpy(acc, expr.get(q, {q: 1}), -c)
            lead = row[p]
            expr[p] = _settle(acc, 1 if lead == 1 else Fraction(1, lead))
        return expr
