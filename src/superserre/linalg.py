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
with `not c`.  No float ever arises: the one inversion, `_reciprocal`,
never divides an `int` with `/`.

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


class Echelon:
    """Sparse row echelon keyed by the least key of each row's support.

    Every stored row is scaled so that its pivot, the minimum of its
    support, has coefficient one; other entries lie above the pivot.
    Reducing by the least pivot hit therefore only introduces keys above it,
    so the sweep visits pivots in ascending order and terminates.
    """

    def __init__(self):
        self.rows = {}  # pivot -> row vector

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Subtract stored rows from `vec` in place until no pivot is hit."""
        rows = self.rows
        while True:
            p = min((k for k in vec if k in rows), default=None)
            if p is None:
                return
            axpy(vec, rows[p], -vec[p])

    def insert(self, vec):
        """Reduce and, if independent, store; returns the new pivot or None.

        `vec` is reduced, scaled to pivot 1 and stored in place, so the
        caller must not reuse it.  The scaling keeps each integral entry as
        an `int` (`_settle`), the pivot included, also when the pivot was
        already 1 and nothing is multiplied: reduction by rows with
        `Fraction` entries may leave a `Fraction(n)` behind.  An echelon
        with no rows has nothing to reduce by, so `reduce` is skipped."""
        if self.rows:
            self.reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        self.rows[pivot] = _settle(vec, _reciprocal(vec[pivot]))
        return pivot

    def read_off(self):
        """Every pivot as a combination of non-pivot keys on the solution
        set of the stored rows, back-substituted in descending pivot order."""
        expr = {}
        for p in sorted(self.rows, reverse=True):
            acc = {}
            for q, c in self.rows[p].items():
                if q != p:
                    axpy(acc, expr.get(q, {q: 1}), -c)
            expr[p] = _settle(acc)
        return expr
