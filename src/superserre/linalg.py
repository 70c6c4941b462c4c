"""Sparse exact linear algebra over the Scalar field.

A vector is a dict key -> Scalar that stores no zero entry; keys are any
totally ordered values (word tuples, symbol indices, basis ids).  `axpy`
is the one accumulation step, and `Echelon` the one elimination, behind the
word expansion, the word-space ideal engine, the relation echelons of the
covering engine and the lowering-stability spans.
"""

from __future__ import annotations

from .scalars import ONE, ZERO


def axpy(dst, src, c=ONE):
    """dst += c * src in place, dropping entries that cancel; returns dst."""
    for k, v in src.items():
        nv = dst.get(k, ZERO) + (v if c is ONE else c * v)
        if nv.is_zero():
            dst.pop(k, None)
        else:
            dst[k] = nv
    return dst


class Echelon:
    """Sparse row echelon keyed by the least key of each row's support.

    Every stored row is scaled so that its pivot, the minimum of its
    support, has coefficient one; other entries lie above the pivot.
    Reducing by the least pivot hit therefore only introduces keys above it,
    so the sweep visits pivots in ascending order and terminates.  Rows may
    carry coordinates: the combination of inserted vectors they stand for.
    """

    def __init__(self):
        self.rows = {}  # pivot -> (vec, coords or None)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, coords=None):
        """Subtract stored rows from `vec` in place until no pivot is hit;
        `coords` (if given) records minus the combination subtracted."""
        rows = self.rows
        while True:
            p = min((k for k in vec if k in rows), default=None)
            if p is None:
                return
            rvec, rcoords = rows[p]
            c = -vec[p]
            axpy(vec, rvec, c)
            if coords is not None:
                axpy(coords, rcoords, c)

    def insert(self, vec, coords=None):
        """Reduce and, if independent, store; returns the new pivot or None."""
        self.reduce(vec, coords)
        if not vec:
            return None
        pivot = min(vec)
        inv = vec[pivot].inverse()
        vec = {k: c * inv for k, c in vec.items()}
        if coords is not None:
            coords = {j: c * inv for j, c in coords.items()}
        self.rows[pivot] = (vec, coords)
        return pivot

    def read_off(self):
        """Every pivot as a combination of non-pivot keys on the solution
        set of the stored rows, back-substituted in descending pivot order."""
        expr = {}
        for p in sorted(self.rows, reverse=True):
            acc = {}
            for q, c in self.rows[p][0].items():
                if q != p:
                    axpy(acc, expr.get(q, {q: ONE}), -c)
            expr[p] = acc
        return expr
