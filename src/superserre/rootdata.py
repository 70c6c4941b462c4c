"""Root systems of the simple contragredient Lie superalgebras.

Families: A(m,n), B(0,n), B(m,n) m>0, C(n) n>2, D(m,n) m>1, F(4), G(3) and
the one-parameter family D(2,1;a).  Provides the invariant bilinear form,
distinguished simple systems, odd reflections and the enumeration of simple
systems (one per conjugacy class of Borel subalgebras).

Basis symbols are strings: "e1", "e2", ... for the epsilons, "d1", "d2", ...
for the deltas, and a single "d" in F(4), G(3) and D(2,1;a).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .scalars import ALPHA, Scalar, native, ratio


class ParameterError(ValueError):
    """Family parameters outside the allowed range."""


class PreconditionError(ValueError):
    """An operation precondition is violated (e.g. reflecting at a
    non-isotropic simple root)."""


class InconsistencyError(RuntimeError):
    """A simple system fails to generate exactly half of the roots."""


FAMILIES = ("A", "B", "C", "D", "F4", "G3", "D21a")


class WeightVector:
    """Formal Q-combination of basis symbols; immutable and hashable."""

    __slots__ = ("_d", "_key")

    def __init__(self, data=()):
        d = {}
        items = data.items() if isinstance(data, dict) else data
        for sym, c in items:
            c = Fraction(c)
            if c:
                d[sym] = d.get(sym, Fraction(0)) + c
                if not d[sym]:
                    del d[sym]
        self._d = d
        self._key = tuple(sorted(d.items()))

    def coefficient(self, sym):
        return self._d.get(sym, Fraction(0))

    def symbols(self):
        return set(self._d)

    def items(self):
        return self._key

    def is_zero(self):
        return not self._d

    def __add__(self, other):
        d = dict(self._d)
        for s, c in other._d.items():
            d[s] = d.get(s, Fraction(0)) + c
        return WeightVector(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeightVector({s: -c for s, c in self._d.items()})

    def scale(self, k):
        k = Fraction(k)
        return WeightVector({s: c * k for s, c in self._d.items()})

    def __eq__(self, other):
        return isinstance(other, WeightVector) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self._key:
            return "0"
        parts = []
        for s, c in self._key:
            if c == 1:
                parts.append(f"+{s}")
            elif c == -1:
                parts.append(f"-{s}")
            else:
                parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{s}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def to_json(self):
        return {s: str(c) for s, c in self._key}


def wv(data):
    return WeightVector(data)


class RootDatum:
    """A root system with its bilinear form.

    alpha is None for the generic D(2,1;a) (scalars live in Q(a)) and a
    Fraction for a specialised member; it is ignored for other families.

    The form of every family is diagonal in the basis symbols: `form` has
    one entry (s, s) -> (s, s) per symbol and no others, each an exact value
    that `scalars.native` accepts.  The norms (b, b) of all roots are
    evaluated once here, for the isotropy check and for l_m^2, and
    `all_roots` is stored once.
    """

    def __init__(self, family, m, n, symbols, even_roots, odd_roots, form, alpha=None):
        self.family = family
        self.m = m
        self.n = n
        self.symbols = tuple(symbols)
        self.even_roots = frozenset(even_roots)
        self.odd_roots = frozenset(odd_roots)
        self.all_roots = self.even_roots | self.odd_roots
        self.alpha = alpha
        off_diagonal = [key for key in form if key[0] != key[1]]
        if off_diagonal:
            raise ValueError(f"the form of {self.name} is not diagonal: {off_diagonal}")
        self._symbol_set = frozenset(self.symbols)
        self._rational_diagonal = {}  # symbol -> int or Fraction
        self._parameter_diagonal = {}  # symbol -> non-constant Scalar (generic D(2,1;a))
        for (s, _), value in form.items():
            value = native(value)
            if isinstance(value, Scalar):
                self._parameter_diagonal[s] = value
            else:
                self._rational_diagonal[s] = value
        # In D(2,1;a) only the norms of +-2e1 do not depend on the parameter;
        # l_m^2 is taken from them for specialised members too, so that
        # specialising commutes with everything built on the Cartan matrix.
        fixed = {"e1"} if family == "D21a" else self._symbol_set
        isotropic = set()
        least = None
        for b in self.all_roots:
            norm = self.form_value(b, b)
            if not norm:
                if b in self.even_roots:
                    raise InconsistencyError(f"isotropic even root {b} in {self.name}")
                isotropic.add(b)
            elif not isinstance(norm, Scalar) and b.symbols() <= fixed:
                q = abs(norm)
                if least is None or q < least:
                    least = q
        self.isotropic_roots = frozenset(isotropic)
        self.min_square_length = least  # least fixed nonzero |(b, b)|, None if there is none

    @property
    def name(self):
        if self.family == "A":
            return f"A({self.m},{self.n})"
        if self.family == "B":
            return f"B({self.m},{self.n})"
        if self.family == "C":
            return f"C({self.n})"
        if self.family == "D":
            return f"D({self.m},{self.n})"
        if self.family == "D21a":
            return "D(2,1;a)" if self.alpha is None else f"D(2,1;{self.alpha})"
        return {"F4": "F(4)", "G3": "G(3)"}[self.family]

    def is_odd(self, root):
        if root in self.odd_roots:
            return True
        if root in self.even_roots:
            return False
        raise TypeError(f"{root} is not a root of {self.name}")

    def form_value(self, lam, mu):
        """(lam, mu), canonical through `scalars.native`: an `int` or a
        `Fraction` with denominator other than 1, and a `Scalar` only where
        the parameter a appears (generic D(2,1;a)).  So a zero value is
        tested with `not`.

        The form is diagonal, so one pass over the symbols of lam, looked up
        in mu, finds every contribution.  Rational entries are summed as one
        fraction in integer arithmetic; only the Q(a) entries of the generic
        D(2,1;a) are multiplied as Scalars, and their sum is converted by
        `native`, since it can be a constant (the norm of d + e1 + e2 is 0).
        """
        ld, md = lam._d, mu._d
        if not (ld.keys() <= self._symbol_set and md.keys() <= self._symbol_set):
            foreign = (ld.keys() | md.keys()) - self._symbol_set
            raise TypeError(f"foreign basis symbols {sorted(foreign)} for {self.name}")
        rational = self._rational_diagonal
        num, den = 0, 1  # the rational part, as num/den in integers
        parameter_part = None
        for s, c in ld.items():
            d = md.get(s)
            if d is None:
                continue
            w = rational.get(s)
            if w is not None:
                pn = w.numerator * c.numerator * d.numerator
                pd = w.denominator * c.denominator * d.denominator
                num, den = num * pd + pn * den, den * pd
            else:
                term = self._parameter_diagonal[s] * (c * d)
                parameter_part = term if parameter_part is None else parameter_part + term
        total = ratio(num, den)
        return total if parameter_part is None else native(total + parameter_part)


def bilinear(datum, lam, mu):
    return datum.form_value(lam, mu)


def _diag_form(pairs):
    form = {}
    for sym, value in pairs:
        form[(sym, sym)] = value
    return form


def build_root_datum(family, m=None, n=None, alpha=None):
    """Construct the root datum of a family; parameters are validated."""
    if family == "A":
        if m is None or n is None or m < 0 or n < 0 or (m, n) == (0, 0):
            raise ParameterError("A(m,n) needs m,n >= 0 and (m,n) != (0,0)")
        eps = [f"e{i}" for i in range(1, m + 2)]
        dts = [f"d{j}" for j in range(1, n + 2)]
        form = _diag_form([(s, 1) for s in eps] + [(s, -1) for s in dts])
        even = set()
        for a, b in product(range(m + 1), repeat=2):
            if a != b:
                even.add(wv({eps[a]: 1, eps[b]: -1}))
        for a, b in product(range(n + 1), repeat=2):
            if a != b:
                even.add(wv({dts[a]: 1, dts[b]: -1}))
        odd = set()
        for a in range(m + 1):
            for b in range(n + 1):
                odd.add(wv({eps[a]: 1, dts[b]: -1}))
                odd.add(wv({eps[a]: -1, dts[b]: 1}))
        return RootDatum("A", m, n, eps + dts, even, odd, form)

    if family == "B":
        if m is None or n is None or m < 0 or n < 1:
            raise ParameterError("B(m,n) needs m >= 0 and n >= 1")
        eps = [f"e{i}" for i in range(1, m + 1)]
        dts = [f"d{j}" for j in range(1, n + 1)]
        form = _diag_form([(s, 1) for s in eps] + [(s, -1) for s in dts])
        even, odd = set(), set()
        for a in range(m):
            for b in range(m):
                if a != b:
                    for sa, sb in product((1, -1), repeat=2):
                        even.add(wv({eps[a]: sa, eps[b]: sb}))
            for s in (1, -1):
                even.add(wv({eps[a]: s}))
        for a in range(n):
            for b in range(n):
                if a != b:
                    for sa, sb in product((1, -1), repeat=2):
                        even.add(wv({dts[a]: sa, dts[b]: sb}))
            for s in (1, -1):
                even.add(wv({dts[a]: 2 * s}))
                odd.add(wv({dts[a]: s}))
        for a in range(m):
            for b in range(n):
                for sa, sb in product((1, -1), repeat=2):
                    odd.add(wv({eps[a]: sa, dts[b]: sb}))
        return RootDatum("B", m, n, eps + dts, even, odd, form)

    if family == "C":
        if n is None or n <= 2:
            raise ParameterError("C(n) needs n > 2")
        eps = ["e1"]
        dts = [f"d{j}" for j in range(1, n)]
        form = _diag_form([("e1", 1)] + [(s, -1) for s in dts])
        even, odd = set(), set()
        for a in range(n - 1):
            for b in range(n - 1):
                if a != b:
                    for sa, sb in product((1, -1), repeat=2):
                        even.add(wv({dts[a]: sa, dts[b]: sb}))
            for s in (1, -1):
                even.add(wv({dts[a]: 2 * s}))
            for sa, sb in product((1, -1), repeat=2):
                odd.add(wv({"e1": sa, dts[a]: sb}))
        return RootDatum("C", None, n, eps + dts, even, odd, form)

    if family == "D":
        if m is None or n is None or m <= 1 or n < 1:
            raise ParameterError("D(m,n) needs m > 1 and n >= 1")
        eps = [f"e{i}" for i in range(1, m + 1)]
        dts = [f"d{j}" for j in range(1, n + 1)]
        form = _diag_form([(s, 1) for s in eps] + [(s, -1) for s in dts])
        even, odd = set(), set()
        for a in range(m):
            for b in range(m):
                if a != b:
                    for sa, sb in product((1, -1), repeat=2):
                        even.add(wv({eps[a]: sa, eps[b]: sb}))
        for a in range(n):
            for b in range(n):
                if a != b:
                    for sa, sb in product((1, -1), repeat=2):
                        even.add(wv({dts[a]: sa, dts[b]: sb}))
            for s in (1, -1):
                even.add(wv({dts[a]: 2 * s}))
        for a in range(m):
            for b in range(n):
                for sa, sb in product((1, -1), repeat=2):
                    odd.add(wv({eps[a]: sa, dts[b]: sb}))
        return RootDatum("D", m, n, eps + dts, even, odd, form)

    if family == "F4":
        syms = ["e1", "e2", "e3", "d"]
        form = _diag_form([("e1", 2), ("e2", 2), ("e3", 2), ("d", -6)])
        even, odd = set(), set()
        for a in range(3):
            for s in (1, -1):
                even.add(wv({syms[a]: s}))
            for b in range(a + 1, 3):
                for sa, sb in product((1, -1), repeat=2):
                    even.add(wv({syms[a]: sa, syms[b]: sb}))
        even.add(wv({"d": 1}))
        even.add(wv({"d": -1}))
        half = Fraction(1, 2)
        for s1, s2, s3, sd in product((1, -1), repeat=4):
            odd.add(wv({"e1": s1 * half, "e2": s2 * half, "e3": s3 * half, "d": sd * half}))
        return RootDatum("F4", None, None, syms, even, odd, form)

    if family == "G3":
        syms = ["e1", "e2", "e3", "d"]
        form = _diag_form([("e1", 1), ("e2", 1), ("e3", 1), ("d", -2)])
        even, odd = set(), set()
        for a in range(3):
            for b in range(3):
                if a != b:
                    even.add(wv({syms[a]: 1, syms[b]: -1}))
                    odd.add(wv({"d": 1, syms[a]: 1, syms[b]: -1}))
                    odd.add(wv({"d": -1, syms[a]: 1, syms[b]: -1}))
        for k in range(3):
            rest = [x for x in range(3) if x != k]
            for s in (1, -1):
                even.add(wv({syms[k]: 2 * s, syms[rest[0]]: -s, syms[rest[1]]: -s}))
        even.add(wv({"d": 2}))
        even.add(wv({"d": -2}))
        odd.add(wv({"d": 1}))
        odd.add(wv({"d": -1}))
        return RootDatum("G3", None, None, syms, even, odd, form)

    if family == "D21a":
        if alpha is not None:
            alpha = Fraction(alpha)
            if alpha in (Fraction(0), Fraction(-1)):
                raise ParameterError("D(2,1;a) needs a outside {0, -1}")
        a_val = ALPHA if alpha is None else alpha
        syms = ["e1", "e2", "d"]
        form = _diag_form([("e1", 1), ("e2", a_val), ("d", -(1 + a_val))])
        even = {wv({s: 2 * sg}) for s in syms for sg in (1, -1)}
        odd = set()
        for s1, s2, sd in product((1, -1), repeat=3):
            odd.add(wv({"d": sd, "e1": s1, "e2": s2}))
        return RootDatum("D21a", 2, 1, syms, even, odd, form, alpha=alpha)

    raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


class SimpleSystem:
    """An ordered simple system; theta is derived from root parity."""

    def __init__(self, datum, roots):
        roots = tuple(roots)
        for b in roots:
            if b not in datum.all_roots:
                raise PreconditionError(f"{b} is not a root of {datum.name}")
        self.datum = datum
        self.roots = roots
        self.theta = frozenset(i + 1 for i, b in enumerate(roots) if datum.is_odd(b))

    @property
    def rank(self):
        return len(self.roots)

    def key(self):
        return frozenset(self.roots)

    def isotropic_indices(self):
        return [i + 1 for i, b in enumerate(self.roots) if not self.datum.form_value(b, b)]

    def __eq__(self, other):
        return isinstance(other, SimpleSystem) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"SimpleSystem({self.datum.name}, {list(self.roots)})"


def distinguished_simple_system(datum):
    """The simple system with exactly one odd simple root."""
    f = datum.family
    if f == "A":
        m, n = datum.m, datum.n
        roots = [wv({f"e{i}": 1, f"e{i+1}": -1}) for i in range(1, m + 1)]
        roots.append(wv({f"e{m+1}": 1, "d1": -1}))
        roots += [wv({f"d{j}": 1, f"d{j+1}": -1}) for j in range(1, n + 1)]
    elif f == "B" and datum.m == 0:
        n = datum.n
        roots = [wv({f"d{j}": 1, f"d{j+1}": -1}) for j in range(1, n)]
        roots.append(wv({f"d{n}": 1}))
    elif f == "B":
        m, n = datum.m, datum.n
        roots = [wv({f"d{j}": 1, f"d{j+1}": -1}) for j in range(1, n)]
        roots.append(wv({f"d{n}": 1, "e1": -1}))
        roots += [wv({f"e{i}": 1, f"e{i+1}": -1}) for i in range(1, m)]
        roots.append(wv({f"e{m}": 1}))
    elif f == "C":
        n = datum.n
        roots = [wv({"e1": 1, "d1": -1})]
        roots += [wv({f"d{j}": 1, f"d{j+1}": -1}) for j in range(1, n - 1)]
        roots.append(wv({f"d{n-1}": 2}))
    elif f == "D":
        m, n = datum.m, datum.n
        roots = [wv({f"d{j}": 1, f"d{j+1}": -1}) for j in range(1, n)]
        roots.append(wv({f"d{n}": 1, "e1": -1}))
        roots += [wv({f"e{i}": 1, f"e{i+1}": -1}) for i in range(1, m)]
        roots.append(wv({f"e{m-1}": 1, f"e{m}": 1}))
    elif f == "F4":
        half = Fraction(1, 2)
        roots = [
            wv({"e1": half, "e2": half, "e3": half, "d": half}),
            wv({"e1": -1}),
            wv({"e1": 1, "e2": -1}),
            wv({"e2": 1, "e3": -1}),
        ]
    elif f == "G3":
        roots = [
            wv({"d": 1, "e1": -1, "e3": 1}),
            wv({"e1": 1, "e2": -1}),
            wv({"e2": 2, "e1": -1, "e3": -1}),
        ]
    elif f == "D21a":
        roots = [wv({"d": 1, "e1": -1, "e2": -1}), wv({"e1": 2}), wv({"e2": 2})]
    else:
        raise ParameterError(f"unknown family {f!r}")
    system = SimpleSystem(datum, roots)
    if len(system.theta) != 1:
        raise InconsistencyError(f"distinguished system of {datum.name} has theta {set(system.theta)}")
    return system


def odd_reflection(datum, system, t):
    """Reflect the simple system at the isotropic simple root alpha_t (1-based).

    s_t(alpha_t) = -alpha_t; s_t(alpha_i) = alpha_i + alpha_t when the two
    roots pair non-trivially, and alpha_i otherwise.
    """
    if not 1 <= t <= system.rank:
        raise PreconditionError(f"index {t} out of range 1..{system.rank}")
    at = system.roots[t - 1]
    if datum.form_value(at, at):
        raise PreconditionError(f"alpha_{t} = {at} is not isotropic")
    new = []
    for i, ai in enumerate(system.roots):
        if i == t - 1:
            new.append(-at)
        elif datum.form_value(ai, at):
            new.append(ai + at)
        else:
            new.append(ai)
    return SimpleSystem(datum, new)


def enumerate_simple_systems(datum):
    """Closure of the distinguished system under odd reflections.

    Systems are deduplicated by set equality of their simple roots; the
    breadth-first order (distinguished system first) is deterministic.
    """
    start = distinguished_simple_system(datum)
    seen = {start.key()}
    out = [start]
    frontier = [start]
    while frontier:
        next_frontier = []
        for system in frontier:
            for t in system.isotropic_indices():
                refl = odd_reflection(datum, system, t)
                if refl.key() not in seen:
                    seen.add(refl.key())
                    out.append(refl)
                    next_frontier.append(refl)
        frontier = next_frontier
    return out


class _CoordinateMap:
    """Coordinates in one simple basis, from one elimination.

    The symbols x rank matrix M of the simple roots is row-reduced once,
    augmented with the identity, giving row operations T with T M = [I; 0].
    T is kept as integer rows over a common denominator, so a vector's
    coordinates are integer dot products: its first `rank` entries under T,
    and it lies in the span exactly when the remaining entries vanish.
    """

    def __init__(self, system):
        symbols = system.datum.symbols
        r, n = system.rank, len(symbols)
        rows = [
            [b.coefficient(s) for b in system.roots] + [Fraction(int(k == i)) for k in range(n)]
            for i, s in enumerate(symbols)
        ]
        for col in range(r):
            p = next((k for k in range(col, n) if rows[k][col]), None)
            if p is None:
                raise InconsistencyError(f"the simple roots of {system!r} are linearly dependent")
            rows[col], rows[p] = rows[p], rows[col]
            pv = rows[col][col]
            rows[col] = [x / pv for x in rows[col]]
            for k in range(n):
                f = rows[k][col]
                if k != col and f:
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[col])]
        denominator = lcm(*(x.denominator for row in rows for x in row[r:]))
        # column of T per symbol, as integers over `denominator`
        self._columns = {
            s: [int(rows[k][r + i] * denominator) for k in range(n)]
            for i, s in enumerate(symbols)
        }
        self._denominator = denominator
        self._size = n
        self.system = system

    def __call__(self, vector):
        """Integer coordinates of `vector`; InconsistencyError if it has a
        symbol outside the datum, lies outside the span of the simple roots
        or has a non-integral coordinate."""
        items = vector.items()
        scale = lcm(*(c.denominator for _, c in items))
        acc = [0] * self._size
        for s, c in items:
            column = self._columns.get(s)
            if column is None:
                raise InconsistencyError(f"{vector} has a symbol {s!r} outside {self.system.datum.name}")
            c = c.numerator * (scale // c.denominator)
            acc = [a + c * t for a, t in zip(acc, column)]
        r = self.system.rank
        if any(acc[r:]):
            raise InconsistencyError(f"{vector} is not in the span of {self.system!r}")
        denominator = self._denominator * scale
        coords = []
        for a in acc[:r]:
            q, rem = divmod(a, denominator)
            if rem:
                sol = tuple(Fraction(a, denominator) for a in acc[:r])
                raise InconsistencyError(f"{vector} has non-integral coordinates {sol}")
            coords.append(q)
        return tuple(coords)


def root_coordinates(system, root):
    """Integer coordinates of a root in the simple basis (roots span a lattice)."""
    return _CoordinateMap(system)(root)


def positive_roots(system):
    """Roots that are N-combinations of the simple system; exactly half of all."""
    datum = system.datum
    coordinates = _CoordinateMap(system)
    pos = {}
    for root in datum.all_roots:
        coords = coordinates(root)
        if all(c >= 0 for c in coords) and any(coords):
            pos[root] = coords
    if 2 * len(pos) != len(datum.all_roots):
        raise InconsistencyError(
            f"{system!r} generates {len(pos)} positive roots out of {len(datum.all_roots)}"
        )
    return pos
