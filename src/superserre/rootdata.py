"""Root systems of the simple contragredient Lie superalgebras.

Families: A(m,n), B(0,n), B(m,n) m>0, C(n) n>2, D(m,n) m>1, F(4), G(3) and
the one-parameter family D(2,1;a).  Provides the invariant bilinear form,
distinguished simple systems, odd reflections, the enumeration of simple
systems (one per conjugacy class of Borel subalgebras) and each simple
system's positive roots with their coordinates.

Basis symbols are strings: "e1", "e2", ... for the epsilons, "d1", "d2", ...
for the deltas, and a single "d" in F(4), G(3) and D(2,1;a).  The form is
diagonal in them, so a datum carries it as the norm (s, s) of each symbol.

Each family is one branch of `build_root_datum`, its row of the table of
root systems in Kac, *Lie superalgebras* (Adv. Math. 26, 1977): its name,
roots built from a few shared root shapes, and distinguished simple roots,
in A, B, C and D a chain x1 - x2, x2 - x3, ... plus one last root.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, neg

from .scalars import ALPHA, FORBIDDEN_ALPHA, Scalar, exact, native, ratio


class ParameterError(ValueError):
    """Family parameters outside the allowed range."""


class PreconditionError(ValueError):
    """An operation precondition is violated (e.g. reflecting at a
    non-isotropic simple root)."""


class InconsistencyError(RuntimeError):
    """A simple system fails to generate exactly half of the roots."""


# the parameters each family reads, named as the command-line options
FAMILY_PARAMETERS = {
    "A": ("m", "n"), "B": ("m", "n"), "C": ("n",), "D": ("m", "n"),
    "F4": (), "G3": (), "D21a": ("alpha",),
}


def _coefficient(c):
    """A rational coefficient in the native form of `scalars.native`: an
    `int`, or a `Fraction` only when it is not an integer.  Unlike `native`
    it rejects a `Scalar` and a float (`exact` raises TypeError): roots are
    rational."""
    if type(c) is int:
        return c
    c = exact(c)
    return c.numerator if c.denominator == 1 else c


class WeightVector:
    """Formal Q-combination of basis symbols; immutable and hashable.

    Coefficients follow the `scalars.native` rule: an `int`, and a
    `Fraction` only where a coefficient is not an integer (among the roots,
    only the odd roots of F(4) have such: halves).  Zero coefficients are
    dropped, so `items()`, the (symbol, coefficient) pairs sorted by
    symbol, is a canonical key: vectors built by any route compare and hash
    equal.

    Python hashes a rational by its value (`hash(2) == hash(Fraction(2))`)
    and prints it the same way (`str(2) == str(Fraction(2))`), so keys hash,
    sets of roots iterate, and `repr` and `to_json` print exactly as when
    every coefficient was a `Fraction`.  Sums and negatives of canonical
    vectors are built directly, without re-checking every entry.
    """

    __slots__ = ("_d", "_key")

    def __init__(self, data=()):
        d = {}
        items = data.items() if isinstance(data, dict) else data
        for sym, c in items:
            c = _coefficient(c)
            if sym in d:
                c = _coefficient(d[sym] + c)
            if c:
                d[sym] = c
            else:
                d.pop(sym, None)
        self._d = d
        self._key = tuple(sorted(d.items()))

    @classmethod
    def _of(cls, d):
        """The vector of a dict that is already canonical: native nonzero
        coefficients."""
        v = cls.__new__(cls)
        v._d = d
        v._key = tuple(sorted(d.items()))
        return v

    def coefficient(self, sym):
        return self._d.get(sym, 0)

    def symbols(self):
        return set(self._d)

    def items(self):
        return self._key

    def is_zero(self):
        return not self._d

    def __add__(self, other):
        d = dict(self._d)
        for s, c in other._d.items():
            c += d.get(s, 0)
            if not c:
                del d[s]
            elif type(c) is Fraction and c.denominator == 1:
                d[s] = c.numerator
            else:
                d[s] = c
        return WeightVector._of(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeightVector._of({s: -c for s, c in self._d.items()})

    def scale(self, k):
        k = _coefficient(k)
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
    """A root system with its bilinear form and distinguished simple roots.

    alpha is None for the generic D(2,1;a) (scalars live in Q(a)) and a
    Fraction for a specialised member; it is None for every other family.

    The form of every family is diagonal in the basis symbols, so it is
    given as `norms`: symbol s -> (s, s), each an exact value that
    `scalars.native` accepts, in the order of the symbols.  The norms
    (b, b) of all roots are evaluated once here, for the isotropy check and
    for l_m^2, and `all_roots` and the rank are stored once.

    Every root also gets its integer row once here, for `positive_roots` to
    sum on every class of the datum: its coefficients over the symbols of
    `norms`, in their order, times `row_scale`, the lcm of the roots'
    coefficient denominators (2 in F(4), else 1).  `root_rows` maps each
    root to its row and `root_of_row` each row back to its root; a row
    determines its root, so the two are inverse.
    """

    def __init__(self, family, name, norms, even_roots, odd_roots, simple_roots, alpha=None):
        self.family = family
        self.name = name
        self.even_roots = frozenset(even_roots)
        self.odd_roots = frozenset(odd_roots)
        self.all_roots = self.even_roots | self.odd_roots
        self.alpha = alpha
        self.norms = {s: native(value) for s, value in norms.items()}
        # the norms free of the parameter a: all of them but in generic D(2,1;a)
        self._rational_norms = {s: v for s, v in self.norms.items() if not isinstance(v, Scalar)}
        # In D(2,1;a) only the norms of +-2e1 do not depend on the parameter;
        # l_m^2 is taken from them for specialised members too, so that
        # specialising commutes with everything built on the Cartan matrix.
        fixed = {"e1"} if family == "D21a" else self.norms.keys()
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
        symbols, zeros = list(self.norms), [0] * len(self.norms)
        self.row_scale = scale = lcm(*{c.denominator for b in self.all_roots for c in b._d.values()})
        self.root_rows = {
            b: tuple(map(b._d.get, symbols, zeros)) if scale == 1
            else tuple(int(c * scale) for c in map(b._d.get, symbols, zeros))
            for b in self.all_roots
        }
        self.root_of_row = {row: b for b, row in self.root_rows.items()}
        self.isotropic_roots = frozenset(isotropic)
        self.min_square_length = least  # least fixed nonzero |(b, b)|, None if there is none
        self.simple_roots = tuple(simple_roots)  # the distinguished system's, in order
        self.rank = len(self.simple_roots)

    def form_value(self, lam, mu):
        """(lam, mu), canonical through `scalars.native`: an `int` or a
        `Fraction` with denominator other than 1, and a `Scalar` only where
        the parameter a appears (generic D(2,1;a)).  So a zero value is
        tested with `not`.

        The form is diagonal, so one pass over the symbols of lam, looked up
        in mu, finds every contribution.  Rational entries (`int`s read as
        their own numerator over 1) are summed as one fraction in integer
        arithmetic; only the Q(a) entries of the generic
        D(2,1;a) are multiplied as Scalars, and their sum is converted by
        `native`, since it can be a constant (the norm of d + e1 + e2 is 0).
        """
        ld, md, norms = lam._d, mu._d, self.norms
        if not (ld.keys() <= norms.keys() and md.keys() <= norms.keys()):
            foreign = (ld.keys() | md.keys()) - norms.keys()
            raise TypeError(f"foreign basis symbols {sorted(foreign)} for {self.name}")
        rational = self._rational_norms
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
                term = norms[s] * (c * d)
                parameter_part = term if parameter_part is None else parameter_part + term
        total = ratio(num, den)
        return total if parameter_part is None else native(total + parameter_part)


def _signed(terms):
    """Every sum of +-c*x over the (symbol x, coefficient c) pairs of terms."""
    return {
        WeightVector((x, sign * c) for (x, c), sign in zip(terms, signs))
        for signs in product((1, -1), repeat=len(terms))
    }


def _pairs(xs, ys):
    """+-x +- y for x in xs, y in ys, x != y."""
    return {b for x in xs for y in ys if x != y for b in _signed([(x, 1), (y, 1)])}


def _multiples(xs, c):
    """+-c*x for x in xs."""
    return {b for x in xs for b in _signed([(x, c)])}


def _differences(xs, ys):
    """x - y for x in xs, y in ys, x != y."""
    return {WeightVector({x: 1, y: -1}) for x in xs for y in ys if x != y}


def _chain(syms):
    """x1 - x2, x2 - x3, ... along syms."""
    return [WeightVector({x: 1, y: -1}) for x, y in zip(syms, syms[1:])]


def _epsilons_deltas(m, n):
    """e1..em of norm 1 and d1..dn of norm -1, with their norms in that order."""
    eps = [f"e{i}" for i in range(1, m + 1)]
    dts = [f"d{j}" for j in range(1, n + 1)]
    return eps, dts, {**dict.fromkeys(eps, 1), **dict.fromkeys(dts, -1)}


def build_root_datum(family, **params):
    """Construct the root datum of a family; parameters are validated.

    Each branch is one family's row of Kac's table: the parameters it needs,
    its name, the norms (s, s) of the basis symbols, the even roots Delta_0
    and odd roots Delta_1, built from the root shapes +-x +- y (`_pairs`),
    +-c*x (`_multiples`), x - y (`_differences`) and every signed sum
    (`_signed`), and the distinguished simple roots.  Only G(3) has a root
    shape of its own, +-(2e_k - e_i - e_j).

    `params` are named as the command-line options; one its family does not
    read is refused, even passed as None.  `alpha` specialises D(2,1;a) to
    a rational a, an `int` or a `Fraction` (a float raises TypeError); None
    keeps a generic.
    """
    if family not in FAMILY_PARAMETERS:
        *rest, last = FAMILY_PARAMETERS
        raise ParameterError(f"unknown family {family!r}; use {', '.join(rest)} or {last}")
    for p in params:
        if p not in FAMILY_PARAMETERS[family]:
            raise ParameterError(f"family {family} does not take --{p}")
    m, n = params.get("m"), params.get("n")

    if family == "A":
        if m is None or n is None:
            raise ParameterError("family A needs --m and --n")
        if m < 0 or n < 0 or (m, n) == (0, 0):
            raise ParameterError("A(m,n) needs m,n >= 0 and (m,n) != (0,0)")
        eps, dts, norms = _epsilons_deltas(m + 1, n + 1)
        even = _differences(eps, eps) | _differences(dts, dts)
        odd = _differences(eps, dts) | _differences(dts, eps)
        return RootDatum("A", f"A({m},{n})", norms, even, odd, _chain(eps + dts))

    if family == "B":
        if m is None or n is None:
            raise ParameterError("family B needs --m and --n")
        if m < 0 or n < 1:
            raise ParameterError("B(m,n) needs m >= 0 and n >= 1")
        eps, dts, norms = _epsilons_deltas(m, n)
        even = _pairs(eps, eps) | _multiples(eps, 1) | _pairs(dts, dts) | _multiples(dts, 2)
        odd = _pairs(eps, dts) | _multiples(dts, 1)
        # ends in the short root e_m, or d_n in B(0,n)
        simple = _chain(dts + eps) + [wv({(dts + eps)[-1]: 1})]
        return RootDatum("B", f"B({m},{n})", norms, even, odd, simple)

    if family == "C":
        if n is None:
            raise ParameterError("family C needs --n (with n > 2)")
        if n <= 2:
            raise ParameterError("C(n) needs n > 2")
        eps, dts, norms = _epsilons_deltas(1, n - 1)
        even = _pairs(dts, dts) | _multiples(dts, 2)
        odd = _pairs(eps, dts)
        simple = _chain(eps + dts) + [wv({dts[-1]: 2})]
        return RootDatum("C", f"C({n})", norms, even, odd, simple)

    if family == "D":
        if m is None or n is None:
            raise ParameterError("family D needs --m and --n")
        if m <= 1 or n < 1:
            raise ParameterError("D(m,n) needs m > 1 and n >= 1")
        eps, dts, norms = _epsilons_deltas(m, n)
        even = _pairs(eps, eps) | _pairs(dts, dts) | _multiples(dts, 2)
        odd = _pairs(eps, dts)
        simple = _chain(dts + eps) + [wv({eps[-2]: 1, eps[-1]: 1})]
        return RootDatum("D", f"D({m},{n})", norms, even, odd, simple)

    if family == "F4":
        eps = ["e1", "e2", "e3"]
        norms, half = {"e1": 2, "e2": 2, "e3": 2, "d": -6}, Fraction(1, 2)
        even = _pairs(eps, eps) | _multiples(eps, 1) | _multiples(["d"], 1)
        odd = _signed([(s, half) for s in norms])
        simple = [wv(dict.fromkeys(norms, half)), wv({"e1": -1}), *_chain(eps)]
        return RootDatum("F4", "F(4)", norms, even, odd, simple)

    if family == "G3":
        eps = ["e1", "e2", "e3"]
        norms = {"e1": 1, "e2": 1, "e3": 1, "d": -2}
        short = _differences(eps, eps)
        # +-(2e_k - e_i - e_j) for {i, j, k} = {1, 2, 3}
        long = {
            WeightVector((x, sg * (2 if x == k else -1)) for x in eps) for k in eps for sg in (1, -1)
        }
        even = short | long | _multiples(["d"], 2)
        odd = {b + c for b in short for c in _multiples(["d"], 1)} | _multiples(["d"], 1)
        simple = [
            wv({"d": 1, "e1": -1, "e3": 1}),
            wv({"e1": 1, "e2": -1}),
            wv({"e2": 2, "e1": -1, "e3": -1}),
        ]
        return RootDatum("G3", "G(3)", norms, even, odd, simple)

    # D(2,1;a), the one family left
    alpha = params.get("alpha")
    if alpha is not None:
        alpha = exact(alpha)
        if alpha in FORBIDDEN_ALPHA:
            raise ParameterError("D(2,1;a) needs a outside {0, -1}")
    a_val = ALPHA if alpha is None else alpha
    norms = {"e1": 1, "e2": a_val, "d": -(1 + a_val)}
    even = _multiples(norms, 2)
    odd = _signed([(s, 1) for s in norms])
    simple = [wv({"d": 1, "e1": -1, "e2": -1}), wv({"e1": 2}), wv({"e2": 2})]
    name = "D(2,1;a)" if alpha is None else f"D(2,1;{alpha})"
    return RootDatum("D21a", name, norms, even, odd, simple, alpha=alpha)


class SimpleSystem:
    """An ordered simple system; theta is derived from root parity."""

    def __init__(self, datum, roots):
        roots = tuple(roots)
        for b in roots:
            if b not in datum.all_roots:
                raise PreconditionError(f"{b} is not a root of {datum.name}")
        self.datum = datum
        self.roots = roots
        self.theta = frozenset(i + 1 for i, b in enumerate(roots) if b in datum.odd_roots)

    @property
    def rank(self):
        return len(self.roots)

    def key(self):
        return frozenset(self.roots)

    def isotropic_indices(self):
        # every simple root is a root, and the datum found its isotropic roots once
        isotropic = self.datum.isotropic_roots
        return [i + 1 for i, b in enumerate(self.roots) if b in isotropic]

    def __eq__(self, other):
        return isinstance(other, SimpleSystem) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"SimpleSystem({self.datum.name}, {list(self.roots)})"


def distinguished_simple_system(datum):
    """The simple system with exactly one odd simple root."""
    system = SimpleSystem(datum, datum.simple_roots)
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
    if at not in datum.isotropic_roots:
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
                key = refl.key()
                if key not in seen:
                    seen.add(key)
                    out.append(refl)
                    next_frontier.append(refl)
        frontier = next_frontier
    return out


def positive_roots(system):
    """Roots that are N-combinations of the simple system, each with its
    integer coordinates; exactly half of all.

    The roots are grown from the simple roots.  Each starts at the unit
    vector of its index; when beta + alpha_i is a root, it joins with
    beta's coordinates plus one at i, until no root joins.  Roots are
    summed as the integer rows the datum made once (`RootDatum.root_rows`,
    coefficients over `datum.norms` times `datum.row_scale`), and a sum is
    a root exactly when `datum.root_of_row` has it.

    Three checks make the walk exact.  Every root it reaches is an
    N-combination.  (1) The simple roots number `datum.rank`, the dimension
    the roots span.  (2) No b and -b are both reached: else a nonzero
    N-combination is 0 and the simple roots are dependent.  So the reached
    set F and -F are disjoint, and (3) if 2|F| = |Delta|, they make up
    Delta, which is closed under negation.  Then every root is an integer
    combination, so the simple roots span the roots; being `datum.rank`
    many, they are independent.  Coordinates are then unique, no root in
    -F is an N-combination, and F is exactly the N-combinations.
    """
    datum = system.datum
    r = system.rank
    if r != datum.rank:
        raise InconsistencyError(
            f"{system!r} has {r} simple roots, but the roots of {datum.name} span rank {datum.rank}"
            + (": they are linearly dependent" if r > datum.rank else "")
        )
    roots = datum.root_of_row
    simple = [datum.root_rows[b] for b in system.roots]
    reached = {a: tuple(int(k == i) for k in range(r)) for i, a in enumerate(simple)}
    order = list(reached)
    for beta in order:  # breadth first: `order` grows while it is read
        coords = reached[beta]
        for i, a in enumerate(simple):
            gamma = tuple(map(add, beta, a))
            if gamma in roots and gamma not in reached:
                reached[gamma] = coords[:i] + (coords[i] + 1,) + coords[i + 1 :]
                order.append(gamma)
    if any(tuple(map(neg, beta)) in reached for beta in reached):
        raise InconsistencyError(f"the simple roots of {system!r} are linearly dependent")
    if 2 * len(reached) != len(datum.all_roots):
        raise InconsistencyError(
            f"{system!r} generates {len(reached)} positive roots out of {len(datum.all_roots)}"
        )
    return {roots[beta]: coords for beta, coords in reached.items()}
