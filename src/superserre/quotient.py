"""The positive part of the presented algebra, built weight by weight.

Two engines agree on every weight:

* `IdealWordEngine` spans the ideal generated by the relation set inside the
  free Lie superalgebra directly (left-normed ad-words on generators acting
  on the relation elements), with exact linear algebra on the associative
  word expansion of each multidegree component.  It is quadratic in the
  component sizes, so it serves as the reference that the covering engine
  is cross-validated against on small weights.

* `quotient_dimensions` runs a graded covering construction: each height
  level of the quotient is built from the previous one by imposing the
  rewritten relation elements together with the super-Jacobi consistency
  relations and even-square constraints.  All linear algebra happens in
  quotient coordinates, so components stay tiny even when the ambient free
  components are huge, and only at live weights: reachable from the level
  below and not yet of full relation rank.  Reported ideal ranks are free
  dimension minus quotient dimension.  Inside the engine each weight is
  also one packed int (`CoveringEngine.pack`), so a weight test is an int
  addition and a set lookup; every weight it hands out is a tuple, and
  `jacobi_rows` takes its weights packed.

A presentation owns one covering engine (`Presentation.engine`), made when
first read.  Verification, the necessity test and the stability check all
read its levels through `CoveringEngine.level`, which builds each level
once, in order, when a caller first asks for it.

A closed report gives the total dimension (`GradedQuotientReport.total_dim`);
the Z-grading tables are read off a verification report, by
`verify.compare_z_grading`.

Both engines and the stability check read the relation terms as
`SerrePolynomial` holds them, native `int` and `Fraction` over Q and
`Scalar` only where a appears.  Both engines eliminate with
`linalg.Echelon`; the stability check eliminates nothing, since it
rewrites each lowered element on the covering engine's levels.
Sharing that arithmetic costs the cross-check nothing: it compares two
constructions of the ideal (ad-word spans in the free algebra against
levels built in quotient coordinates), not two number types;
`tests/test_linalg.py` checks the echelon on native and on `Scalar` rows
against a dense `Fraction` elimination; and generic D(2,1;a) still runs
both engines on `Scalar`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import add

from .freelie import (
    content_height,
    content_parity,
    expand_terms,
    free_dimension,
    generator_bracket_word,
    lower_terms,
)
from .linalg import Echelon, axpy


class EngineError(RuntimeError):
    """Internal consistency violation in the quotient engine."""


FIELD_BITS = 16  # bits per coordinate of a packed weight


def _unit(r, i):
    return tuple(1 if j == i - 1 else 0 for j in range(r))


def _weight_sub(nu, i):
    out = list(nu)
    out[i - 1] -= 1
    return tuple(out)


# -- reference engine: ideal spanned inside the free algebra -------------------


class IdealWordEngine:
    """Left-normed ad-word spans of the ideal, one word-space echelon per
    multidegree, for `SerrePolynomial` relation elements.  Exact on any
    `linalg` coefficients; for small weights."""

    def __init__(self, parities, elements):
        self.parities = tuple(parities)
        self.r = len(self.parities)
        self.by_weight = {}
        for el in elements:
            vec = expand_terms(el.terms, self.parities)
            if vec:
                self.by_weight.setdefault(el.content, []).append(vec)
        self._memo = {}

    def echelon(self, nu):
        got = self._memo.get(nu)
        if got is not None:
            return got
        ech = Echelon()
        if content_height(nu) >= 2:
            for i in range(1, self.r + 1):
                if nu[i - 1] == 0:
                    continue
                mu = _weight_sub(nu, i)
                sub = self.echelon(mu)
                p_mu = content_parity(mu, self.parities)
                for vec in sub.rows.values():
                    row = generator_bracket_word(i, vec, self.parities[i - 1], p_mu)
                    ech.insert(row)
            for vec in self.by_weight.get(nu, ()):
                ech.insert(dict(vec))
        self._memo[nu] = ech
        return ech

    def rank(self, nu):
        return self.echelon(nu).rank


# -- covering engine -------------------------------------------------------------


class GradedQuotientReport:
    """Per-weight dimensions of the presented positive part.  `per_weight`
    is in (height, weight) order, as `quotient_dimensions` fills it, level
    by level and each level ascending, so `to_json` lists it as it is."""

    def __init__(self, rank, per_weight, max_height_reached, closed, warning):
        self.rank = rank
        self.per_weight = per_weight  # content -> (free_dim, ideal_rank, quotient_dim)
        self.max_height_reached = max_height_reached
        self.closed = closed
        self.warning = warning

    @property
    def positive_dimension(self):
        return sum(q for _, _, q in self.per_weight.values())

    @property
    def total_dim(self):
        if not self.closed:
            return None
        return 2 * self.positive_dimension + self.rank

    def surviving_weights(self):
        return {nu: q for nu, (_, _, q) in self.per_weight.items() if q > 0}

    def to_json(self):
        weights = [
            {"nu": list(nu), "free": f, "idealRank": i, "dim": q}
            for nu, (f, i, q) in self.per_weight.items()
        ]
        data = {"weights": weights, "total": self.total_dim, "closed": self.closed}
        if self.warning:
            data["warning"] = self.warning
        return data


class CoveringEngine:
    """Graded quotient of the free Lie superalgebra by a homogeneous ideal,
    constructed level by level in quotient coordinates.

    Level h+1 is presented on the graded super wedge of the computed
    truncation: one symbol per pair of basis elements of total height h+1
    (with super antisymmetry built in and squares of even elements absent).
    The relations are the rewritten relation elements of that height and the
    super-Jacobi boundaries of all basis triples; because H_2 of a free Lie
    superalgebra vanishes, these span the whole kernel of the pair space
    onto the quotient component, so the construction is exact.

    Only triples x <= y <= z (by id, repeats included) are visited.  The
    boundary J(x, y, z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]]
    is built from pair symbols and products, both super-antisymmetric by
    construction ([u,v] = -(-1)^{|u||v|} [v,u], and [u,u] = 0 for even u),
    so J is super-alternating:
        J(y, x, z) = -(-1)^{|x||y|} J(x, y, z),
        J(x, z, y) = -(-1)^{|y||z|} J(x, y, z).
    These two transpositions generate all permutations, so every
    permutation of a triple spans the same line as its sorted form, and
    J(x, x, z) = 0 for even x.  The relation row space, hence the set of
    non-pivot symbols and the read-off products, is the same as with all
    ordered triples.

    Each row is written in one pass: `_bracket_into` adds c * [x, yvec]
    straight into the row's one dict as canonical pair symbols, so a
    boundary's three terms and a relation element's products make no
    vector or symbol dict of their own.

    Coefficients are the relation terms' own: a presentation without the
    parameter a runs on Python's own rationals, and only coefficients that
    involve a are `Scalar` (mixed rows go through `Scalar`'s coercion).
    See `linalg` for why no float arises.
    """

    def __init__(self, parities, elements):
        self.parities = tuple(parities)
        self.r = len(self.parities)
        self._units = [self.pack(_unit(self.r, i)) for i in range(1, self.r + 1)]
        self.relations_at = {}  # height -> [(packed weight, terms)]
        for el in elements:
            nu = el.content
            self.relations_at.setdefault(content_height(nu), []).append((self.pack(nu), el.terms))
        self.weight_of = []
        self.packed_of = []  # id -> `pack(weight_of[id])`
        self.parity_of = []
        self.level_ids = {}  # height -> list of ids, ordered by weight then id
        self.dims = {}  # height -> {weight: new dimension}, as build_level returned it
        self.products = {}  # canonical (x, y) with x <= y -> vec over ids
        self._rho_memo = {}
        self.completed = 0
        self._init_level1()

    @staticmethod
    def pack(w):
        """The weight w as one int: coordinate k in the k-th `FIELD_BITS`-bit
        field, coordinate 0 in the highest bits.  For weights of one rank
        with every coordinate below 2^FIELD_BITS, the ints compare as the
        tuples do lexicographically, and pack(a) + pack(b) = pack(a + b)
        while every coordinate of a + b stays below 2^FIELD_BITS."""
        p = 0
        for c in w:
            p = (p << FIELD_BITS) | c
        return p

    def _new_basis(self, weight, packed, parity):
        bid = len(self.weight_of)
        self.weight_of.append(weight)
        self.packed_of.append(packed)
        self.parity_of.append(parity)
        return bid

    def _init_level1(self):
        """e_1, ..., e_r get ids 0, ..., r - 1.  `dims[1]` lists their
        weights in ascending order, e_r first, as `build_level` lists every
        higher level (see `quotient_dimensions`)."""
        units = [_unit(self.r, i) for i in range(1, self.r + 1)]
        self.level_ids[1] = list(map(self._new_basis, units, self._units, self.parities))
        self.dims[1] = dict.fromkeys(reversed(units), 1)
        self.completed = 1

    def _koszul(self, x, y):
        return -1 if (self.parity_of[x] and self.parity_of[y]) else 1

    def product(self, x, y):
        """[x, y] in basis coordinates.  `build_level(h)` gives each pair
        (x < y, or x = y odd) of height h one `products` entry, {} at a dead
        weight, so a pair without one is beyond `completed`; an even square is {}."""
        if x == y and self.parity_of[x] == 0:
            return {}
        try:
            if x <= y:
                return self.products[(x, y)]
            vec = self.products[(y, x)]
        except KeyError:
            raise EngineError("product beyond the completed level") from None
        sign = self._koszul(x, y)
        return {b: -sign * c for b, c in vec.items()}

    # -- rewriting -------------------------------------------------------------

    def rho(self, tree):
        """Image of a bracket monomial in basis coordinates (height <= completed)."""
        got = self._rho_memo.get(tree)
        if got is not None:
            return got
        if isinstance(tree, int):
            out = {self.level_ids[1][tree - 1]: 1}
        else:
            u, v = tree
            out = {}
            for x, cx in self.rho(u).items():
                for y, cy in self.rho(v).items():
                    axpy(out, self.product(x, y), cx * cy)
        self._rho_memo[tree] = out
        return out

    # -- pair symbols at the level being built ----------------------------------

    def _bracket_into(self, out, c, x, yvec):
        """out += c * [x, yvec] as canonical pair symbols at the current
        level, in place; returns out.

        [x, y] is the symbol (x, y) for x < y, -(-1)^{|x||y|} (y, x) for
        x > y, (x, x) for x = y odd and zero for x = y even.  Entries that
        cancel are dropped, and the `int` 1 skips the multiplication, as
        in `axpy`."""
        parity_of = self.parity_of
        odd_x = parity_of[x]
        unit = type(c) is int and c == 1
        for y, v in yvec.items():
            if x < y:
                key = (x, y)
            elif x > y:
                key = (y, x)
                if not (odd_x and parity_of[y]):
                    v = -v
            elif odd_x:
                key = (x, x)
            else:
                continue
            if not unit:
                v = c * v
            old = out.get(key)
            if old is not None:
                v = old + v
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return out

    def rho_pair(self, terms):
        """Pair-symbol vector of a relation element at the current level."""
        out = {}
        for (u, v), coeff in terms.items():  # relation elements have height >= 2
            rv = self.rho(v)
            for x, cx in self.rho(u).items():
                self._bracket_into(out, coeff * cx, x, rv)
        return out

    def _jacobi_boundary(self, x, y, z):
        """Pair-symbol vector of [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]],
        with -[[x,y],z] written as (-1)^{(|x|+|y|)|z|} [z,[x,y]], its three
        terms added into one dict."""
        vec = self._bracket_into({}, 1, x, self.product(y, z))
        sign = -1 if self.parity_of[x] != self.parity_of[y] and self.parity_of[z] else 1
        self._bracket_into(vec, sign, z, self.product(x, y))
        return self._bracket_into(vec, -self._koszul(x, y), y, self.product(x, z))

    # -- level construction -------------------------------------------------------

    def level(self, h):
        """Weight -> new dimension at height h, building the levels up to h
        in order first.  A level is built once; a later call reads it."""
        while self.completed < h:
            self.build_level(self.completed + 1)
        return self.dims[h]

    def jacobi_rows(self, h, weights):
        """(w, J(x, y, z)) per sorted basis triple x <= y <= z of height h and
        packed weight w in `weights` (see `pack`), which is read as they go
        (a weight taken out yields no more).  Ids grow with height, so
        hx <= hy <= hz.

        A triple's weight is the sum of three packed weights.  No field
        carries: every coordinate of a weight of height at most h is at most
        h, and h must be below 2^FIELD_BITS, as `build_level` checks for each
        level it builds, so each field of a partial or full sum holds the
        coordinate sum itself.  So the test
        is one int addition and one set lookup, and it hits exactly when the
        tuple sum would."""
        packed_of, level_ids = self.packed_of, self.level_ids
        for hx in range(1, h // 3 + 1):
            for hy in range(hx, (h - hx) // 2 + 1):
                zs = [(z, packed_of[z]) for z in level_ids.get(h - hx - hy, ())]
                for x in level_ids.get(hx, ()):
                    px = packed_of[x]
                    for y in level_ids.get(hy, ()):
                        if not weights:
                            return
                        if y < x:
                            continue
                        pxy = px + packed_of[y]
                        for z, pz in zs:
                            w = pxy + pz
                            if z >= y and w in weights:
                                yield w, self._jacobi_boundary(x, y, z)

    def _pair_symbols(self, h_next):
        """Packed weight -> sorted pair symbols (x, y), x < y or x = y odd, of
        total height h_next.  The packed sum is the packed tuple sum (no
        field carries, see `jacobi_rows`)."""
        symbols = {}
        packed_of, parity_of = self.packed_of, self.parity_of
        for hx in range(1, h_next // 2 + 1):
            hy = h_next - hx
            ys = self.level_ids.get(hy, ())
            for x in self.level_ids.get(hx, ()):
                px = packed_of[x]
                for y in ys:
                    if hx == hy and y < x:
                        continue
                    if x == y and parity_of[x] == 0:
                        continue
                    symbols.setdefault(px + packed_of[y], []).append((x, y))
        for syms in symbols.values():
            syms.sort()
        return symbols

    def build_level(self, h_next):
        """Construct level h_next = completed + 1; returns per-weight new dims,
        also kept as `dims[h_next]`.

        Every weight that carries pair symbols gets an entry, but only live
        weights get linear algebra.  Two kinds of weight are dead:

        * Unreachable.  The presented algebra is generated in degree 1, so
          L_{h+1} = sum_i [e_i, L_h]: its component at weight w is spanned by
          the brackets [e_i, b] with b a basis element of weight w - alpha_i
          at level h.  If no w - alpha_i carries a basis element, the
          component is zero.  So the weights that can be nonzero are found
          forward, as the sums b + alpha_i over the weights b of level h and
          every i, and a symbol weight is live only if it is one of them.
          This uses only the grading of the presented algebra, never the
          root system it is compared with.
        * Saturated.  Relation rows go into one echelon per weight as they
          are made, relation elements first and then Jacobi boundaries; a
          triple's weight is tested before its boundary is computed.  Once a
          weight's rank equals its number of pair symbols, its rows span the
          whole pair space, whose reduced echelon form is unique: every
          symbol is a pivot and reads off as zero, whatever rows follow.

        A dead weight gets dimension 0 and the product {} for each of its
        pair symbols, with no Jacobi boundary computed and no relation
        element rewritten for it.  That is what the full computation yields:
        the read-off of a live weight depends only on its row space (the
        pivots are the least keys of the span's vectors), not on the order
        in which rows arrive.

        Weights are keyed on their packed ints (`pack`), and tuples are kept
        for everything the engine hands out (`weight_of`, `dims`):

        * No carry.  Every coordinate of a weight of height at most h_next
          is at most h_next, and h_next < 2^FIELD_BITS (checked first), so
          a sum of packed weights, a pair symbol's or a forward reach
          pack(b) + pack(alpha_i), is the packed sum.
        * Order.  Weights of one rank with every coordinate below
          2^FIELD_BITS pack in lexicographic order, so sorting the packed
          weights visits them, and gives out their ids, as sorting the
          tuples would; `dims[h_next]` lists them in that ascending order.
          A weight's tuple is taken from its first symbol, and its parity
          is the sum of that symbol's two parities mod 2: parity is
          additive in the weight, so this is `content_parity` of the tuple.
        """
        if h_next >= 1 << FIELD_BITS:
            raise EngineError(f"height {h_next} does not fit the {FIELD_BITS}-bit field of a packed weight")
        if h_next != self.completed + 1:
            raise EngineError("levels must be built in order")
        symbols = self._pair_symbols(h_next)
        packed_of, parity_of = self.packed_of, self.parity_of
        below = {packed_of[b] for b in self.level_ids[h_next - 1]}
        reach = {b + u for b in below for u in self._units}
        live = {w: Echelon() for w in symbols if w in reach}

        relations = self.relations_at.get(h_next, ())
        relation_rows = ((nu, self.rho_pair(terms)) for nu, terms in relations if nu in live)
        for w, row in chain(relation_rows, self.jacobi_rows(h_next, live)):
            ech = live[w]
            ech.insert(row)
            if len(ech.rows) == len(symbols[w]):
                del live[w]

        new_dims = {}
        ids = []
        weight_of = self.weight_of
        for pw in sorted(symbols):
            syms = symbols[pw]
            x, y = syms[0]
            w = tuple(map(add, weight_of[x], weight_of[y]))
            ech = live.get(pw)
            if ech is None:
                for s in syms:
                    self.products[s] = {}
                new_dims[w] = 0
                continue
            expr = ech.read_off()
            parity = parity_of[x] ^ parity_of[y]
            new_id = {s: self._new_basis(w, pw, parity) for s in syms if s not in expr}
            for s in syms:
                if s in expr:
                    self.products[s] = {new_id[q]: c for q, c in expr[s].items()}
                else:
                    self.products[s] = {new_id[s]: 1}
            dim = len(new_id)
            new_dims[w] = dim
            if dim > free_dimension(self.parities, w):
                raise EngineError(
                    f"covering produced dimension {dim} > free dimension at {w}"
                )
            ids.extend(new_id.values())
        self.level_ids[h_next] = ids
        self.dims[h_next] = new_dims
        self.completed = h_next
        return new_dims


def quotient_dimensions(presentation, max_height, excess_guard=None):
    """Iterate heights until an entire level dies or the cap is reached.

    At each height the engine does linear algebra only at the multidegrees
    reachable from surviving weights one level down (w - alpha_i survives
    for some i) and not yet saturated (see `CoveringEngine.build_level`).
    The report keeps, per multidegree that carries pair symbols and a
    nonzero free component, the free dimension, the ideal rank and the
    quotient dimension; a skipped multidegree is reported with quotient
    dimension 0 and the whole free dimension as ideal rank.

    `excess_guard` optionally maps weights to allowed dimensions: the levels
    stop as soon as some weight exceeds its allowance (the quotient can only
    keep growing above a strict excess, so callers comparing against
    reference multiplicities lose nothing by stopping there).

    Each level is read in the order the engine stored it, with no sort:
    `build_level` lists a level's weights in ascending order (its visit
    order of the sorted packed weights, see "Order" there), and
    `_init_level1` lists level 1 ascending too.  So the walk visits the
    weights, and finds the guard's first excess weight, in ascending order.

    The levels are read from `presentation.engine`, so a second run on the
    same presentation builds only the levels the first did not reach, and
    they stay there for the other checks to rewrite on
    (`CoveringEngine.rho`).
    """
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    parities = presentation.parities
    engine = presentation.engine
    per_weight = {}
    closed = False
    guard_hit = None
    h = 0
    while h < max_height:
        h += 1
        dims = engine.level(h)
        alive = 0
        for w, q in dims.items():
            free = free_dimension(parities, w)
            if free:
                per_weight[w] = (free, free - q, q)
            alive += q
            if excess_guard is not None and q > excess_guard.get(w, 0) and guard_hit is None:
                guard_hit = w
        if alive == 0:
            closed = True
            break
        if guard_hit is not None:
            break
    warning = None
    if guard_hit is not None:
        warning = f"stopped at height {h}: weight {guard_hit} exceeds its reference multiplicity"
    elif not closed:
        warning = (
            f"no closure within the height cap {max_height}: "
            "the presented algebra may be infinite dimensional"
        )
    return GradedQuotientReport(len(parities), per_weight, h, closed, warning)


# -- lowering stability ---------------------------------------------------------


# how: "zero" | "ideal" | "violation"
StabilityEntry = namedtuple("StabilityEntry", "element_index provenance i stable how")


class StabilityReport:
    def __init__(self, entries):
        self.entries = entries

    @property
    def violations(self):
        return [e for e in self.entries if not e.stable]

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "ok": self.ok,
            "entries": [
                {
                    "element": e.element_index,
                    "provenance": e.provenance,
                    "i": e.i,
                    "stable": e.stable,
                    "how": e.how,
                }
                for e in self.entries
            ],
        }


def check_lowering_stability(presentation):
    """Machine check that the lowering operators keep the relation set inside
    the ideal it generates: for every e-side element s and every i, the
    positive part of [f_i, s] is zero, or lies in the nu component of the
    ideal generated by the e side, nu = wt(s) - alpha_i.

    The second case occurs for quartic elements over an isotropic node t,
    where lowering produces a multiple of [e_t, [e_t, e_k]] =
    [[e_t, e_t], e_k] / 2, an ideal element that is not itself in the
    emitted relation set.

    The element terms arrive native (`SerrePolynomial`) and the Cartan rows
    are read from `CartanData.native_a`, so over Q the whole check runs on
    `int` and `Fraction`.  Each (element, i) entry is decided on the spot.
    An empty word expansion of the lowered element is `zero`.  Any other
    entry is rewritten in basis coordinates on the presentation's engine,
    its levels read up to the height of nu: `ideal` if the image is zero,
    `violation` if not.  The span of the e-side elements of weight nu lies
    in the ideal, so a lowered element in that span comes out `ideal` with
    no stage of its own.  A class whose entries are all `zero` never reads
    the engine, so none is made for it.  An entry whose element does not
    involve e_i is `zero` with no lowering: ad f_i is a superderivation and
    [f_i, e_k] = delta_ik h_i, so it is zero on every word without e_i.
    """
    cd = presentation.cartan
    parities = presentation.parities
    r = presentation.rank

    entries = []
    for idx, el in enumerate(presentation.e_side):
        for i in range(1, r + 1):
            lowered = lower_terms(cd, i, el.terms)[0] if el.content[i - 1] else {}
            how = "zero"
            if expand_terms(lowered, parities):  # not zero: rewrite it on the engine
                engine = presentation.engine
                engine.level(content_height(el.content) - 1)  # the height of nu
                image = {}
                for tree, coeff in lowered.items():
                    axpy(image, engine.rho(tree), coeff)
                how = "violation" if image else "ideal"
            entries.append(StabilityEntry(idx, el.provenance, i, how != "violation", how))
    return StabilityReport(entries)
