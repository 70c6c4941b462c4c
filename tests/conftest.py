"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import combinations, permutations

from superserre.cartan_dynkin import (
    BLACK,
    GREY,
    WHITE,
    DynkinDiagram,
    Edge,
    build_diagram,
    cartan_matrix,
    connected_subsets,
)
from superserre.quotient import quotient_dimensions
from superserre.freelie import content_height, content_parity, expand_terms, tree_content
from superserre.rootdata import PreconditionError, enumerate_simple_systems
from superserre.scalars import FORBIDDEN_ALPHA, exact, parse_scalar, render
from superserre.serre import Presentation, SerrePolynomial, ad_power
from superserre.verify import reference_multiplicities, verify_presentation


# family, constructor kwargs, expected total dimension (rank + root count)
FAMILY_MATRIX = [
    ("A", dict(m=1, n=0), 8),
    ("A", dict(m=1, n=1), 15),
    ("A", dict(m=2, n=1), 24),
    ("B", dict(m=0, n=1), 5),
    ("B", dict(m=0, n=2), 14),
    ("B", dict(m=1, n=1), 12),
    ("B", dict(m=1, n=2), 25),
    ("C", dict(n=3), 19),
    ("D", dict(m=2, n=1), 17),
    ("D", dict(m=2, n=2), 32),
    ("F4", {}, 40),
    ("G3", {}, 31),
    ("D21a", {}, 17),
]

# the benchmark's catalogue algebras, of ranks 8, 6, 5 and 7
CATALOGUE = [
    ("A", dict(m=4, n=3)),
    ("B", dict(m=3, n=3)),
    ("C", dict(n=5)),
    ("D", dict(m=4, n=3)),
]


def algebras_of_rank(r):
    """(family, parameters) of every algebra of rank r: A(m,n) with m >= n
    (A(m,n) is A(n,m)) and (m,n) != (0,0) of rank m + n + 1; B(m,n), n >= 1, and D(m,n),
    m >= 2, n >= 1, of rank m + n; C(n), n >= 3, of rank n; G(3) and
    generic D(2,1;a) of rank 3, F(4) of rank 4."""
    out = [("A", dict(m=r - 1 - n, n=n)) for n in range(r) if r - 1 - n >= n and r > 1]
    out += [("B", dict(m=r - n, n=n)) for n in range(1, r + 1)]
    out += [("C", dict(n=r))] if r >= 3 else []
    out += [("D", dict(m=r - n, n=n)) for n in range(1, r - 1)]
    out += {3: [("G3", {}), ("D21a", {})], 4: [("F4", {})]}.get(r, [])
    return out


def _paper_standard_elements(cd):
    """The standard Serre elements by the paper's rule alone, with no
    duplicate removed: (ad e_i)^{1-a_ij}(e_j) for every ordered pair i != j
    with a_ii != 0 or a_ij = 0, so both orders of an orthogonal pair, and
    [e_t, e_t] at every isotropic t."""
    r = cd.rank
    out = []
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i != j and not cd.is_isotropic(i):
                tree = ad_power(i, j, 1 - cd.a_integer(i, j))
            elif i != j and not cd.native_a[i - 1][j - 1]:
                tree = (i, j)
            else:
                continue
            out.append(SerrePolynomial({tree: 1}, "standard", (i, j), r))
    for t in range(1, r + 1):
        if cd.is_isotropic(t):
            out.append(SerrePolynomial({(t, t): 1}, "standard", (t,), r))
    return out


# -- higher order patterns, matched independently of `superserre.serre` --------
#
# The matchers below are a fixed copy of an earlier form of the pattern code:
# each 3-node shape by loops of its own over middle nodes and permutations,
# and each 4-node path on all 24 orderings.  The expansion oracle takes its
# higher order candidates from them, so a change to the library's matchers
# shows up as a difference from the oracle.

_CROSS = (WHITE, GREY)  # "x" nodes in the reference tables are white or grey


def _arrow_of(sub):
    """(i, j) -> the node that the arrow of the i-j edge of `sub` points to,
    or None."""

    def arrow(i, j):
        e = sub.edge(i, j)
        return e.arrow_towards if e else None

    return arrow


def _quartic(t, j, k):
    return {(t, (j, (t, k))): 1}


def _match_3node(sub, nodes):
    """Yield (case name, element terms dict, nodes) for one connected 3-node
    full sub-diagram.

    `nodes` are the original 1-based generator indices; `sub` uses local
    indices 0,1,2 in the same order.
    """
    c = sub.nodes
    cnt = sub.count
    arrow = _arrow_of(sub)
    for t in range(3):
        if c[t] != GREY:
            continue
        others = [x for x in range(3) if x != t]
        for j, k in (others, others[::-1]):
            # chain j - t - k, no j-k edge
            if cnt(j, k) != 0:
                continue
            gj, gt, gk = nodes[j], nodes[t], nodes[k]
            if cnt(j, t) == 1 and cnt(t, k) == 1 and c[j] in _CROSS and c[k] in _CROSS:
                if sub.edge(j, t).sign * sub.edge(t, k).sign == -1 and j < k:
                    yield "case-1", _quartic(gt, gj, gk), (gj, gt, gk)
            if cnt(j, t) == 1 and cnt(t, k) == 2 and c[j] in _CROSS and arrow(t, k) == k:
                if c[k] == WHITE:
                    yield "case-2", _quartic(gt, gj, gk), (gj, gt, gk)
                elif c[k] == BLACK:
                    yield "case-3", _quartic(gt, gj, gk), (gj, gt, gk)
            if cnt(j, t) == 1 and cnt(t, k) == 2 and c[j] == GREY and c[k] == WHITE and arrow(t, k) == t:
                yield "case-4", {((gj, gt), ((gj, gt), (gt, gk))): 1}, (gj, gt, gk)
            if cnt(j, t) == 2 and cnt(t, k) == 2 and c[j] == GREY and c[k] == WHITE and arrow(t, k) == t:
                # white k => grey t = grey j (the renormalised sl(1|3) shape)
                yield "case-9", _quartic(gt, gj, gk), (gk, gt, gj)

    # triangle patterns
    if all(cnt(a, b) for a in range(3) for b in range(a + 1, 3)):
        counts = sorted((cnt(0, 1), cnt(0, 2), cnt(1, 2)))
        if counts == [1, 1, 2]:
            for i in range(3):
                t, s = [x for x in range(3) if x != i]
                if (
                    c[i] in _CROSS
                    and c[t] == GREY
                    and c[s] == GREY
                    and cnt(i, t) == 1
                    and cnt(i, s) == 1
                    and cnt(t, s) == 2
                ):
                    gi, gt, gs = nodes[i], nodes[t], nodes[s]
                    yield "case-6", {(gt, (gs, gi)): 1, (gs, (gt, gi)): -1}, (gi, gt, gs)
                    break
        if counts == [1, 2, 3] and all(col == GREY for col in c):
            # roles by edge multiplicities: i on {1,2}, j on {1,3}, k on {2,3}
            for i, j, k in permutations(range(3)):
                if cnt(i, j) == 1 and cnt(i, k) == 2 and cnt(j, k) == 3:
                    gi, gj, gk = nodes[i], nodes[j], nodes[k]
                    yield "case-10", {(gi, (gk, gj)): 2, (gj, (gk, gi)): 3}, (gi, gj, gk)
                    break
        if counts == [1, 2, 3] and sorted(c) == sorted([WHITE, GREY, GREY]):
            for n1, n2, n3 in permutations(range(3)):
                if (
                    c[n1] == WHITE
                    and c[n2] == GREY
                    and c[n3] == GREY
                    and cnt(n1, n2) == 1
                    and cnt(n1, n3) == 2
                    and cnt(n2, n3) == 3
                ):
                    g1, g2, g3 = nodes[n1], nodes[n2], nodes[n3]
                    yield "case-13", {(g2, (g3, g1)): 1, (g3, (g2, g1)): -2}, (g1, g2, g3)
                    break

    # chains with multiplicities {1, 3} or {2, 3}
    for n2 in range(3):
        if c[n2] != GREY:
            continue
        others = [x for x in range(3) if x != n2]
        for n1, n3 in (others, others[::-1]):
            if cnt(n1, n3) != 0:
                continue
            if (
                c[n1] == GREY
                and c[n3] == WHITE
                and cnt(n1, n2) == 1
                and cnt(n2, n3) == 3
                and arrow(n2, n3) == n2
            ):
                g1, g2, g3 = nodes[n1], nodes[n2], nodes[n3]
                e12 = (g1, g2)
                yield "case-11", {(e12, (e12, (e12, (g2, g3)))): 1}, (g1, g2, g3)
            if (
                c[n1] == BLACK
                and c[n3] == WHITE
                and cnt(n1, n2) == 2
                and arrow(n1, n2) == n1
                and cnt(n2, n3) == 3
                and arrow(n2, n3) == n2
            ):
                g1, g2, g3 = nodes[n1], nodes[n2], nodes[n3]
                yield (
                    "case-12",
                    {
                        ((g2, g1), (g3, (g2, g1))): 1,
                        ((g2, g3), ((g1, g1), g2)): -1,
                    },
                    (g1, g2, g3),
                )


def _match_4node_every_ordering(sub, nodes):
    """The three 4-node path patterns tried on all 24 orderings of the
    nodes, an ordering kept when every edge of `sub` joins two nodes
    adjacent in it: no path order is computed."""
    c, cnt, arrow = sub.nodes, sub.count, _arrow_of(sub)
    for perm in permutations(range(4)):
        chain = {frozenset(p) for p in zip(perm, perm[1:])}
        if not all(frozenset(ij) in chain for ij, e in sub.edges.items() if e.count):
            continue
        colours = tuple(c[v] for v in perm)
        chain_78 = colours == (WHITE, GREY, WHITE, WHITE)
        chain_5 = colours[0] in (WHITE, GREY) and colours[1:] == (WHITE, GREY, WHITE)
        n1, n2, n3, n4 = perm
        g1, g2, g3, g4 = (nodes[v] for v in perm)
        if chain_78 and cnt(n1, n2) == 3 and arrow(n1, n2) == n2:
            if cnt(n2, n3) == 2 and arrow(n2, n3) == n2 and cnt(n3, n4) == 1:
                e = ((g1, g2), (g2, g3))
                yield "case-7", {(e, (e, (g2, (g3, g4)))): 1}, (g1, g2, g3, g4)
            if cnt(n2, n3) == 1 and cnt(n3, n4) == 2 and arrow(n3, n4) == n3:
                a12, a23, a34 = (g1, g2), (g2, g3), (g3, g4)
                yield "case-8", {(a12, (a23, a34)): 1, (a23, (a12, a34)): -1}, (g1, g2, g3, g4)
        elif chain_5 and cnt(n1, n2) == 1 and cnt(n2, n3) == 1:
            if cnt(n3, n4) == 2 and arrow(n3, n4) == n3:
                jt = (g2, g3)
                yield "case-5", {((g1, jt), (jt, (g3, g4))): 1}, (g1, g2, g3, g4)


def _match_d21a(sub, nodes):
    """Pattern 14: the all-grey labelled triangle of D(2,1;a).

    Roles are fixed by the labels: the n1-n2 edge carries 1, the n1-n3 edge
    carries the parameter and the n2-n3 edge carries minus one plus the
    parameter.  The parameter is read off the matched labels, so generating
    relations commutes with specialising it to a rational value.
    """
    if any(col != GREY for col in sub.nodes):
        return
    if not all(sub.count(a, b) == 1 for a in range(3) for b in range(a + 1, 3)):
        return
    matches = []
    for n1, n2, n3 in permutations(range(3)):
        if sub.b_label(n1, n2) != 1:
            continue
        alpha = sub.b_label(n1, n3)
        if sub.b_label(n2, n3) == -(1 + alpha):
            matches.append(((n1, n2, n3), alpha))
    if not matches:
        return
    (n1, n2, n3), alpha = min(matches, key=lambda m: m[0])
    g1, g2, g3 = nodes[n1], nodes[n2], nodes[n3]
    terms = {(g1, (g2, g3)): alpha, (g2, (g1, g3)): 1 + alpha}
    yield "case-14", terms, (g1, g2, g3)


def full_subdiagrams(diag, k):
    """All connected k-node full sub-diagrams (induced edges, arrows and
    labels kept), as pairs (node subset, induced diagram), the subsets those
    of the last `connected_subsets` stage in its order.  Nodes of the
    induced diagram are relabelled 0..k-1 in the order of the subset, which
    is sorted."""
    out = []
    for subset in connected_subsets(diag, k)[k - 1]:
        relabel = {v: t for t, v in enumerate(subset)}
        edges = {}
        for (a, i), (b, j) in combinations(enumerate(subset), 2):
            e = diag.edges.get((i, j))
            if e is not None:
                arrow = relabel[e.arrow_towards] if e.arrow_towards is not None else None
                edges[(a, b)] = Edge(e.count, arrow, e.sign, e.b_label)
        out.append((subset, DynkinDiagram([diag.nodes[v] for v in subset], edges, diag.labelled)))
    return out


def higher_order_oracle(cd, diag):
    """Every higher order match of the matchers above, in match order."""
    out = []
    matchers = ((3, _match_d21a),) if diag.labelled else ((3, _match_3node), (4, _match_4node_every_ordering))
    for size, match in matchers:
        if size > cd.rank:
            break
        for subset, sub in full_subdiagrams(diag, size):
            nodes = tuple(v + 1 for v in subset)
            for case, terms, assign in match(sub, nodes):
                out.append(SerrePolynomial(terms, case, assign, cd.rank))
    return out


def expansion_oracle(datum, system):
    """The e side of a presentation built with no shortcut: the unfiltered
    standard elements, then every higher order match of this module's own
    matchers, the first of each expansion into free-Lie words kept in order
    of first appearance.

    Coefficients are canonical, so two expansions are equal exactly when
    their (word, coefficient) sets are.  The terms would not do as a key:
    distinct bracket monomials can be the same Lie element, as [e_i, e_j]
    and [e_j, e_i] are for odd e_i and e_j."""
    cd = cartan_matrix(datum, system)
    elements = _paper_standard_elements(cd) + higher_order_oracle(cd, build_diagram(cd))
    seen = {}
    for el in elements:
        seen.setdefault(frozenset(expand_terms(el.terms, cd.parities).items()), el)
    return list(seen.values())


def verify_all_borels(datum):
    """One verification report per enumerated simple system."""
    return [verify_presentation(datum, system) for system in enumerate_simple_systems(datum)]


def without_element(pres, index):
    """`pres` with one element removed, from both sides; `index` must
    address an element of `e_side`, counted from 0, and any other index
    raises PreconditionError."""
    if not 0 <= index < len(pres.e_side):
        raise PreconditionError(f"element index {index} is outside 0..{len(pres.e_side) - 1}")
    e_side = pres.e_side[:index] + pres.e_side[index + 1:]
    return Presentation(pres.cartan, e_side, pres.name)


def necessity_oracle(pres, system):
    """`necessity_survey`'s JSON for the presentation `pres` of the class
    `system`, by the definition it replaced: delete each higher order
    element in turn and rerun the quotient, guarded by the reference table
    of `system`, up to top + 1.  The element is necessary when some weight
    exceeds its reference multiplicity; the guard stops at the first height
    with an excess, and the least excess weight there is the first."""
    ref = reference_multiplicities(system)
    top = max(sum(w) for w in ref)
    out = []
    for j, el in enumerate(pres.e_side):
        if el.provenance == "standard":
            continue
        report = quotient_dimensions(without_element(pres, j), top + 1, excess_guard=ref)
        h = report.max_height_reached
        excess = sorted(
            w for w, (_, _, q) in report.per_weight.items() if sum(w) == h and q > ref.get(w, 0)
        )
        out.append(
            {
                "provenance": el.provenance,
                "nodes": list(el.nodes),
                "necessary": bool(excess),
                "firstExcessWeight": list(excess[0]) if excess else None,
            }
        )
    return out


# -- specialising the parameter a ---------------------------------------------


class AlphaDomainError(ValueError):
    """Raised when the deformation parameter is specialised to 0 or -1."""


class PoleError(ZeroDivisionError):
    """Raised when a substitution makes a denominator vanish."""


def _poly_value(p, a0):
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * a0 + c
    return acc


def evaluate_at(x, a0):
    """The `Scalar` x at a := a0, exactly.  A pole of x at a0 raises
    PoleError, checked first; a0 in {0, -1} raises AlphaDomainError; a
    float a0 raises TypeError."""
    a0 = exact(a0)
    d = _poly_value(x.den, a0)
    if d == 0:
        raise PoleError(f"denominator of {x} vanishes at a = {a0}")
    if a0 in FORBIDDEN_ALPHA:
        raise AlphaDomainError(f"a = {a0} is excluded: the parameter ranges over C \\ {{0, -1}}")
    return _poly_value(x.num, a0) / d


# -- brute-force free-Lie dimension oracle ------------------------------------
#
# `free_dimension` and the echelon-based ranks are checked against these:
# bracket monomials counted modulo the defining identities alone.


def left_normed_tree(word):
    """[[..[e_{w1}, e_{w2}], ...], e_{wh}] for a word of generator indices."""
    tree = word[0]
    for i in word[1:]:
        tree = (tree, i)
    return tree


def _all_words(content):
    """Distinct arrangements of the multiset, in lexicographic order."""
    word = []
    for i, k in enumerate(content, start=1):
        word.extend([i] * k)
    if not word:
        return []
    out = [tuple(word)]
    n = len(word)
    while True:
        # standard next-permutation step
        k = n - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return out
        m = n - 1
        while word[m] <= word[k]:
            m -= 1
        word[k], word[m] = word[m], word[k]
        word[k + 1:] = reversed(word[k + 1:])
        out.append(tuple(word))


def _tree_shapes(h):
    if h == 1:
        return [None]  # a single leaf slot
    out = []
    for k in range(1, h):
        for left in _tree_shapes(k):
            for right in _tree_shapes(h - k):
                out.append((k, left, right))
    return out


def _fill(shape, word):
    if shape is None:
        return word[0]
    k, left, right = shape
    return (_fill(left, word[:k]), _fill(right, word[k:]))


class _SignedUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def find(self, x):
        if self.parent[x] == x:
            return x, self.sign[x]
        root, s = self.find(self.parent[x])
        self.parent[x] = root
        self.sign[x] *= s
        return root, self.sign[x]

    def union(self, x, y, s):
        """Impose m_x = s * m_y."""
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx != s * sy:
                self.dead[rx] = True
            return
        # m_x = sx*rx and m_y = sy*ry, so rx = (s*sy/sx)*ry with sx in {1,-1}
        self.parent[rx] = ry
        self.sign[rx] = s * sy * sx
        self.dead[ry] = self.dead[ry] or self.dead[rx]


def span_dimension_by_identities(parities, content):
    """Independent oracle: dimension of the multidegree component computed as
    the span of all bracket monomials modulo super antisymmetry and the super
    Jacobi identity only (no normal-form theory involved).

    Antisymmetry instances are folded into a signed union-find over monomial
    trees; Jacobi instances become sparse rows whose exact rank is subtracted.
    The rank comes from a plain `Fraction` elimination written out here, not
    from `linalg.Echelon`: this oracle is what the echelon-based ranks are
    checked against, so it must not share their code.
    """
    h = content_height(content)
    r = len(content)
    monomials = []
    for shape in _tree_shapes(h):
        for word in _all_words(content):
            monomials.append(_fill(shape, word))
    monomials = sorted(set(monomials), key=repr)
    index = {m: k for k, m in enumerate(monomials)}
    uf = _SignedUnionFind(len(monomials))

    def par(tree):
        return content_parity(tree_content(tree, r), parities)

    def node_swaps(tree):
        if isinstance(tree, int):
            return
        u, v = tree
        koszul = -1 if (par(u) and par(v)) else 1
        yield (v, u), -koszul
        for sub, s in node_swaps(u):
            yield (sub, v), s
        for sub, s in node_swaps(v):
            yield (u, sub), s

    for m in monomials:
        for other, s in node_swaps(m):
            uf.union(index[m], index[other], s)

    columns = {}
    for k in range(len(monomials)):
        root, _ = uf.find(k)
        if not uf.dead[root] and root not in columns:
            columns[root] = len(columns)
    if not columns:
        return 0

    def to_row(entries):
        row = {}
        for tree, coeff in entries:
            root, s = uf.find(index[tree])
            if uf.dead[root]:
                continue
            col = columns[root]
            row[col] = row.get(col, 0) + coeff * s
        return {c: v for c, v in row.items() if v}

    def jacobi_rows(tree, context):
        if isinstance(tree, int):
            return
        u, v = tree
        if not isinstance(v, int):
            y, z = v
            s = -1 if (par(u) and par(y)) else 1
            yield [
                (context((u, (y, z))), 1),
                (context(((u, y), z)), -1),
                (context((y, (u, z))), -s),
            ]
        yield from jacobi_rows(u, lambda t, _v=v: context((t, _v)))
        yield from jacobi_rows(v, lambda t, _u=u: context((_u, t)))

    rows = []
    seen = set()
    for m in monomials:
        for entries in jacobi_rows(m, lambda t: t):
            row = to_row(entries)
            if row:
                key = tuple(sorted(row.items()))
                if key not in seen:
                    seen.add(key)
                    rows.append(row)

    pivots = {}
    rank = 0
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items()}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = 1 / row[col]
                pivots[col] = {c: v * inv for c, v in row.items()}
                rank += 1
                break
            f = row[col]
            for c, v in piv.items():
                nv = row.get(c, Fraction(0)) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(columns) - rank


def diagram_shape(diag):
    """Canonical relabelling-invariant fingerprint of a decorated diagram.

    Arrows are kept as directed data, signs are dropped (they are checked
    separately where the reference tables pin them), labels are kept for
    labelled diagrams.
    """
    best = None
    n = diag.size
    for perm in permutations(range(n)):
        nodes = tuple(diag.nodes[perm.index(k)] for k in range(n))
        remap = {old: new for old, new in zip(range(n), perm)}
        edges = []
        for (i, j), e in diag.edges.items():
            a, b = remap[i], remap[j]
            arrow = remap[e.arrow_towards] if e.arrow_towards is not None else None
            label = render(e.b_label) if e.b_label is not None else None
            edges.append((min(a, b), max(a, b), e.count, arrow, label))
        key = (nodes, tuple(sorted(edges)))
        if best is None or key < best:
            best = key
    return best


def shape_of(datum, system):
    return diagram_shape(build_diagram(cartan_matrix(datum, system)))


def make_shape(colors, edges):
    """Build a fingerprint from a literal description.

    `edges` is a list of (i, j, count, arrow_or_None, label_or_None).
    """
    from superserre.cartan_dynkin import DynkinDiagram, Edge

    e = {}
    for i, j, count, arrow, label in edges:
        e[(min(i, j), max(i, j))] = Edge(
            count, arrow, 0, parse_scalar(label) if label is not None else None
        )
    return diagram_shape(DynkinDiagram(colors, e, labelled=any(x[4] for x in edges)))
