"""The free Lie superalgebra on generators e_1..e_r over Q or Q(a), as far
as the checker needs it.

Bracket monomials are binary trees whose leaves are 1-based generator
indices.  The module provides:

* the faithful word expansion into the free associative superalgebra
  (`expand_tree`, `expand_terms`, `generator_bracket_word`): a Lie element
  is zero exactly when its expansion is, so the word expansion decides
  equality and carries the word-space engine's linear algebra;
* the dimension of every multidegree component (`free_dimension`), counted
  by the Witt formula for Lyndon words plus the squares of odd elements of
  half the multidegree;
* the lowering operators ad f_i on the positive part (`lower_terms`);
* a brute-force dimension oracle (`span_dimension_by_identities`) that
  counts bracket monomials modulo the defining identities alone, against
  which `free_dimension` and the echelon-based ranks are checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import axpy


# -- trees ------------------------------------------------------------------
# A tree is either an int (1-based generator index) or a pair (left, right).


def is_leaf(tree):
    return isinstance(tree, int)


def tree_content(tree, r):
    nu = [0] * r
    stack = [tree]
    while stack:
        t = stack.pop()
        if is_leaf(t):
            nu[t - 1] += 1
        else:
            stack.extend(t)
    return tuple(nu)


def content_parity(nu, parities):
    return sum(n for n, p in zip(nu, parities) if p) & 1


def content_height(nu):
    return sum(nu)


def tree_render(tree, letter="e"):
    if is_leaf(tree):
        return f"{letter}{tree}"
    return f"[{tree_render(tree[0], letter)},{tree_render(tree[1], letter)}]"


def left_normed_tree(word):
    """[[..[e_{w1}, e_{w2}], ...], e_{wh}] for a word of generator indices."""
    tree = word[0]
    for i in word[1:]:
        tree = (tree, i)
    return tree


# -- associative expansion ----------------------------------------------------


def expand_tree(tree, parities):
    """Image of a bracket monomial in the free associative superalgebra.

    Returns a dict word-tuple -> int; the supercommutator [x, y] is
    xy - (-1)^{|x||y|} yx with parities read off the leaf content.
    """
    return _expand(tree, parities)[0]


def _expand(tree, parities):
    """(expand_tree(tree), parity of tree), the parity carried up the tree."""
    if is_leaf(tree):
        return {(tree,): 1}, parities[tree - 1]
    left, pl = _expand(tree[0], parities)
    right, pr = _expand(tree[1], parities)
    if not left or not right:
        return {}, pl ^ pr
    sign = -1 if (pl and pr) else 1
    out = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            w = wl + wr
            out[w] = out.get(w, 0) + cl * cr
            w = wr + wl
            out[w] = out.get(w, 0) - sign * cl * cr
    return {w: c for w, c in out.items() if c}, pl ^ pr


def expand_terms(terms, parities):
    """Expansion of a linear combination of trees; dict word -> coefficient.

    The coefficients are the terms' own times the integers of `expand_tree`,
    so they keep the terms' type: native `int`/`Fraction`, as a
    `SerrePolynomial` holds them, stay native and `Scalar` stays `Scalar`."""
    out = {}
    for tree, coeff in terms.items():
        if coeff:
            axpy(out, expand_tree(tree, parities), coeff)
    return out


def generator_bracket_word(i, vec, parity_i, parity_vec):
    """[e_i, vec] on word vectors: prefix minus Koszul-signed suffix."""
    koszul = -1 if (parity_i and parity_vec) else 1
    out = {(i,) + w: c for w, c in vec.items()}
    return axpy(out, {w + (i,): c for w, c in vec.items()}, -koszul)


# -- words and dimension formulas ----------------------------------------------


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


def _halved(content):
    if any(k & 1 for k in content):
        return None
    return tuple(k // 2 for k in content)


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _multinomial(content):
    from math import factorial

    out = factorial(sum(content))
    for k in content:
        out //= factorial(k)
    return out


@lru_cache(maxsize=None)
def lyndon_count(content):
    """Number of Lyndon words with the given letter content (Witt formula)."""
    h = content_height(content)
    if h == 0:
        return 0
    from math import gcd

    g = 0
    for k in content:
        g = gcd(g, k)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += _mobius(d) * _multinomial(tuple(k // d for k in content))
    return total // h


@lru_cache(maxsize=None)
def _free_dimension_cached(parities, content):
    if content_height(content) == 0:
        return 0
    n = lyndon_count(content)
    half = _halved(content)
    if half is not None and any(half) and content_parity(half, parities) == 1:
        n += lyndon_count(half)
    return n


def free_dimension(parities, content):
    """Dimension of the multidegree component of the free Lie superalgebra:
    Lyndon words of the content plus, when the half content is odd, Lyndon
    words of the half content (the squares)."""
    return _free_dimension_cached(tuple(parities), tuple(content))


# -- lowering operators ----------------------------------------------------------


def lower_terms(cd, i, terms):
    """Action of ad f_i on a positive-part element of the auxiliary algebra.

    `terms` maps trees to coefficients (one common multidegree).  Returns a
    pair (dict tree -> coefficient at multidegree nu - alpha_i, cartan
    coefficient), and keeps the coefficient type: the Cartan entries are
    read from `cd.native_a`, so native `int`/`Fraction` terms, as a
    `SerrePolynomial` holds them, give native values (`Scalar` only where a
    term or an entry involves a), and `Scalar` terms give `Scalar` values.
    Convention: [f_i, e_j] = delta_ij H_i with [H_i, y] =
    -(-1)^{p_i} (sum_j a_ij nu(y)_j) y, so that lower(i, e_i) = (0, 1) and
    lower(i, [e_i, e_j]) = (-a_ij e_j, 0) for even e_i.
    """
    parities = cd.parities
    p_i = parities[i - 1]
    row = cd.native_a[i - 1]

    memo = {}

    def go(tree):
        """(ad f_i tree as a dict, its H_i coefficient, its parity, and
        kappa = sum_j a_ij nu_j over its content nu, which is additive)."""
        got = memo.get(tree)
        if got is not None:
            return got
        if is_leaf(tree):
            res = ({}, 1 if tree == i else 0, parities[tree - 1], row[tree - 1])
            memo[tree] = res
            return res
        u, v = tree
        du, hu, pu, ku = go(u)
        dv, hv, pv, kv = go(v)
        out = {(t, v): c for t, c in du.items()}
        if hu:
            axpy(out, {v: kv if p_i else -kv}, hu)
        sign = -1 if (p_i and pu) else 1
        axpy(out, {(u, t): c for t, c in dv.items()}, sign)
        if hv:
            axpy(out, {u: ku if p_i else -ku}, -sign * hv)
        res = (out, 0, pu ^ pv, ku + kv)
        memo[tree] = res
        return res

    out = {}
    h_coeff = 0
    for tree, coeff in terms.items():
        d, h, _, _ = go(tree)
        axpy(out, d, coeff)
        h_coeff = h_coeff + coeff * h
    return out, h_coeff


# -- brute-force dimension oracle ---------------------------------------------


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
        if is_leaf(tree):
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
        if is_leaf(tree):
            return
        u, v = tree
        if not is_leaf(v):
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
