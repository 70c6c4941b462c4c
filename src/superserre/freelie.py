"""The free Lie superalgebra on generators e_1..e_r over Q or Q(a), as far
as the checker needs it.

Bracket monomials are binary trees whose leaves are 1-based generator
indices.  The module provides:

* the faithful word expansion into the free associative superalgebra
  (`expand_terms`, `generator_bracket_word`): a Lie element is zero
  exactly when its expansion is, so the word expansion decides equality
  and carries the word-space engine's linear algebra;
* the dimension of every multidegree component (`free_dimension`), counted
  by the Witt formula for Lyndon words plus the squares of odd elements of
  half the multidegree;
* the lowering operators ad f_i on the positive part (`lower_terms`).

The brute-force dimension oracle that `free_dimension` and the echelon-based
ranks are checked against lives with the tests (`tests/conftest.py`), so the
package ships none of it.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import axpy


# -- trees ------------------------------------------------------------------
# A tree is either an int (1-based generator index) or a pair (left, right).


def tree_content(tree, r):
    nu = [0] * r
    stack = [tree]
    while stack:
        t = stack.pop()
        if type(t) is int:
            nu[t - 1] += 1
        else:
            stack.extend(t)
    return tuple(nu)


def content_parity(nu, parities):
    return sum(n for n, p in zip(nu, parities) if p) & 1


def content_height(nu):
    return sum(nu)


def tree_render(tree, letter="e"):
    if type(tree) is int:
        return f"{letter}{tree}"
    return f"[{tree_render(tree[0], letter)},{tree_render(tree[1], letter)}]"


# -- associative expansion ----------------------------------------------------


def _expand(tree, parities):
    """(image of a bracket monomial in the free associative superalgebra,
    parity of the monomial), the parity carried up the tree.

    The image is a dict word-tuple -> int; the supercommutator [x, y] is
    xy - (-1)^{|x||y|} yx with parities read off the leaf content.
    """
    if type(tree) is int:
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

    The coefficients are the terms' own times the integers of `_expand`,
    so they keep the terms' type: native `int`/`Fraction`, as a
    `SerrePolynomial` holds them, stay native and `Scalar` stays `Scalar`."""
    out = {}
    for tree, coeff in terms.items():
        if coeff:
            axpy(out, _expand(tree, parities)[0], coeff)
    return out


def generator_bracket_word(i, vec, parity_i, parity_vec):
    """[e_i, vec] on word vectors: prefix minus Koszul-signed suffix."""
    koszul = -1 if (parity_i and parity_vec) else 1
    out = {(i,) + w: c for w, c in vec.items()}
    return axpy(out, {w + (i,): c for w, c in vec.items()}, -koszul)


# -- dimension formulas --------------------------------------------------------


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
def free_dimension(parities, content):
    """Dimension of the multidegree component of the free Lie superalgebra:
    Lyndon words of the content plus, when the half content is odd, Lyndon
    words of the half content (the squares).  Cached: both are tuples."""
    if content_height(content) == 0:
        return 0
    n = lyndon_count(content)
    half = _halved(content)
    if half is not None and any(half) and content_parity(half, parities) == 1:
        n += lyndon_count(half)
    return n


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
        if type(tree) is int:
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
