import random
from itertools import product

from conftest import _all_words, left_normed_tree, span_dimension_by_identities
from superserre.cartan_dynkin import cartan_matrix
from superserre.freelie import (
    expand_terms,
    free_dimension,
    lower_terms,
    lyndon_count,
    tree_render,
)
from superserre.linalg import Echelon
from superserre.rootdata import build_root_datum, distinguished_simple_system
from superserre.scalars import ONE, Scalar, ZERO

# The word expansion is faithful: a Lie element is zero exactly when its
# expansion into the free associative superalgebra is, so the expansion is
# the normal form these tests compare.


def test_normalize_even_square_is_zero():
    assert expand_terms({(1, 1): ONE}, parities=(0,)) == {}


def test_normalize_odd_square_survives():
    assert expand_terms({(1, 1): ONE}, parities=(1,)) == {(1, 1): Scalar(2)}


def test_normalize_super_antisymmetry():
    for p1, p2 in product((0, 1), repeat=2):
        sign = Scalar(-1 if (p1 and p2) else 1)
        assert expand_terms({(2, 1): ONE, (1, 2): sign}, parities=(p1, p2)) == {}


def test_bracket_basics():
    parities = (0, 0)
    b = expand_terms({(1, 2): ONE}, parities)
    assert b == {(1, 2): ONE, (2, 1): -ONE}
    assert expand_terms({(1, 1): ONE}, parities) == {}  # even square
    # super Jacobi instance: [e1,[e2,e3]] = [[e1,e2],e3] - [e2,[e1,e3]]
    # for odd e1, e2 and even e3
    parities = (1, 1, 0)
    jacobi = {(1, (2, 3)): ONE, ((1, 2), 3): -ONE, (2, (1, 3)): ONE}
    assert expand_terms(jacobi, parities) == {}
    assert expand_terms({(1, (2, 3)): ONE}, parities)


def test_free_dimension_examples():
    assert free_dimension((0, 0), (1, 1)) == 1
    assert free_dimension((1, 1), (1, 1)) == 1
    assert free_dimension((0, 0), (2, 0)) == 0
    assert free_dimension((1, 0), (2, 0)) == 1
    assert free_dimension((0, 0), (2, 1)) == 1


def test_lyndon_count_matches_enumeration():
    # a Lyndon word is strictly smaller than each of its proper rotations
    def is_lyndon(w):
        return all(w < w[k:] + w[:k] for k in range(1, len(w)))

    for content in [(2, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1), (4, 2)]:
        lyndon = [w for w in _all_words(content) if is_lyndon(w)]
        assert lyndon_count(content) == len(lyndon)


def test_all_words_multiset():
    words = _all_words((2, 1))
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_lower_examples():
    datum = build_root_datum("A", m=1, n=0)
    cd = cartan_matrix(datum, distinguished_simple_system(datum))
    # lower(1, [e1,e2]) = (-a12 e2, 0)
    out, h = lower_terms(cd, 1, {(1, 2): ONE})
    assert h.is_zero()
    assert out == {2: -cd.native_a[0][1]}
    # lower(2, e1) = (0, 0)
    out, h = lower_terms(cd, 2, {1: ONE})
    assert not out and h.is_zero()
    # lower(1, e1) = (0, 1)
    out, h = lower_terms(cd, 1, {1: ONE})
    assert not out and h == ONE


def test_lower_superderivation_property():
    # [f_i,[x,y]] = [[f_i,x],y] + (-1)^{p_i|x|}[x,[f_i,y]] checked on
    # random homogeneous trees in a rank-2 Cartan datum
    datum = build_root_datum("A", m=1, n=1)
    cd = cartan_matrix(datum, distinguished_simple_system(datum))
    parities = cd.parities
    rng = random.Random(11)

    def random_tree(h):
        if h == 1:
            return rng.randint(1, 3)
        k = rng.randint(1, h - 1)
        return (random_tree(k), random_tree(h - k))

    from superserre.freelie import content_parity, tree_content

    for _ in range(25):
        x = random_tree(rng.randint(1, 3))
        y = random_tree(rng.randint(1, 3))
        for i in (1, 2, 3):
            whole, h_whole = lower_terms(cd, i, {(x, y): ONE})
            assert h_whole.is_zero() or (x, y) == (i, i)
            dx, hx = lower_terms(cd, i, {x: ONE})
            dy, hy = lower_terms(cd, i, {y: ONE})
            expect = {}

            def kappa(nu):
                acc = ZERO
                for j in range(cd.rank):
                    acc = acc + cd.native_a[i - 1][j] * nu[j]
                return acc if parities[i - 1] else -acc

            def add(tree, c):
                if c.is_zero():
                    return
                v = expect.get(tree, ZERO) + c
                if v.is_zero():
                    expect.pop(tree, None)
                else:
                    expect[tree] = v

            for t, c in dx.items():
                add((t, y), c)
            if not hx.is_zero():
                add(y, hx * kappa(tree_content(y, 3)))
            sign = Scalar(-1 if (parities[i - 1] and content_parity(tree_content(x, 3), parities)) else 1)
            for t, c in dy.items():
                add((x, t), sign * c)
            if not hy.is_zero():
                add(x, -(sign * hy * kappa(tree_content(x, 3))))
            lhs = expand_terms(whole, parities)
            rhs = expand_terms(expect, parities)
            assert lhs == rhs


def test_span_of_left_normed_equals_free_dimension():
    rng = random.Random(3)
    for r in (2, 3):
        for parities in product((0, 1), repeat=r):
            contents = [c for c in product(range(5), repeat=r) if 1 <= sum(c) <= 4]
            for content in rng.sample(contents, 5):
                ech = Echelon()
                for w in _all_words(content):
                    ech.insert(expand_terms({left_normed_tree(w): ONE}, parities))
                assert ech.rank == free_dimension(parities, content), (parities, content)


def test_brute_force_oracle_small():
    for parities, content in [
        ((0, 0), (2, 2)),
        ((1, 0), (2, 1)),
        ((1, 1), (2, 2)),
        ((0, 1, 1), (1, 1, 1)),
        ((1, 1, 0), (2, 1, 1)),
    ]:
        assert span_dimension_by_identities(parities, content) == free_dimension(parities, content)


def test_tree_render():
    assert tree_render((2, (1, (2, 3)))) == "[e2,[e1,[e2,e3]]]"
    assert tree_render((2, (1, (2, 3))), "f") == "[f2,[f1,[f2,f3]]]"
