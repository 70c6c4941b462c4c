"""Shared helpers for the test suite."""

from itertools import permutations

from superserre.cartan_dynkin import build_diagram, cartan_matrix
from superserre.quotient import quotient_dimensions
from superserre.freelie import expand_terms
from superserre.serre import SerrePolynomial, ad_power, higher_order_serre_elements
from superserre.verify import reference_multiplicities


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
            out.append(SerrePolynomial({tree: 1}, "e", "standard", (i, j), r))
    for t in range(1, r + 1):
        if cd.is_isotropic(t):
            out.append(SerrePolynomial({(t, t): 1}, "e", "standard", (t,), r))
    return out


def expansion_oracle(datum, system):
    """The e side of a presentation built with no shortcut: the unfiltered
    standard elements, then every higher order match, the first of each
    expansion into free-Lie words kept in order of first appearance.

    Coefficients are canonical, so two expansions are equal exactly when
    their (word, coefficient) sets are.  The terms would not do as a key:
    distinct bracket monomials can be the same Lie element, as [e_i, e_j]
    and [e_j, e_i] are for odd e_i and e_j."""
    cd = cartan_matrix(datum, system)
    elements = _paper_standard_elements(cd) + higher_order_serre_elements(cd, build_diagram(cd))
    seen = {}
    for el in elements:
        seen.setdefault(frozenset(expand_terms(el.terms, cd.parities).items()), el)
    return list(seen.values())


def necessity_oracle(pres):
    """`necessity_survey`'s JSON for the presentation `pres`, by the
    definition it replaced: delete each higher order element in turn and
    rerun the quotient, guarded by the reference table, up to top + 1.  The
    element is necessary when some weight exceeds its reference multiplicity;
    the guard stops at the first height with an excess, and the least excess
    weight there is the first."""
    ref = reference_multiplicities(pres.system)
    top = max(sum(w) for w in ref)
    out = []
    for j, el in enumerate(pres.e_side):
        if el.provenance == "standard":
            continue
        report = quotient_dimensions(pres.without_element(j), top + 1, excess_guard=ref)
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
            label = e.b_label.render() if e.b_label is not None else None
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
    from superserre.scalars import parse_scalar

    e = {}
    for i, j, count, arrow, label in edges:
        e[(min(i, j), max(i, j))] = Edge(
            count, arrow, 0, parse_scalar(label) if label is not None else None
        )
    return diagram_shape(DynkinDiagram(colors, e, labelled=any(x[4] for x in edges)))
