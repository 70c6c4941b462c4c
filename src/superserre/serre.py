"""Defining relation sets: standard Serre elements and the fourteen families
of higher order Serre elements attached to full sub-diagrams.

Pattern matching reads Cartan data (colors, edge counts, arrows, Gram signs
and, in type D(2,1;a), edge labels) from the class's own diagram, never the
drawn picture, on each connected node subset; no sub-diagram is built.
Each pattern is one condition on one ordering of a subset's nodes: the
chain patterns on a path's order and its reverse (`_match_path`), the
triangle patterns on every ordering of a triangle (`_match_triangle`,
`_match_d21a`).  Node indices in emitted elements are 1-based generator
indices.  Each element is emitted once, so none is expanded into free-Lie
words to find repeats.  Elements are stored on the e side only: the f side
is their image under the anti-involution omega, with the same trees and
coefficients, and is printed from them.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import permutations

from .cartan_dynkin import BLACK, GREY, WHITE, _path_order, build_diagram, cartan_matrix, connected_subsets
from .freelie import content_height, tree_content, tree_render
from .quotient import CoveringEngine
from .scalars import native, render


class SerrePolynomial:
    """Homogeneous combination of bracket words in the generators, its
    coefficients converted once by `scalars.native`: `int` or `Fraction`,
    `Scalar` only where the parameter a appears.  Every consumer reads the
    terms as they are.  `content`, the multidegree in `rank` generators, is
    the first term's content, which the constructor checks every other term
    against; it has height at least 2.
    `render` prints it on the e side, `to_json` on the side it is given."""

    __slots__ = ("terms", "provenance", "nodes", "content")

    def __init__(self, terms, provenance, nodes, rank):
        self.terms = {t: native(c) for t, c in terms.items()}
        self.provenance = provenance
        self.nodes = tuple(nodes)
        if not any(self.terms.values()):
            raise ValueError("a Serre element must be nonzero")
        first, *others = self.terms
        self.content = tree_content(first, rank)
        if any(tree_content(t, rank) != self.content for t in others):
            contents = list(dict.fromkeys(tree_content(t, rank) for t in self.terms))
            raise ValueError(f"inhomogeneous Serre element: {contents}")
        if content_height(self.content) < 2:  # the engines take the generators as free
            raise ValueError(f"a Serre element must have height at least 2: {self.content}")

    def render(self, fmt="text"):
        latex = fmt == "latex"
        letter = "e_" if latex else "e"
        out = ""
        for t in sorted(self.terms, key=repr) if len(self.terms) > 1 else self.terms:
            c = self.terms[t]
            body = tree_render(t, letter)
            if c == 1:
                part = body
            elif c == -1:
                part = "-" + body
            else:
                part = f"({render(c)})" + ("" if latex else "*") + body
            out += part if not out or part.startswith("-") else "+" + part
        return out

    def to_json(self, side="e"):
        def tree_json(t):
            if isinstance(t, int):
                return f"{side}{t}"
            return [tree_json(t[0]), tree_json(t[1])]

        return {
            "side": side,
            "provenance": self.provenance,
            "nodes": list(self.nodes),
            "multidegree": list(self.content),
            "terms": [
                {"coefficient": render(c), "word": tree_json(t)}
                for t, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
            ],
        }

    def __repr__(self):
        return f"<{self.provenance} {self.render()}>"


def ad_power(i, j, n):
    """(ad e_i)^n (e_j) as a tree."""
    t = j
    for _ in range(n):
        t = (i, t)
    return t


def standard_serre_elements(cd):
    """(ad e_i)^{1-a_ij}(e_j) for i != j with a_ii != 0 or a_ij = 0, and the
    squares [e_t, e_t] at isotropic t, no two with the same expansion.

    Expansions are nonzero (the word e_i...e_i e_j has coefficient 1) and
    homogeneous, and two contents n*alpha_i + alpha_j coincide only when
    n = 1: [e_i, e_j] and [e_j, e_i] with a_ij = a_ji = 0.  The expansion
    e_i e_j - (-1)^{p_i p_j} e_j e_i equals its swap exactly when both
    generators are odd, so then the later one, with i > j, is left out.
    Otherwise it is the swap's negative, and both stay in the set.

    Rows of `native_a` are read as they are: `CartanData` has checked that
    a non-isotropic row is integral.
    """
    out = []
    r = cd.rank
    odd = cd.parities
    for i, row in enumerate(cd.native_a, 1):
        isotropic = cd.is_isotropic(i)
        for j in range(1, r + 1):
            if i == j:
                continue
            if not isotropic:
                n = 1 - row[j - 1]
            elif not row[j - 1]:
                n = 1
            else:
                continue
            if n == 1 and i > j and odd[i - 1] and odd[j - 1]:
                continue
            out.append(SerrePolynomial({ad_power(i, j, n): 1}, "standard", (i, j), r))
    for t in range(1, r + 1):
        if cd.is_isotropic(t):
            out.append(SerrePolynomial({(t, t): 1}, "standard", (t,), r))
    return out


# -- higher order patterns -----------------------------------------------------

_CROSS = (WHITE, GREY)  # "x" nodes in the reference tables are white or grey


def _quartic(t, j, k):
    return {(t, (j, (t, k))): 1}


def _match_path(diag, subset):
    """Yield (case name, element terms dict, nodes) for one connected 3- or
    4-node subset of the class's diagram: the chain cases 1-4, 9, 11 and 12
    on three nodes and 5, 7 and 8 on four.

    `subset` holds sorted 0-based nodes of `diag`, whose colours, edges,
    arrows and signs are read by those indices; the emitted nodes are the
    1-based generator indices.  Every chain pattern n1 - n2 - ... has edges
    between adjacent nodes only, so only an ordering along a path can match:
    the path's order and its reverse, and no ordering of any other subset.
    Along an ordering `cnt` holds the edge counts and `to` the arrow
    directions, +1 towards the later node, -1 towards the earlier, 0 for no
    arrow.

    At most one case fires per ordering: cases with the same node count
    differ in `cnt`, or in an arrow or a colour.  No case's `cnt` is
    another's reversed, and only cases 1 (1, 1) and 9 (2, 2) have a `cnt`
    that reads the same reversed; case 1 is taken on the order only, and
    case 9's colours (G, G, W) are no palindrome.  So a path yields at most
    one element.  `_path_order` starts at the smaller end, so the order
    precedes its reverse among all orderings.

    Reading the diagram itself gives what an induced sub-diagram relabelled
    0..k-1 would: the relabelling keeps the order of the sorted subset, so
    a local order is the original order.  The smaller-end rule, the test
    `perm is order` here, `n2 < n3` in `_match_triangle` and the
    lexicographic order of `permutations` in `_match_triangle` and
    `_match_d21a` therefore pick the same orderings on either reading.
    """
    order = _path_order(diag, subset)
    if order is None:
        return
    for perm in (order, order[::-1]):
        col = [diag.nodes[v] for v in perm]
        # every chain pattern has a grey inner node
        if GREY not in col[1:-1]:
            continue
        edges = [diag.edge(a, b) for a, b in zip(perm, perm[1:])]
        cnt = [e.count for e in edges]
        to = [(e.arrow_towards == b) - (e.arrow_towards == a) for e, a, b in zip(edges, perm, perm[1:])]
        g = [v + 1 for v in perm]
        if len(perm) == 3:
            g1, g2, g3 = g
            sign = edges[0].sign * edges[1].sign
            if cnt == [1, 1] and sign == -1 and col[0] in _CROSS and col[2] in _CROSS and perm is order:
                yield "case-1", _quartic(g2, g1, g3), (g1, g2, g3)
            elif cnt == [1, 2] and to[1] == 1 and col[0] in _CROSS and col[2] == WHITE:
                yield "case-2", _quartic(g2, g1, g3), (g1, g2, g3)
            elif cnt == [1, 2] and to[1] == 1 and col[0] in _CROSS and col[2] == BLACK:
                yield "case-3", _quartic(g2, g1, g3), (g1, g2, g3)
            elif cnt == [1, 2] and to[1] == -1 and col[0] == GREY and col[2] == WHITE:
                yield "case-4", {((g1, g2), ((g1, g2), (g2, g3))): 1}, (g1, g2, g3)
            elif cnt == [2, 2] and to[1] == -1 and col[0] == GREY and col[2] == WHITE:
                # white g3 => grey g2 = grey g1 (the renormalised sl(1|3) shape)
                yield "case-9", _quartic(g2, g1, g3), (g3, g2, g1)
            elif cnt == [1, 3] and to[1] == -1 and col[0] == GREY and col[2] == WHITE:
                e12 = (g1, g2)
                yield "case-11", {(e12, (e12, (e12, (g2, g3)))): 1}, (g1, g2, g3)
            elif cnt == [2, 3] and to == [-1, -1] and col[0] == BLACK and col[2] == WHITE:
                terms = {((g2, g1), (g3, (g2, g1))): 1, ((g2, g3), ((g1, g1), g2)): -1}
                yield "case-12", terms, (g1, g2, g3)
            continue
        g1, g2, g3, g4 = g
        if col == [WHITE, GREY, WHITE, WHITE] and cnt == [3, 2, 1] and to[0] == 1 and to[1] == -1:
            e = ((g1, g2), (g2, g3))
            yield "case-7", {(e, (e, (g2, (g3, g4)))): 1}, (g1, g2, g3, g4)
        elif col == [WHITE, GREY, WHITE, WHITE] and cnt == [3, 1, 2] and to[0] == 1 and to[2] == -1:
            a12, a23, a34 = (g1, g2), (g2, g3), (g3, g4)
            yield "case-8", {(a12, (a23, a34)): 1, (a23, (a12, a34)): -1}, (g1, g2, g3, g4)
        elif col[0] in _CROSS and col[1:] == [WHITE, GREY, WHITE] and cnt == [1, 1, 2] and to[2] == -1:
            jt = (g2, g3)
            yield "case-5", {((g1, jt), (jt, (g3, g4))): 1}, (g1, g2, g3, g4)


def _match_triangle(diag, subset):
    """Yield (case name, element terms dict, nodes) for one 3-node subset of
    the class's diagram with all three edges: cases 6, 10 and 13.

    One pass over the orderings n1, n2, n3 reads the counts of n1-n2, n1-n3
    and n2-n3.  Cases 10 and 13 need (1, 2, 3), which fixes the ordering,
    and differ in the colour of n1; case 6 needs (1, 1, 2), which fixes n1
    and leaves two orderings, of which `n2 < n3` keeps one.  So at most one
    ordering matches, and it yields one element.  A triangle is not a path,
    so no chain case matches it, and a chain has too few edges to get here.
    """
    x, y, z = subset
    if (x, y) not in diag.edges or (x, z) not in diag.edges or (y, z) not in diag.edges:
        return
    c, cnt = diag.nodes, diag.count
    for n1, n2, n3 in permutations(subset):
        counts = (cnt(n1, n2), cnt(n1, n3), cnt(n2, n3))
        g1, g2, g3 = n1 + 1, n2 + 1, n3 + 1
        if counts == (1, 1, 2) and c[n1] in _CROSS and c[n2] == c[n3] == GREY and n2 < n3:
            yield "case-6", {(g2, (g3, g1)): 1, (g3, (g2, g1)): -1}, (g1, g2, g3)
        elif counts == (1, 2, 3) and c[n1] == c[n2] == c[n3] == GREY:
            yield "case-10", {(g1, (g3, g2)): 2, (g2, (g3, g1)): 3}, (g1, g2, g3)
        elif counts == (1, 2, 3) and c[n1] == WHITE and c[n2] == c[n3] == GREY:
            yield "case-13", {(g2, (g3, g1)): 1, (g3, (g2, g1)): -2}, (g1, g2, g3)


def _match_d21a(diag, subset):
    """Pattern 14: the all-grey labelled triangle of D(2,1;a), on one 3-node
    subset of the class's diagram.

    Roles are fixed by the labels: the n1-n2 edge carries 1, the n1-n3 edge
    carries the parameter and the n2-n3 edge carries minus one plus the
    parameter.  The parameter is read off the matched labels, so generating
    relations commutes with specialising it to a rational value.  A
    specialised parameter can put 1 on more than one edge, so more than one
    ordering can match; the orderings come in lexicographic order, and the
    first match, the least, is the one taken.
    """
    x, y, z = subset
    if any(diag.nodes[v] != GREY for v in subset):
        return
    if not diag.count(x, y) == diag.count(x, z) == diag.count(y, z) == 1:
        return
    for n1, n2, n3 in permutations(subset):
        if diag.b_label(n1, n2) != 1:
            continue
        alpha = diag.b_label(n1, n3)
        if diag.b_label(n2, n3) == -(1 + alpha):
            g1, g2, g3 = n1 + 1, n2 + 1, n3 + 1
            yield "case-14", {(g1, (g2, g3)): alpha, (g2, (g1, g3)): 1 + alpha}, (g1, g2, g3)
            return


def higher_order_serre_elements(cd, diag):
    """Matches of the fourteen patterns in match order, each emitted once.

    D(2,1;a)-type diagrams (labelled edges) carry only the labelled-triangle
    pattern; all other diagrams are matched against patterns 1-13, the
    3-node sub-diagrams first, then the 4-node ones.  Every pattern is a
    connected sub-diagram, so only connected ones are matched, and both
    sizes are stages of one `connected_subsets` growth, up to min(rank, 4),
    or up to 3 for a labelled diagram.

    No two matches have the same expansion into free-Lie words, so none is
    expanded here.  An element's content has support its matched node set,
    so sub-diagrams differ in content, and one sub-diagram yields at most
    one element: chains and triangles exclude each other, `_match_path`
    and `_match_triangle` let at most one ordering of a sub-diagram match
    and each ordering match at most one case, and `_match_d21a` stops at
    its first match.  Expansions are homogeneous, so distinct contents give
    distinct ones unless both are zero, and none is: that depends only on
    the pattern and the parities its colours fix (in case 14 on a too, the
    coefficient of the word g1 g2 g3), and each such pair occurs, nonzero,
    by rank 8.
    """
    out = []
    if diag.labelled:
        matchers = ((3, (_match_d21a,)),)
    else:
        matchers = ((3, (_match_path, _match_triangle)), (4, (_match_path,)))
    stages = connected_subsets(diag, min(cd.rank, matchers[-1][0]))
    for size, matches in matchers:
        if size > len(stages):
            break
        for subset in stages[size - 1]:
            for match in matches:
                for case, terms, assign in match(diag, subset):
                    out.append(SerrePolynomial(terms, case, assign, cd.rank))
    return out


class Presentation:
    """Cartan data plus the defining relation set: one list of e-side
    elements, from which both sides are printed."""

    def __init__(self, datum, system, cd, diagram, e_side):
        self.datum = datum
        self.system = system
        self.cartan = cd
        self.diagram = diagram
        self.rank = cd.rank
        self.parities = cd.parities
        self.e_side = list(e_side)

    @cached_property
    def engine(self):
        """The covering engine of the e side, made when first read.

        It travels with the presentation, as a verification report carries
        its presentation, so verification, the necessity test and the
        stability check of one class read one set of levels
        (`CoveringEngine.level`).  Nothing is shared between presentations:
        each makes an engine of its own.
        """
        return CoveringEngine(self.parities, self.e_side)

    @property
    def higher_order(self):
        return [el for el in self.e_side if el.provenance != "standard"]

    def to_json(self):
        return {
            "family": self.datum.family,
            "datum": self.datum.name,
            "rank": self.rank,
            "theta": sorted(self.cartan.theta),
            "cartan": self.cartan.to_json(),
            "eSide": [el.to_json() for el in self.e_side],
            "fSide": [el.to_json("f") for el in self.e_side],
        }

    def render(self, fmt="text"):
        """Text or latex, e side then f side, or `to_json`'s JSON.  An f line
        is its e body with `e` replaced by `f`: a body's coefficients print
        in `Scalar.render`'s grammar (digits, `a`, `^`, `*`, `/`, `+`, `-`,
        parentheses), which has no `e`, and the provenance is outside it."""
        if fmt == "json":
            return json.dumps(self.to_json(), sort_keys=True)
        lines = [
            f"presentation of {self.datum.name}, rank {self.rank}, theta {sorted(self.cartan.theta)}",
            "quadratic relations: [h_i,h_j]=0, [h_i,e_j]=a_ij e_j, [h_i,f_j]=-a_ij f_j, [e_i,f_j]=delta_ij h_i",
        ]
        tagged = [(f"  ({el.provenance}; nodes {list(el.nodes)})  ", el.render(fmt)) for el in self.e_side]
        lines += [f"{tag}{body} = 0" for tag, body in tagged]
        lines += [f"{tag}{body.replace('e', 'f')} = 0" for tag, body in tagged]
        return "\n".join(lines)


def presentation(datum, system):
    """Full presentation: quadratic relations are implicit, Serre elements
    are generated, each once, on the e side, and the f side is printed from
    them.

    No element is expanded into words while it is built: neither the
    standard nor the higher order list repeats an expansion, and no higher
    order element repeats a standard one, since every higher order content
    has at least 3 nonzero coordinates, every standard content at most 2,
    and expansions are homogeneous.
    """
    cd = cartan_matrix(datum, system)
    diag = build_diagram(cd)
    e_side = standard_serre_elements(cd) + higher_order_serre_elements(cd, diag)
    return Presentation(datum, system, cd, diag, e_side)
