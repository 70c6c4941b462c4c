"""Defining relation sets: standard Serre elements and the fourteen families
of higher order Serre elements attached to full sub-diagrams.

Pattern matching consumes Cartan data (colors, edge counts, arrows, Gram
signs and, in type D(2,1;a), edge labels), never the drawn picture.  Node
indices in emitted elements are 1-based generator indices.  Each element is
emitted once, so none is expanded into free-Lie words to find repeats.
"""

from __future__ import annotations

import json
from itertools import permutations

from .cartan_dynkin import BLACK, GREY, WHITE, _path_order, build_diagram, cartan_matrix, full_subdiagrams
from .freelie import tree_content, tree_render
from .rootdata import PreconditionError
from .scalars import native, render


class SerrePolynomial:
    """Homogeneous combination of bracket words on one side (e or f), its
    coefficients converted once by `scalars.native`: `int` or `Fraction`,
    `Scalar` only where the parameter a appears.  Every consumer reads the
    terms as they are.  `content`, the multidegree in `rank` generators, is
    the one content that the constructor's homogeneity check finds."""

    __slots__ = ("terms", "side", "provenance", "nodes", "content")

    def __init__(self, terms, side, provenance, nodes, rank):
        self.terms = {t: native(c) for t, c in terms.items()}
        self.side = side
        self.provenance = provenance
        self.nodes = tuple(nodes)
        if not any(self.terms.values()):
            raise ValueError("a Serre element must be nonzero")
        contents = {tree_content(t, rank) for t in self.terms}
        if len(contents) != 1:
            raise ValueError(f"inhomogeneous Serre element: {contents}")
        (self.content,) = contents

    def mirrored(self):
        """The omega-image: same trees and coefficients on the other side.

        The slots are copied, not rebuilt: this element's terms are already
        native, nonzero and homogeneous, and the mirror has the same ones,
        so the constructor's conversion and checks would find nothing new.
        On the catalogue classes this is about a sixth of the constructor's
        cost.  The terms dict is copied, as the constructor copies it.
        """
        mirror = SerrePolynomial.__new__(SerrePolynomial)
        mirror.terms = dict(self.terms)
        mirror.side = "f" if self.side == "e" else "e"
        mirror.provenance = self.provenance
        mirror.nodes = self.nodes
        mirror.content = self.content
        return mirror

    def render(self, fmt="text"):
        letter = self.side
        latex = fmt == "latex"
        out = ""
        for t in sorted(self.terms, key=repr):
            c = self.terms[t]
            body = tree_render(t, letter)
            if latex:
                body = body.replace(letter, f"{letter}_")
            if c == 1:
                part = body
            elif c == -1:
                part = "-" + body
            else:
                part = f"({render(c)})" + ("" if latex else "*") + body
            out += part if not out or part.startswith("-") else "+" + part
        return out

    def to_json(self):
        def tree_json(t):
            if isinstance(t, int):
                return f"{self.side}{t}"
            return [tree_json(t[0]), tree_json(t[1])]

        return {
            "side": self.side,
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
    """
    out = []
    r = cd.rank
    odd = cd.parities
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            if not cd.is_isotropic(i):
                n = 1 - cd.a_integer(i, j)
            elif not cd.native_a[i - 1][j - 1]:
                n = 1
            else:
                continue
            if n == 1 and i > j and odd[i - 1] and odd[j - 1]:
                continue
            out.append(SerrePolynomial({ad_power(i, j, n): 1}, "e", "standard", (i, j), r))
    for t in range(1, r + 1):
        if cd.is_isotropic(t):
            out.append(SerrePolynomial({(t, t): 1}, "e", "standard", (t,), r))
    return out


# -- higher order patterns -----------------------------------------------------

_CROSS = (WHITE, GREY)  # "x" nodes in the reference tables are white or grey


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
    arrow = sub.arrow
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
                if sub.sign(j, t) * sub.sign(t, k) == -1 and j < k:
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


def _match_4node(sub, nodes):
    """Yield (case name, element terms dict, nodes) for one connected 4-node
    full sub-diagram, which matches only as a path.

    The patterns are chains n1 - n2 - n3 - n4 with no other edge, so only an
    ordering in which every edge joins adjacent nodes can match: a path's
    order and its reverse, and no ordering of any other sub-diagram.
    `_path_order` starts at the smaller end, so the order precedes its
    reverse among all 24 orderings, and the two are visited in that order.
    Each ordering yields at most one element per case, and distinct
    orderings give distinct node tuples, so no element repeats.  Cases 7
    and 8 give the grey node edges of multiplicities {3, 2} and {3, 1},
    case 5 gives it {1, 2}, so no sub-diagram matches both kinds, and one
    pass over the orderings yields them in the same order as a pass per kind.
    """
    order = _path_order(sub)
    if order is None:
        return
    c = sub.nodes
    cnt = sub.count
    arrow = sub.arrow
    for perm in (order, order[::-1]):
        colours = tuple(c[v] for v in perm)
        chain_78 = colours == (WHITE, GREY, WHITE, WHITE)
        chain_5 = colours[0] in _CROSS and colours[1:] == (WHITE, GREY, WHITE)
        if not (chain_78 or chain_5):
            continue
        n1, n2, n3, n4 = perm
        g1, g2, g3, g4 = (nodes[v] for v in perm)
        if chain_78 and cnt(n1, n2) == 3 and arrow(n1, n2) == n2:
            if cnt(n2, n3) == 2 and arrow(n2, n3) == n2 and cnt(n3, n4) == 1:
                e = ((g1, g2), (g2, g3))
                yield "case-7", {(e, (e, (g2, (g3, g4)))): 1}, (g1, g2, g3, g4)
            if cnt(n2, n3) == 1 and cnt(n3, n4) == 2 and arrow(n3, n4) == n3:
                a12, a23, a34 = (g1, g2), (g2, g3), (g3, g4)
                terms = {(a12, (a23, a34)): 1, (a23, (a12, a34)): -1}
                yield "case-8", terms, (g1, g2, g3, g4)
        # case 5: chain i - j - t <= k with t grey
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


def higher_order_serre_elements(cd, diag):
    """Matches of the fourteen patterns in match order, each emitted once.

    D(2,1;a)-type diagrams (labelled edges) carry only the labelled-triangle
    pattern; all other diagrams are matched against patterns 1-13.  Every
    pattern is a connected sub-diagram, so only connected ones are matched.

    No two matches have the same expansion into free-Lie words, so none is
    expanded here.  An element's content has support its matched node set,
    so sub-diagrams differ in content, and one sub-diagram yields at most
    one element per content: the 3-node chain loops reach only the middle
    node; cases 1, 2, 3 and 9 share a content shape and exclude each other
    by edge counts (1/1, 1/2 with the arrow at k, 2/2) and, 2 against 3,
    by the colour of k; `j < k` fixes case 1's orientation, colours or the
    double edge fix the other chain cases'; cases 11 and 12 need a triple
    edge and differ in the n1-n2 count; each triangle case breaks after its
    first match, and triangles are not chains; `_match_4node` argues its
    cases, and none matches a path both ways, the colour patterns (W,G,W,W)
    and (x,W,G,W) not being palindromes; `_match_d21a` yields one element.
    Expansions are homogeneous, so distinct contents give distinct ones
    unless both are zero, and none is: that depends only on the pattern and
    the parities its colours fix (in case 14 on a too, the coefficient of
    the word g1 g2 g3), and each such pair occurs, nonzero, by rank 8.
    """
    out = []
    matchers = ((3, _match_d21a),) if diag.labelled else ((3, _match_3node), (4, _match_4node))
    for size, match in matchers:
        if size > cd.rank:
            break
        for subset, sub in full_subdiagrams(diag, size):
            nodes = tuple(v + 1 for v in subset)
            for case, terms, assign in match(sub, nodes):
                out.append(SerrePolynomial(terms, "e", case, assign, cd.rank))
    return out


class Presentation:
    """Cartan data plus the full defining relation set (both sides)."""

    def __init__(self, datum, system, cd, diagram, e_side):
        self.datum = datum
        self.system = system
        self.cartan = cd
        self.diagram = diagram
        self.rank = cd.rank
        self.parities = cd.parities
        self.e_side = list(e_side)

    @property
    def f_side(self):
        """The mirrors of the e-side elements, built when read: the engines
        read the e side only."""
        return [el.mirrored() for el in self.e_side]

    @property
    def higher_order(self):
        return [el for el in self.e_side if el.provenance != "standard"]

    def without_element(self, index):
        """Presentation with one e-side element (and its mirror) removed;
        `index` must address an element, counted from 0."""
        if not 0 <= index < len(self.e_side):
            raise PreconditionError(
                f"element index {index} is outside 0..{len(self.e_side) - 1}"
            )
        e_side = self.e_side[:index] + self.e_side[index + 1:]
        return Presentation(self.datum, self.system, self.cartan, self.diagram, e_side)

    def to_json(self):
        return {
            "family": self.datum.family,
            "datum": self.datum.name,
            "rank": self.rank,
            "theta": sorted(self.cartan.theta),
            "cartan": self.cartan.to_json(),
            "eSide": [el.to_json() for el in self.e_side],
            "fSide": [el.to_json() for el in self.f_side],
        }

    def render(self, fmt="text"):
        if fmt == "json":
            return json.dumps(self.to_json(), sort_keys=True)
        lines = [
            f"presentation of {self.datum.name}, rank {self.rank}, theta {sorted(self.cartan.theta)}",
            "quadratic relations: [h_i,h_j]=0, [h_i,e_j]=a_ij e_j, [h_i,f_j]=-a_ij f_j, [e_i,f_j]=delta_ij h_i",
        ]
        for el in self.e_side + self.f_side:
            lines.append(f"  ({el.provenance}; nodes {list(el.nodes)})  {el.render(fmt)} = 0")
        return "\n".join(lines)


def presentation(datum, system):
    """Full presentation: quadratic relations are implicit, Serre elements
    are generated, each once, and mirrored to the f side.

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
