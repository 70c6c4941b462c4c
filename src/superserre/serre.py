"""Defining relation sets: standard Serre elements and the fourteen families
of higher order Serre elements attached to full sub-diagrams.

Pattern matching consumes Cartan data (colors, edge counts, arrows, Gram
signs and, in type D(2,1;a), edge labels), never the drawn picture.  Node
indices in emitted elements are 1-based generator indices.
"""

from __future__ import annotations

import json

from .cartan_dynkin import BLACK, GREY, WHITE, build_diagram, cartan_matrix, full_subdiagrams
from .freelie import expand_terms, tree_content, tree_render
from .scalars import ONE, Scalar


class SerrePolynomial:
    """Homogeneous Scalar combination of bracket words on one side (e or f)."""

    __slots__ = ("terms", "side", "provenance", "nodes", "rank")

    def __init__(self, terms, side, provenance, nodes, rank):
        self.terms = {t: (c if isinstance(c, Scalar) else Scalar(c)) for t, c in terms.items()}
        self.side = side
        self.provenance = provenance
        self.nodes = tuple(nodes)
        self.rank = rank
        if not self.terms or all(c.is_zero() for c in self.terms.values()):
            raise ValueError("a Serre element must be nonzero")
        contents = {tree_content(t, rank) for t in self.terms}
        if len(contents) != 1:
            raise ValueError(f"inhomogeneous Serre element: {contents}")

    @property
    def content(self):
        return tree_content(next(iter(self.terms)), self.rank)

    def mirrored(self):
        """The omega-image: same trees and coefficients on the other side."""
        side = "f" if self.side == "e" else "e"
        return SerrePolynomial(self.terms, side, self.provenance, self.nodes, self.rank)

    def expansion_key(self, parities):
        vec = expand_terms(self.terms, parities)
        return tuple(sorted((w, c.render()) for w, c in vec.items()))

    def render(self, fmt="text"):
        letter = self.side
        if fmt == "latex":
            parts = []
            for t in sorted(self.terms, key=repr):
                c = self.terms[t]
                body = tree_render(t, letter).replace(f"{letter}", f"{letter}_")
                if c == ONE:
                    parts.append(body)
                elif c == Scalar(-1):
                    parts.append("-" + body)
                else:
                    parts.append(f"({c.render()})" + body)
            out = parts[0]
            for p in parts[1:]:
                out += p if p.startswith("-") else "+" + p
            return out
        parts = []
        for t in sorted(self.terms, key=repr):
            c = self.terms[t]
            if c == ONE:
                parts.append(tree_render(t, letter))
            elif c == Scalar(-1):
                parts.append("-" + tree_render(t, letter))
            else:
                parts.append(f"({c.render()})*" + tree_render(t, letter))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
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
                {"coefficient": c.render(), "word": tree_json(t)}
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
    squares [e_t, e_t] at isotropic t."""
    out = []
    r = cd.rank
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            iso = cd.is_isotropic(i)
            if not iso:
                n = 1 - cd.a_integer(i, j)
                out.append(SerrePolynomial({ad_power(i, j, n): ONE}, "e", "standard", (i, j), r))
            elif cd.a[i - 1][j - 1].is_zero():
                out.append(SerrePolynomial({(i, j): ONE}, "e", "standard", (i, j), r))
    for t in range(1, r + 1):
        if cd.is_isotropic(t):
            out.append(SerrePolynomial({(t, t): ONE}, "e", "standard", (t,), r))
    return out


# -- higher order patterns -----------------------------------------------------

_CROSS = (WHITE, GREY)  # "x" nodes in the reference tables are white or grey


def _quartic(t, j, k):
    return {(t, (j, (t, k))): ONE}


def _match_3node(diag, sub, nodes):
    """Yield (case name, element terms dict) for one 3-node full sub-diagram.

    `nodes` are the original 1-based generator indices; `sub` uses local
    indices 0,1,2 in the same order.
    """
    c = sub.nodes
    cnt = sub.count
    arrow = sub.arrow

    def gen(local):
        return nodes[local]

    for t in range(3):
        if c[t] != GREY:
            continue
        others = [x for x in range(3) if x != t]
        for j, k in (others, others[::-1]):
            # chain j - t - k, no j-k edge
            if cnt(j, k) != 0:
                continue
            if cnt(j, t) == 1 and cnt(t, k) == 1 and c[j] in _CROSS and c[k] in _CROSS:
                if sub.sign(j, t) * sub.sign(t, k) == -1 and j < k:
                    yield "case-1", _quartic(gen(t), gen(j), gen(k)), (gen(j), gen(t), gen(k))
            if cnt(j, t) == 1 and cnt(t, k) == 2 and c[j] in _CROSS and arrow(t, k) == k:
                if c[k] == WHITE:
                    yield "case-2", _quartic(gen(t), gen(j), gen(k)), (gen(j), gen(t), gen(k))
                elif c[k] == BLACK:
                    yield "case-3", _quartic(gen(t), gen(j), gen(k)), (gen(j), gen(t), gen(k))
            if cnt(j, t) == 1 and cnt(t, k) == 2 and c[j] == GREY and c[k] == WHITE and arrow(t, k) == t:
                jt = (gen(j), gen(t))
                yield "case-4", {(jt, (jt, (gen(t), gen(k)))): ONE}, (gen(j), gen(t), gen(k))
            if cnt(j, t) == 2 and cnt(t, k) == 2 and c[j] == GREY and c[k] == WHITE and arrow(t, k) == t:
                # white k => grey t = grey j (the renormalised sl(1|3) shape)
                yield "case-9", _quartic(gen(t), gen(j), gen(k)), (gen(k), gen(t), gen(j))

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
                    gi, gt, gs = gen(i), gen(t), gen(s)
                    yield "case-6", {(gt, (gs, gi)): ONE, (gs, (gt, gi)): Scalar(-1)}, (gi, gt, gs)
                    break
        if counts == [1, 2, 3] and all(col == GREY for col in c):
            # roles by edge multiplicities: i on {1,2}, j on {1,3}, k on {2,3}
            for i, j, k in _permutations3():
                if cnt(i, j) == 1 and cnt(i, k) == 2 and cnt(j, k) == 3:
                    gi, gj, gk = gen(i), gen(j), gen(k)
                    yield "case-10", {(gi, (gk, gj)): Scalar(2), (gj, (gk, gi)): Scalar(3)}, (gi, gj, gk)
                    break
        if counts == [1, 2, 3] and sorted(c) == sorted([WHITE, GREY, GREY]):
            for n1, n2, n3 in _permutations3():
                if (
                    c[n1] == WHITE
                    and c[n2] == GREY
                    and c[n3] == GREY
                    and cnt(n1, n2) == 1
                    and cnt(n1, n3) == 2
                    and cnt(n2, n3) == 3
                ):
                    g1, g2, g3 = gen(n1), gen(n2), gen(n3)
                    yield "case-13", {(g2, (g3, g1)): ONE, (g3, (g2, g1)): Scalar(-2)}, (g1, g2, g3)
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
                g1, g2, g3 = gen(n1), gen(n2), gen(n3)
                e12 = (g1, g2)
                yield "case-11", {(e12, (e12, (e12, (g2, g3)))): ONE}, (g1, g2, g3)
            if (
                c[n1] == BLACK
                and c[n3] == WHITE
                and cnt(n1, n2) == 2
                and arrow(n1, n2) == n1
                and cnt(n2, n3) == 3
                and arrow(n2, n3) == n2
            ):
                g1, g2, g3 = gen(n1), gen(n2), gen(n3)
                yield (
                    "case-12",
                    {
                        ((g2, g1), (g3, (g2, g1))): ONE,
                        ((g2, g3), ((g1, g1), g2)): Scalar(-1),
                    },
                    (g1, g2, g3),
                )


def _permutations3():
    from itertools import permutations

    return permutations(range(3))


def _match_4node(diag, sub, nodes):
    c = sub.nodes
    cnt = sub.count
    arrow = sub.arrow

    def gen(local):
        return nodes[local]

    from itertools import permutations

    seen = set()
    for perm in permutations(range(4)):
        n1, n2, n3, n4 = perm
        if (c[n1], c[n2], c[n3], c[n4]) != (WHITE, GREY, WHITE, WHITE):
            continue
        nz = {frozenset(p) for p in ((n1, n2), (n2, n3), (n3, n4))}
        extra = any(
            cnt(a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if frozenset((a, b)) not in nz
        )
        if extra:
            continue
        if cnt(n1, n2) == 3 and arrow(n1, n2) == n2:
            g1, g2, g3, g4 = gen(n1), gen(n2), gen(n3), gen(n4)
            if cnt(n2, n3) == 2 and arrow(n2, n3) == n2 and cnt(n3, n4) == 1:
                key = ("case-7", g1, g2, g3, g4)
                if key not in seen:
                    seen.add(key)
                    e = ((g1, g2), (g2, g3))
                    yield "case-7", {(e, (e, (g2, (g3, g4)))): ONE}, (g1, g2, g3, g4)
            if cnt(n2, n3) == 1 and cnt(n3, n4) == 2 and arrow(n3, n4) == n3:
                key = ("case-8", g1, g2, g3, g4)
                if key not in seen:
                    seen.add(key)
                    a12, a23, a34 = (g1, g2), (g2, g3), (g3, g4)
                    yield (
                        "case-8",
                        {(a12, (a23, a34)): ONE, (a23, (a12, a34)): Scalar(-1)},
                        (g1, g2, g3, g4),
                    )

    # case 5: chain i - j - t <= k with t grey
    for perm in permutations(range(4)):
        i, j, t, k = perm
        if not (c[i] in _CROSS and c[j] == WHITE and c[t] == GREY and c[k] == WHITE):
            continue
        nz = {frozenset(p) for p in ((i, j), (j, t), (t, k))}
        extra = any(
            cnt(a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if frozenset((a, b)) not in nz
        )
        if extra:
            continue
        if cnt(i, j) == 1 and cnt(j, t) == 1 and cnt(t, k) == 2 and arrow(t, k) == t:
            gi, gj, gt, gk = gen(i), gen(j), gen(t), gen(k)
            jt = (gj, gt)
            yield (
                "case-5",
                {((gi, jt), (jt, (gt, gk))): ONE},
                (gi, gj, gt, gk),
            )


def _match_d21a(sub, nodes):
    """Pattern 14: the all-grey labelled triangle of D(2,1;a).

    Roles are fixed by the labels: the n1-n2 edge carries 1, the n1-n3 edge
    carries the parameter and the n2-n3 edge carries minus one plus the
    parameter.  The parameter is read off the matched labels, so generating
    relations commutes with specialising it to a rational value.
    """
    if sub.size != 3 or any(col != GREY for col in sub.nodes):
        return
    if not all(sub.count(a, b) == 1 for a in range(3) for b in range(a + 1, 3)):
        return
    from itertools import permutations

    matches = []
    for n1, n2, n3 in permutations(range(3)):
        if sub.b_label(n1, n2) != ONE:
            continue
        alpha = sub.b_label(n1, n3)
        if sub.b_label(n2, n3) == -(ONE + alpha):
            matches.append(((n1, n2, n3), alpha))
    if not matches:
        return
    (n1, n2, n3), alpha = min(matches, key=lambda m: m[0])
    g1, g2, g3 = nodes[n1], nodes[n2], nodes[n3]
    terms = {(g1, (g2, g3)): alpha, (g2, (g1, g3)): ONE + alpha}
    yield "case-14", terms, (g1, g2, g3)


def _higher_order_candidates(cd, diag):
    """Matches of the fourteen patterns, in match order, not deduplicated.

    D(2,1;a)-type diagrams (labelled edges) carry only the labelled-triangle
    pattern; all other diagrams are matched against patterns 1-13.
    """
    out = []
    rank = cd.rank
    if diag.labelled:
        if rank >= 3:
            for subset, sub, connected in full_subdiagrams(diag, 3):
                if not connected:
                    continue
                nodes = tuple(v + 1 for v in subset)
                for case, terms, assign in _match_d21a(sub, nodes):
                    out.append(SerrePolynomial(terms, "e", case, assign, rank))
        return out

    if rank >= 3:
        for subset, sub, connected in full_subdiagrams(diag, 3):
            if not connected:
                continue
            nodes = tuple(v + 1 for v in subset)
            for case, terms, assign in _match_3node(diag, sub, nodes):
                out.append(SerrePolynomial(terms, "e", case, assign, rank))
    if rank >= 4:
        for subset, sub, connected in full_subdiagrams(diag, 4):
            if not connected:
                continue
            nodes = tuple(v + 1 for v in subset)
            for case, terms, assign in _match_4node(diag, sub, nodes):
                out.append(SerrePolynomial(terms, "e", case, assign, rank))
    return out


def higher_order_serre_elements(cd, diag):
    """Elements attached to the full sub-diagrams of the fourteen patterns,
    deduplicated by expansion."""
    return _dedup(_higher_order_candidates(cd, diag), cd)


def _dedup(elements, cd):
    """The first element of each expansion key, in order of first appearance."""
    seen = {}
    for el in elements:
        key = el.expansion_key(cd.parities)
        if key not in seen:
            seen[key] = el
    return list(seen.values())


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
        self.f_side = [el.mirrored() for el in self.e_side]

    @property
    def higher_order(self):
        return [el for el in self.e_side if el.provenance != "standard"]

    def without_element(self, index):
        """Presentation with one e-side element (and its mirror) removed."""
        e_side = [el for k, el in enumerate(self.e_side) if k != index]
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
    are generated, structurally deduplicated and mirrored to the f side.

    Standard and higher order elements are deduplicated in one pass, so each
    element's expansion key is computed once.  This is the relation set of
    deduplicating the higher order elements first: `_dedup` keeps the first
    element of each key in order of first appearance, and an element that
    dedup(H) drops repeats the key of an earlier element of H, so it is
    dropped from S + H as well; hence dedup(S + dedup(H)) = dedup(S + H),
    order included.
    """
    cd = cartan_matrix(datum, system)
    diag = build_diagram(cd)
    elements = standard_serre_elements(cd) + _higher_order_candidates(cd, diag)
    return Presentation(datum, system, cd, diag, _dedup(elements, cd))
