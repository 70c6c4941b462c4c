"""Cartan data (A, Theta) and sign-decorated Dynkin diagrams.

The Cartan matrix is A = D^{-1} B where B is the Gram matrix of the simple
roots and D rescales rows: d_i = (a_i, a_i)/2 for non-isotropic roots and
d_i = l_m^2 / 2^kappa for isotropic ones, kappa = 0 exactly in type B.
The sign matrix keeps the signs of the Gram entries, which the diagram
glyphs alone do not determine.

Every entry is exact and native (`scalars.native`): an `int`, a `Fraction`
with denominator other than 1, or a `Scalar` only where the parameter a of
the generic D(2,1;a) appears.  The Gram entries arrive that way from
`RootDatum.form_value`, D and A are formed by `_quotient`, and the edge
labels of a D(2,1;a) diagram are native too, so no `Scalar` is built for a
datum without the parameter.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from .scalars import Scalar, native, parse_scalar, ratio, render
from .rootdata import InconsistencyError

WHITE, GREY, BLACK = "white", "grey", "black"


class CartanDataError(InconsistencyError):
    """A constructed Cartan matrix violates its invariants."""


def _quotient(x, y):
    """x / y for native values x and y != 0, native again: two `int`s go
    through `ratio`, and anything else divides in its own type (`Fraction`,
    or `Scalar` where a appears) and is converted by `native`."""
    if type(x) is int and type(y) is int:
        return ratio(x, y)
    return native(x / y)


def _sign(x):
    """Sign of a native Gram entry; for a `Scalar` the sign it keeps for
    every a > 0, proved by `Scalar.sign_on_positive_a`."""
    if isinstance(x, Scalar):
        return x.sign_on_positive_a()
    return (x > 0) - (x < 0)


class CartanData:
    """B, D, A together with theta, kappa, l_m^2 and the sign matrix.

    `native_b`, `d`, `native_a` and `lm2` hold native entries (see the
    module docstring).  `b` and `a` are the same matrices as rows of
    `Scalar`, built on first read for callers that want the field's own
    methods; nothing in the package reads them.
    """

    def __init__(self, family, b, d, theta, kappa, lm2):
        self.family = family
        self.rank = len(b)
        self.native_b = b
        self.d = d
        self.theta = frozenset(theta)
        self.kappa = kappa
        self.lm2 = lm2
        self.parities = tuple(int(i in self.theta) for i in range(1, self.rank + 1))
        self.native_a = [[_quotient(x, di) if x else 0 for x in row] for row, di in zip(b, d)]
        self.sgn = [[_sign(x) if x else 0 for x in row] for row in b]
        self._validate()

    @cached_property
    def b(self):
        """The Gram matrix B as rows of `Scalar`."""
        return [[Scalar(x) for x in row] for row in self.native_b]

    @cached_property
    def a(self):
        """The Cartan matrix A as rows of `Scalar`."""
        return [[Scalar(x) for x in row] for row in self.native_a]

    def is_isotropic(self, i):
        """1-based index; isotropic simple roots have b_ii = 0."""
        return not self.native_b[i - 1][i - 1]

    def _validate(self):
        r = self.rank
        for i in range(r):
            aii = self.native_a[i][i]
            if not self.native_b[i][i]:
                if aii:
                    raise CartanDataError(f"a_{i+1}{i+1} = {render(aii)} at an isotropic root")
            else:
                if aii != 2:
                    raise CartanDataError(f"a_{i+1}{i+1} = {render(aii)}, expected 2")
                for j in range(r):
                    if j == i:
                        continue
                    v = self.a_integer(i + 1, j + 1)
                    if v > 0:
                        raise CartanDataError(f"a_{i+1}{j+1} = {v} is positive")

    def a_integer(self, i, j):
        """Integer value of a_ij (1-based); raises CartanDataError otherwise."""
        x = self.native_a[i - 1][j - 1]
        if type(x) is not int:
            raise CartanDataError(f"a_{i}{j} = {render(x)} is not an integer")
        return x

    def to_json(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "B": [[render(x) for x in row] for row in self.native_b],
            "D": [render(x) for x in self.d],
            "A": [[render(x) for x in row] for row in self.native_a],
            "theta": sorted(self.theta),
            "kappa": self.kappa,
            "lm2": render(self.lm2),
            "sgn": self.sgn,
        }


def minimal_square_length(datum):
    """l_m^2 of the root datum, native: the least nonzero |(beta, beta)|,
    which the datum keeps from the norms it evaluates when it is built.

    For D(2,1;a) this is the minimum of the parameter-independent values
    (always 4, from the roots +-2e1); the same value is used for specialised
    members so that specialising the parameter commutes with every
    construction built on top of the Cartan matrix.
    """
    if datum.min_square_length is None:
        raise CartanDataError(f"{datum.name} has no non-isotropic roots")
    return datum.min_square_length


def cartan_matrix(datum, system):
    """CartanData of a simple system."""
    r = system.rank
    roots = system.roots
    form_value = datum.form_value
    b = [[None] * r for _ in range(r)]
    for i in range(r):  # B is symmetric: evaluate j >= i and mirror
        for j in range(i, r):
            b[i][j] = b[j][i] = form_value(roots[i], roots[j])
    lm2 = minimal_square_length(datum)
    kappa = 0 if datum.family == "B" else 1
    iso_d = _quotient(lm2, 2 ** kappa)
    d = [_quotient(b[i][i], 2) if b[i][i] else iso_d for i in range(r)]
    return CartanData(datum.family, b, d, system.theta, kappa, lm2)


# arrow_towards: 0-based node index or None; b_label: native value, set for
# D(2,1;a) only
Edge = namedtuple("Edge", "count arrow_towards sign b_label", defaults=(None,))


class DynkinDiagram:
    """Colored nodes and decorated edges; node indices are 0-based."""

    def __init__(self, nodes, edges, labelled=False):
        """`adjacent[v]` is the sorted tuple of v's neighbours, built once
        from the edges in sorted order: an edge (i, v) with i < v precedes
        every (v, j), so each node's list comes out ascending.  Every stored
        edge joins its nodes, count >= 1, so none is filtered out:
        `build_diagram` skips n = 0, D(2,1;a) edges have count 1, and
        `diagram_from_json_dict` refuses counts outside 1..3."""
        self.nodes = tuple(nodes)
        self.edges = dict(edges)  # (i, j) with i < j -> Edge
        self.labelled = labelled  # True for D(2,1;a)-type diagrams
        adjacent = [[] for _ in self.nodes]
        for i, j in sorted(self.edges):
            adjacent[i].append(j)
            adjacent[j].append(i)
        self.adjacent = tuple(map(tuple, adjacent))

    @property
    def size(self):
        return len(self.nodes)

    def edge(self, i, j):
        return self.edges.get((min(i, j), max(i, j)))

    def count(self, i, j):
        e = self.edge(i, j)
        return e.count if e else 0

    def b_label(self, i, j):
        e = self.edge(i, j)
        return e.b_label if e else None

    def __eq__(self, other):
        return (
            isinstance(other, DynkinDiagram)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.labelled == other.labelled
        )

    def __repr__(self):
        return f"DynkinDiagram(nodes={list(self.nodes)}, edges={self.edges})"


def build_diagram(cd):
    """Decorated Dynkin diagram of a Cartan datum.

    For D(2,1;a) the nodes are joined by one line wherever a_ij != 0 and the
    line carries the Gram entry normalised so that the shortest parameter-free
    root has square length 2 (the convention of the reference tables).
    """
    r = cd.rank
    colors = []
    for i in range(1, r + 1):
        if cd.is_isotropic(i):
            colors.append(GREY)
        elif i in cd.theta:
            colors.append(BLACK)
        else:
            colors.append(WHITE)
    edges = {}
    if cd.family == "D21a":
        scale = _quotient(2, cd.lm2)
        for i in range(r):
            for j in range(i + 1, r):
                if not cd.native_a[i][j]:
                    continue
                label = native(cd.native_b[i][j] * scale)
                edges[(i, j)] = Edge(1, None, cd.sgn[i][j], label)
        return DynkinDiagram(colors, edges, labelled=True)

    for i in range(r):
        for j in range(i + 1, r):
            both_grey = colors[i] == GREY and colors[j] == GREY
            if both_grey:
                n = abs(cd.a_integer(i + 1, j + 1))
            else:
                n = max(abs(cd.a_integer(i + 1, j + 1)), abs(cd.a_integer(j + 1, i + 1)))
            if n == 0:
                continue
            arrow = None
            if n > 1 and not both_grey:
                targets = set()
                for s, t in ((i, j), (j, i)):
                    if colors[s] == GREY:
                        continue
                    val = -cd.a_integer(s + 1, t + 1)
                    targets.add(t if val == 1 else s)
                if len(targets) != 1:
                    raise CartanDataError(
                        f"inconsistent arrow between nodes {i} and {j}: {targets}"
                    )
                arrow = targets.pop()
            edges[(i, j)] = Edge(n, arrow, cd.sgn[i][j])
    return DynkinDiagram(colors, edges, labelled=False)


def connected_subsets(diag, k):
    """The connected node sets of 1, 2, ..., k nodes, from one growth: stage
    s - 1 of the returned list holds the connected s-node sets as sorted
    tuples of 0-based nodes in lexicographic order, for 1 <= k <= size.

    Higher order Serre elements attach to connected sub-diagrams only, so the
    node sets are grown from single nodes by adding a neighbour at a time
    (`DynkinDiagram.adjacent`) rather than drawn from all k-subsets, and each
    stage is the seed of the next.  This reaches every connected s-set: a
    node whose removal leaves the rest connected (a leaf of a spanning tree)
    is a neighbour of that connected (s-1)-set.
    """
    if k > diag.size:
        raise ValueError(f"k = {k} exceeds the diagram size {diag.size}")
    if k < 1:
        raise ValueError(f"k = {k} is not a positive sub-diagram size")
    adjacent = diag.adjacent
    stages = [{frozenset([v]) for v in range(diag.size)}]
    for _ in range(k - 1):
        stages.append({s | {u} for s in stages[-1] for v in s for u in adjacent[v] if u not in s})
    return [sorted(tuple(sorted(s)) for s in stage) for stage in stages]


# -- serialization -------------------------------------------------------------


def diagram_to_json_dict(diag):
    edges = []
    for (i, j), e in sorted(diag.edges.items()):
        edges.append(
            {
                "i": i,
                "j": j,
                "count": e.count,
                "arrowTowards": e.arrow_towards,
                "sign": e.sign,
                "bLabel": render(e.b_label) if e.b_label is not None else None,
            }
        )
    return {"nodes": list(diag.nodes), "edges": edges, "labelled": diag.labelled}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def diagram_from_json_dict(data):
    """Inverse of `diagram_to_json_dict`; malformed input raises ValueError
    naming the offending field."""
    if not isinstance(data, dict):
        raise ValueError(f"a diagram must be a JSON object, got {type(data).__name__}")
    nodes = data.get("nodes")
    if not isinstance(nodes, list):
        raise ValueError("diagram field 'nodes' must be a list of colours")
    for k, colour in enumerate(nodes):
        if colour not in (WHITE, GREY, BLACK):
            raise ValueError(f"nodes[{k}] = {colour!r} is not one of {WHITE}, {GREY}, {BLACK}")
    labelled = data.get("labelled", False)
    if not isinstance(labelled, bool):
        raise ValueError(f"diagram field 'labelled' must be true or false, got {labelled!r}")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise ValueError("diagram field 'edges' must be a list of edges")
    edges = {}
    for k, e in enumerate(raw_edges):
        where = f"edges[{k}]"
        if not isinstance(e, dict):
            raise ValueError(f"{where} must be a JSON object")
        i, j = e.get("i"), e.get("j")
        for name, v in (("i", i), ("j", j)):
            if not _is_int(v) or not 0 <= v < len(nodes):
                raise ValueError(f"{where}.{name} = {v!r} is not a node index 0..{len(nodes) - 1}")
        if i >= j:
            raise ValueError(f"{where} needs i < j, got i = {i}, j = {j}")
        if (i, j) in edges:
            raise ValueError(f"{where} repeats the edge ({i}, {j})")
        count = e.get("count")
        if not _is_int(count) or count not in _BAR:
            raise ValueError(f"{where}.count = {count!r} is not 1, 2 or 3")
        arrow = e.get("arrowTowards")
        if arrow is not None and (not _is_int(arrow) or arrow not in (i, j)):
            raise ValueError(f"{where}.arrowTowards = {arrow!r} is not null or an endpoint")
        sign = e.get("sign", 0)
        if not _is_int(sign) or sign not in (-1, 0, 1):
            raise ValueError(f"{where}.sign = {sign!r} is not -1, 0 or 1")
        label = e.get("bLabel")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"{where}.bLabel = {label!r} is not null or a string")
        try:
            b_label = native(parse_scalar(label)) if label is not None else None
        except (ValueError, ZeroDivisionError, RecursionError) as exc:
            raise ValueError(f"{where}.bLabel: {exc}") from None
        edges[(i, j)] = Edge(count, arrow, sign, b_label)
    return DynkinDiagram(nodes, edges, labelled=labelled)


def parse_diagram(text):
    return diagram_from_json_dict(json.loads(text))


_NODE_GLYPH = {WHITE: "O", GREY: "(X)", BLACK: "(*)"}
_BAR = {1: "-", 2: "=", 3: "#"}


def _path_order(diag, nodes=None):
    """Node order if the diagram, or its full sub-diagram on the sorted
    tuple `nodes`, is a simple path, else None; the path starts at its
    smaller end, and holds the diagram's own node indices.

    The walk from the first node of degree 1 goes on to the one neighbour
    other than the node it came from.  Every node it leaves then has no
    further neighbour, so it reaches all nodes exactly when the diagram is
    a path, and no separate connectivity or degree test is needed.  A
    node's neighbours inside `nodes` are its `DynkinDiagram.adjacent` entries
    restricted to `nodes`; no edge is scanned.
    """
    if nodes is None:
        nodes = range(diag.size)
    if len(nodes) == 1:
        return [nodes[0]]
    neighbours = {v: [u for u in diag.adjacent[v] if u in nodes] for v in nodes}
    ends = [v for v in nodes if len(neighbours[v]) == 1]
    if not ends:
        return None
    order = [ends[0]]
    prev = None
    while len(order) < len(nodes):
        nxt = [u for u in neighbours[order[-1]] if u != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _edge_ascii(diag, i, j):
    e = diag.edge(i, j)
    bar = _BAR[e.count]
    decorations = []
    if e.b_label is not None:
        decorations.append("{" + render(e.b_label) + "}")
    elif e.sign:
        decorations.append("[-]" if e.sign < 0 else "[+]")
    middle = "".join(decorations) or bar
    left = "<" if e.arrow_towards == i else bar
    right = ">" if e.arrow_towards == j else bar
    return f"{bar}{left}{middle}{right}{bar}"


def _edge_latex(diag, i, j):
    e = diag.edge(i, j)
    core = {1: "-", 2: "=", 3: r"\equiv"}[e.count]
    if e.arrow_towards == j:
        core = core + ">"
    elif e.arrow_towards == i:
        core = "<" + core
    if e.b_label is not None:
        core += "^{" + render(e.b_label) + "}"
    return r"\;" + core + r"\;"


def _draw_path(diag, glyph, edge_text):
    """The diagram drawn along its path order, node glyphs and edge texts
    alternating, or None if it is no path."""
    order = _path_order(diag)
    if order is None:
        return None
    parts = [glyph[diag.nodes[order[0]]]]
    for a, b in zip(order, order[1:]):
        parts.append(edge_text(diag, a, b))
        parts.append(glyph[diag.nodes[b]])
    return "".join(parts)


def _diagram_ascii(diag):
    path = _draw_path(diag, _NODE_GLYPH, _edge_ascii)
    if path is not None:
        return path
    lines = ["nodes: " + " ".join(f"{v}:{_NODE_GLYPH[c]}" for v, c in enumerate(diag.nodes))]
    for (i, j), _ in sorted(diag.edges.items()):
        lines.append(f"  {i} {_edge_ascii(diag, i, j)} {j}")
    return "\n".join(lines)


_LATEX_NODE = {WHITE: r"\bigcirc", GREY: r"\otimes", BLACK: r"\bullet"}


def _diagram_latex(diag):
    path = _draw_path(diag, _LATEX_NODE, _edge_latex)
    if path is not None:
        return "$" + path + "$"
    lines = ["% nodes: " + " ".join(f"{v}:{diag.nodes[v]}" for v in range(diag.size))]
    for (i, j), _ in sorted(diag.edges.items()):
        lines.append(f"$ {i} {_edge_latex(diag, i, j)} {j} $")
    return "\n".join(lines)


def serialize_diagram(diag, fmt):
    """Render a diagram as 'ascii', 'json' or 'latex'; json round-trips."""
    if fmt == "json":
        return json.dumps(diagram_to_json_dict(diag), sort_keys=True)
    if fmt == "ascii":
        return _diagram_ascii(diag)
    if fmt == "latex":
        return _diagram_latex(diag)
    raise ValueError(f"unknown diagram format {fmt!r}; use ascii, json or latex")
