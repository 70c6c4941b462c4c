"""The theorem harness: presented algebras versus reference root systems.

Reference dimensions always come from root counting on the datum, never from
a second presentation, so the two sides of every comparison are independent.
"""

from __future__ import annotations

from .freelie import content_height
from .linalg import Echelon
from .quotient import quotient_dimensions
from .rootdata import PreconditionError, positive_roots
from .serre import presentation


def reference_multiplicities(system):
    """Weight -> multiplicity table of the positive roots (all ones)."""
    return {coords: 1 for coords in positive_roots(system).values()}


def expected_total_dimension(datum):
    return datum.rank + len(datum.even_roots) + len(datum.odd_roots)


class VerificationReport:
    """Comparison of a presented algebra against the reference root system,
    made from `presentation`, its `quotient_report` and `reference`, the
    weight -> multiplicity table of the positive roots.

    Surviving weights must be exactly the positive roots with multiplicity
    one, and the total dimension must match the root count.  Both mismatch
    walks go in (height, weight) order: the report's weights come in that
    order, and the reference table, breadth-first from `positive_roots`, is
    sorted.
    """

    def __init__(self, datum, system, presentation, quotient_report, reference):
        self.datum_name = datum.name
        self.system = system
        self.presentation = presentation
        self.quotient_report = quotient_report
        self.reference = reference
        self.notes = [] if quotient_report.closed else [quotient_report.warning]
        surviving = quotient_report.surviving_weights()
        self.mismatches = [  # (weight, expected dim, got dim)
            (w, reference.get(w, 0), q) for w, q in surviving.items() if q != reference.get(w, 0)
        ]
        self.mismatches += [(w, 1, 0) for w in sorted(reference, key=lambda w: (sum(w), w)) if w not in surviving]
        self.expected_total = expected_total_dimension(datum)
        self.got_total = quotient_report.total_dim
        self.passed = quotient_report.closed and not self.mismatches and self.got_total == self.expected_total

    def to_json(self):
        return {
            "datum": self.datum_name,
            "simpleRoots": [repr(b) for b in self.system.roots],
            "pass": self.passed,
            "mismatches": [
                {"nu": list(w), "expected": e, "got": g} for w, e, g in self.mismatches
            ],
            "expectedTotal": self.expected_total,
            "gotTotal": self.got_total,
            "notes": self.notes,
        }

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} total={self.got_total if self.got_total is not None else '?'}"

    def __repr__(self):
        return f"<VerificationReport {self.datum_name} {self.summary()}>"


def verify_presentation(datum, system):
    """Build the presentation, run the graded quotient and compare
    (`VerificationReport`).  The run is guarded by the reference table,
    which has no weight above top, the highest root height: level top + 1
    is all zero, and the run closes, or has a weight of positive dimension,
    which trips the guard.  So the run stops by itself at or below top + 1,
    and no higher cap could bind."""
    ref = reference_multiplicities(system)
    pres = presentation(datum, system)
    report = quotient_dimensions(pres, max(sum(w) for w in ref) + 1, excess_guard=ref)
    return VerificationReport(datum, system, pres, report, ref)


class NecessityResult:
    """Whether one higher order element of a presentation is necessary."""

    def __init__(self, first_excess, provenance, nodes):
        self.necessary = first_excess is not None
        self.first_excess = first_excess  # weight where the excess first appears
        self.provenance = provenance
        self.nodes = nodes

    def to_json(self):
        return {
            "provenance": self.provenance,
            "nodes": list(self.nodes),
            "necessary": self.necessary,
            "firstExcessWeight": list(self.first_excess) if self.first_excess else None,
        }


def _necessity(pres, j):
    """Necessity of the higher order element of `pres` at index j, decided on
    the presentation's covering engine, its levels read up to one below the
    element's height.  Element j is necessary when it does not lie in the
    ideal generated by the other elements.

    Let j have weight nu and height h.  Deleting j changes no relation below
    h, so the levels below h are the engine's, and at height h only j's row
    at nu goes: the Jacobi rows and the other relation rows at nu come from
    those levels.  A presentation built by `serre.presentation` has no other
    row at nu: higher order contents are pairwise distinct
    (`serre.higher_order_serre_elements`) with at least 3 nonzero
    coordinates, and standard ones have at most 2.  One built by hand can
    have some, say an element added twice.  If j's row lies in their span,
    every level is unchanged.
    Otherwise the quotient at nu grows by exactly 1 and no other weight of
    height h moves.  So on a presentation that passes verification, as every
    class up to rank 8 does, j is necessary exactly when deleting it lets
    some weight exceed its reference multiplicity, nu first.
    """
    elements, engine = pres.e_side, pres.engine
    el, nu = elements[j], elements[j].content
    h = content_height(nu)
    engine.level(h - 1)
    span = Echelon()
    for _, jacobi in engine.jacobi_rows(h, {engine.pack(nu)}):
        span.insert(jacobi)
    for k, other in enumerate(elements):
        if k != j and other.content == nu:
            span.insert(engine.rho_pair(other.terms))
    row = engine.rho_pair(el.terms)
    span.reduce(row)
    return NecessityResult(nu if row else None, el.provenance, el.nodes)


def necessity_test(datum, system, relation_index):
    """Whether the addressed higher order element, one object for both
    sides, is necessary: see `_necessity`.  An index that addresses no
    higher order element raises `PreconditionError`."""
    pres, j = presentation(datum, system), relation_index
    if not (0 <= j < len(pres.e_side) and pres.e_side[j].provenance != "standard"):
        raise PreconditionError(f"element index {j} is outside the higher order elements")
    return _necessity(pres, j)


def survey_presentation(pres):
    """Necessity of every higher order element of `pres`, all on its one
    covering engine, so a presentation that verification has run on (a
    `VerificationReport.presentation`) reuses the levels already built; one
    without higher order elements makes no engine."""
    return [_necessity(pres, j) for j, el in enumerate(pres.e_side) if el.provenance != "standard"]


def necessity_survey(datum, system):
    """Necessity of every higher order element of the class's presentation:
    `survey_presentation` on a presentation of its own."""
    return survey_presentation(presentation(datum, system))


def z_layer_dimensions(rank, multiplicities, d):
    """k -> dim g_k for k >= 0 under deg(e_d) = -deg(f_d) = 1, from the rank
    and a weight -> multiplicity table of the positive part: layer 0 holds
    the Cartan subalgebra and both signs of each weight with d-coordinate 0,
    layer k > 0 the weights with d-coordinate k."""
    dims = {0: rank}
    for nu, q in multiplicities.items():
        k = nu[d - 1]
        dims[k] = dims.get(k, 0) + (q if k else 2 * q)
    return dims


def compare_z_grading(report, d):
    """Table k -> (dim g_k, dim L_k, equal?) for the grading at node d, read
    off a passing `VerificationReport`; it runs no verification of its own.

    Both sides are counted by `z_layer_dimensions`: the g side from the
    surviving weights of the report's closed quotient, plus the empty layer
    above the top one; the L side from the report's reference table, the
    positive roots by their coefficient of alpha_d.
    """
    rank = report.system.rank
    if not 1 <= d <= rank:
        raise ValueError(f"grading node d={d} out of range 1..{rank}")
    if not report.passed:
        raise PreconditionError(
            f"z-grading comparison requires a passing verification for {report.datum_name}"
        )
    grading = z_layer_dimensions(rank, report.quotient_report.surviving_weights(), d)
    grading[max(grading) + 1] = 0
    ref = z_layer_dimensions(rank, report.reference, d)
    table = {}
    for k in sorted(set(grading) | set(ref)):
        g, l = grading.get(k, 0), ref.get(k, 0)
        table[k] = (g, l, g == l)
    return table
