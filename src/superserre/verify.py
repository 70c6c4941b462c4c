"""The theorem harness: presented algebras versus reference root systems.

Reference dimensions always come from root counting on the datum, never from
a second presentation, so the two sides of every comparison are independent.
"""

from __future__ import annotations

from .freelie import content_height
from .linalg import Echelon
from .quotient import quotient_dimensions
from .rootdata import (
    PreconditionError,
    enumerate_simple_systems,
    positive_roots,
)
from .serre import presentation


def reference_multiplicities(system):
    """Weight -> multiplicity table of the positive roots (all ones)."""
    return {coords: 1 for coords in positive_roots(system).values()}


def expected_total_dimension(datum):
    return datum.rank + len(datum.even_roots) + len(datum.odd_roots)


class VerificationReport:
    """Comparison of a presented algebra against the reference root system.

    `verify_presentation` also attaches what the comparison was made from:
    `presentation`, `quotient_report` and `reference`, the weight ->
    multiplicity table of the positive roots.
    """

    def __init__(self, datum, system, passed, mismatches, expected_total, got_total, notes=()):
        self.datum_name = datum.name
        self.system = system
        self.passed = passed
        self.mismatches = mismatches  # list of (weight, expected dim, got dim)
        self.expected_total = expected_total
        self.got_total = got_total
        self.notes = list(notes)

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
    """Build the presentation, run the graded quotient and compare: surviving
    weights must be exactly the positive roots with multiplicity one, and the
    total dimension must match the root count.  The run is guarded by the
    reference table, which has no weight above top, the highest root height:
    level top + 1 is all zero, and the run closes, or has a weight of positive
    dimension, which trips the guard.  So the run stops by itself at or below
    top + 1, and no higher cap could bind."""
    ref = reference_multiplicities(system)
    pres = presentation(datum, system)
    report = quotient_dimensions(pres, max(sum(w) for w in ref) + 1, excess_guard=ref)
    notes = [] if report.closed else [report.warning]
    mismatches = []
    surviving = report.surviving_weights()
    for w, q in sorted(surviving.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        expected = ref.get(w, 0)
        if q != expected:
            mismatches.append((w, expected, q))
    for w in sorted(ref, key=lambda w: (sum(w), w)):
        if w not in surviving:
            mismatches.append((w, 1, 0))
    expected_total = expected_total_dimension(datum)
    got_total = report.total_dim
    passed = report.closed and not mismatches and got_total == expected_total
    result = VerificationReport(datum, system, passed, mismatches, expected_total, got_total, notes)
    result.quotient_report = report
    result.presentation = pres
    result.reference = ref
    return result


class NecessityResult:
    """Whether one higher order element of a presentation is necessary."""

    def __init__(self, necessary, first_excess, provenance, nodes):
        self.necessary = necessary
        self.first_excess = first_excess  # weight where the excess first appears
        self.provenance = provenance
        self.nodes = nodes

    def __bool__(self):
        return self.necessary

    def to_json(self):
        return {
            "provenance": self.provenance,
            "nodes": list(self.nodes),
            "necessary": self.necessary,
            "firstExcessWeight": list(self.first_excess) if self.first_excess else None,
        }


def _necessity(pres, indices):
    """Necessity of the higher order elements of `pres` at `indices`, decided
    on one covering engine of `pres` built to one level below the highest of
    them.  Element j is necessary when it does not lie in the ideal generated
    by the other elements.

    Let j have weight nu and height h.  Deleting j changes no relation below
    h, so the levels below h are the engine's, and at height h only j's row
    at nu goes: the Jacobi rows and the other relation rows at nu come from
    those levels.  If j's row lies in their span, or the engine closed below
    h - 1 (every level above an all-zero level is zero), every level is
    unchanged.  Otherwise the quotient at nu grows by exactly 1 and no other
    weight of height h moves.  So on a presentation that passes verification,
    as every class up to rank 8 does, j is necessary exactly when deleting it
    lets some weight exceed its reference multiplicity, nu first.
    """
    elements = pres.e_side
    for j in indices:
        if not (0 <= j < len(elements) and elements[j].provenance != "standard"):
            raise PreconditionError(f"element index {j} is outside the higher order elements")
    top = max(content_height(elements[j].content) for j in indices)
    engine = quotient_dimensions(pres, top - 1).engine
    results = []
    for j in indices:
        el, nu = elements[j], elements[j].content
        row, h = {}, content_height(nu)
        if engine.completed >= h - 1:
            span = Echelon()
            for _, jacobi in engine.jacobi_rows(h, {nu}):
                span.insert(jacobi)
            for k, other in enumerate(elements):
                if k != j and other.content == nu:
                    span.insert(engine.rho_pair(other.terms))
            row = engine.rho_pair(el.terms)
            span.reduce(row)
        results.append(NecessityResult(bool(row), nu if row else None, el.provenance, el.nodes))
    return results


def necessity_test(datum, system, relation_index):
    """Whether the addressed higher order element (and its mirror) is
    necessary: see `_necessity`."""
    return _necessity(presentation(datum, system), [relation_index])[0]


def necessity_survey(datum, system):
    """Necessity of every higher order element of the presentation, all on
    one covering engine."""
    pres = presentation(datum, system)
    indices = [idx for idx, el in enumerate(pres.e_side) if el.provenance != "standard"]
    return _necessity(pres, indices) if indices else []


def verify_all_borels(datum):
    """One report per enumerated simple system."""
    return [
        verify_presentation(datum, system)
        for system in enumerate_simple_systems(datum)
    ]


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
