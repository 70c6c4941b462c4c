"""The benchmark's workloads: which Borel classes each one runs, what it
calls on each, and how each output is checked.

Every check compares with an answer the quotient engine does not compute:
dimensions from root counting, Borel class counts from the classification,
the word-space engine's ranks, and digests of outputs recorded at the
commit that introduced the benchmark.

Workload functions receive the imported package as `pkg` and look every
function up on it at call time, so the tracer's wrappers apply.
"""

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable

# The test suite's family matrix: family, constructor kwargs, expected total
# dimension (rank plus root count).
FAMILY_MATRIX = (
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
)

CATALOGUE = (
    ("A", dict(m=4, n=3), None),
    ("B", dict(m=3, n=3), None),
    ("C", dict(n=5), None),
    ("D", dict(m=4, n=3), None),
)


def borel_class_count(family, m=None, n=None):
    """Number of Borel conjugacy classes, from the classification: shuffles
    of the epsilon and delta simple roots for the series (D(m,n) counts the
    words ending in delta twice), and the known values for the exceptional
    algebras."""
    if family == "A":
        return comb(m + n + 2, m + 1)
    if family == "B":
        return comb(m + n, m)
    if family == "C":
        return 2 * n - 1
    if family == "D":
        return comb(m + n, m) + comb(m + n - 1, m)
    return {"F4": 6, "G3": 4, "D21a": 4}[family]


@dataclass(frozen=True)
class Item:
    """One Borel class of one algebra, with everything its check needs."""

    id: str
    datum: object
    system: object
    total: object  # expected dimension, or None where the workload checks none
    classes_ok: bool  # the algebra has the classified number of Borel classes


@dataclass(frozen=True)
class Workload:
    name: str
    algebras: tuple
    keep: Callable[[int], bool]  # which class indices of each algebra to run
    run: Callable  # (pkg, item) -> (JSON-able output, list of problems)


def import_package(src):
    """Import superserre afresh from `src`, dropping any loaded copy first."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "superserre" or n.startswith("superserre.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("superserre")
    if not pkg.__file__.startswith(str(src)):
        raise ImportError(f"superserre imported from {pkg.__file__}, not from {src}")
    return pkg


def build_items(pkg, workload):
    """Root data and Borel classes of the workload, as its list of items."""
    rootdata = pkg.rootdata
    items = []
    for family, kwargs, total in workload.algebras:
        datum = rootdata.build_root_datum(family, **kwargs)
        systems = rootdata.enumerate_simple_systems(datum)
        classes_ok = len(systems) == borel_class_count(family, **kwargs)
        for k, system in enumerate(systems):
            if workload.keep(k):
                items.append(Item(f"{datum.name}#{k}", datum, system, total, classes_ok))
    return items


def digest(output):
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(recorded, item_id, output):
    """Problems with `output` against the digest recorded for `item_id`."""
    want = recorded.get(item_id)
    if want is None:
        return [f"no digest recorded for {item_id}"]
    return [] if digest(output) == want else ["output differs from its recorded digest"]


def _class_problems(item):
    return [] if item.classes_ok else [f"{item.datum.name}: wrong number of Borel classes"]


def _verify_problems(pkg, item, report):
    problems = []
    if not report.passed:
        problems.append("verification failed")
    if pkg.verify.expected_total_dimension(item.datum) != item.total:
        problems.append(f"root count gives {pkg.verify.expected_total_dimension(item.datum)}")
    if report.got_total != item.total:
        problems.append(f"presented dimension {report.got_total}, expected {item.total}")
    return problems


def _necessity_problems(survey, pres):
    problems = []
    if len(survey) != len(pres.higher_order):
        problems.append(f"{len(survey)} necessity results for {len(pres.higher_order)} elements")
    for res in survey:
        if not res.necessary or res.first_excess is None:
            problems.append(f"element {res.provenance} {list(res.nodes)} is not necessary")
    return problems


def run_verify(pkg, item):
    report = pkg.verify.verify_presentation(item.datum, item.system)
    output = {"report": report.to_json(), "weights": report.quotient_report.to_json()}
    return output, _class_problems(item) + _verify_problems(pkg, item, report)


def run_necessity_stability(pkg, item):
    survey = pkg.verify.necessity_survey(item.datum, item.system)
    pres = pkg.serre.presentation(item.datum, item.system)
    stability = pkg.quotient.check_lowering_stability(pres)
    problems = _class_problems(item) + _necessity_problems(survey, pres)
    if not stability.ok:
        problems.append("lowering stability violated")
    output = {"necessity": [r.to_json() for r in survey], "stability": stability.to_json()}
    return output, problems


def run_catalogue(pkg, item):
    cd = pkg.cartan_dynkin.cartan_matrix(item.datum, item.system)
    diagram = pkg.cartan_dynkin.build_diagram(cd)
    output = {
        "cartan": cd.to_json(),
        "json": pkg.cartan_dynkin.serialize_diagram(diagram, "json"),
        "latex": pkg.cartan_dynkin.serialize_diagram(diagram, "latex"),
        "relations": pkg.serre.presentation(item.datum, item.system).render("latex"),
    }
    return output, _class_problems(item)


def run_generic_qa(pkg, item):
    report = pkg.verify.verify_presentation(item.datum, item.system)
    survey = pkg.verify.necessity_survey(item.datum, item.system)
    pres = report.presentation
    stability = pkg.quotient.check_lowering_stability(pres)
    words = pkg.quotient.IdealWordEngine(pres.parities, pres.e_side)
    problems = _class_problems(item) + _verify_problems(pkg, item, report)
    problems += _necessity_problems(survey, pres)
    if not stability.ok:
        problems.append("lowering stability violated")
    for nu, (_, ideal_rank, _) in report.quotient_report.per_weight.items():
        if words.rank(nu) != ideal_rank:
            problems.append(f"word engine rank differs at {list(nu)}")
    output = {
        "report": report.to_json(),
        "weights": report.quotient_report.to_json(),
        "necessity": [r.to_json() for r in survey],
        "stability": stability.to_json(),
    }
    return output, problems


# A pass runs every item of the workload once, in an order drawn from the
# seed.  The subsets keep one pass under nine seconds on the seed, so that a
# 20-second run makes at least three passes and reports medians.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_matrix", FAMILY_MATRIX, lambda k: k < 2, run_verify),
        Workload("necessity_stability", FAMILY_MATRIX, lambda k: k < 2, run_necessity_stability),
        Workload("catalogue", CATALOGUE, lambda k: k % 5 == 0, run_catalogue),
        Workload("generic_qa", (("D21a", {}, 17),), lambda k: True, run_generic_qa),
    )
}
