"""Golden digests of the lowering-stability reports.

`tests/golden/stability_digests.json` holds, for every Borel class of the
test-matrix algebras, of D(2,1;2) and of B(3,3), D(3,3) and A(4,2), the
SHA-256 of
`check_lowering_stability(presentation(...)).to_json()`: every (element,
node) entry with its verdict and how it was reached (`zero`, `ideal` or
`violation`).  Any change to the stability check that moves an
entry from one kind to another, or reorders the entries, shows up here.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_stability_golden.py
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from conftest import FAMILY_MATRIX
from superserre.quotient import check_lowering_stability
from superserre.rootdata import build_root_datum, enumerate_simple_systems
from superserre.serre import presentation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "stability_digests.json"


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _algebras():
    for fam, kw, _ in FAMILY_MATRIX:
        yield build_root_datum(fam, **kw)
    yield build_root_datum("D21a", alpha=Fraction(2))
    # the algebras of CI's stability step, where most ideal entries occur
    for fam, kw in [("B", dict(m=3, n=3)), ("D", dict(m=3, n=3)), ("A", dict(m=4, n=2))]:
        yield build_root_datum(fam, **kw)


def stability_digests():
    return {
        datum.name: [
            _digest(check_lowering_stability(presentation(datum, system)).to_json())
            for system in enumerate_simple_systems(datum)
        ]
        for datum in _algebras()
    }


def test_stability_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert stability_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(stability_digests(), indent=1, sort_keys=True) + "\n")
