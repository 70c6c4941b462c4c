"""Golden digests of the quotient engine's per-weight tables.

`tests/golden/quotient_digests.json` holds, for every Borel class of the
test-matrix algebras and of D(2,1;2), the SHA-256 of the verify report's
`quotient_report.to_json()` (every weight visited, with its free dimension,
ideal rank and quotient dimension) and of the `necessity_survey` results as
JSON.  Any change to the covering engine that moves a dimension, drops or
adds a reported weight, or changes a necessity verdict shows up here.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_quotient_golden.py
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from conftest import FAMILY_MATRIX
from superserre.rootdata import build_root_datum, enumerate_simple_systems
from superserre.verify import necessity_survey, verify_presentation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "quotient_digests.json"


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _algebras():
    for fam, kw, _ in FAMILY_MATRIX:
        yield build_root_datum(fam, **kw)
    yield build_root_datum("D21a", alpha=Fraction(2))


def quotient_digests():
    out = {}
    for datum in _algebras():
        rows = []
        for system in enumerate_simple_systems(datum):
            report = verify_presentation(datum, system)
            survey = necessity_survey(datum, system)
            rows.append(
                {
                    "quotient": _digest(report.quotient_report.to_json()),
                    "necessity": _digest([res.to_json() for res in survey]),
                }
            )
        out[datum.name] = rows
    return out


def test_quotient_tables_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert quotient_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(quotient_digests(), indent=1, sort_keys=True) + "\n")
