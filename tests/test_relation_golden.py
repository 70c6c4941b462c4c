"""Golden digests of the rendered relation sets.

`tests/golden/relation_digests.json` holds, for every Borel class of the
test-matrix algebras, of D(2,1;2) and of the four catalogue algebras
A(4,3), B(3,3), C(5) and D(4,3), the SHA-256 of
`presentation(datum, system).render(fmt)` in each output format.  Any change
to relation generation, deduplication order or rendering shows up here.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_relation_golden.py
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from conftest import CATALOGUE, FAMILY_MATRIX
from superserre.rootdata import build_root_datum, enumerate_simple_systems
from superserre.serre import presentation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "relation_digests.json"
FORMATS = ("text", "latex", "json")


def _algebras():
    for fam, kw, _ in FAMILY_MATRIX:
        yield build_root_datum(fam, **kw)
    yield build_root_datum("D21a", alpha=Fraction(2))
    for fam, kw in CATALOGUE:
        yield build_root_datum(fam, **kw)


def relation_digests():
    out = {}
    for datum in _algebras():
        rows = []
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            rows.append(
                {fmt: hashlib.sha256(pres.render(fmt).encode()).hexdigest() for fmt in FORMATS}
            )
        out[datum.name] = rows
    return out


def test_relation_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert relation_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(relation_digests(), indent=1, sort_keys=True) + "\n")
