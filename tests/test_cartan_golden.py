"""Golden digests of the Cartan data and the serialized diagrams.

`tests/golden/cartan_digests.json` holds, for every Borel class of A(4,3),
B(3,3), C(5), D(4,3), F(4), G(3), the generic D(2,1;a), D(2,1;2) and
D(2,1;-1/2), the SHA-256 of `cartan_matrix(datum, system).to_json()` and of
`serialize_diagram` of its diagram in each format.  Any change to the Gram
entries, D, A, l_m^2, the signs or the diagram text shows up here.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_cartan_golden.py
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from superserre.cartan_dynkin import build_diagram, cartan_matrix, serialize_diagram
from superserre.rootdata import build_root_datum, enumerate_simple_systems

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cartan_digests.json"
FORMATS = ("ascii", "json", "latex")
ALGEBRAS = (
    ("A", dict(m=4, n=3)),
    ("B", dict(m=3, n=3)),
    ("C", dict(n=5)),
    ("D", dict(m=4, n=3)),
    ("F4", {}),
    ("G3", {}),
    ("D21a", {}),
    ("D21a", dict(alpha=Fraction(2))),
    ("D21a", dict(alpha=Fraction(-1, 2))),
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cartan_digests():
    out = {}
    for fam, kw in ALGEBRAS:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            cd = cartan_matrix(datum, system)
            diag = build_diagram(cd)
            row = {"cartan": _sha(json.dumps(cd.to_json(), sort_keys=True))}
            row.update({fmt: _sha(serialize_diagram(diag, fmt)) for fmt in FORMATS})
            rows.append(row)
        out[datum.name] = rows
    return out


def test_cartan_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert cartan_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cartan_digests(), indent=1, sort_keys=True) + "\n")
