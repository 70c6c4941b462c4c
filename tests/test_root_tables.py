"""The root tables against Kac's classification, and their golden digests.

`tests/golden/root_tables.json` holds, for every algebra of `GRID`, the
SHA-256 of the sorted `repr`s of the even, odd and isotropic roots, of the
basis symbols in their order with the norm (s, s) of each, of l_m^2 and of
the ordered distinguished simple system.  Any change to a root set, the
symbol order, the form or the distinguished system shows up here.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_root_tables.py
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from superserre.rootdata import build_root_datum, distinguished_simple_system, wv
from superserre.scalars import render

GOLDEN = pathlib.Path(__file__).parent / "golden" / "root_tables.json"
GRID = {
    "A": [dict(m=m, n=n) for m in range(6) for n in range(6) if (m, n) != (0, 0)],
    "B": [dict(m=m, n=n) for m in range(6) for n in range(1, 6)],
    "C": [dict(n=n) for n in range(3, 9)],
    "D": [dict(m=m, n=n) for m in range(2, 6) for n in range(1, 6)],
    "F4": [{}],
    "G3": [{}],
    "D21a": [{}, dict(alpha=Fraction(2)), dict(alpha=Fraction(-1, 2))],
}

# (|even roots|, |odd roots|) from Kac's table, per family of the grid
KAC_COUNTS = {
    "A": lambda m, n: (m * (m + 1) + n * (n + 1), 2 * (m + 1) * (n + 1)),
    "B": lambda m, n: (2 * m * m + 2 * n * n, 4 * m * n + 2 * n),
    "C": lambda n: (2 * (n - 1) ** 2, 4 * (n - 1)),
    "D": lambda m, n: (2 * m * (m - 1) + 2 * n * n, 4 * m * n),
}


def _sha(items):
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def root_table_digests():
    out = {}
    for fam, cases in GRID.items():
        for kw in cases:
            datum = build_root_datum(fam, **kw)
            units = [wv({s: 1}) for s in datum.norms]
            out[datum.name] = {
                "even": _sha(sorted(map(repr, datum.even_roots))),
                "odd": _sha(sorted(map(repr, datum.odd_roots))),
                "isotropic": _sha(sorted(map(repr, datum.isotropic_roots))),
                "symbols": _sha([[repr(u), render(datum.form_value(u, u))] for u in units]),
                "min_square_length": _sha(repr(datum.min_square_length)),
                "distinguished": _sha([repr(b) for b in distinguished_simple_system(datum).roots]),
            }
    return out


def test_root_tables_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert root_table_digests() == golden


@pytest.mark.parametrize("fam", sorted(KAC_COUNTS))
def test_root_counts_match_kac_table(fam):
    for kw in GRID[fam]:
        datum = build_root_datum(fam, **kw)
        expected = KAC_COUNTS[fam](**kw)
        assert (len(datum.even_roots), len(datum.odd_roots)) == expected, datum.name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(root_table_digests(), indent=1, sort_keys=True) + "\n")
