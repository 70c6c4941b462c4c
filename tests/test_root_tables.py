"""The root tables against Kac's classification.

`GRID` is also the list of algebras whose root tables
`test_golden.root_table_digests` pins.
"""

from fractions import Fraction

import pytest

from superserre.rootdata import build_root_datum

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


@pytest.mark.parametrize("fam", sorted(KAC_COUNTS))
def test_root_counts_match_kac_table(fam):
    for kw in GRID[fam]:
        datum = build_root_datum(fam, **kw)
        expected = KAC_COUNTS[fam](**kw)
        assert (len(datum.even_roots), len(datum.odd_roots)) == expected, datum.name

