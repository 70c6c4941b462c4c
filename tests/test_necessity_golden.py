"""Golden digests of the necessity survey, driven through the command line.

`tests/golden/necessity_digests.json` holds, for every test-matrix algebra,
for D(2,1;2) and for the four catalogue algebras A(4,3), B(3,3), C(5) and
D(4,3), the SHA-256 of the standard output of

    superserre necessity <algebra> --borel all --format json

that is, one line per Borel class with every higher order element's
provenance, nodes, verdict and first excess weight.  The test goes through
`cli.main`, so it pins the printed verdicts whatever decides them.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_necessity_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

from conftest import CATALOGUE, FAMILY_MATRIX
from superserre.cli import main
from superserre.rootdata import build_root_datum

GOLDEN = pathlib.Path(__file__).parent / "golden" / "necessity_digests.json"


def _algebras():
    """(datum, family arguments on the command line) per algebra."""
    for fam, kw in [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + CATALOGUE:
        argv = [fam]
        for option, value in kw.items():
            argv += [f"--{option}", str(value)]
        yield build_root_datum(fam, **kw), argv
    yield build_root_datum("D21a", alpha=Fraction(2)), ["D21a", "--alpha", "2"]


def _necessity_stdout(family_argv):
    out = io.StringIO()
    argv = ["necessity", *family_argv, "--borel", "all", "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def necessity_digests():
    return {
        datum.name: hashlib.sha256(_necessity_stdout(family_argv).encode()).hexdigest()
        for datum, family_argv in _algebras()
    }


def test_necessity_verdicts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert necessity_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(necessity_digests(), indent=1, sort_keys=True) + "\n")
