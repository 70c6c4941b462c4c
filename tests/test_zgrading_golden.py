"""Golden digests of the Z-grading tables, driven through the command line.

`tests/golden/zgrading_digests.json` holds, for every node d of every
test-matrix algebra and of D(2,1;2), the SHA-256 of the standard output of

    superserre zgrading <algebra> --borel all --d <d> --format json

that is, one layer table per Borel class, each layer with dim g_k, dim L_k
and whether they agree.  The test goes through `cli.main`, so it pins the
printed tables whatever the Python API underneath them looks like.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_zgrading_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

from conftest import FAMILY_MATRIX
from superserre.cli import main
from superserre.rootdata import build_root_datum

GOLDEN = pathlib.Path(__file__).parent / "golden" / "zgrading_digests.json"


def _algebras():
    """(datum, family arguments on the command line) per algebra."""
    for fam, kw, _ in FAMILY_MATRIX:
        argv = [fam]
        for option, value in kw.items():
            argv += [f"--{option}", str(value)]
        yield build_root_datum(fam, **kw), argv
    yield build_root_datum("D21a", alpha=Fraction(2)), ["D21a", "--alpha", "2"]


def _zgrading_stdout(family_argv, d):
    out = io.StringIO()
    argv = ["zgrading", *family_argv, "--borel", "all", "--d", str(d), "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def zgrading_digests():
    out = {}
    for datum, family_argv in _algebras():
        out[datum.name] = {
            str(d): hashlib.sha256(_zgrading_stdout(family_argv, d).encode()).hexdigest()
            for d in range(1, datum.rank + 1)
        }
    return out


def test_zgrading_tables_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert zgrading_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(zgrading_digests(), indent=1, sort_keys=True) + "\n")
