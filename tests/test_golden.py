"""Golden digests: the SHA-256 of what the package prints or serialises for
every Borel class of a fixed list of algebras.

`GOLDENS` maps each file `tests/golden/<name>.json` to the function that
computes its digests; the one test compares each function's result with its
file.  Re-record every file (only when an output change is intended) with

    PYTHONPATH=src:tests python3 tests/test_golden.py

`tests/golden/diagrams.json` is not a digest file: acceptance criterion 6
compares it whole.
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

from conftest import CATALOGUE, FAMILY_MATRIX
from superserre.cartan_dynkin import build_diagram, cartan_matrix, serialize_diagram
from superserre.cli import main
from superserre.quotient import check_lowering_stability
from superserre.rootdata import build_root_datum, distinguished_simple_system, enumerate_simple_systems, wv
from superserre.scalars import render
from superserre.serre import presentation
from superserre.verify import necessity_survey, verify_presentation
from test_root_tables import GRID

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (family, parameters) of the test matrix and D(2,1;2)
MATRIX = [(fam, kw) for fam, kw, _ in FAMILY_MATRIX] + [("D21a", dict(alpha=Fraction(2)))]


def sha_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha_json(data):
    return sha_text(json.dumps(data, sort_keys=True))


def cli_stdout(*argv):
    """Standard output of `cli.main(argv)`, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def family_argv(fam, kw):
    """The family and its parameters as command-line arguments."""
    argv = [fam]
    for option, value in kw.items():
        argv += [f"--{option}", str(value)]
    return argv


def cartan_digests():
    """For every Borel class of A(4,3), B(3,3), C(5), D(4,3), F(4), G(3), the
    generic D(2,1;a), D(2,1;2) and D(2,1;-1/2), the digest of
    `cartan_matrix(datum, system).to_json()` and of `serialize_diagram` of its
    diagram in each format.  Any change to the Gram entries, D, A, l_m^2, the
    signs or the diagram text shows up here."""
    algebras = CATALOGUE + [
        ("F4", {}),
        ("G3", {}),
        ("D21a", {}),
        ("D21a", dict(alpha=Fraction(2))),
        ("D21a", dict(alpha=Fraction(-1, 2))),
    ]
    out = {}
    for fam, kw in algebras:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            cd = cartan_matrix(datum, system)
            diag = build_diagram(cd)
            row = {"cartan": sha_json(cd.to_json())}
            row.update({fmt: sha_text(serialize_diagram(diag, fmt)) for fmt in ("ascii", "json", "latex")})
            rows.append(row)
        out[datum.name] = rows
    return out


def necessity_digests():
    """For every algebra of `MATRIX` and of the catalogue A(4,3), B(3,3), C(5)
    and D(4,3), the digest of the standard output of

        superserre necessity <algebra> --borel all --format json

    that is, one line per Borel class with every higher order element's
    provenance, nodes, verdict and first excess weight.  It goes through
    `cli.main`, so it pins the printed verdicts whatever decides them."""
    return {
        build_root_datum(fam, **kw).name: sha_text(
            cli_stdout("necessity", *family_argv(fam, kw), "--borel", "all", "--format", "json")
        )
        for fam, kw in MATRIX + CATALOGUE
    }


def quotient_digests():
    """For every Borel class of `MATRIX`, the digest of the verify report's
    `quotient_report.to_json()` (every weight visited, with its free
    dimension, ideal rank and quotient dimension) and of the
    `necessity_survey` results, the survey on a presentation of its own.  Any
    change to the covering engine that moves a dimension, drops or adds a
    reported weight, or changes a necessity verdict shows up here."""
    out = {}
    for fam, kw in MATRIX:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            report = verify_presentation(datum, system)
            survey = necessity_survey(datum, system)
            rows.append(
                {
                    "quotient": sha_json(report.quotient_report.to_json()),
                    "necessity": sha_json([res.to_json() for res in survey]),
                }
            )
        out[datum.name] = rows
    return out


def relation_digests():
    """For every Borel class of `MATRIX` and of the catalogue A(4,3), B(3,3),
    C(5) and D(4,3), the digest of `presentation(datum, system).render(fmt)`
    in each output format.  Any change to relation generation, element order
    or rendering shows up here."""
    out = {}
    for fam, kw in MATRIX + CATALOGUE:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            pres = presentation(datum, system)
            rows.append({fmt: sha_text(pres.render(fmt)) for fmt in ("text", "latex", "json")})
        out[datum.name] = rows
    return out


def stability_digests():
    """For every Borel class of `MATRIX` and of B(3,3), D(3,3) and A(4,2), the
    algebras of CI's stability step where most ideal entries occur, the
    digest of `check_lowering_stability(presentation(...)).to_json()`: every
    (element, node) entry with its verdict and how it was reached (`zero`,
    `ideal` or `violation`).  Any change to the stability check that moves an
    entry from one kind to another, or reorders the entries, shows up here."""
    algebras = MATRIX + [("B", dict(m=3, n=3)), ("D", dict(m=3, n=3)), ("A", dict(m=4, n=2))]
    out = {}
    for fam, kw in algebras:
        datum = build_root_datum(fam, **kw)
        out[datum.name] = [
            sha_json(check_lowering_stability(presentation(datum, system)).to_json())
            for system in enumerate_simple_systems(datum)
        ]
    return out


def engine_digests():
    """For every Borel class of `MATRIX`, after `verify_presentation`, the
    digest of three things on `report.presentation.engine`: `weight_of` in
    id order, `level_ids`, and `products` with its keys sorted and every
    coefficient rendered by `scalars.render`.  So every structure constant
    of the basis, and the order in which the engine gives out ids, is
    pinned, not only the dimensions the reports print."""
    out = {}
    for fam, kw in MATRIX:
        datum = build_root_datum(fam, **kw)
        rows = []
        for system in enumerate_simple_systems(datum):
            engine = verify_presentation(datum, system).presentation.engine
            products = [
                [list(key), [[b, render(c)] for b, c in sorted(vec.items())]]
                for key, vec in sorted(engine.products.items())
            ]
            rows.append(
                {
                    "weights": sha_json([list(w) for w in engine.weight_of]),
                    "levels": sha_json(sorted(engine.level_ids.items())),
                    "products": sha_json(products),
                }
            )
        out[datum.name] = rows
    return out


def zgrading_digests():
    """For every node d of every algebra of `MATRIX`, the digest of the
    standard output of

        superserre zgrading <algebra> --borel all --d <d> --format json

    that is, one layer table per Borel class, each layer with dim g_k, dim L_k
    and whether they agree.  It goes through `cli.main`, so it pins the
    printed tables whatever the Python API underneath them looks like."""
    out = {}
    for fam, kw in MATRIX:
        datum = build_root_datum(fam, **kw)
        argv = family_argv(fam, kw)
        out[datum.name] = {
            str(d): sha_text(
                cli_stdout("zgrading", *argv, "--borel", "all", "--d", str(d), "--format", "json")
            )
            for d in range(1, datum.rank + 1)
        }
    return out


def root_table_digests():
    """For every algebra of `test_root_tables.GRID`, the digest of the sorted
    `repr`s of the even, odd and isotropic roots, of the basis symbols in
    their order with the norm (s, s) of each, of l_m^2 and of the ordered
    distinguished simple system.  Any change to a root set, the symbol order,
    the form or the distinguished system shows up here."""
    out = {}
    for fam, cases in GRID.items():
        for kw in cases:
            datum = build_root_datum(fam, **kw)
            units = [wv({s: 1}) for s in datum.norms]
            out[datum.name] = {
                "even": sha_json(sorted(map(repr, datum.even_roots))),
                "odd": sha_json(sorted(map(repr, datum.odd_roots))),
                "isotropic": sha_json(sorted(map(repr, datum.isotropic_roots))),
                "symbols": sha_json([[repr(u), render(datum.form_value(u, u))] for u in units]),
                "min_square_length": sha_json(repr(datum.min_square_length)),
                "distinguished": sha_json([repr(b) for b in distinguished_simple_system(datum).roots]),
            }
    return out


GOLDENS = {
    "cartan_digests": cartan_digests,
    "engine_digests": engine_digests,
    "necessity_digests": necessity_digests,
    "quotient_digests": quotient_digests,
    "relation_digests": relation_digests,
    "stability_digests": stability_digests,
    "zgrading_digests": zgrading_digests,
    "root_tables": root_table_digests,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digests_match_golden(name):
    assert GOLDENS[name]() == json.loads((GOLDEN_DIR / f"{name}.json").read_text())


if __name__ == "__main__":
    for name, digests in GOLDENS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
