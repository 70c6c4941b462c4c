import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

import superserre
from superserre.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.fn(args, out)
    return code, out.getvalue()


DIAGRAM_SCHEMA = {
    "type": "object",
    "required": ["nodes", "edges"],
    "properties": {
        "nodes": {"type": "array", "items": {"enum": ["white", "grey", "black"]}},
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "j", "count", "arrowTowards", "sign", "bLabel"],
                "properties": {
                    "i": {"type": "integer"},
                    "j": {"type": "integer"},
                    "count": {"type": "integer", "minimum": 1, "maximum": 3},
                    "arrowTowards": {"type": ["integer", "null"]},
                    "sign": {"enum": [-1, 0, 1]},
                    "bLabel": {"type": ["string", "null"]},
                },
            },
        },
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["datum", "reports"],
    "properties": {
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pass", "mismatches", "expectedTotal", "gotTotal"],
            },
        }
    },
}


def test_borels_listing():
    code, text = run_cli(["borels", "A", "--m", "1", "--n", "0"])
    assert code == 0
    assert "3 conjugacy classes" in text
    assert "(distinguished)" in text


def test_cartan_json():
    code, text = run_cli(["cartan", "B", "--m", "0", "--n", "1", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["A"] == [["2"]]
    assert data["theta"] == [1]
    assert data["kappa"] == 0


def test_diagram_json_schema():
    for argv in (
        ["diagram", "F4", "--borel", "all", "--format", "json"],
        ["diagram", "D21a", "--borel", "all", "--format", "json"],
    ):
        code, text = run_cli(argv)
        assert code == 0
        for line in text.strip().splitlines():
            jsonschema.validate(json.loads(line), DIAGRAM_SCHEMA)


def test_relations_latex_contains_quartic():
    code, text = run_cli(
        ["relations", "A", "--m", "1", "--n", "1", "--borel", "distinguished", "--format", "latex"]
    )
    assert code == 0
    assert "[e_2,[e_1,[e_2,e_3]]]" in text


def test_verify_single_and_exit_code():
    code, text = run_cli(["verify", "D21a", "--alpha", "2"])
    assert code == 0
    assert text.strip() == "PASS total=17 borel=0"


def test_verify_all_g3():
    code, text = run_cli(["verify", "G3", "--all"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS total=31") for line in lines)


def test_verify_json_schema():
    code, text = run_cli(["verify", "A", "--m", "1", "--n", "0", "--all", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    jsonschema.validate(data, VERIFY_SCHEMA)
    assert len(data["reports"]) == 3


def test_zgrading_text():
    code, text = run_cli(["zgrading", "D21a", "--borel", "1", "--d", "3"])
    assert code == 0
    assert "k=1: dim g_k=4 dim L_k=4 ok" in text
    assert "k=2: dim g_k=0 dim L_k=0 ok" in text


def test_zgrading_exits_1_on_a_mismatch(monkeypatch):
    import superserre.cli as cli

    monkeypatch.setattr(cli, "compare_z_grading", lambda *a, **kw: {0: (9, 9, True), 1: (4, 3, False)})
    code, text = run_cli(["zgrading", "G3", "--d", "1"])
    assert code == 1
    assert "k=1: dim g_k=4 dim L_k=3 MISMATCH" in text


def test_necessity_command():
    code, text = run_cli(["necessity", "A", "--m", "1", "--n", "1", "--borel", "0"])
    assert code == 0
    assert "case-1" in text and "necessary" in text


def test_usage_errors():
    assert main(["verify", "E8"]) == 2
    assert main(["verify", "C", "--n", "2"]) == 2
    assert main(["cartan", "A"]) == 2
    assert main(["zgrading", "A", "--m", "1", "--n", "0"]) == 2


def test_verify_jobs_parallel():
    code, text = run_cli(["verify", "A", "--m", "1", "--n", "0", "--all", "--jobs", "2"])
    assert code == 0
    assert len(text.strip().splitlines()) == 3


def test_verify_explicit_borel_index():
    code, text = run_cli(["verify", "F4", "--borel", "5"])
    assert code == 0
    assert text.strip() == "PASS total=40 borel=5"


def test_alpha_negative_value_with_equals_sign():
    code, text = run_cli(["verify", "D21a", "--alpha=-1/2", "--borel", "all"])
    assert code == 0
    assert len(text.strip().splitlines()) == 4


RELATIONS_SCHEMA = {
    "type": "object",
    "required": ["family", "rank", "theta", "cartan", "eSide", "fSide"],
    "properties": {
        "eSide": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["side", "provenance", "nodes", "multidegree", "terms"],
                "properties": {
                    "terms": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["coefficient", "word"],
                        },
                    }
                },
            },
        }
    },
}


def test_relations_json_schema():
    code, text = run_cli(["relations", "D21a", "--borel", "1", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    jsonschema.validate(data, RELATIONS_SCHEMA)
    assert any(el["provenance"] == "case-14" for el in data["eSide"])


def test_single_node_diagram_ascii():
    code, text = run_cli(["diagram", "B", "--m", "0", "--n", "1"])
    assert code == 0
    assert text.strip() == "(*)"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "F4", "--max-height", "5"],  # the option is gone
        ["zgrading", "G3", "--d", "0"],
        ["zgrading", "G3", "--d", "9"],
        ["verify", "D21a", "--alpha", "1/0"],
    ],
)
def test_bad_input_ends_in_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_jobs_never_exceed_the_number_of_classes(monkeypatch):
    import superserre.cli as cli

    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs the
        initializer here, starts nothing; every task is a class index."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            assert all(type(p) is int for p in payloads)
            return [fn(p) for p in payloads]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    code, text = run_cli(["verify", "G3", "--all", "--jobs", "500"])  # 4 classes
    assert code == 0 and len(text.strip().splitlines()) == 4
    assert sizes == [4]
    code, _ = run_cli(["verify", "G3", "--borel", "1", "--jobs", "500"])
    assert code == 0 and sizes == [4]  # one class: no pool at all


def test_jobs_two_gives_the_same_json_as_jobs_one():
    # A(1,0) has 3 classes and generic D(2,1;a) 4, so 2 workers each; the
    # workers get D(2,1;a)'s `Scalar` norms as pickles
    for family in (["A", "--m", "1", "--n", "0"], ["D21a"]):
        argv = ["verify", *family, "--all", "--format", "json"]
        code1, one = run_cli(argv + ["--jobs", "1"])
        code2, two = run_cli(argv + ["--jobs", "2"])
        assert code1 == code2 == 0
        assert two == one


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(jobs, capsys):
    assert main(["verify", "G3", "--all", "--jobs", jobs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--jobs" in err[0]


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["borels", "F4", "--borel", "banana"], "unrecognized arguments"),  # lists every class
        (["cartan", "F4", "--max-height", "0"], "unrecognized arguments"),  # runs no quotient
        (["relations", "G3", "--max-height", "5"], "unrecognized arguments"),
        (["verify", "F4", "--all", "--borel", "3"], "--all and --borel"),
        (["verify", "G3", "--max-height", "0"], "unrecognized arguments"),  # no height cap
        (["necessity", "F4", "--max-height", "0"], "unrecognized arguments"),
        (["zgrading", "G3", "--d", "1", "--max-height", "0"], "unrecognized arguments"),
        ([], "required"),
        (["verify"], "required"),
        (["frobnicate", "F4"], "invalid choice"),
        (["cartan", "F4", "--format", "yaml"], "invalid choice"),
        (["relations", "B", "--m", "1", "--n", "1", "--alpha", "2"], "--alpha"),  # D21a only
        (["verify", "A", "--m", "1", "--n", "0", "--alpha", "generic"], "--alpha"),
        (["borels", "G3", "--m", "2"], "--m"),  # F4, G3 and D21a take no --m/--n
        (["cartan", "F4", "--n", "1"], "--n"),
        (["necessity", "D21a", "--alpha", "2", "--m", "1"], "--m"),
        (["diagram", "D21a", "--n", "1"], "--n"),
        (["verify", "C", "--m", "1", "--n", "3"], "--m"),  # C reads --n only
        (["verify", "D21a", "--alpha", "-1/2"], "--alpha"),  # read as an option: --alpha=-1/2
        (["borels", "D21a", "--alpha=1e5000"], "--alpha"),  # no exponent
        (["cartan", "A", "--m", "1"], "--n"),
        (["cartan", "C"], "--n"),
    ],
)
def test_refused_input_names_its_cause(argv, cause, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and cause in err[0]


def test_alpha_with_a_huge_exponent_is_refused_promptly(capsys):
    # `Fraction` would spend minutes expanding 10^100000000
    start = time.process_time()
    assert main(["borels", "D21a", "--alpha=1e100000000"]) == 2
    assert time.process_time() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--alpha" in err[0]


def test_zgrading_refuses_d_before_verifying(monkeypatch, capsys):
    import superserre.cli as cli

    def no_verify(*args, **kwargs):
        raise AssertionError("a class was verified before --d was checked")

    monkeypatch.setattr(cli, "verify_presentation", no_verify)
    assert main(["zgrading", "F4", "--borel", "all", "--d", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "d=9" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["relations", "D", "--m", "3", "--n", "2", "--borel", "all", "--format", "json"],
        ["necessity", "F4", "--borel", "all"],
    ],
    ids=["relations-json", "necessity"],
)
def test_a_reader_that_has_gone_ends_the_run_quietly(argv):
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(superserre.__file__))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superserre.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""  # no traceback, no "Exception ignored" at exit
