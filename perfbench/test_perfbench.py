"""Tests for the benchmark's own helpers: python3 -m pytest perfbench -q"""

import random
import time

import pytest

import run
from run import ROOT
from tracing import Tracer, _level_sizes, self_times
from workloads import Item, Workload, borel_class_count, check_digest, digest, import_package


def test_self_time_subtracts_direct_children():
    # root [0, 100] with children [10, 40] and [50, 70]; [12, 20] is a grandchild
    parents = [-1, 0, 0, 1]
    starts = [0, 10, 50, 12]
    ends = [100, 40, 70, 20]
    assert self_times(parents, starts, ends) == [50, 22, 20, 8]


def test_self_time_counts_overlapping_children_once():
    assert self_times([-1, 0, 0], [0, 10, 40], [100, 50, 60]) == [50, 40, 20]


def test_tracer_spans_nest_and_summarise():
    ticks = iter(range(0, 10**6, 1000))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    mark = tracer.mark()
    outer()
    assert tracer.parents == [-1, 0, 0]
    summary = tracer.summary(mark)
    assert summary["calls"] == {"outer": 1, "inner": 2}
    assert summary["seconds"]["outer"] == pytest.approx(3e-6)
    assert summary["largest"]["inner"] == pytest.approx(1e-6)


def test_install_wraps_names_imported_elsewhere_and_uninstall_restores():
    pkg = import_package(ROOT / "src")
    original = pkg.serre.presentation
    tracer = Tracer()
    tracer.install(pkg)
    try:
        assert pkg.serre.presentation.__wrapped__ is original
        assert pkg.verify.presentation is pkg.serre.presentation
        datum = pkg.rootdata.build_root_datum("A", m=1, n=0)
        mark = tracer.mark()
        pkg.verify.verify_presentation(datum, pkg.rootdata.enumerate_simple_systems(datum)[0])
        summary = tracer.summary(mark)
        assert summary["calls"]["serre.presentation"] == 1
        assert summary["calls"]["quotient.CoveringEngine.__init__"] == 1
        assert summary["counts"]["scalars.constructions"] > 0
    finally:
        tracer.uninstall()
    assert pkg.serre.presentation is original and pkg.verify.presentation is original


def test_level_sizes_count_pairs_and_full_triples():
    class Engine:
        level_ids = {1: [0, 1]}
        parity_of = [0, 1]

    assert _level_sizes(Engine, 2) == (2, 0)  # [e1, e2] and [e2, e2]
    assert _level_sizes(Engine, 3) == (0, 8)


def test_runner_keeps_each_items_median_scaled_visit(monkeypatch):
    seconds = iter([3.0, 1.0, 2.0])

    def fake_timed(fn):
        result = fn()
        return result, next(seconds) if result[0]["id"] == "x" else 0.5

    monkeypatch.setattr(run, "timed", fake_timed)
    items = [Item("x", None, None, None, True), Item("y", None, None, None, True)]
    recorded = {i.id: digest({"id": i.id}) for i in items}
    workload = Workload("w", (), None, lambda _pkg, item: ({"id": item.id}, []))
    runner = run.Runner(None, workload, items, recorded, random.Random(0))
    for _ in range(3):
        runner.run_pass()
    assert runner.typical() == [2.0, 0.5]
    assert (runner.attempted, runner.failed) == (6, 0)


def test_timed_scales_cpu_time_by_the_probe(monkeypatch):
    def spin():
        start = time.process_time()
        while time.process_time() - start < 0.05:
            pass
        return "done"

    monkeypatch.setattr(run, "CPUS", [0])
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REF_S)
    result, seconds = run.timed(spin)
    assert result == "done"
    assert 0.02 < seconds < 0.03  # 0.05 s of CPU at half the reference speed


def test_digest_check():
    recorded = {"F(4)#0": digest({"pass": True, "total": 40})}
    assert check_digest(recorded, "F(4)#0", {"total": 40, "pass": True}) == []
    assert check_digest(recorded, "F(4)#0", {"pass": True, "total": 41}) != []
    assert check_digest(recorded, "G(3)#0", {"pass": True, "total": 31}) != []


def test_borel_class_counts_match_the_known_values():
    assert [borel_class_count("A", m=m, n=n) for m, n in ((1, 0), (1, 1), (2, 1), (4, 3))] == [3, 6, 10, 126]
    assert [borel_class_count("B", m=m, n=n) for m, n in ((0, 2), (1, 2), (3, 3))] == [1, 3, 20]
    assert [borel_class_count("C", n=n) for n in (3, 5)] == [5, 9]
    assert [borel_class_count("D", m=m, n=n) for m, n in ((2, 1), (2, 2), (4, 3))] == [4, 9, 50]
