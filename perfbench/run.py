"""Time superserre end to end, or by layer, on one workload.

    python3 perfbench/run.py --workload verify_matrix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/`.  One process, one thread and one closed-loop caller run the
workload's items in passes, each pass in an order drawn from the seed.
Every output is checked (see workloads.py) and a failed item counts in
`failed_frac`.  The last line of standard output is one JSON object with
the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
named in BENCHMARK.json.  The exit code is 1 if any output was wrong, and 2
if the package or the recorded digests cannot be found.
"""

import argparse
import collections
import gc
import json
import math
import operator
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, build_items, check_digest, import_package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
CALIB_ITERATIONS = 40_000
PROBE_ITERATIONS = 100
PROBE_REF_S = 0.25e-3  # one probe on the 2-core x86-64 machine the benchmark was built on
SAMPLE_EVERY_S = 0.01
CPUS = sorted(os.sched_getaffinity(0))

# per-layer metric -> (summary field, span or counter name), read per traced pass
LAYER_METRICS = {
    "scalars.constructions": ("counts", "scalars.constructions"),
    "rootdata.positive_roots_s": ("seconds", "rootdata.positive_roots"),
    "rootdata.positive_roots_calls": ("calls", "rootdata.positive_roots"),
    "cartan_dynkin.cartan_matrix_s": ("seconds", "cartan_dynkin.cartan_matrix"),
    "cartan_dynkin.cartan_matrix_calls": ("calls", "cartan_dynkin.cartan_matrix"),
    "cartan_dynkin.build_diagram_s": ("seconds", "cartan_dynkin.build_diagram"),
    "cartan_dynkin.serialize_diagram_s": ("seconds", "cartan_dynkin.serialize_diagram"),
    "serre.presentation_s": ("seconds", "serre.presentation"),
    "serre.presentation_calls": ("calls", "serre.presentation"),
    "serre.relation_elements": ("counts", "serre.relation_elements"),
    "serre.render_s": ("seconds", "serre.Presentation.render"),
    "freelie.lower_terms_s": ("seconds", "freelie.lower_terms"),
    "freelie.expand_terms_s": ("seconds", "freelie.expand_terms"),
    "freelie.free_dimension_s": ("seconds", "freelie.free_dimension"),
    "quotient.engine_builds": ("calls", "quotient.CoveringEngine.__init__"),
    "quotient.build_level_s": ("seconds", "quotient.CoveringEngine.build_level"),
    "quotient.build_level_calls": ("calls", "quotient.CoveringEngine.build_level"),
    "quotient.build_level_top_s": ("largest", "quotient.CoveringEngine.build_level"),
    "quotient.basis_size": ("counts", "quotient.basis_size"),
    "quotient.product_entries": ("counts", "quotient.product_entries"),
    "quotient.pair_symbols": ("counts", "quotient.pair_symbols"),
    "quotient.jacobi_triples_full": ("counts", "quotient.jacobi_triples_full"),
    "quotient.stability_s": ("seconds", "quotient.check_lowering_stability"),
    "quotient.word_rank_s": ("seconds", "quotient.IdealWordEngine.rank"),
    "verify.verify_presentation_s": ("seconds", "verify.verify_presentation"),
    "verify.necessity_test_s": ("seconds", "verify.necessity_test"),
    "verify.necessity_test_calls": ("calls", "verify.necessity_test"),
}


def calib_loop(iterations=CALIB_ITERATIONS):
    """A fixed pure-Python loop of rational sums into a dict, the checker's
    kind of work; its time tracks the machine, not the code."""
    start = time.perf_counter()
    acc = {}
    for i in range(iterations):
        acc[i & 255] = acc.get(i & 255, 0) + Fraction(i % 13 + 1, i % 7 + 1)
    return time.perf_counter() - start


def probe():
    """CPU seconds of one short calibration loop on the current CPU.

    The collector is off, so the loop's time does not depend on how many
    objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        calib_loop(PROBE_ITERATIONS)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def move_to_fastest_cpu(cpus):
    """Pin the process to whichever of `cpus` runs the probe fastest.

    On a shared host one virtual CPU can run the same code far slower than
    the other for seconds at a time, because of load outside the machine;
    this keeps the next piece of work off the slow one.
    """
    if len(cpus) < 2:
        return
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe()
    os.sched_setaffinity(0, {min(times, key=times.get)})


def timed(fn):
    """Run `fn` on the fastest CPU; return its result and its CPU seconds,
    scaled to the reference machine's speed.

    CPU time leaves out the time the host gives to other tenants.  Their
    load also slows the code that does run, by up to 1.8x within a second,
    and the probe slows with it.  So the probe runs just before `fn`, after
    every SAMPLE_EVERY_S of it (from a one-shot timer signal, re-armed after
    each probe so that probes never nest; their own time is taken out), and
    just after it, and the time is scaled by PROBE_REF_S over the mean
    probe: it tracks the program, not the machine.
    """
    move_to_fastest_cpu(CPUS)
    probes = [probe()]
    spent = 0.0  # CPU seconds of the probes taken while fn runs
    active = True

    def sample(_signum, _frame):
        nonlocal spent
        if active:
            c0 = time.process_time()
            probes.append(probe())
            spent += time.process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    # left installed afterwards: a signal that lands after fn returns finds
    # the handler inactive, where the default action would end the process
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
    start = time.process_time()
    try:
        result = fn()
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    cpu = time.process_time() - start - spent
    probes.append(probe())
    return result, cpu * PROBE_REF_S / statistics.fmean(probes)


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs passes over the items and keeps every item's times and the failures."""

    def __init__(self, pkg, workload, items, recorded, rng):
        self.pkg, self.workload, self.items = pkg, workload, items
        self.recorded, self.rng = recorded, rng
        self.attempted = self.failed = 0
        self.times = collections.defaultdict(list)  # item id -> scaled seconds of each visit
        self.reported = set()

    def attempt(self, item):
        try:
            return self.workload.run(self.pkg, item)
        except Exception:  # an item that raises is a failed item; the run goes on
            return None, [traceback.format_exc()]

    def run_pass(self):
        """One pass in a seeded order; returns its wall seconds, probes included."""
        order = list(self.items)
        self.rng.shuffle(order)
        start = time.perf_counter()
        for item in order:
            gc.collect()  # every item starts from the same collector state
            (output, problems), seconds = timed(lambda: self.attempt(item))
            self.times[item.id].append(seconds)
            if not problems:
                problems = check_digest(self.recorded, item.id, output)
            self.attempted += 1
            if problems:
                self.failed += 1
                if item.id not in self.reported:
                    self.reported.add(item.id)
                    print(f"FAILED {self.workload.name} {item.id}: {'; '.join(problems)}", file=sys.stderr)
        return time.perf_counter() - start

    def typical(self):
        """Each item's median scaled seconds over its visits, in item order."""
        return [statistics.median(self.times[item.id]) for item in self.items]


def time_left(deadline, needed):
    return time.perf_counter() + needed <= deadline


def timed_setup(workload):
    """Import the package afresh and build the workload's items; returns the
    scaled set-up seconds, the package and the items."""
    (pkg, items), seconds = timed(lambda: load(workload))
    return seconds, pkg, items


def load(workload):
    pkg = import_package(ROOT / "src")
    return pkg, build_items(pkg, workload)


def end_to_end(args, workload, recorded, deadline):
    setup_s, pkg, items = timed_setup(workload)
    setups = [setup_s]
    runner = Runner(pkg, workload, items, recorded, random.Random(args.seed))
    passes_s = []
    while True:
        passes_s.append(runner.run_pass())
        # later set-ups are spread between the passes and only timed; the
        # runner keeps the package it started with
        if len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(workload)[0])
        if len(passes_s) >= MIN_PASSES and not time_left(deadline, passes_s[-1]):
            break
    seconds = runner.typical()
    print(f"items: {len(items)} per pass, {len(passes_s)} passes, {runner.attempted} item runs; "
          f"unscaled pass wall time with probes: median {statistics.median(passes_s):.4g} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_cpu_s": math.fsum(seconds),
        "item_p50_s": statistics.median(seconds),
        "item_max_s": max(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runner, metrics


def scalar_timings(pkg, repeats=7, min_ops=200):
    """ns per add, mul and inverse on fixed operands: the Cartan entries of an
    F(4) class (Q) and the Gram entries of generic D(2,1;a) (Q(a))."""
    rootdata, cartan_matrix = pkg.rootdata, pkg.cartan_dynkin.cartan_matrix
    out = {}
    for tag, family, k, field in (("q", "F4", 1, "a"), ("qa", "D21a", 0, "b")):
        datum = rootdata.build_root_datum(family)
        cd = cartan_matrix(datum, rootdata.enumerate_simple_systems(datum)[k])
        ops = [x for row in getattr(cd, field) for x in row if x]
        copies = -(-min_ops // len(ops) ** 2)
        xs = [x for x in ops for _ in ops] * copies
        ys = ops * len(ops) * copies
        for name, fn, argv in (
            ("add", operator.add, (xs, ys)),
            ("mul", operator.mul, (xs, ys)),
            ("inv", pkg.scalars.Scalar.inverse, (xs,)),
        ):
            times = []
            for _ in range(repeats):
                start = time.perf_counter_ns()
                collections.deque(map(fn, *argv), maxlen=0)
                times.append((time.perf_counter_ns() - start) / len(xs))
            out[f"scalars.{name}_{tag}_ns"] = statistics.median(times)
    return out


def per_layer(args, workload, recorded, deadline):
    _, pkg, items = timed_setup(workload)
    tracer = Tracer()
    tracer.install(pkg)
    mark = tracer.mark()
    build_items(pkg, workload)
    setup = tracer.summary(mark)
    tracer.uninstall()
    runner = Runner(pkg, workload, items, recorded, random.Random(args.seed))
    runner.run_pass()  # warms the package's caches for both kinds of pass
    plain, traced, summaries = [], [], []
    while not summaries or time_left(deadline, plain[-1] + traced[-1]):
        plain.append(runner.run_pass())
        tracer.install(pkg)
        mark = tracer.mark()
        traced.append(runner.run_pass())
        summaries.append(tracer.summary(mark))
        tracer.uninstall()
    out_file = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(out_file)
    print(f"spans: {len(tracer.starts)} written to {out_file.relative_to(ROOT)}")
    metrics = {
        name: statistics.median([s[field].get(key, 0) for s in summaries])
        for name, (field, key) in LAYER_METRICS.items()
    }
    metrics["rootdata.enumerate_simple_systems_s"] = setup["seconds"]["rootdata.enumerate_simple_systems"]
    metrics.update(scalar_timings(pkg))
    untraced = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - untraced) / untraced
    return runner, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "superserre" / "__init__.py").is_file():
        print(f"error: no superserre source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        recorded = json.loads((HERE / "digests.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + args.seconds

    calib_start = calib_loop()
    measure = per_layer if args.trace else end_to_end
    runner, metrics = measure(args, workload, recorded.get(workload.name, {}), deadline)
    calib_end = calib_loop()
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"git={git_revision()} calib.loop_s start={calib_start:.4f} end={calib_end:.4f}"
    )
    if args.trace:
        metrics["calib.loop_s"] = (calib_start + calib_end) / 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for m in listed:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} items)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
