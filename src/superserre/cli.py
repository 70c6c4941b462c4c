"""Command line front end.

Families on the command line: A, B, C, D (with --m/--n as the family needs),
F4, G3 and D21a (with an optional rational --alpha, no exponent); the
options given go to `build_root_datum` as they are, which refuses one the
family does not read.  Numeric output is exact everywhere: fractions and
parameter expressions are rendered as strings, so golden files are stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .cartan_dynkin import build_diagram, cartan_matrix, serialize_diagram
from .rootdata import ParameterError, build_root_datum, enumerate_simple_systems
from .scalars import render
from .serre import presentation
from .verify import compare_z_grading, necessity_survey, verify_presentation


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (an unknown option, a bad choice, a
    missing argument) end like every other bad input: one `error:` line
    from `main` and exit code 2, with no usage block."""

    def error(self, message):
        raise UsageError(message)


def make_datum(args):
    """The datum of the family named, from the family options given; an
    option given counts even as `--alpha generic`, passed as None."""
    params = {p: getattr(args, p) for p in ("m", "n", "alpha") if getattr(args, p) is not None}
    if params.get("alpha") == "generic":
        params["alpha"] = None
    elif "alpha" in params:
        # an exponent would let a few characters pin the CPU inside `Fraction`
        if "e" in args.alpha.lower():
            raise UsageError(f"--alpha takes no exponent, got {args.alpha!r}")
        try:
            params["alpha"] = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--alpha must be a rational number, got {args.alpha!r}") from None
    return build_root_datum(args.family, **params)


def select_systems(datum, selector):
    systems = enumerate_simple_systems(datum)
    if selector in (None, "distinguished"):
        return [(0, systems[0])]
    if selector == "all":
        return list(enumerate(systems))
    try:
        k = int(selector)
    except ValueError:
        raise UsageError(f"--borel must be an index, 'all' or 'distinguished', got {selector!r}")
    if not 0 <= k < len(systems):
        raise UsageError(f"--borel index {k} out of range 0..{len(systems) - 1}")
    return [(k, systems[k])]


def cmd_borels(args, out):
    datum = make_datum(args)
    systems = enumerate_simple_systems(datum)
    payload = []
    lines = [f"{datum.name}: {len(systems)} conjugacy classes of Borel subalgebras"]
    for k, system in enumerate(systems):
        diagram = serialize_diagram(build_diagram(cartan_matrix(datum, system)), "ascii")
        theta = sorted(system.theta)
        payload.append({"index": k, "simpleRoots": [b.to_json() for b in system.roots],
                        "theta": theta, "diagram": diagram})
        label = " (distinguished)" if k == 0 else ""
        lines += [
            f"[{k}]{label} theta={theta}",
            f"    roots: {', '.join(repr(b) for b in system.roots)}",
            f"    diagram: {diagram}",
        ]
    if args.format == "json":
        print(json.dumps({"datum": datum.name, "borels": payload}, sort_keys=True), file=out)
    else:
        print("\n".join(lines), file=out)
    return 0


def cmd_cartan(args, out):
    datum = make_datum(args)
    for k, system in select_systems(datum, args.borel):
        cd = cartan_matrix(datum, system)
        if args.format == "json":
            print(json.dumps({"borel": k, **cd.to_json()}, sort_keys=True), file=out)
        else:
            print(f"{datum.name} borel[{k}] theta={sorted(cd.theta)} "
                  f"kappa={cd.kappa} lm2={render(cd.lm2)}", file=out)
            for row in cd.native_a:
                print("  [" + ", ".join(render(x) for x in row) + "]", file=out)
    return 0


def cmd_diagram(args, out):
    datum = make_datum(args)
    for k, system in select_systems(datum, args.borel):
        diag = build_diagram(cartan_matrix(datum, system))
        print(serialize_diagram(diag, args.format), file=out)
    return 0


def cmd_relations(args, out):
    datum = make_datum(args)
    for k, system in select_systems(datum, args.borel):
        pres = presentation(datum, system)
        print(pres.render(args.format), file=out)
    return 0


def _verdict(system):
    """One class's verdict, total and JSON report."""
    report = verify_presentation(system.datum, system)
    return report.passed, report.got_total, report.to_json()


_SYSTEMS = []  # a pool worker's classes, set once by `_set_systems`


def _set_systems(systems):
    """Pool initializer: the selected classes, pickled once per worker with
    the one datum they share, so that each task is a class index."""
    _SYSTEMS[:] = systems


def _verify_one(index):
    return _verdict(_SYSTEMS[index])


def cmd_verify(args, out):
    datum = make_datum(args)
    if args.all and args.borel is not None:
        raise UsageError("--all and --borel exclude each other")
    selector = "all" if args.all else args.borel
    selected = select_systems(datum, selector)
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    # the pool forks all its workers at once: never more than there are classes
    jobs = min(jobs, len(selected))
    systems = [system for _, system in selected]
    if jobs == 1:
        verdicts = list(map(_verdict, systems))
    else:
        with ProcessPoolExecutor(jobs, initializer=_set_systems, initargs=(systems,)) as pool:
            verdicts = list(pool.map(_verify_one, range(len(systems))))
    results = [(k, *verdict) for (k, _), verdict in zip(selected, verdicts)]
    all_pass = all(ok for _, ok, _, _ in results)
    if args.format == "json":
        reports = [r for _, _, _, r in results]
        print(json.dumps({"datum": datum.name, "reports": reports}, sort_keys=True), file=out)
    else:
        for k, ok, total, _ in results:
            status = "PASS" if ok else "FAIL"
            print(f"{status} total={total if total is not None else '?'} borel={k}", file=out)
        if not all_pass:
            reports = [r for _, _, _, r in results if not r["pass"]]
            print(json.dumps({"datum": datum.name, "reports": reports}, sort_keys=True), file=out)
    return 0 if all_pass else 1


def cmd_zgrading(args, out):
    datum = make_datum(args)
    if args.d is None:
        raise UsageError("zgrading needs --d (1-based node index)")
    if not 1 <= args.d <= datum.rank:
        raise UsageError(f"grading node d={args.d} out of range 1..{datum.rank}")
    exit_code = 0
    for k, system in select_systems(datum, args.borel):
        table = compare_z_grading(verify_presentation(datum, system), args.d)
        if not all(eq for _, _, eq in table.values()):
            exit_code = 1
        if args.format == "json":
            payload = {
                "borel": k,
                "d": args.d,
                "layers": {str(kk): {"g": g, "L": l, "equal": eq} for kk, (g, l, eq) in table.items()},
            }
            print(json.dumps(payload, sort_keys=True), file=out)
        else:
            print(f"{datum.name} borel[{k}] grading at d={args.d}", file=out)
            for kk in sorted(table):
                g, l, eq = table[kk]
                mark = "ok" if eq else "MISMATCH"
                print(f"  k={kk}: dim g_k={g} dim L_k={l} {mark}", file=out)
    return exit_code


def cmd_necessity(args, out):
    datum = make_datum(args)
    exit_code = 0
    for k, system in select_systems(datum, args.borel):
        survey = necessity_survey(datum, system)
        if args.format == "json":
            elements = [res.to_json() for res in survey]
            print(json.dumps({"borel": k, "elements": elements}, sort_keys=True), file=out)
        else:
            if not survey:
                print(f"{datum.name} borel[{k}]: no higher order elements", file=out)
            for res in survey:
                mark = "necessary" if res.necessary else "NOT shown necessary"
                at = f" first excess at {list(res.first_excess)}" if res.first_excess else ""
                print(f"{datum.name} borel[{k}] {res.provenance} nodes={list(res.nodes)}: {mark}{at}", file=out)
        if any(not res.necessary for res in survey):
            exit_code = 1
    return exit_code


def build_parser():
    parser = _Parser(
        prog="superserre",
        description="Cartan matrices, Dynkin diagrams and verified Serre presentations "
        "of the simple contragredient Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), default_format="text", borel=True):
        """The options every subcommand shares, plus --borel for the
        subcommands that read it."""
        p.add_argument("family", help="A, B, C, D, F4, G3 or D21a")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--alpha", default=None, help="rational value for D21a, e.g. 2 or --alpha=-1/2")
        if borel:
            p.add_argument("--borel", default=None, help="class index, 'all' or 'distinguished'")
        p.add_argument("--format", choices=formats, default=default_format)

    p = sub.add_parser("borels", help="list the conjugacy classes of Borel subalgebras")
    common(p, borel=False)
    p.set_defaults(fn=cmd_borels)

    p = sub.add_parser("cartan", help="emit Cartan data")
    common(p)
    p.set_defaults(fn=cmd_cartan)

    p = sub.add_parser("diagram", help="emit the decorated Dynkin diagram")
    common(p, formats=("ascii", "json", "latex"), default_format="ascii")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("relations", help="emit the full presentation")
    common(p, formats=("text", "json", "latex"))
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("verify", help="verify the presentation against the root system")
    common(p)
    p.add_argument("--all", action="store_true", help="verify every Borel class")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers for --all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("zgrading", help="Z-grading layer dimensions at a node")
    common(p)
    p.add_argument("--d", type=int, default=None, help="1-based node index")
    p.set_defaults(fn=cmd_zgrading)

    p = sub.add_parser("necessity", help="necessity of each higher order element")
    common(p)
    p.set_defaults(fn=cmd_necessity)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args, sys.stdout)
        if sys.stdout is not None:  # None when the descriptor was closed
            sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except (UsageError, ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone: send what is still buffered to
        # devnull so that the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
