"""Scenario runner: executes the identity, symplectic, harmonic and
cohomology suites and emits deterministic reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, 3 an internal invariant failed (d∘d ≠ 0, a negative
cohomology dimension, a contracting homotopy or a pair, corrected pair or
Lichnerowicz Laplacian that disagrees with its closed form, a band
differential that does not vanish at mode 0, a band that is not acyclic
outside mode 0, the Hamiltonian verification, an inexact Bareiss division):
a defect of pairform itself, reported as ``internal invariant failed:
<message>``.  Unsupported
scenarios (for example a twisted complex over a non-closed 1-form, which
would mix frequencies past any band) are reported but do not fail the run.

Note: the harmonic suite intentionally contains two documented-discrepancy
checks whose raw verdict is `fail` (adjointness in its original form, and
the Laplacian-kernel comparison at resonant modes); `harmonic` and `all`
therefore exit 1 while every constructive check passes.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
import time

from . import __version__
from .charts import torus
from .cohomology import (
    pair_complex,
    pair_predicted_dims,
    relative_complex,
    relative_predicted_dims,
)
from .exterior import constant_field, parse_field, parse_form
from .report import PASS, Report
from .scalar import ChartMap
from .suites import (
    CHART_KEYS,
    band_tables,
    cohomology_suite,
    dolbeault_suite,
    harmonic_suite,
    identity_suite,
    relative_suite,
    symplectic_suite,
)


# an optional minus sign and ASCII digits, with spaces around; no '+', '_'
# or other digits, which Python's int() would take
_MAP_ENTRY = re.compile(r" *(-?[0-9]+) *")


def _map_entry(text: str) -> int:
    m = _MAP_ENTRY.fullmatch(text)
    if not m:
        raise ValueError(f"--map entry {text!r} is not an integer")
    return int(m.group(1))


def _parse_matrix(text: str):
    rows = []
    for row_text in text.split(";"):
        rows.append(tuple(_map_entry(v) for v in row_text.split(",")))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    return tuple(rows)


def _custom_cohomology(dim: int, field_text: str, bands):
    chart = torus(dim)
    x = parse_field(chart, field_text)
    return band_tables("cohomology/custom-field", "pair-cohomology-dimensions",
                       f"pair/T{dim}/X=[{field_text}]",
                       lambda max_freq: pair_complex(chart, x, max_freq), bands,
                       pair_predicted_dims(dim))


def run(scenario: dict, clock=time.perf_counter) -> Report:
    """Execute one scenario; deterministic for fixed inputs and clock."""
    start = clock()
    kind = scenario["kind"]
    checks, tables = [], []
    if kind in ("identities", "all"):
        keys = scenario.get("charts") or None
        checks += identity_suite(scenario["seed"], scenario["trials"], keys)
    if kind in ("symplectic", "all"):
        checks += symplectic_suite(scenario["seed"])
    if kind in ("cohomology", "all"):
        # under 'all', --field belongs to --map's relative scenario
        if kind == "cohomology" and scenario.get("field"):
            c, t = _custom_cohomology(scenario.get("dim") or 2, scenario["field"],
                                      scenario["bands"])
        else:
            dims = (scenario["dim"],) if scenario.get("dim") else (1, 2, 3)
            eta = None
            if scenario.get("eta"):
                eta = parse_form(torus(scenario.get("dim") or 2), scenario["eta"])
            c, t = cohomology_suite(dims, scenario["bands"], eta)
        checks += c
        tables += t
    if kind in ("relative", "all"):
        if scenario.get("map"):
            c, t = _custom_relative(scenario)
        else:
            c, t = relative_suite()
        checks += c
        tables += t
    if kind in ("dolbeault", "all"):
        c, t = dolbeault_suite(scenario.get("bands", (1,))[:1])
        checks += c
        tables += t
    if kind in ("harmonic", "all"):
        checks += harmonic_suite(scenario["seed"], scenario["trials"],
                                 max(scenario.get("bands", (1, 2))))
    elapsed_ms = int((clock() - start) * 1000)
    return Report(__version__, scenario, checks, tables, elapsed_ms)


def _custom_relative(scenario: dict):
    rows = _parse_matrix(scenario["map"])
    n = len(rows[0])
    chart = torus(n)
    cmap = ChartMap(chart, torus(len(rows)), matrix=rows)
    if scenario.get("field"):
        x = parse_field(chart, scenario["field"])
    else:
        x = constant_field(chart, [1] + [0] * (n - 1))
    return band_tables("relative/custom-map", "relative-cohomology-dimensions",
                       f"relative/custom[{scenario['map']}]",
                       lambda max_freq: relative_complex(cmap, x, max_freq),
                       scenario["bands"],
                       relative_predicted_dims(cmap.target.dim, cmap.source.dim))


# defaults filled in by scenario_from_args, so that _check_args can tell an
# option given on the command line from one left out
DEFAULT_SEED, DEFAULT_TRIALS, DEFAULT_MAX_FREQ = 42, 100, 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairform",
        description="exact pair-form calculus checks and torus cohomology tables")
    sub = parser.add_subparsers(dest="kind", required=True)
    kinds = ("identities", "cohomology", "relative", "dolbeault",
             "symplectic", "harmonic", "all")
    for kind in kinds:
        p = sub.add_parser(kind)
        p.add_argument("--seed", type=int, default=None,
                       help=f"random seed (default {DEFAULT_SEED})")
        p.add_argument("--trials", type=int, default=None,
                       help=f"trials per check (default {DEFAULT_TRIALS})")
        p.add_argument("--dim", type=int, default=None,
                       help="restrict to one torus dimension")
        p.add_argument("--max-freq", type=int, default=None,
                       help=f"band limit N (default {DEFAULT_MAX_FREQ}): bands "
                            "1..N are compared; harmonic compares N=1 and N")
        p.add_argument("--field", type=str, default=None,
                       help="vector field components, ';'-separated scalars "
                            "(relative and all: only with --map)")
        p.add_argument("--map", type=str, default=None,
                       help="integer torus matrix, rows ';'-separated")
        p.add_argument("--eta", type=str, default=None,
                       help="1-form literal for the twisted pair complex")
        p.add_argument("--chart", type=str, default=None, choices=sorted(CHART_KEYS),
                       help="restrict the identity suite to one chart")
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--out", type=str, default=None,
                       help="write the JSON report to a file")
    return parser


def _check_args(args):
    """Reject inputs that would crash, run a vacuous check or silently
    run a different scenario; main turns the ValueError into exit code 2."""
    for flag, value in (("--max-freq", args.max_freq), ("--trials", args.trials),
                        ("--dim", args.dim)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    for flag, value in (("--field", args.field), ("--map", args.map), ("--eta", args.eta),
                        ("--out", args.out)):
        if value is not None and not value.strip():
            raise ValueError(f"{flag} must not be empty")
    if args.field is not None and args.eta is not None:
        raise ValueError("--eta cannot be combined with --field: the twisted complex "
                         "runs over the suite's own fields")
    # the kinds whose suites read each option; any other kind would ignore it
    map_kinds = ("relative", "all") if args.map is not None else ()
    for flag, value, kinds in (("--seed", args.seed,
                                ("identities", "symplectic", "harmonic", "all")),
                               ("--trials", args.trials, ("identities", "harmonic", "all")),
                               ("--max-freq", args.max_freq,
                                ("cohomology", "relative", "dolbeault", "harmonic", "all")),
                               ("--chart", args.chart, ("identities", "all")),
                               ("--dim", args.dim, ("cohomology", "all")),
                               ("--eta", args.eta, ("cohomology", "all")),
                               ("--map", args.map, ("relative", "all")),
                               ("--field", args.field, ("cohomology",) + map_kinds)):
        if value is not None and args.kind not in kinds:
            applies = ("cohomology, or relative and all with --map" if flag == "--field"
                       else ", ".join(kinds))
            raise ValueError(f"{flag} is not used by '{args.kind}'; it applies to: {applies}")
    # the Dolbeault suite, and the relative suite without --map, run N=1 only
    one_band = args.kind == "dolbeault" or (args.kind == "relative" and args.map is None)
    if one_band and args.max_freq not in (None, 1):
        where = "'relative' without --map" if args.kind == "relative" else "'dolbeault'"
        raise ValueError(f"--max-freq is not used by {where} beyond 1: it runs the band "
                         f"N=1 only, got {args.max_freq}")
    # --out is opened after the run, and a run that fails creates no file: a
    # directory or a missing parent directory is refused before the run
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        reason = os.strerror(errno.EISDIR if os.path.isdir(args.out) else errno.ENOENT)
        raise ValueError(f"cannot write --out {args.out}: {reason}")


def scenario_from_args(args) -> dict:
    _check_args(args)
    max_freq = DEFAULT_MAX_FREQ if args.max_freq is None else args.max_freq
    bands = tuple(range(1, max_freq + 1))
    name = args.kind if not args.chart else f"{args.kind}/{args.chart}"
    if args.dim is not None:
        name += f"/T{args.dim}"
    scenario = {
        "name": name,
        "kind": args.kind,
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "trials": DEFAULT_TRIALS if args.trials is None else args.trials,
        "bands": list(bands),
    }
    if args.dim is not None:
        scenario["dim"] = args.dim
    if args.field is not None:
        scenario["field"] = args.field
    if args.map is not None:
        scenario["map"] = args.map
    if args.eta is not None:
        scenario["eta"] = args.eta
    if args.chart:
        scenario["charts"] = [args.chart]
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = scenario_from_args(args)
        report = run(scenario)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
        n_pass = sum(c.verdict == PASS for c in report.checks)
        print(f"checks: {n_pass}/{len(report.checks)} pass, "
              f"tables: {sum(t.verdict == PASS for t in report.tables)}"
              f"/{len(report.tables)} pass, elapsed {report.elapsed_ms} ms")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
