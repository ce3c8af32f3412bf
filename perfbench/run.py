"""Benchmark of pairform: one workload on one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bands --seed 1 --seconds 55 --trace 0

The workloads (``identities``, ``bands``) are defined in ``workloads.py``.
A run is a closed loop with one caller in one thread: each item starts when
the previous one returns.  Passes over the workload's items
repeat until about ``--seconds`` have been measured, with at least three
passes.  Every item's output is checked exactly; an item whose check fails or
that raises counts as failed, and the run then exits with code 1.

With ``--trace 0`` the result holds the end-to-end metrics.  Their times
are at the reference speed of ``speed.py``: each measured time is divided
by the time of a fixed stdlib computation run next to it and multiplied by
that computation's unloaded time, which cancels most of the drift in the
speed of a shared machine.

- ``setup_s``: median, over several fresh interpreters, of the time from
  before the first import of pairform to inputs ready (import pairform,
  build the inputs);
- ``pass_s``: time of one pass over all items, each item taken at its best
  time over the run's passes (best-of-k, k = the number of passes);
- ``work_per_s``: work units of one pass divided by ``pass_s`` (law-trials
  or assembled matrix columns, by workload);
- ``item_ms.p50`` and ``item_ms.p90``: percentiles of the items' best-of-k
  times, one sample per item of the pass, interpolated between neighbouring
  samples (``statistics.quantiles``, inclusive method);
- ``peak_rss_mb``: peak resident memory of the measuring process.

The raw wall time of every pass and the median raw set-up time are printed
on ``#`` lines.

With ``--trace 1`` every item runs untraced and then traced, back to back,
in rounds over the items for about ``--seconds``; the result holds the
per-layer metrics of ``tracer.py``, taken from the first round's traced
calls, and ``trace.overhead_s``, the best-of-k traced pass minus the
best-of-k untraced pass.  The spans of the traced pass are written to
``.perfbench/spans-<workload>.tsv``.

The last line of standard output is the JSON result; lines before it that
start with ``#`` describe the run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checkout
import speed
import workloads

SETUP_PROBES = 15
MIN_PASSES = 3
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("work_per_s", "units/s"),
              ("item_ms.p50", "ms"), ("item_ms.p90", "ms"), ("peak_rss_mb", "MB")]

clock = time.perf_counter


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def setup_seconds(workload: str, seed: int) -> tuple:
    """Medians over fresh interpreters of the time to import pairform and
    build the workload's inputs, as measured and at the reference speed
    (both measured inside each interpreter by ``probe.py``)."""
    probe = checkout.ROOT / "perfbench" / "probe.py"
    raw, normal = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              cwd=checkout.ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        seconds, at_reference = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        normal.append(at_reference)
    return statistics.median(raw), statistics.median(normal)


def run_item(item, tally: Tally):
    """Call one item and check its output; return (seconds, work units)."""
    began = clock()
    try:
        result = item.call()
    except Exception:  # an item that raises is a failed item, not a failed run
        elapsed = clock() - began
        traceback.print_exc()
        correct = False
    else:
        elapsed = clock() - began
        observed = item.observe(result)
        correct = observed == item.expected
        if not correct:
            print(f"perfbench: wrong output from {item.name}: "
                  f"{observed!r}, expected {item.expected!r}", file=sys.stderr)
    tally.attempted += 1
    tally.failed += not correct
    return elapsed, item.work(result) if correct else 0


def run_traced(item, index: int, tally: Tally, tracer):
    """``run_item`` with the tracer installed; its spans belong to item `index`."""
    tracer.item = index
    tracer.install()
    try:
        return run_item(item, tally)
    finally:
        tracer.uninstall()


def run_pass(items, tally: Tally):
    """Run every item once; return (wall seconds, item costs, work units).

    An item's cost is its time at the reference speed: its wall time over
    the mean of the reference times just before and just after it.
    """
    work, costs = 0, []
    start = clock()
    before = speed.reference_s()
    for item in items:
        elapsed, units = run_item(item, tally)
        after = speed.reference_s()
        costs.append(speed.normalised(elapsed, (before + after) / 2))
        before = after
        work += units
    return clock() - start, costs, work


def measure(items, seconds: float, tally: Tally):
    """Passes until the next one would end after `seconds` (at least three).

    Returns the wall time of each pass, each item's best cost over the
    passes, and the work units of one pass.
    """
    passes, best, work = [], [math.inf] * len(items), 0
    start = clock()
    while len(passes) < MIN_PASSES or \
            clock() - start + statistics.median(passes) <= seconds:
        elapsed, costs, work = run_pass(items, tally)
        passes.append(elapsed)
        best = [min(b, t) for b, t in zip(best, costs)]
    return passes, best, work


def end_to_end(workload, args, tally: Tally) -> dict:
    setup_raw, setup_s = setup_seconds(workload.name, args.seed)
    print(f"# setup probes={SETUP_PROBES} median wall_s={setup_raw:.4f} "
          f"at reference speed={setup_s:.4f}")
    passes, best, work = measure(workload.items, args.seconds, tally)
    pass_s = sum(best)
    print(f"# passes={len(passes)} wall_s={[round(p, 3) for p in passes]} "
          f"best-of-{len(passes)} pass_s={pass_s:.3f} work/pass={work} {workload.unit}")
    print(f"# item_ms samples={len(best)} (best of {len(passes)} each) "
          f"beyond_p90={len(best) - 1 - math.ceil(0.9 * (len(best) - 1))}")
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "work_per_s": work / pass_s,
        "item_ms.p50": statistics.median(best) * 1e3,
        "item_ms.p90": statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, args, tally: Tally) -> dict:
    """Rounds over the items until about `--seconds` (at least two).  In each
    round every item runs twice back to back, untraced and then traced, so
    that both sides of ``trace.overhead_s`` see the same state of the
    machine; it is the sum of the items' best traced times minus the sum of
    their best untraced times.  The traced calls of the first round give the
    spans and counts, and ``trace.pass_s`` is the sum of their times."""
    import tracer as tracing

    items = workload.items
    recorded = tracing.Tracer()
    plain, traced = [math.inf] * len(items), [math.inf] * len(items)
    rounds, work, pass_s = [], 0, 0.0
    start = clock()
    while len(rounds) < 2 or clock() - start + statistics.median(rounds) <= args.seconds:
        began = clock()
        tracer = recorded if not rounds else tracing.Tracer()
        for index, item in enumerate(items):
            elapsed, _units = run_item(item, tally)
            plain[index] = min(plain[index], elapsed)
            elapsed, units = run_traced(item, index, tally, tracer)
            traced[index] = min(traced[index], elapsed)
            if not rounds:
                pass_s += elapsed
                work += units
        rounds.append(clock() - began)
    basis_cols = work if workload.unit == workloads.MATRIX_COLUMNS else 0
    out = recorded.metrics(pass_s, sum(traced) - sum(plain), basis_cols)
    path = checkout.OUT / f"spans-{workload.name}.tsv"
    recorded.write_spans(path)
    print(f"# rounds={len(rounds)} best-of-{len(rounds)} untraced={sum(plain):.3f} "
          f"traced={sum(traced):.3f} recorded traced pass_s={pass_s:.3f} "
          f"spans={len(recorded.spans)} written to {path.relative_to(checkout.ROOT)}")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    machine = checkout.machine()
    print(f"# machine python={machine['python']} nproc={machine['nproc']} "
          f"commit={machine['commit']}")
    print(f"# workload={workload.name} seed={args.seed} items/pass={len(workload.items)} "
          f"unit={workload.unit} trace={args.trace}")
    tally = Tally()
    if args.trace:
        import tracer as tracing

        values = per_layer(workload, args, tally)
        units = {name: unit for name, unit, _better in tracing.METRICS}
    else:
        values = end_to_end(workload, args, tally)
        units = dict(END_TO_END)
    print(f"# fail_ratio={tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
