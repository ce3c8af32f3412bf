"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads bands --seeds 1-10
    python3 perfbench/spread.py --trace 1 --seeds 1,1

For every workload and metric it prints the median of the per-seed values
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Different seeds give different
inputs, so a spread over seeds includes the variation of the inputs as well
as the noise of the machine; ``--seeds 1,1,1`` repeats one seed.  With ``--trace 1`` it instead
reports whether every count metric was identical on all runs.  The machine,
the raw results and the summary are saved to
``.perfbench/spread-trace<0|1>.json``; ``perfbench/baseline/`` holds copies
of these files taken at the commit named inside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checkout

COMMAND = [sys.executable, "perfbench/run.py"]


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(COMMAND + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", default=spec["run_seconds"], type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed={seed} done", file=sys.stderr, flush=True)
        summary = {}
        raw[workload] = {"seeds": args.seeds, "runs": runs, "summary": summary}
        print(f"== {workload} ({len(runs)} runs)")
        for name in runs[0]:
            values = [r[name] for r in runs]
            if args.trace:
                repeats = len(set(values)) == 1
                summary[name] = {"unit": units[name], "values": values}
                if units[name] != "s":
                    summary[name]["repeats"] = repeats
                    print(f"  {name:34s} {values[0]!r:>14} "
                          f"{'repeats' if repeats else 'DIFFERS'}")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
            summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound}
            print(f"  {name:14s} median={med:<12.6g} spread={spread:6.3f} "
                  f"bound={bound} {flag}")
    out = checkout.OUT / f"spread-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": checkout.machine(), "run_seconds": args.seconds,
                               "workloads": raw}, indent=1))
    print(f"raw results: {out.relative_to(checkout.ROOT)}")


if __name__ == "__main__":
    main()
