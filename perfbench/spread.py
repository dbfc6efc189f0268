#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median over the
seeds and the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json. Run from the repository
root:

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/spread-1.json
    python3 perfbench/spread.py --workloads tpch_zipf --seeds 1-5
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    steal = re.search(r"CPU time stolen by the host ([0-9.]+)%", proc.stdout)
    return json.loads(lines[-1]), wall, float(steal.group(1)) if steal else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open(args.bench))
    wanted = [w for w in args.workloads.split(",") if w]
    workloads = [w["name"] for w in bench["workloads"] if not wanted or w["name"] in wanted]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    report = {"seeds": seeds_of(args.seeds), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in report["seeds"]:
            res, wall, steal = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: correctness check failed")
            runs.append((res, wall, steal))
            print(f"{w} seed {seed}: {wall:.1f} s wall, {steal}% stolen", file=sys.stderr)
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r, _, _ in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            row = {"median": med, "q1": q[0], "q3": q[2], "spread": spread, "values": vals}
            if "bound" in m:
                row["bound"] = m["bound"]
                worst = max(worst, spread / m["bound"])
            rows[m["name"]] = row
            bound = f"bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"{w:12s} {m['name']:40s} median {med:14.4f}  spread {spread:7.3f}  {bound}")
        report["workloads"][w] = {
            "metrics": rows,
            "wall_s": [wall for _, wall, _ in runs],
            # Share of the machine's CPU time the hypervisor stole per run.
            "steal_pct": [steal for _, _, steal in runs],
            "attempted": [r["attempted"] for r, _, _ in runs],
            "failed": [r["failed"] for r, _, _ in runs],
        }
    report["worst_spread_over_bound"] = worst
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
