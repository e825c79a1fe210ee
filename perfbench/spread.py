"""Run workloads over several seeds, interleaved, and report each metric's
median and quartile spread.

usage: python3 perfbench/spread.py [--seeds 1,2,...] [--trace 0|1]

Run from the repository root.  Each round runs every workload of
BENCHMARK.json once with the round's seed (run.py, run_seconds from
BENCHMARK.json), so slow phases of a shared machine fall on all
workloads alike.  For each
workload and metric it prints the median over seeds and the spread
(q3 - q1) / median, with quartiles from statistics.quantiles(values, n=4).
It also prints each workload's failed_frac, over all its runs.  Exit
code 1 if any run failed or was not correct, or if a spread exceeds its
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    results: dict[str, list[dict]] = {name: [] for name in names}
    counts = {name: [0, 0] for name in names}  # graphs attempted, failed
    ok = True
    for seed in seeds:
        for name in names:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, result {result}", file=sys.stderr)
                ok = False
            if result is None:
                continue
            counts[name][0] += result["attempted"]
            counts[name][1] += result["failed"]
            if not result["correct"]:
                continue
            results[name].append(result["metrics"])
            brief = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in ("wall_s", "setup_s", "graphs_per_s"))
            print(f"{name} seed {seed}: {brief}", file=sys.stderr)

    print(f"{'workload':<18} {'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}  unit")
    for name in names:
        attempted, failed = counts[name]
        print(f"{name:<18} {'failed_frac':<40} {failed / max(attempted, 1):>12.6g} "
              f"{'':>8} {'':>6}  {failed} of {attempted} graphs")
        runs = results[name]
        for metric in metrics:
            values = [r[metric["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = metric.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER", False
            print(f"{name:<18} {metric['name']:<40} {mid:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}  {metric['unit']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
