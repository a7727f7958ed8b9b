"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py

Runs the untraced benchmark for `run_seconds` once per seed 1 to 10 and
workload and prints, for each end-to-end metric, the median of the runs
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread of a third of the metric's bound or more is flagged.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 else "  <-- at least a third of the bound"
            print(f"{workload} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"spread {spread:.2%} (bound {m['bound']:.0%}){flag}")
    print(f"largest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
