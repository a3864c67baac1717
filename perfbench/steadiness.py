#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, each run with its own
seed, and print every end-to-end metric's median and interquartile spread
(q3 - q1, as a share of the median) against the bound BENCHMARK.json fixes.

    python3 perfbench/steadiness.py                 # 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads circuit-passes
    python3 perfbench/steadiness.py --sets 2        # also compare two sets

It also prints each workload's failed-op share (failed or wrong ops over
ops attempted). A spread under a third of the bound is steady. With
--sets 2 the report also gives the second set's median drift from the
first. Every metric, setup_s included, must keep its spread and its drift
within its bound. The pairs that were too noisy before this benchmark was
rebuilt are marked as named regression cases. Exits 1 if any op failed or
any spread or drift breaks its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Pairs that moved 7.5-13.6% between two sets of runs of the same code in
# the benchmark this one replaces; each must now hold within its bound.
REGRESSION_CASES = {
    ("circuit-passes", "ops_per_s"),
    ("circuit-passes", "op_p50_us"),
    ("circuit-passes", "op_p99_us"),
    ("serve-hot", "setup_s"),
}


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, result["failed"], result["attempted"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    metrics = bench["end_to_end"]
    broken = False
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        failed_ops = attempted_ops = 0
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                values, failed, attempted = run_once(workload, seed, bench["run_seconds"])
                runs.append(values)
                failed_ops += failed
                attempted_ops += attempted
                seed += 1
            sets.append(runs)
        broken |= failed_ops > 0
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs; "
              f"failed_op_share {failed_ops}/{attempted_ops} = "
              f"{failed_ops / attempted_ops:.6f} ratio")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            first_median = None
            for runs in sets:
                med, iqr = spread([r[name] for r in runs])
                ok = iqr <= bound
                broken |= not ok
                mark = "steady" if iqr < bound / 3 else ("ok" if ok else "NOISY")
                cells.append(f"median {med:.6g} {m['unit']} spread {iqr:.3f} ({mark})")
                if first_median is None:
                    first_median = med
                else:
                    worse = (med - first_median) / first_median
                    if m["better"] == "higher":
                        worse = -worse
                    broken |= worse > bound
                    cells.append(f"drift {worse:+.3f}")
            case = "  [named regression case]" if (workload, name) in REGRESSION_CASES else ""
            print(f"  {name:<12} bound {bound:.2f}: " + "; ".join(cells) + case)
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()
