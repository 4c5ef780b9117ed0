#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics hold steady.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workload NAME ...]

Run from the root of the repository. Each workload runs in `--sets` sets of
`--runs` runs, every run with its own seed (set k uses seeds k*1000+1 ...).
For each end-to-end metric the tool prints each set's median, quartiles and
spread (the distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), and whether the sets agree
with the bound in BENCHMARK.json: every spread but that of `setup_s` within
the bound, and no set's median worse than the first set's by more than the
bound. It also checks that the share of failed operations is the same in
every set. Exits 1 if anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def worse(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]

    steady = True
    for name in names:
        sets = []
        for k in range(args.sets):
            runs = [one_run(name, k * 1000 + i + 1, args.seconds) for i in range(args.runs)]
            sets.append(runs)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            steady = False
        print(f"{name}: failed share per set {sorted(shares)}")
        for metric in spec["end_to_end"]:
            bound = metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                ok = metric["name"] == "setup_s" or spread <= bound
                steady &= ok
                print(f"  {metric['name']:<20} set {k}: median {q2:.6g} q1 {q1:.6g} "
                      f"q3 {q3:.6g} spread {spread:.4f} (bound {bound}, a third {bound / 3:.4f})"
                      f"{'' if ok else '  SPREAD TOO WIDE'}")
                print("      values " + " ".join(f"{v:.6g}" for v in values))
            for k, m in enumerate(medians[1:], start=1):
                drift = worse(metric, medians[0], m)
                ok = drift <= bound
                steady &= ok
                print(f"  {metric['name']:<20} set {k} vs set 0: {drift:+.4f} worse"
                      f"{'' if ok else '  MEDIANS DISAGREE'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
