#!/usr/bin/env python3
"""Steadiness report: does each end-to-end metric repeat within its bound?

    python3 perfbench/steadiness.py [--runs 10]

Run from the repository root. Runs perfbench/run.py --trace 0 `--runs` times
on every workload of BENCHMARK.json, with seeds 1, 2, ..., and prints for
every end-to-end metric its median, quartiles and run-to-run spread (q3 - q1
over the median, from statistics.quantiles(values, n=4)) next to the bound
BENCHMARK.json fixes for it. A spread above a third of the bound is flagged
as `thin` (little margin), one above the bound as `NOISY`. Exits 1 when any
metric of any workload is NOISY or any run failed its output check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def run_once(config, workload, seed):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    problems = []
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = 1 + i
            result = run_once(config, workload, seed)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: output check failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.6g}" for name in bounds),
                flush=True)
        print(f"{workload}: {args.runs} runs")
        for name, bound in bounds.items():
            q1, med, q3, spread = stats.quartile_spread(values[name])
            verdict = "ok"
            if spread > bound:
                verdict = "NOISY"
                problems.append(f"{workload}/{name}: spread {spread:.3f} > "
                                f"bound {bound}")
            elif spread > bound / 3:
                verdict = "thin"
            print(f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f} bound {bound:<5} "
                  f"{verdict}", flush=True)
    for problem in problems:
        print(f"DOES NOT HOLD: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
