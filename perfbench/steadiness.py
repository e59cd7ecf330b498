"""Run every workload once per seed and report the spread of each metric.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --first-seed 1

For each workload and end-to-end metric it prints the median of the runs
and the spread, (third quartile - first quartile) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the bound
declared in ``BENCHMARK.json``, and the wall time of a whole run.  Runs
are sequential, one at a time, each with ``run_seconds`` from
``BENCHMARK.json``.  The raw results go to
``.bench_build/perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    raw: dict[str, list[dict]] = {}
    for name in names:
        raw[name] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            raw[name].append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(".bench_build", "perfbench", "steadiness.json"), "w") as fh:
        json.dump(raw, fh)
    print("| workload | metric | median | spread | bound |")
    print("| --- | --- | --- | --- | --- |")
    for name, results in raw.items():
        walls = [r["wall_s"] for r in results]
        print(f"| {name} | run wall time | {statistics.median(walls):.4g} s | "
              f"max {max(walls):.4g} s | |")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"| {name} | {metric['name']} | {median:.4g} {metric['unit']} | "
                  f"{(q3 - q1) / median:.3f} | {metric['bound']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
