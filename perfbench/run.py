"""Seeded benchmark of the ccsm congruency-constrained solver.

Run from the repository root:

    python3 perfbench/run.py --workload ternary_m3 --seed 1 --seconds 12 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``.  A run
builds its inputs from the seed several times over (the median build time
is ``setup_s``), times passes over them in fresh worker processes (see
worker.py), and checks every answer against a reference computed in
set-up.  The builds are spread over the run, some before each worker.  The pass count is ``--seconds`` divided by the
workload's nominal pass time, rounded, and at least MIN_PASSES and enough
for MIN_SAMPLES samples; a worker runs ``repeats`` passes in a row when
one pass is much shorter than WORKER_S.  A run thus measures for about
``--seconds`` seconds on the 2-CPU machine the nominal times were taken
on (longer where MIN_SAMPLES needs more passes), and every commit times
the same operations, so the tail percentile sits on the same inputs from
one commit to the next.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` every worker runs each input once plain and once traced,
and the run reports the per-layer metrics instead, plus one row per
input.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``fail_frac`` (failed / attempted) is printed with the other end-to-end
metrics but kept out of the JSON metrics: it is 0 on a correct build, and
the JSON already carries ``attempted`` and ``failed``.

The run reads the solver from ``src/`` under the working directory and
writes only under ``.bench_build/perfbench/`` there.  Without ``src/ccsm``
it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# Set-up is repeated until it has taken SETUP_BUDGET_S, and at least
# SETUP_MIN_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 1.5
RUN_TIMEOUT_S = 170
TAIL_BEYOND = 10
MIN_PASSES = 3
# A plain run takes at least this many samples, so that solve_s.tail, with
# TAIL_BEYOND samples above it, is at least p58 and above the median.
MIN_SAMPLES = 24
# A worker repeats its pass over the inputs until it has run about this long.
WORKER_S = 3.0
# Per workload: seconds per pass over its inputs, measured at the commit
# that defined the benchmark on a 2-CPU x86-64 machine, and the number of
# inputs.  They fix the pass count, not any result, and are kept here so
# that the workers start before workloads.py imports numpy.
NOMINAL = {"ternary_m3": (5.8, 12), "pairs_m3": (8.7, 6), "wide_m2": (5.3, 4), "cli_mix": (1.5, 10)}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def plan(workload: str, seconds: float, traced: bool) -> tuple[int, int]:
    """(workers, passes per worker).  A traced pass runs every input twice."""
    pass_s, inputs = NOMINAL[workload]
    nominal = pass_s * (2 if traced else 1)
    repeats = max(1, round(WORKER_S / nominal))
    workers = round(seconds / (nominal * repeats))
    if traced:
        return max(1, workers), repeats
    return max(MIN_PASSES, -(-MIN_SAMPLES // (inputs * repeats)), workers), repeats


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile).  A plain run holds at least MIN_SAMPLES
    samples, so the sample exists.
    """
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(records: list[dict], setup_times: list[float]) -> tuple[dict, list[str]]:
    samples = [r["seconds"] for p in records for r in p["results"]]
    pass_s = [p["pass_s"] for p in records]
    value, pct = tail(samples)
    metrics = {
        # Each worker runs whole passes in a process of its own; the median
        # worker keeps one disturbed process from moving the rate.
        "solves_per_s": statistics.median(len(p["results"]) / p["pass_s"] for p in records),
        "solve_s.p50": statistics.median(samples),
        "solve_s.tail": value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(p["peak_rss_kib"] for p in records) / 1024,
    }
    notes = [
        f"solve_s.tail is p{pct:.1f} of {len(samples)} samples, {TAIL_BEYOND} beyond it",
        f"setup_s is the median of {len(setup_times)} set-ups",
        "worker seconds " + " ".join(f"{t:.3f}" for t in pass_s),
    ]
    return metrics, notes


def _span_totals(span_lists: list[list[dict]]) -> tuple[dict, dict]:
    """Total self time and number of spans per name, over separate span lists."""
    from spans import self_times

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for spans in span_lists:
        for name, t in self_times(spans).items():
            totals[name] = totals.get(name, 0.0) + t
        for s in spans:
            counts[s["name"]] = counts.get(s["name"], 0) + 1
    return totals, counts


def _per_call(totals: dict, counts: dict, name: str) -> float:
    return totals.get(name, 0.0) / counts[name] if counts.get(name) else 0.0


def cli_startup_s(src: str) -> float:
    """Median wall time of three ``python -m ccsm.cli --help`` subprocesses."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "ccsm.cli", "--help"], env=env,
                       capture_output=True, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_layer(items, records, reference_spans, startup_s) -> tuple[dict, list[dict]]:
    """Per-layer metrics from the traced operations: times are mean self
    time per call of the layer, counts are per pass over the inputs."""
    from ccsm import pair_count

    totals, counts = _span_totals([p["spans"] for p in records])
    ref_totals, ref_counts = _span_totals([reference_spans])
    spans = [s for p in records for s in p["spans"]]
    passes = sum(p["repeats"] for p in records)
    layers = [r for p in records for r in p["layers"]]
    solves = [r for r in layers if not r.get("cut")]
    cuts = [r for r in layers if r.get("cut")]
    ternary = [r for r in solves if r["route"] == "ternary"]
    nonempty = sum(r["nonempty"] for r in solves)
    candidates = sum(r["candidates"] for r in solves)
    plain_s = sum(plain for p in records for plain, _ in p["overhead"])
    traced_s = sum(traced for p in records for _, traced in p["overhead"])
    metrics = {
        "instances.parse_s": _per_call(totals, counts, "instances.parse"),
        "oracles.value_table_s": _per_call(totals, counts, "oracles.value_table"),
        "oracles.table_cells": sum(2 ** r["n"] for r in solves) / passes,
        "lattice.feasibility_table_s": _per_call(totals, counts, "lattice.feasibility_table"),
        "enumeration.enum_solve_s": _per_call(totals, counts, "enumeration.enum_solve"),
        "enumeration.ternary_share": len(ternary) / len(solves) if solves else 0.0,
        "enumeration.ternary_cells": sum(3 ** r["n"] for r in ternary) / passes,
        "enumeration.pairs": sum(pair_count(r["n"], r["depth"]) for r in solves) / passes,
        "enumeration.nonempty": nonempty / passes,
        "enumeration.skipped_empty": sum(r["skipped_empty"] for r in solves) / passes,
        "enumeration.candidates": candidates / passes,
        "enumeration.distinct_ratio": candidates / nonempty if nonempty else 0.0,
        "enumeration.filter_scanned": sum(r["scanned"] or 0 for r in solves) / passes,
        "cuts.solve_cut_s": _per_call(totals, counts, "cuts.solve_cut"),
        "cuts.pinned_runs": sum(r["n"] * (r["n"] - 1) for r in cuts) / passes,
        "cuts.pairs": sum(r["nonempty"] + r["skipped_empty"] for r in cuts) / passes,
        "reference.exhaustive_solve_s": _per_call(
            ref_totals, ref_counts, "reference.exhaustive_solve"),
        "cli.startup_s": startup_s,
        "cli.main_s.solve": _per_call(totals, counts, "cli.main.solve"),
        "cli.main_s.solve_cut": _per_call(totals, counts, "cli.main.solve_cut"),
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }
    # One row per input: the median of its enum_solve spans.
    enum_by_op = {s["op"]: s["end"] - s["start"] for s in spans
                  if s["name"] == "enumeration.enum_solve"}
    rows = []
    for index, item in enumerate(items):
        mine = [r for r in solves if r["item"] == index]
        if not mine:
            continue
        rows.append({
            **item.label,
            "route": mine[0]["route"],
            "enumeration.enum_solve_s": statistics.median(enum_by_op[r["op"]] for r in mine),
        })
    return metrics, rows


def _declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result_line(declared_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run(args, root: str, src: str, workers: list[subprocess.Popen], repeats: int) -> int:
    import workloads
    from spans import Tracer

    deadline = perf_counter() + RUN_TIMEOUT_S
    declared = _declared(root)
    base = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times, digests = [], set()
        records = []
        for index, proc in enumerate(workers):
            # The set-up repeats are spread over the run, a share before each
            # worker, so setup_s samples the machine over the whole run
            # rather than over its first second.
            share = (index + 1) / len(workers)
            while (not setup_times or sum(setup_times) < SETUP_BUDGET_S * share
                   or len(setup_times) < SETUP_MIN_REPEATS * share):
                reference = Tracer()
                t0 = perf_counter()
                items = workloads.build(args.workload, args.seed, workdir, reference)
                setup_times.append(perf_counter() - t0)
                digests.add(workloads.digest(items))
            if len(digests) != 1:
                raise RuntimeError(f"one seed gave different inputs: {sorted(digests)}")
            job = {
                "kind": "cli" if args.workload == "cli_mix" else "library",
                "items": [item.job for item in items],
                "first_op": index * repeats * len(items),
                "repeats": repeats,
                "traced": bool(args.trace),
            }
            out, _ = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - perf_counter()))
            if proc.returncode != 0:
                raise RuntimeError(f"worker {index} exited with {proc.returncode}")
            records.append({**json.loads(out), "repeats": repeats})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in records for r in p["results"]]
    failures = [(r, workloads.check(items[r["item"]], r)) for r in results]
    failures = [(r, why) for r, why in failures if why is not None]
    for r, why in failures[:5]:
        print(f"FAILED input {r['item']} {items[r['item']].label}: {why}", file=sys.stderr)
    attempted, failed = len(results), len(failures)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={len(items)} digest={next(iter(digests))}")
    if args.trace:
        startup_s = cli_startup_s(src) if args.workload == "cli_mix" else 0.0
        values, rows = per_layer(items, records, reference.to_json(), startup_s)
        declared_metrics = declared["per_layer"]
        for row in rows:
            print("trace-row " + json.dumps(row))
        with open(os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"passes": [p["spans"] for p in records],
                       "reference_spans": reference.to_json(),
                       "rows": rows, "metrics": values}, fh)
        notes = [f"{len(records)} traced workers, {repeats} passes each"]
    else:
        values, notes = end_to_end(records, setup_times)
        declared_metrics = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for note in notes:
        print(note)
    print(_result_line(declared_metrics, values, attempted, failed))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ccsm", "__init__.py")):
        print(f"error: no solver sources at {src}/ccsm; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    count, repeats = plan(args.workload, args.seconds, bool(args.trace))
    # Start every worker before anything heavy is imported (see worker.py),
    # and let them all finish starting before set-up is timed.
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")]
    env = dict(os.environ, PYTHONPATH=src)
    workers: list[subprocess.Popen] = []
    try:
        for _ in range(count):
            workers.append(subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env))
        for proc in workers:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("a worker process did not start")
        return run(args, root, src, workers, repeats)
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
