"""Passes of the timed closed loop, run in a fresh worker process.

A run spreads its passes over several worker processes: on a shared
2-CPU machine the time of the solver's large numpy tables moved by
15-30% from one process to the next while staying steady within a
process, and several processes average that out.

``run.py`` starts all of a run's workers (``python3 perfbench/worker.py``)
before it imports numpy or the solver and before it builds any input.
A worker prints ``ready``, reads one JSON job from standard input and
writes one JSON record to standard output.  On Linux a child's
``ru_maxrss`` starts from its parent's high-water mark at fork time, so
a worker started late would report the set-up's memory instead of its own.

One client drives the loop: the next operation starts only after the
previous one returned.  A worker runs the job's inputs ``repeats`` times
in a row.  On ``cli_mix`` it first runs the first input once, untimed,
so the one-time costs of the first ``ccsm.cli.main`` call stay out of the
samples; a library worker's first solve measured no slower than its later
ones, so it needs no such run.

A traced job runs every input twice, once plain and once traced, the
order alternating from one input to the next, so the cost of tracing is
measured inside one process.  Only the traced runs record spans, and
only they report the layer counts (route, pairs, candidates) of the
solution each layer returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

from spans import Tracer


def run_pass(job: dict) -> dict:
    ops = LibraryOps() if job["kind"] == "library" else CliOps()
    items = job["items"]
    ops.warm_up(items[0])
    tracer = Tracer() if job["traced"] else None
    record = {"results": [], "layers": [], "overhead": []}

    def timed(index: int, op: int, traced: bool) -> float:
        t0 = perf_counter()
        try:
            raw, error = ops.run(items[index], tracer if traced else None, op), None
        except Exception as exc:  # an operation that raises is a counted failure
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        summary = ops.summarize(raw, error)
        summary.update(item=index, seconds=elapsed, op=op, traced=traced)
        record["results"].append(summary)
        return elapsed

    start = perf_counter()
    for rep in range(job["repeats"]):
        for index in range(len(items)):
            op = job["first_op"] + rep * len(items) + index
            if tracer is None:
                timed(index, op, False)
                continue
            plain_first = op % 2 == 0
            first = timed(index, op, not plain_first)
            second = timed(index, op, plain_first)
            plain, traced = (first, second) if plain_first else (second, first)
            record["overhead"].append([plain, traced])
            for stats in ops.take_layer_stats():
                record["layers"].append({**stats, "item": index, "op": op})
    record["pass_s"] = perf_counter() - start
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["spans"] = tracer.to_json()
    return record


def _solution_stats(sol, n: int) -> dict:
    best = sol.best
    return {
        "route": sol.route,
        "n": n,
        "depth": sol.depth,
        "candidates": sol.candidates,
        "nonempty": sol.sfm_calls,
        "skipped_empty": sol.skipped_empty,
        "scanned": None if best is None else sol.candidate_sets.index(best) + 1,
    }


class LibraryOps:
    """One operation: ``instance_from_dict(payload)`` then ``enum_solve``.

    Every operation parses the payload afresh, so no value table cached by
    an earlier operation reaches a timed solve.  A traced operation builds
    the value and feasibility tables ahead of ``enum_solve`` so that each
    shows as its own span.
    """

    def __init__(self) -> None:
        from ccsm import enum_solve, instance_from_dict

        self._parse = instance_from_dict
        self._solve = enum_solve
        self._stats: list[dict] = []

    def warm_up(self, item: dict) -> None:
        pass

    def run(self, item: dict, tracer: Tracer | None, op: int):
        if tracer is None:
            instance = self._parse(item["payload"])
            return self._solve(instance.oracle, instance.ring, instance.constraint)
        with tracer.span("op", op):
            with tracer.span("instances.parse", op):
                instance = self._parse(item["payload"])
            with tracer.span("oracles.value_table", op):
                instance.oracle.value_table()
            with tracer.span("lattice.feasibility_table", op):
                instance.ring.feasibility_table()
            with tracer.span("enumeration.enum_solve", op):
                sol = self._solve(instance.oracle, instance.ring, instance.constraint)
        self._stats.append(_solution_stats(sol, instance.ground.n))
        return sol

    def summarize(self, sol, error: str | None) -> dict:
        if error is not None:
            return {"error": error}
        best = sol.best
        return {"value": sol.value, "set": None if best is None else sorted(best),
                "guaranteed": sol.guaranteed}

    def take_layer_stats(self) -> list[dict]:
        stats, self._stats = self._stats, []
        return stats


class CliOps:
    """One operation: ``ccsm.cli.main(argv)`` in this process, its standard
    output and error captured.

    Argument parsing, reading the input file, the checks on load, the solve
    and the JSON output are timed; interpreter start-up is not.  A traced
    operation runs with ``load_instance``, ``enum_solve`` and ``solve_cut``
    replaced, in the ``ccsm.cli`` namespace only, by wrappers that record a
    span around each call and keep the solution's counts.
    """

    def __init__(self) -> None:
        import ccsm.cli

        self._cli = ccsm.cli
        self._originals = {name: getattr(ccsm.cli, name)
                           for name in ("load_instance", "enum_solve", "solve_cut")}
        self._stats: list[dict] = []

    def _main(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self, item: dict) -> None:
        self._main(item["argv"])

    def run(self, item: dict, tracer: Tracer | None, op: int):
        if tracer is None:
            return self._main(item["argv"])
        cli, original = self._cli, self._originals

        def load_instance(path):
            with tracer.span("instances.parse", op):
                return original["load_instance"](path)

        def enum_solve(oracle, ring, constraint, depth=None):
            with tracer.span("oracles.value_table", op):
                oracle.value_table()
            with tracer.span("lattice.feasibility_table", op):
                ring.feasibility_table()
            with tracer.span("enumeration.enum_solve", op):
                sol = original["enum_solve"](oracle, ring, constraint, depth)
            self._stats.append(_solution_stats(sol, oracle.ground.n))
            return sol

        def solve_cut(problem, depth=None):
            with tracer.span("cuts.solve_cut", op):
                sol = original["solve_cut"](problem, depth)
            self._stats.append({**_solution_stats(sol, len(problem.vertices)), "cut": True})
            return sol

        cli.load_instance, cli.enum_solve, cli.solve_cut = load_instance, enum_solve, solve_cut
        try:
            with tracer.span("op", op):
                with tracer.span("cli.main." + item["subcommand"], op):
                    return self._main(item["argv"])
        finally:
            for name, fn in original.items():
                setattr(cli, name, fn)

    def summarize(self, raw, error: str | None) -> dict:
        if error is None:
            code, stdout, stderr = raw
            if code != 0:
                error = f"exit code {code}: {stderr.strip()[-200:]}"
            else:
                try:
                    out = json.loads(stdout)
                    return {"value": out["value"], "set": out["set"],
                            "guaranteed": out["guaranteed"]}
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unparsable stdout: {exc}"
        return {"error": error}

    def take_layer_stats(self) -> list[dict]:
        stats, self._stats = self._stats, []
        return stats


def main() -> None:
    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    json.dump(run_pass(job), sys.stdout)


if __name__ == "__main__":
    main()
