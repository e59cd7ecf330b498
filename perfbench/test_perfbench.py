"""Self-tests of the benchmark's correctness gate and input generation.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from worker import CliOps, LibraryOps  # noqa: E402


def _solved(item) -> dict:
    ops = LibraryOps()
    return ops.summarize(ops.run(item.job, None, 0), None)


def test_a_corrupted_expected_answer_is_counted_as_a_failure(tmp_path):
    item = workloads.build("ternary_m3", 0, str(tmp_path), Tracer())[0]
    result = _solved(item)
    assert workloads.check(item, result) is None
    item.optimum += 1
    assert "reference" in workloads.check(item, result)


def test_a_wrong_set_or_flag_is_counted_as_a_failure(tmp_path):
    item = workloads.build("ternary_m3", 0, str(tmp_path), Tracer())[0]
    result = _solved(item)
    assert workloads.check(item, {**result, "set": None}) is not None
    assert workloads.check(item, {**result, "set": ["no-such-label"]}) is not None
    assert workloads.check(item, {**result, "guaranteed": False}) is not None
    assert workloads.check(item, {"error": "ValueError: boom"}) == "ValueError: boom"


def test_a_proper_cut_that_attains_the_reference_passes(tmp_path):
    items = workloads.build("cli_mix", 0, str(tmp_path), Tracer())
    cut = next(item for item in items if item.job["subcommand"] == "solve_cut")
    best = min(
        (s for s in _subsets(sorted(cut.ground)) if cut.feasible(s)),
        key=cut.value_of,
    )
    result = {"value": cut.value_of(best), "set": sorted(best), "guaranteed": True}
    assert workloads.check(cut, result) is None
    assert workloads.check(cut, {**result, "set": []}) is not None


def test_cli_operations_run_in_process_and_pass_the_gate(tmp_path):
    import ccsm.cli

    items = workloads.build("cli_mix", 0, str(tmp_path), Tracer())
    ops, tracer = CliOps(), Tracer()
    for index, item in enumerate(items):
        result = ops.summarize(ops.run(item.job, tracer if index % 2 else None, index), None)
        assert workloads.check(item, result) is None
    names = {s["name"] for s in tracer.to_json()}
    assert {"cli.main.solve", "cli.main.solve_cut", "cuts.solve_cut",
            "instances.parse", "enumeration.enum_solve"} <= names
    assert ccsm.cli.solve_cut is ops._originals["solve_cut"]
    assert {s.get("cut", False) for s in ops.take_layer_stats()} == {True, False}


def test_cli_exit_codes_and_bad_stdout_are_failures():
    ops = CliOps()
    assert "exit code 2" in ops.summarize((2, "", "error: bad input"), None)["error"]
    assert "unparsable" in ops.summarize((0, "not json", ""), None)["error"]


def test_nominal_input_counts_match_the_workloads():
    expected = {name: len(specs) for name, specs in workloads.LIBRARY_SPECS.items()}
    expected["cli_mix"] = len(workloads.CLI_SPECS)
    assert {name: inputs for name, (_, inputs) in run.NOMINAL.items()} == expected


def test_one_seed_gives_one_digest(tmp_path):
    first = workloads.digest(workloads.build("pairs_m3", 7, str(tmp_path), Tracer()))
    again = workloads.digest(workloads.build("pairs_m3", 7, str(tmp_path), Tracer()))
    other = workloads.digest(workloads.build("pairs_m3", 8, str(tmp_path), Tracer()))
    assert first == again != other


def test_self_time_excludes_child_spans():
    spans = [
        {"name": "op", "op": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "a", "op": 0, "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "b", "op": 0, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert self_times(spans) == {"op": 6.0, "a": 3.0, "b": 1.0}


def _subsets(labels):
    for mask in range(1 << len(labels)):
        yield frozenset(x for i, x in enumerate(labels) if mask >> i & 1)
