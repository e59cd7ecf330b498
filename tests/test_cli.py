"""Command-line surface: payload shapes, exit codes, and file handling."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from ccsm.cli import main
from ccsm.enumeration import enum_solve
from ccsm.families import tight_depth_instance
from ccsm.instances import instance_to_dict
from ccsm.systems import construct_mm2_system


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


@pytest.fixture()
def tight_instance_file(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(instance_to_dict(tight_depth_instance(3))))
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b", 1], ["b", "c", 1], ["a", "c", 1]],
                "directed": False,
            }
        )
    )
    return str(path)


def test_solve_reports_the_exact_payload(capsys, tight_instance_file):
    rc, payload, err = run(capsys, "solve", "--instance", tight_instance_file)
    assert rc == 0
    assert set(payload) == {
        "value",
        "set",
        "depth",
        "sfm_calls",
        "skipped_empty",
        "guaranteed",
    }
    assert payload["value"] == -1
    assert payload["set"] == ["0", "1", "2"]
    assert payload["depth"] == 2
    assert payload["guaranteed"] is True
    assert "warning" not in err


def test_solve_below_default_depth_warns(capsys, tight_instance_file):
    rc, payload, err = run(
        capsys, "solve", "--instance", tight_instance_file, "--depth", "1"
    )
    assert rc == 0
    assert payload["value"] == 0
    assert payload["guaranteed"] is False
    assert "warning" in err


def test_solve_reports_infeasible_with_exit_one(capsys, tmp_path):
    labels = [f"v{i}" for i in range(6)]
    cycle = [[labels[i], labels[(i + 1) % 6]] for i in range(6)]
    payload = {
        "ground_set": labels,
        "function": {"type": "modular", "weights": {}},
        "lattice": {"implications": cycle},
        "constraint": {"type": "congruency", "modulus": 7, "residue": 3},
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(payload))
    rc, out, _ = run(capsys, "solve", "--instance", str(path))
    assert rc == 1
    assert out["value"] is None
    assert out["set"] is None


def test_solve_input_errors_exit_two(capsys, tmp_path):
    rc, out, err = run(capsys, "solve", "--instance", str(tmp_path / "nope.json"))
    assert rc == 2
    assert out is None
    assert "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, _ = run(capsys, "solve", "--instance", str(bad))
    assert rc == 2

    supermodular = tmp_path / "super.json"
    supermodular.write_text(
        json.dumps(
            {
                "ground_set": ["a", "b"],
                "function": {
                    "type": "explicit_table",
                    "values": [[[], 0], [["a"], 1], [["b"], 1], [["a", "b"], 4]],
                },
            }
        )
    )
    rc, _, err = run(capsys, "solve", "--instance", str(supermodular))
    assert rc == 2
    assert "not submodular" in err


_FILE_FLAGS = [
    ("solve", "--instance", "{bad}"),
    ("oracle", "--instance", "{bad}"),
    ("solve-cut", "--graph", "{bad}", "--mode", "congruency", "--m", "2", "--r", "1"),
    ("solve-cut", "--graph", "{graph}", "--mode", "tset_odd", "--tsets", "{bad}"),
    ("verify-system", "--system", "{bad}", "--m", "2", "--d", "1"),
    ("verify-system", "--system", "{system}", "--m", "2", "--d", "1", "--sets", "{bad}"),
    ("transform", "--kind", "power", "--system", "{bad}"),
    ("transform", "--kind", "genproduct", "--n", "3", "--sets", "{bad}"),
]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"{oops", b"[" * 100_000 + b"]" * 100_000, None],
    ids=["not-utf8", "not-json", "too-deep", "missing"],
)
@pytest.mark.parametrize(
    "argv", _FILE_FLAGS, ids=lambda argv: argv[0] + argv[argv.index("{bad}") - 1]
)
def test_unreadable_files_exit_two(capsys, tmp_path, triangle_file, argv, content):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    system = tmp_path / "system.json"
    system.write_text(json.dumps(construct_mm2_system(3).to_dict()))
    paths = {"bad": str(bad), "graph": triangle_file, "system": str(system)}
    rc = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


_AB = ["a", "b"]
_MODULAR_AB = {"type": "modular", "weights": {"a": 1}}


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param(
            "solve",
            {"ground_set": _AB, "function": {"type": "modular", "weights": {"a": "x"}}},
            id="weight-not-int",
        ),
        pytest.param(
            "solve",
            {"ground_set": _AB, "function": {"type": "cut_undirected", "edges": [_AB]}},
            id="edge-without-weight",
        ),
        pytest.param(
            "solve",
            {
                "ground_set": _AB,
                "function": _MODULAR_AB,
                "constraint": {"type": "congruency", "modulus": "x", "residue": 0},
            },
            id="modulus-not-int",
        ),
        pytest.param(
            "solve",
            {"ground_set": _AB, "function": _MODULAR_AB, "lattice": {"forced_in": 5}},
            id="forced-in-not-a-list",
        ),
        pytest.param("solve-cut", [5], id="tset-not-a-list"),
        pytest.param("verify-system", {"ground": _AB, "sets": [5]}, id="system-set-not-a-list"),
        # A string where a list of labels is meant is refused, not split
        # into one-letter labels.
        pytest.param(
            "solve", {"ground_set": "ab", "function": _MODULAR_AB}, id="ground-set-a-string"
        ),
        pytest.param(
            "solve",
            {"ground_set": _AB, "function": _MODULAR_AB, "lattice": {"forced_in": "ab"}},
            id="forced-in-a-string",
        ),
        pytest.param("solve-cut", ["ab"], id="tset-a-string"),
        pytest.param(
            "verify-system", {"ground": "ab", "sets": [["a"]]}, id="system-ground-a-string"
        ),
    ],
)
def test_malformed_values_exit_two(capsys, tmp_path, triangle_file, command, payload):
    """A value of the wrong type inside valid JSON is an input error."""
    path = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    argv = {
        "solve": ["solve", "--instance", path],
        "solve-cut": ["solve-cut", "--graph", triangle_file, "--mode", "tset_odd", "--tsets", path],
        "verify-system": ["verify-system", "--system", path, "--m", "2", "--d", "1"],
    }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out is None
    assert "error" in err and "Traceback" not in err


def test_non_integer_numbers_and_a_string_directed_exit_two(capsys, tmp_path):
    """A modular weight of 1.9 or true, and a "directed": "false" graph,
    are refused rather than cast to a different problem."""
    instance = tmp_path / "float.json"
    instance.write_text(
        json.dumps(
            {
                "ground_set": ["a", "b", "c"],
                "function": {"type": "modular", "weights": {"a": 1.9, "b": -0.5, "c": True}},
                "constraint": {"type": "congruency", "modulus": 2, "residue": 1},
            }
        )
    )
    graph = tmp_path / "directed-string.json"
    graph.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b", 1], ["b", "c", 2]],
                "directed": "false",
            }
        )
    )
    for argv in (
        ("solve", "--instance", str(instance)),
        ("oracle", "--instance", str(instance)),
        ("solve-cut", "--graph", str(graph), "--mode", "congruency", "--m", "2", "--r", "1",
         "--proper"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out is None
        assert err.startswith("error:") and "Traceback" not in err


def test_oracle_command(capsys, tight_instance_file):
    rc, payload, _ = run(capsys, "oracle", "--instance", tight_instance_file)
    assert rc == 0
    assert payload["optimum"] == -1
    assert payload["evals"] == 64
    optima = payload["all_minimal_optima"]
    assert len(optima) == 10
    assert all(len(s) == 3 and "0" in s for s in optima)


def test_solve_and_oracle_agree_when_guaranteed(capsys, tight_instance_file):
    _, solved, _ = run(capsys, "solve", "--instance", tight_instance_file)
    _, truth, _ = run(capsys, "oracle", "--instance", tight_instance_file)
    assert solved["guaranteed"] is True
    assert solved["value"] == truth["optimum"]


def test_solve_cut_congruency_modes(capsys, triangle_file):
    rc, payload, _ = run(
        capsys, "solve-cut", "--graph", triangle_file, "--mode", "congruency",
        "--m", "2", "--r", "1",
    )
    assert rc == 0
    assert payload["value"] == 0
    assert payload["set"] == ["a", "b", "c"]

    rc, payload, _ = run(
        capsys, "solve-cut", "--graph", triangle_file, "--mode", "congruency",
        "--m", "2", "--r", "1", "--proper",
    )
    assert rc == 0
    assert payload["value"] == 2
    assert payload["set"] == ["a"]

    rc, _, err = run(
        capsys, "solve-cut", "--graph", triangle_file, "--mode", "congruency"
    )
    assert rc == 2
    assert "--m" in err


def test_solve_cut_tset_modes(capsys, tmp_path):
    graph = tmp_path / "cycle.json"
    graph.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c", "d"],
                "edges": [["a", "b", 1], ["b", "c", 1], ["c", "d", 1], ["d", "a", 1]],
            }
        )
    )
    tsets = tmp_path / "tsets.json"
    tsets.write_text(json.dumps([["a", "b"], ["c", "d"]]))
    rc, payload, _ = run(
        capsys, "solve-cut", "--graph", str(graph), "--mode", "tset_odd",
        "--tsets", str(tsets),
    )
    assert rc == 0
    assert payload["value"] == 2
    assert payload["set"] == ["a", "d"]

    rc, payload, _ = run(
        capsys, "solve-cut", "--graph", str(graph), "--mode", "tset_even",
        "--tsets", str(tsets),
    )
    assert rc == 0
    assert payload["value"] == 0
    assert payload["set"] == []

    rc, _, _ = run(capsys, "solve-cut", "--graph", str(graph), "--mode", "tset_even")
    assert rc == 2


def test_verify_system_round_trip(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(construct_mm2_system(4).to_dict()))
    rc, payload, _ = run(
        capsys, "verify-system", "--system", str(path), "--m", "4", "--d", "2"
    )
    assert rc == 0
    assert payload["ok"] is True
    assert payload["failed"] is None
    assert payload["sets"] == 7

    rc, payload, _ = run(
        capsys, "verify-system", "--system", str(path), "--m", "4", "--d", "3"
    )
    assert rc == 0
    assert payload["ok"] is False
    assert payload["failed"] == "covering"


def test_verify_system_vector_mode(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(construct_mm2_system(3).to_dict()))
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps([["1", "2", "3"]]))
    rc, payload, _ = run(
        capsys, "verify-system", "--system", str(path), "--m", "3", "--d", "1",
        "--k", "1", "--sets", str(factors),
    )
    assert rc == 0
    assert payload["ok"] is True

    rc, _, err = run(
        capsys, "verify-system", "--system", str(path), "--m", "3", "--d", "1",
        "--k", "2", "--sets", str(factors),
    )
    assert rc == 2
    assert "does not match" in err

    rc, _, _ = run(
        capsys, "verify-system", "--system", str(path), "--m", "3", "--d", "1",
        "--k", "1",
    )
    assert rc == 2


def test_transform_report(capsys):
    rc, payload, _ = run(capsys, "transform", "--kind", "power", "--k", "2", "--n", "3")
    assert rc == 0
    assert payload == {
        "kind": "power",
        "n": 3,
        "level": 2,
        "target_size": 9,
        "g": [0, 1, 4, 9],
        "verified": True,
    }

    rc, _, _ = run(capsys, "transform", "--kind", "primepower", "--n", "3")
    assert rc == 2
    rc, _, _ = run(capsys, "transform", "--kind", "power")
    assert rc == 2


def test_transform_system_feeds_verify_system(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(construct_mm2_system(3).to_dict()))
    rc, payload, _ = run(
        capsys, "transform", "--kind", "binomial", "--k", "1", "--system", str(path)
    )
    assert rc == 0
    assert set(payload) == {"ground", "sets"}
    out = tmp_path / "image.json"
    out.write_text(json.dumps(payload))
    rc, verdict, _ = run(
        capsys, "verify-system", "--system", str(out), "--m", "2", "--d", "0"
    )
    assert rc == 0
    assert {"ok", "failed", "witness", "sets"} <= set(verdict)


def test_search_system_output_feeds_verify_system(capsys, tmp_path):
    rc, payload, _ = run(
        capsys, "search-system", "--m", "3", "--d", "1", "--n", "3", "--budget", "3"
    )
    assert rc == 0
    assert set(payload) == {"ground", "sets"}
    path = tmp_path / "found.json"
    path.write_text(json.dumps(payload))
    rc, verdict, _ = run(
        capsys, "verify-system", "--system", str(path), "--m", "3", "--d", "1"
    )
    assert rc == 0
    assert verdict["ok"] is True


def test_search_system_not_found_exits_one(capsys):
    rc, payload, err = run(
        capsys, "search-system", "--m", "2", "--d", "1", "--n", "4", "--budget", "4"
    )
    assert rc == 1
    assert payload == {"found": False, "m": 2, "d": 1, "n": 4, "budget": 4}
    assert "no (2,1)-system" in err


def test_check_lemmas_reports_a_full_table(capsys):
    rc, payload, _ = run(capsys, "check-lemmas")
    assert rc == 0
    assert payload["ok"] is True
    assert len(payload["checks"]) == 22
    assert all(c["ok"] for c in payload["checks"])


def test_bench_families(capsys):
    rc, payload, _ = run(capsys, "bench", "--family", "sec6", "--m", "3", "--trials", "2")
    assert rc == 0
    assert payload["all_agree"] is True
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["value"] == -1

    rc, payload, _ = run(
        capsys, "bench", "--family", "random-modular", "--m", "2", "--n", "5",
        "--trials", "3", "--seed", "1",
    )
    assert rc == 0
    assert payload["all_agree"] is True

    rc, payload, _ = run(
        capsys, "bench", "--family", "random-cut", "--m", "3", "--n", "5",
        "--trials", "2",
    )
    assert rc == 0
    assert payload["all_agree"] is True


@pytest.mark.parametrize("guaranteed, code", [(True, 3), (False, 0)])
def test_bench_exits_three_when_a_guaranteed_solve_disagrees(
    capsys, monkeypatch, guaranteed, code
):
    def off_by_one(*args):
        solution = enum_solve(*args)
        return replace(solution, value=solution.value + 1, guaranteed=guaranteed)

    monkeypatch.setattr("ccsm.cli.enum_solve", off_by_one)
    rc, payload, err = run(
        capsys, "bench", "--family", "random-modular", "--m", "2", "--n", "4",
        "--trials", "2", "--seed", "1",
    )
    assert rc == code
    assert payload["all_agree"] is False
    assert [row["agree"] for row in payload["rows"]] == [False, False]
    assert ("internal inconsistency" in err) == guaranteed


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--family", "random-cut", "--m", "0"),
        ("bench", "--family", "sec6", "--m", "1"),
        ("bench", "--family", "random-modular", "--m", "2", "--n", "-2"),
        ("bench", "--family", "random-modular", "--m", "2", "--trials", "-1"),
        ("transform", "--kind", "binomial", "--n", "-1"),
        ("bench", "--family", "random-cut", "--m", "2", "--seed", "-1"),
        ("check-lemmas", "--seed", "-1"),
        ("search-system", "--m", "3", "--d", "1", "--n", "-1", "--budget", "3"),
    ],
    ids=[
        "cut-m-0",
        "sec6-m-1",
        "bench-n-negative",
        "trials-negative",
        "transform-n-negative",
        "bench-seed-negative",
        "check-lemmas-seed-negative",
        "search-system-n-negative",
    ],
)
def test_out_of_range_numbers_exit_two(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out is None
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "weights",
    [{"a": 2**62, "b": 2**62, "c": -5}, {"a": 2**63, "b": 0, "c": 0}],
)
def test_values_beyond_int64_headroom_exit_two(capsys, tmp_path, weights):
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "ground_set": ["a", "b", "c"],
                "function": {"type": "modular", "weights": weights},
                "constraint": {"type": "congruency", "modulus": 2, "residue": 0},
            }
        )
    )
    for command in ("solve", "oracle"):
        rc, out, err = run(capsys, command, "--instance", str(path))
        assert rc == 2
        assert out is None
        assert "int64" in err


def test_inputs_past_the_size_cap_exit_two(capsys, tmp_path):
    labels = [f"v{i}" for i in range(25)]
    instance = tmp_path / "modular25.json"
    instance.write_text(
        json.dumps(
            {"ground_set": labels, "function": {"type": "modular", "weights": {"v0": -1}}}
        )
    )
    graph = tmp_path / "path25.json"
    graph.write_text(
        json.dumps({"vertices": labels, "edges": [[u, v, 1] for u, v in zip(labels, labels[1:])]})
    )
    table = tmp_path / "table25.json"
    table.write_text(
        json.dumps({"ground_set": labels, "function": {"type": "explicit_table", "values": []}})
    )
    for argv in (
        ("solve", "--instance", str(instance)),
        ("solve", "--instance", str(table)),
        ("solve-cut", "--graph", str(graph), "--mode", "congruency", "--m", "2", "--r", "1"),
    ):
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "exceeds the cap 24" in captured.err
