"""JSON instance format: parsing, validation, and round-trips."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from ccsm.constraints import (
    CongruencyConstraint,
    GeneralizedConstraint,
    TCutConstraint,
)
from ccsm.errors import InputError, UnsupportedSizeError
from ccsm.families import random_table
from ccsm.instances import (
    Instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_constraint,
)
from ccsm.lattice import RingFamily
from ccsm.oracles import (
    Coverage,
    CutDirected,
    CutUndirected,
    ExplicitTable,
    Modular,
    SubmodularOracle,
    check_submodular,
)


def _base(function, **extra):
    payload = {"ground_set": ["a", "b", "c"], "function": function}
    payload.update(extra)
    return payload


def test_modular_round_trip():
    payload = _base({"type": "modular", "weights": {"a": -2, "b": 1}})
    inst = instance_from_dict(payload)
    assert isinstance(inst.oracle.spec, Modular)
    assert inst.oracle.eval(("a", "b")) == -1
    assert inst.constraint is None
    again = instance_to_dict(inst)
    assert again == payload


def test_cut_round_trips():
    payload = _base(
        {"type": "cut_undirected", "edges": [["a", "b", 2], ["b", "c", 1]]}
    )
    inst = instance_from_dict(payload)
    assert isinstance(inst.oracle.spec, CutUndirected)
    assert inst.oracle.eval(("b",)) == 3
    assert instance_to_dict(inst) == payload

    payload = _base({"type": "cut_directed", "arcs": [["a", "b", 2]]})
    inst = instance_from_dict(payload)
    assert isinstance(inst.oracle.spec, CutDirected)
    assert inst.oracle.eval(("a",)) == 2
    assert inst.oracle.eval(("b",)) == 0
    assert instance_to_dict(inst) == payload


def test_coverage_round_trip():
    payload = _base(
        {"type": "coverage", "covered_sets": {"a": ["1", "2"], "b": ["2"], "c": []}}
    )
    inst = instance_from_dict(payload)
    assert isinstance(inst.oracle.spec, Coverage)
    assert inst.oracle.eval(("a", "b")) == 2
    assert instance_to_dict(inst) == payload


def test_table_round_trip():
    values = [
        [[], 0],
        [["a"], 2],
        [["b"], 1],
        [["a", "b"], 2],
    ]
    payload = {"ground_set": ["a", "b"], "function": {"type": "explicit_table", "values": values}}
    inst = instance_from_dict(payload)
    assert isinstance(inst.oracle.spec, ExplicitTable)
    assert inst.oracle.eval(("a",)) == 2
    again = instance_to_dict(inst)
    assert again["function"]["type"] == "explicit_table"
    assert instance_from_dict(again).oracle.value_table().tolist() == [0, 2, 1, 2]


def test_non_submodular_table_is_rejected_with_witness():
    # f(S) = |S|**2 is strictly supermodular.
    values = [[list(s), len(s) ** 2] for s in ([], ["a"], ["b"], ["a", "b"])]
    payload = {
        "ground_set": ["a", "b"],
        "function": {"type": "explicit_table", "values": values},
    }
    with pytest.raises(InputError, match="not submodular"):
        instance_from_dict(payload)


def test_non_submodular_table_above_sixteen_elements_is_rejected():
    # One cell lowered by 50: a sampled check can miss it, the exact one cannot.
    rng = np.random.default_rng(2)
    oracle = random_table(rng, 17)
    values = list(oracle.spec.values)
    values[int(rng.integers(1, 1 << 17))] -= 50
    bad = SubmodularOracle(oracle.ground, ExplicitTable(tuple(values)))
    report = check_submodular(bad)
    assert not report.ok
    a, b = report.witness
    assert bad.eval(a) + bad.eval(b) < bad.eval(a | b) + bad.eval(a & b)
    payload = instance_to_dict(Instance(bad, RingFamily.full(bad.ground), None))
    with pytest.raises(InputError, match="not submodular: witness"):
        instance_from_dict(payload)


def test_explicit_table_past_the_cap_is_refused_before_allocating():
    # 25 labels and no values: refused by the cap, not after a 2**25-slot table.
    payload = _base({"type": "explicit_table", "values": []})
    payload["ground_set"] = [f"v{i}" for i in range(25)]
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSizeError, match="exceeds the cap 24"):
            instance_from_dict(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_holes_and_duplicates_are_rejected():
    payload = {
        "ground_set": ["a", "b"],
        "function": {"type": "explicit_table", "values": [[[], 0], [["a"], 1]]},
    }
    with pytest.raises(InputError, match="missing"):
        instance_from_dict(payload)
    payload["function"]["values"] = [[[], 0], [[], 1], [["a"], 1], [["b"], 1]]
    with pytest.raises(InputError, match="duplicate"):
        instance_from_dict(payload)


_TABLE = [[[], 0], [["a"], 1], [["b"], 1], [["a", "b"], 1]]


@pytest.mark.parametrize(
    "values, message",
    [
        pytest.param(
            [[[], 0, 1], *_TABLE[1:]],
            "table entry [[], 0, 1] is not a [labels, value] pair",
            id="not-a-pair",
        ),
        pytest.param(
            [["ab", 0], *_TABLE[1:]],
            "a table entry's set must be a JSON list, got 'ab'",
            id="labels-string",
        ),
        pytest.param(
            [*_TABLE[:3], [["a", "z"], 1]], "unknown element label 'z'", id="unknown-label"
        ),
        pytest.param(
            [*_TABLE[:3], [["a", ["b"]], 1]],
            "malformed instance: unhashable type: 'list'",
            id="unhashable-label",
        ),
        pytest.param(
            [*_TABLE, [["b", "a"], 2]], "duplicate table entry for ['a', 'b']", id="duplicate"
        ),
        pytest.param(
            [*_TABLE[:3], [["a", "b"], 1.0]],
            "a table value must be a JSON integer, got 1.0",
            id="value-float",
        ),
        pytest.param(
            [*_TABLE[:3], [["a", "b"], True]],
            "a table value must be a JSON integer, got True",
            id="value-true",
        ),
        pytest.param(_TABLE[:2], "table is missing 2 of 4 subsets", id="holes"),
        pytest.param(
            [*_TABLE[:2], [["a"], 2], [["b"], 1.5], _TABLE[3]],
            "duplicate table entry for ['a']",
            id="duplicate-before-float",
        ),
        pytest.param(
            [[["z"], 0], *_TABLE, [[], 1]],
            "unknown element label 'z'",
            id="unknown-before-duplicate",
        ),
        pytest.param(
            [*_TABLE[:3], [["z", ["a"]], 1]],
            "unknown element label 'z'",
            id="unknown-before-unhashable",
        ),
        pytest.param(
            [*_TABLE[:3], [[["a"], "z"], 1]],
            "malformed instance: unhashable type: 'list'",
            id="unhashable-before-unknown",
        ),
        pytest.param([*_TABLE[:3], [["b", "a", "b"], 1]], None, id="repeated-label"),
    ],
)
def test_table_entry_faults_keep_their_messages(values, message):
    """Each faulty explicit table is refused with the text of its first
    fault, entry by entry in the order pair, label list, known labels,
    duplicate, integer value; holes are counted after the last entry.
    An entry that repeats a label is read as its set."""
    payload = {"ground_set": ["a", "b"], "function": {"type": "explicit_table", "values": values}}
    if message is None:
        assert instance_from_dict(payload).oracle.value_table().tolist() == [0, 1, 1, 1]
        return
    with pytest.raises(InputError) as caught:
        instance_from_dict(payload)
    assert str(caught.value) == message


def test_lattice_and_constraint_round_trip():
    payload = _base(
        {"type": "modular", "weights": {"a": 1}},
        lattice={"forced_in": ["a"], "forced_out": [], "implications": [["b", "c"]]},
        constraint={"type": "congruency", "modulus": 3, "residue": 1},
    )
    inst = instance_from_dict(payload)
    assert inst.ring.member(("a",))
    assert not inst.ring.member(("a", "b"))
    assert inst.ring.member(("a", "b", "c"))
    assert inst.constraint == CongruencyConstraint(3, 1)
    assert instance_to_dict(inst) == payload


def test_generalized_and_tcut_constraints():
    payload = _base(
        {"type": "modular", "weights": {}},
        constraint={
            "type": "generalized",
            "modulus": 2,
            "terms": [{"set": ["a", "b"], "residue": 1}],
        },
    )
    inst = instance_from_dict(payload)
    assert isinstance(inst.constraint, GeneralizedConstraint)
    assert instance_to_dict(inst) == payload

    payload = _base(
        {"type": "modular", "weights": {}},
        constraint={"type": "tcut", "set": ["a", "c"], "modulus": 2, "residue": 1},
    )
    inst = instance_from_dict(payload)
    assert isinstance(inst.constraint, TCutConstraint)
    assert inst.constraint.terminals == frozenset({"a", "c"})
    assert instance_to_dict(inst) == payload


def test_constraint_labels_outside_ground_are_rejected():
    payload = _base(
        {"type": "modular", "weights": {}},
        constraint={"type": "tcut", "set": ["z"], "modulus": 2, "residue": 0},
    )
    with pytest.raises(InputError):
        instance_from_dict(payload)
    payload["constraint"] = {
        "type": "generalized",
        "modulus": 2,
        "terms": [{"set": ["q"], "residue": 0}],
    }
    with pytest.raises(InputError):
        instance_from_dict(payload)


_CONGRUENCY = {"type": "congruency", "modulus": 2, "residue": 1}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(
            _base({"type": "modular", "weights": {"a": 1.9, "b": -0.5, "c": True}}),
            id="weight-float",
        ),
        pytest.param(_base({"type": "modular", "weights": {"a": True}}), id="weight-bool"),
        pytest.param(_base({"type": "modular", "weights": {"a": "3"}}), id="weight-string"),
        pytest.param(
            _base({"type": "cut_undirected", "edges": [["a", "b", 0.9]]}), id="edge-float"
        ),
        pytest.param(
            _base({"type": "cut_directed", "arcs": [["a", "b", False]]}), id="arc-bool"
        ),
        pytest.param(
            {
                "ground_set": ["a"],
                "function": {"type": "explicit_table", "values": [[[], 0], [["a"], 1.0]]},
            },
            id="table-value-float",
        ),
        pytest.param(
            _base({"type": "modular", "weights": {}}, constraint={**_CONGRUENCY, "modulus": 2.0}),
            id="modulus-float",
        ),
        pytest.param(
            _base({"type": "modular", "weights": {}}, constraint={**_CONGRUENCY, "residue": True}),
            id="residue-bool",
        ),
        pytest.param(
            _base(
                {"type": "modular", "weights": {}},
                constraint={
                    "type": "generalized",
                    "modulus": 2,
                    "terms": [{"set": ["a"], "residue": 1.5}],
                },
            ),
            id="term-residue-float",
        ),
        pytest.param(
            _base(
                {"type": "modular", "weights": {}},
                constraint={"type": "tcut", "set": ["a"], "modulus": "3", "residue": 0},
            ),
            id="tcut-modulus-string",
        ),
    ],
)
def test_numbers_must_be_json_integers(payload):
    """Weights, table values, moduli and residues are refused unless they
    are JSON integers: a cast would truncate 1.9 to 1 or read true as 1."""
    with pytest.raises(InputError, match="must be a JSON integer"):
        instance_from_dict(payload)


_MODULAR = {"type": "modular", "weights": {"a": 1}}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(_base(_MODULAR, lattice={"forced_out": "ab"}), id="forced-out"),
        pytest.param(_base(_MODULAR, lattice={"implications": "ab"}), id="implications"),
        pytest.param(_base(_MODULAR, lattice={"implications": ["ab"]}), id="implication"),
        pytest.param(
            _base({"type": "coverage", "covered_sets": {"a": "xy"}}), id="covered-set"
        ),
        pytest.param(
            _base({"type": "explicit_table", "values": [["ab", 0]]}), id="table-entry-set"
        ),
        pytest.param(
            _base(
                _MODULAR,
                constraint={
                    "type": "generalized",
                    "modulus": 2,
                    "terms": [{"set": "ab", "residue": 0}],
                },
            ),
            id="generalized-set",
        ),
        pytest.param(
            _base(
                _MODULAR, constraint={"type": "tcut", "set": "ab", "modulus": 2, "residue": 0}
            ),
            id="tcut-set",
        ),
    ],
)
def test_label_lists_must_be_json_lists(payload):
    """A string where a list of labels is meant is refused rather than
    split into one-letter labels."""
    with pytest.raises(InputError, match="must be a JSON list"):
        instance_from_dict(payload)


def test_strict_keys_everywhere():
    with pytest.raises(InputError, match="unknown keys"):
        instance_from_dict(
            _base({"type": "modular", "weights": {}}, comment="hello")
        )
    with pytest.raises(InputError, match="missing keys"):
        instance_from_dict({"ground_set": ["a"]})
    with pytest.raises(InputError, match="unknown keys"):
        instance_from_dict(_base({"type": "modular", "weights": {}, "edges": []}))
    with pytest.raises(InputError, match="unknown function type"):
        instance_from_dict(_base({"type": "mystery"}))
    with pytest.raises(InputError, match="unknown constraint type"):
        parse_constraint({"type": "parity"})
    with pytest.raises(InputError):
        instance_from_dict(
            _base({"type": "modular", "weights": {}}, lattice={"pinned": ["a"]})
        )


def test_parse_constraint_none_passthrough():
    assert parse_constraint(None) is None


def test_load_instance_file_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_instance(bad)
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(_base({"type": "modular", "weights": {"a": 4}}))
    )
    inst = load_instance(good)
    assert inst.oracle.eval(("a",)) == 4
