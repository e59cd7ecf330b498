"""Problem instances and their on-disk JSON form.

An instance bundles an oracle, a lattice, and an optional feasibility
constraint.  The file format uses top-level keys ``ground_set``,
``function``, ``lattice`` (optional) and ``constraint`` (optional); the
function and constraint objects are tagged unions selected by ``type``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .constraints import (
    CongruencyConstraint,
    Constraint,
    GeneralizedConstraint,
    TCutConstraint,
)
from .errors import InputError
from .ground import GroundSet
from .lattice import RingFamily
from .limits import require_exhaustible
from .oracles import (
    Coverage,
    CutDirected,
    CutUndirected,
    ExplicitTable,
    Modular,
    SubmodularOracle,
    check_submodular,
)


@dataclass(frozen=True)
class Instance:
    oracle: SubmodularOracle
    ring: RingFamily
    constraint: Constraint | None

    @property
    def ground(self) -> GroundSet:
        return self.oracle.ground


def _require_keys(payload: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(payload, dict):
        raise InputError(f"{what} must be a JSON object")
    keys = set(payload)
    missing = required - keys
    if missing:
        raise InputError(f"{what} is missing keys {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise InputError(f"{what} has unknown keys {sorted(extra)}")


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else ``InputError``.  Floats,
    strings and booleans are refused rather than cast: ``int`` would
    truncate 1.9 to 1, and ``true`` would count as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_labels(value, what: str) -> list:
    """``value`` if it is a JSON list, else ``InputError``.  A string is
    refused rather than split: ``"ab"`` would read as the labels a and b."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def json_edges(items, what: str) -> tuple[tuple[str, str, int], ...]:
    """``[u, v, w]`` triples as (label, label, weight), each weight a JSON
    integer."""
    return tuple((str(u), str(v), json_int(w, f"{what} weight")) for u, v, w in items)


def _parse_function(payload: dict, ground: GroundSet) -> SubmodularOracle:
    _require_keys(payload, {"type"}, {"weights", "edges", "arcs", "covered_sets", "values"},
                  "function")
    tag = payload["type"]
    if tag == "modular":
        _require_keys(payload, {"type", "weights"}, set(), "modular function")
        weights = payload["weights"]
        if not isinstance(weights, dict):
            raise InputError('"weights" must map labels to integers')
        spec = Modular({str(k): json_int(v, "a weight") for k, v in weights.items()})
    elif tag == "cut_undirected":
        _require_keys(payload, {"type", "edges"}, set(), "cut function")
        spec = CutUndirected(json_edges(payload["edges"], "an edge"))
    elif tag == "cut_directed":
        _require_keys(payload, {"type", "arcs"}, set(), "cut function")
        spec = CutDirected(json_edges(payload["arcs"], "an arc"))
    elif tag == "coverage":
        _require_keys(payload, {"type", "covered_sets"}, set(), "coverage function")
        covered = payload["covered_sets"]
        if not isinstance(covered, dict):
            raise InputError('"covered_sets" must map labels to item lists')
        spec = Coverage(
            {
                str(k): tuple(str(i) for i in json_labels(v, "a covered set"))
                for k, v in covered.items()
            }
        )
    elif tag == "explicit_table":
        _require_keys(payload, {"type", "values"}, set(), "table function")
        entries = payload["values"]
        if not isinstance(entries, list):
            raise InputError('"values" must be a list of [labels, value] pairs')
        require_exhaustible(ground.n, "an explicit table")
        table = [None] * (1 << ground.n)
        # One pass, checks in the order pair, list, labels, duplicate,
        # value.  The common case costs a type test and a dict lookup per
        # label; anything else takes the checked path and its message.
        bits = {label: 1 << i for i, label in enumerate(ground.elements)}
        for entry in entries:
            try:
                labels, value = entry
            except (TypeError, ValueError):
                raise InputError(f"table entry {entry!r} is not a [labels, value] pair")
            if type(labels) is not list:
                labels = json_labels(labels, "a table entry's set")
            mask = 0
            try:
                for label in labels:
                    mask |= bits[label]
            except KeyError:
                mask = ground.mask_of(labels)
            if table[mask] is not None:
                raise InputError(f"duplicate table entry for {sorted(labels)}")
            if type(value) is not int:
                value = json_int(value, "a table value")
            table[mask] = value
        holes = table.count(None)
        if holes:
            raise InputError(f"table is missing {holes} of {1 << ground.n} subsets")
        spec = ExplicitTable(tuple(table))
    else:
        raise InputError(f"unknown function type {tag!r}")
    oracle = SubmodularOracle(ground, spec)
    if tag == "explicit_table":
        report = check_submodular(oracle)
        if not report.ok:
            a, b = report.witness
            raise InputError(
                f"explicit table is not submodular: witness ({sorted(a)}, {sorted(b)})"
            )
    return oracle


def _parse_lattice(payload: dict | None, ground: GroundSet) -> RingFamily:
    if payload is None:
        return RingFamily.full(ground)
    _require_keys(payload, set(), {"forced_in", "forced_out", "implications"}, "lattice")
    implications = []
    for entry in json_labels(payload.get("implications", []), '"implications"'):
        pair = json_labels(entry, "an implication")
        if len(pair) != 2:
            raise InputError(f"implication {entry!r} is not a [u, v] pair")
        implications.append((str(pair[0]), str(pair[1])))
    return RingFamily.from_labels(
        ground,
        tuple(str(x) for x in json_labels(payload.get("forced_in", []), '"forced_in"')),
        tuple(str(x) for x in json_labels(payload.get("forced_out", []), '"forced_out"')),
        implications,
    )


def parse_constraint(payload: dict | None) -> Constraint | None:
    if payload is None:
        return None
    _require_keys(payload, {"type"}, {"modulus", "residue", "terms", "set"}, "constraint")
    tag = payload["type"]
    if tag == "congruency":
        _require_keys(payload, {"type", "modulus", "residue"}, set(), "congruency constraint")
        return CongruencyConstraint(
            json_int(payload["modulus"], "the modulus"), json_int(payload["residue"], "a residue")
        )
    if tag == "generalized":
        _require_keys(payload, {"type", "modulus", "terms"}, set(), "generalized constraint")
        terms = []
        for term in payload["terms"]:
            _require_keys(term, {"set", "residue"}, set(), "generalized term")
            residue = json_int(term["residue"], "a residue")
            labels = json_labels(term["set"], "a term's set")
            terms.append((frozenset(str(x) for x in labels), residue))
        return GeneralizedConstraint(json_int(payload["modulus"], "the modulus"), tuple(terms))
    if tag == "tcut":
        _require_keys(payload, {"type", "set", "modulus", "residue"}, set(), "tcut constraint")
        return TCutConstraint(
            frozenset(str(x) for x in json_labels(payload["set"], 'a tcut "set"')),
            json_int(payload["modulus"], "the modulus"),
            json_int(payload["residue"], "a residue"),
        )
    raise InputError(f"unknown constraint type {tag!r}")


def instance_from_dict(payload: dict) -> Instance:
    _require_keys(payload, {"ground_set", "function"}, {"lattice", "constraint"}, "instance")
    try:
        labels = json_labels(payload["ground_set"], '"ground_set"')
        ground = GroundSet(tuple(str(x) for x in labels))
        oracle = _parse_function(payload["function"], ground)
        ring = _parse_lattice(payload.get("lattice"), ground)
        constraint = parse_constraint(payload.get("constraint"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from None
    if constraint is not None:
        # Fail fast on labels outside the ground set.
        constraint.term_masks(ground)
    return Instance(oracle, ring, constraint)


def read_json(path: str | Path, what: str):
    """The JSON document in the UTF-8 file at ``path``; ``what`` names the
    file in the ``InputError`` raised when it cannot be read or parsed.
    ``ValueError`` covers both a syntax error and bytes that are not UTF-8;
    ``RecursionError`` is the parser's answer to nesting too deep."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(read_json(path, "instance file"))


def instance_to_dict(instance: Instance) -> dict:
    """Serialize back to the file form (explicit tables stay explicit)."""
    ground = instance.ground
    oracle = instance.oracle
    spec = oracle.spec
    if isinstance(spec, Modular):
        function = {"type": "modular", "weights": dict(spec.weights)}
    elif isinstance(spec, CutUndirected):
        function = {"type": "cut_undirected", "edges": [list(e) for e in spec.edges]}
    elif isinstance(spec, CutDirected):
        function = {"type": "cut_directed", "arcs": [list(a) for a in spec.arcs]}
    elif isinstance(spec, Coverage):
        function = {
            "type": "coverage",
            "covered_sets": {k: list(v) for k, v in spec.covered_sets.items()},
        }
    elif isinstance(spec, ExplicitTable):
        function = {
            "type": "explicit_table",
            "values": [
                [list(ground.labels_of(mask)), int(v)] for mask, v in enumerate(spec.values)
            ],
        }
    else:
        raise InputError(f"function spec {type(spec).__name__} has no file form")
    payload: dict = {"ground_set": list(ground.elements), "function": function}
    ring = instance.ring
    if ring.forced_in or ring.forced_out or ring.implications:
        payload["lattice"] = {
            "forced_in": list(ground.labels_of(ring.forced_in)),
            "forced_out": list(ground.labels_of(ring.forced_out)),
            "implications": [
                [ground.elements[u], ground.elements[v]] for u, v in ring.implications
            ],
        }
    constraint = instance.constraint
    if isinstance(constraint, CongruencyConstraint):
        payload["constraint"] = {
            "type": "congruency",
            "modulus": constraint.modulus,
            "residue": constraint.residue,
        }
    elif isinstance(constraint, GeneralizedConstraint):
        payload["constraint"] = {
            "type": "generalized",
            "modulus": constraint.modulus,
            "terms": [
                {"set": sorted(s), "residue": r} for s, r in constraint.terms
            ],
        }
    elif isinstance(constraint, TCutConstraint):
        payload["constraint"] = {
            "type": "tcut",
            "set": sorted(constraint.terminals),
            "modulus": constraint.modulus,
            "residue": constraint.residue,
        }
    elif constraint is not None:
        raise InputError("membership-oracle constraints have no file form")
    return payload
