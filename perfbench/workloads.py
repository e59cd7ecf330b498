"""Seeded workload inputs, their reference answers and the correctness gate.

Every input comes from ``numpy.random.default_rng((seed, crc32(name)))``
and the repository's own generators in ``ccsm.families`` with their
default weights, so one seed gives the same inputs on every machine.
The worker receives only the generated payloads or files.  Reference
answers are computed here, in set-up, on objects the worker never sees:
``exhaustive_solve`` on the generator's own instance for ``solve``
operations, and a dense 2**n scan written in this file for proper cuts.
An input whose reference says no feasible set exists is drawn again, so
every operation of a workload has an answer to be checked against.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ccsm import exhaustive_solve, instance_to_dict, random_generalized_instance, random_instance
from ccsm.families import random_cut
from spans import Tracer

# (generator, family, n, m); generator "instance" is random_instance and
# "generalized" is random_generalized_instance with k = 2.
LIBRARY_SPECS = {
    # pair_count(12..13, 2) = 4579..6345 > _PAIR_SWITCH: the 3**n ternary route.
    # A solve at n = 13 takes about four times one at n = 12.  Each family
    # is drawn once at n = 12 and twice at n = 13, so that two thirds of the
    # samples are n = 13 solves and both the median and the tail fall inside
    # that group, not in the gap between the two sizes.
    "ternary_m3": [
        ("instance", family, n, 3)
        for n, draws in ((12, 1), (13, 2))
        for _ in range(draws)
        for family in ("cut", "coverage", "modular", "table")
    ],
    # pair_count(16..17, 2) = 14793..18939 pairs, n > _TERNARY_CAP: the
    # per-pair route.  A solve at n = 17 takes nearly twice one at n = 16;
    # five of the six inputs are n = 17, so that the median and the tail
    # fall inside that group, not in the gap between the two sizes.
    "pairs_m3": [
        ("instance", "cut", 17, 3),
        ("instance", "coverage", 17, 3),
        ("instance", "modular", 16, 3),
        ("generalized", "cut", 17, 2),
        ("generalized", "coverage", 17, 2),
        ("generalized", "modular", 17, 2),
    ],
    # Depth 1, 421 pairs over intervals of 2**18..2**19 sets.
    "wide_m2": [
        ("instance", family, 20, 2) for family in ("modular", "coverage", "cut", "cut_directed")
    ],
}

# cli_mix: ("solve", family, n, m) runs ``solve --instance``;
# ("solve-cut", mode, n, terminal sets) runs ``solve-cut --proper``.
# The operations fall in three groups by time: about 0.05 s (the first
# four), 0.2 s (the next four) and 0.3 s (the last two).  The inputs of the
# two slower groups are drawn twice, so that the median falls inside the
# middle group and the tail, with ten samples above it, inside the slowest.
CLI_SPECS = [
    ("solve", "cut", 11, 3),
    ("solve", "coverage", 11, 3),
    ("solve-cut", "congruency", 11, 0),
    ("solve-cut", "tset_odd", 11, 1),
    ("solve", "table", 12, 3),
    ("solve", "table", 12, 3),
    ("solve-cut", "congruency", 12, 0),
    ("solve-cut", "congruency", 12, 0),
    ("solve-cut", "tset_odd", 12, 2),
    ("solve-cut", "tset_odd", 12, 2),
]


@dataclass
class Item:
    """One input: what the worker runs, and how to check what it returns."""

    label: dict
    job: dict
    content: object
    optimum: int
    ground: frozenset
    feasible: Callable[[frozenset], bool]
    value_of: Callable[[frozenset], int]


def digest(items: list[Item]) -> str:
    """Hash of the generated inputs, to show two runs used the same ones."""
    blob = json.dumps([item.content for item in items], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build(name: str, seed: int, workdir: str, tracer: Tracer) -> list[Item]:
    """Generate a workload's inputs, reference answers and files.

    Each ``exhaustive_solve`` call is recorded on ``tracer`` as a
    ``reference.exhaustive_solve`` span.
    """
    rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
    if name == "cli_mix":
        return [_cli_item(rng, spec, i, workdir, tracer) for i, spec in enumerate(CLI_SPECS)]
    return [_library_item(rng, spec, i, tracer) for i, spec in enumerate(LIBRARY_SPECS[name])]


# -- independent checks -------------------------------------------------


def payload_member(payload: dict, chosen: frozenset) -> bool:
    """Lattice and constraint membership read straight off the payload."""
    lattice = payload.get("lattice", {})
    if not set(lattice.get("forced_in", ())) <= chosen:
        return False
    if set(lattice.get("forced_out", ())) & chosen:
        return False
    if any(u in chosen and v not in chosen for u, v in lattice.get("implications", ())):
        return False
    c = payload["constraint"]
    if c["type"] == "congruency":
        return len(chosen) % c["modulus"] == c["residue"]
    return all(len(chosen & set(t["set"])) % c["modulus"] == t["residue"] for t in c["terms"])


def cut_value(edges, chosen: frozenset) -> int:
    return sum(w for u, v, w in edges if (u in chosen) != (v in chosen))


def check(item: Item, result: dict) -> str | None:
    """Why ``result`` is wrong for ``item``, or None when it is right."""
    if result.get("error"):
        return result["error"]
    if result["value"] != item.optimum:
        return f"value {result['value']} != reference {item.optimum}"
    if result["set"] is None:
        return "no set returned"
    chosen = frozenset(result["set"])
    if not chosen <= item.ground:
        return f"unknown labels {sorted(chosen - item.ground)}"
    if not item.feasible(chosen):
        return "returned set is infeasible"
    if item.value_of(chosen) != item.optimum:
        return "returned set does not attain the reported value"
    if result["guaranteed"] is not True:
        return "guaranteed is not true"
    return None


# -- generators ---------------------------------------------------------


def _draw_instance(rng, generator: str, family: str, n: int, m: int):
    if generator == "instance":
        return random_instance(rng, family, n, m)
    return random_generalized_instance(rng, family, n, m, 2)


def _solved_instance(rng, generator, family, n, m, tracer, index):
    """Draw until the reference finds a feasible set."""
    while True:
        instance = _draw_instance(rng, generator, family, n, m)
        with tracer.span("reference.exhaustive_solve", index):
            ref = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        if ref.optimum is not None:
            return instance, ref.optimum


def _library_item(rng, spec, index: int, tracer) -> Item:
    generator, family, n, m = spec
    instance, optimum = _solved_instance(rng, generator, family, n, m, tracer, index)
    payload = instance_to_dict(instance)
    return Item(
        label={"family": family, "n": n, "m": m, "generator": generator},
        job={"payload": payload},
        content=payload,
        optimum=optimum,
        ground=frozenset(instance.ground.elements),
        feasible=lambda s, p=payload: payload_member(p, s),
        value_of=instance.oracle.eval,
    )


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _cli_item(rng, spec, index: int, workdir: str, tracer) -> Item:
    subcommand, kind, n, extra = spec
    path = os.path.join(workdir, f"input{index}.json")
    if subcommand == "solve":
        instance, optimum = _solved_instance(rng, "instance", kind, n, extra, tracer, index)
        payload = instance_to_dict(instance)
        _write_json(path, payload)
        return Item(
            label={"family": kind, "n": n, "m": extra, "subcommand": subcommand},
            job={"argv": ["solve", "--instance", path], "subcommand": "solve"},
            content=payload,
            optimum=optimum,
            ground=frozenset(instance.ground.elements),
            feasible=lambda s, p=payload: payload_member(p, s),
            value_of=instance.oracle.eval,
        )
    while True:
        oracle = random_cut(rng, n)
        vertices = list(oracle.ground.elements)
        edges = [list(e) for e in oracle.spec.edges]
        if kind == "congruency":
            cut = {"mode": "congruency", "m": 2, "r": int(rng.integers(0, 2))}
        else:
            tsets = []
            for _ in range(extra):
                size = int(rng.integers(1, n + 1))
                picks = rng.choice(n, size=size, replace=False)
                tsets.append(sorted(vertices[int(i)] for i in picks))
            cut = {"mode": "tset_odd", "tsets": tsets}
        optimum = proper_cut_optimum(vertices, edges, cut)
        if optimum is not None:
            break
    graph = {"vertices": vertices, "edges": edges, "directed": False}
    _write_json(path, graph)
    argv = ["solve-cut", "--graph", path, "--mode", cut["mode"], "--proper"]
    if kind == "congruency":
        argv += ["--m", str(cut["m"]), "--r", str(cut["r"])]
    else:
        tsets_path = os.path.join(workdir, f"input{index}.tsets.json")
        _write_json(tsets_path, cut["tsets"])
        argv += ["--tsets", tsets_path]
    return Item(
        label={"family": "cut", "n": n, "m": 2, "subcommand": subcommand, "mode": kind},
        job={"argv": argv, "subcommand": "solve_cut"},
        content={"graph": graph, "cut": cut},
        optimum=optimum,
        ground=frozenset(vertices),
        feasible=lambda s, c=cut, n=n: 0 < len(s) < n and _cut_mode_member(c, s),
        value_of=lambda s, e=edges: cut_value(e, s),
    )


def _cut_mode_member(cut: dict, chosen: frozenset) -> bool:
    if cut["mode"] == "congruency":
        return len(chosen) % cut["m"] == cut["r"]
    return all(len(chosen & set(t)) % 2 == 1 for t in cut["tsets"])


def proper_cut_optimum(vertices: list, edges: list, cut: dict) -> int | None:
    """Dense scan over all 2**n vertex sets, the empty set and V excluded."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    masks = np.arange(1 << n, dtype=np.int64)
    bits = [(masks >> i) & 1 for i in range(n)]
    values = np.zeros(1 << n, dtype=np.int64)
    for u, v, w in edges:
        values += (bits[index[u]] ^ bits[index[v]]) * w
    ok = (masks != 0) & (masks != (1 << n) - 1)
    if cut["mode"] == "congruency":
        ok &= sum(bits) % cut["m"] == cut["r"]
    else:
        for t in cut["tsets"]:
            ok &= sum(bits[index[x]] for x in t) % 2 == 1
    return int(values[ok].min()) if ok.any() else None
