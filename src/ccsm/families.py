"""Seeded instance generators for experiments and cross-checks.

All generators are deterministic functions of the supplied NumPy
``Generator``; the bench and test harnesses derive one from an integer
seed so every run is reproducible.
"""

from __future__ import annotations

import numpy as np

from .constraints import CongruencyConstraint, GeneralizedConstraint
from .errors import InputError
from .ground import GroundSet
from .instances import Instance
from .lattice import RingFamily
from .oracles import (
    Coverage,
    CutDirected,
    CutUndirected,
    ExplicitTable,
    Modular,
    SubmodularOracle,
)
from .systems import SetSystem


def tight_depth_instance(m: int, extra: int = 2) -> Instance:
    """The family showing depth m - 2 is not enough for modulus m.

    Ground set {0, .., m + extra} with f(S) = |S| when 0 is missing and
    |S| - 1 - m otherwise; the only feasible optimum of value -1 under
    |S| = 0 (mod m) is an m-set containing element 0, yet every pair of
    pinned sets of size at most m - 2 steers the minimal minimizer to a
    set that never has exactly m elements.
    """
    if m < 2:
        raise InputError(f"modulus must be >= 2, got {m}")
    labels = tuple(str(i) for i in range(m + extra + 1))
    ground = GroundSet(labels)
    weights = {lab: 1 for lab in labels}
    weights["0"] = -m
    oracle = SubmodularOracle(ground, Modular(weights))
    return Instance(oracle, RingFamily.full(ground), CongruencyConstraint(m, 0))


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def random_modular(rng: np.random.Generator, n: int, wmax: int = 9) -> SubmodularOracle:
    ground = GroundSet(_labels(n))
    weights = {lab: int(rng.integers(-wmax, wmax + 1)) for lab in ground.elements}
    return SubmodularOracle(ground, Modular(weights))


def random_cut(
    rng: np.random.Generator, n: int, p: float = 0.5, wmax: int = 9, directed: bool = False
) -> SubmodularOracle:
    ground = GroundSet(_labels(n))
    items = []
    for i in range(n):
        for j in range(n):
            if (j <= i and not directed) or i == j:
                continue
            if rng.random() < p:
                items.append((ground.elements[i], ground.elements[j], int(rng.integers(1, wmax + 1))))
    spec = CutDirected(tuple(items)) if directed else CutUndirected(tuple(items))
    return SubmodularOracle(ground, spec)


def random_coverage(
    rng: np.random.Generator, n: int, universe: int | None = None, density: float = 0.3
) -> SubmodularOracle:
    ground = GroundSet(_labels(n))
    universe = 2 * n if universe is None else universe
    items = [f"i{j}" for j in range(universe)]
    covered = {}
    for lab in ground.elements:
        picks = [it for it in items if rng.random() < density]
        covered[lab] = tuple(picks)
    return SubmodularOracle(ground, Coverage(covered))


def random_table(rng: np.random.Generator, n: int, rounds: int = 4, wmax: int = 4) -> SubmodularOracle:
    """Random integer submodular function given by an explicit table.

    Built as a sum of truncated coverage-style pieces
    ``w * min(|S & R|, c)`` (concave in a modular quantity, hence
    submodular) plus a modular offset, so submodularity holds by
    construction while the tables still vary freely with the seed.
    """
    ground = GroundSet(_labels(n))
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.int64)
    for _ in range(rounds):
        r_mask = int(rng.integers(0, 1 << n))
        cap = int(rng.integers(1, max(2, n // 2 + 1)))
        w = int(rng.integers(1, wmax + 1))
        inter = np.bitwise_count((masks & r_mask).astype(np.uint64)).astype(np.int64)
        values += w * np.minimum(inter, cap)
    for i in range(n):
        w = int(rng.integers(-wmax, wmax + 1))
        values += ((masks >> i) & 1) * w
    values -= values[0]
    return SubmodularOracle(ground, ExplicitTable(tuple(int(v) for v in values)))


def random_ring(rng: np.random.Generator, ground: GroundSet, lattice_prob: float = 0.5) -> RingFamily:
    """Random non-empty ring family over ``ground``.

    With probability ``1 - lattice_prob`` the full lattice; otherwise a few
    random implication arcs plus forced elements chosen so the family stays
    non-empty (forced-out elements are drawn outside the forced-in
    closure).
    """
    n = ground.n
    if n == 0 or rng.random() > lattice_prob:
        return RingFamily.full(ground)
    arcs = []
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            arcs.append((u, v))
    base = RingFamily(ground, 0, 0, arcs)
    forced_in = 0
    if rng.random() < 0.5:
        forced_in = 1 << int(rng.integers(0, n))
    closed = base.closure_mask(forced_in)
    outside = [i for i in range(n) if not (closed >> i) & 1]
    forced_out = 0
    if outside and rng.random() < 0.5:
        # Drawing outside the forced-in closure keeps the family non-empty.
        forced_out = 1 << outside[int(rng.integers(0, len(outside)))]
    return RingFamily(ground, forced_in, forced_out, arcs)


def random_closed_covering_system(rng: np.random.Generator, n: int) -> SetSystem:
    """Random intersection-closed family that contains the ground set.

    A handful of random generator sets are closed under pairwise
    intersection, and the full ground set is added so every subset is
    covered.  Families of this shape satisfy the structural hypotheses of
    ``inclusion_exclusion_check`` by construction, leaving only the
    residue conditions to fail.
    """
    if n < 1:
        raise InputError(f"ground size must be >= 1, got {n}")
    ground = GroundSet(_labels(n))
    masks = {ground.full_mask}
    for _ in range(int(rng.integers(1, 5))):
        masks.add(int(rng.integers(0, ground.full_mask + 1)))
    while True:
        extra = {a & b for a in masks for b in masks} - masks
        if not extra:
            break
        masks |= extra
    return SetSystem(ground, tuple(sorted(masks)))


FAMILY_NAMES = ("modular", "cut", "cut_directed", "coverage", "table")


def random_oracle(rng: np.random.Generator, family: str, n: int) -> SubmodularOracle:
    if family == "modular":
        return random_modular(rng, n)
    if family == "cut":
        return random_cut(rng, n)
    if family == "cut_directed":
        return random_cut(rng, n, directed=True)
    if family == "coverage":
        return random_coverage(rng, n)
    if family == "table":
        return random_table(rng, n)
    raise InputError(f"unknown family {family!r}")


def random_instance(
    rng: np.random.Generator,
    family: str,
    n: int,
    modulus: int,
    lattice_prob: float = 0.5,
) -> Instance:
    """Random congruency instance: oracle, ring family, and a residue."""
    if modulus < 1:
        raise InputError(f"modulus must be >= 1, got {modulus}")
    oracle = random_oracle(rng, family, n)
    ring = random_ring(rng, oracle.ground, lattice_prob)
    constraint = CongruencyConstraint(modulus, int(rng.integers(0, modulus)))
    return Instance(oracle, ring, constraint)


def random_generalized_instance(
    rng: np.random.Generator,
    family: str,
    n: int,
    modulus: int,
    k: int,
    lattice_prob: float = 0.5,
) -> Instance:
    """Random instance with k simultaneous intersection congruences."""
    oracle = random_oracle(rng, family, n)
    ring = random_ring(rng, oracle.ground, lattice_prob)
    terms = []
    for _ in range(k):
        size = int(rng.integers(1, n + 1))
        picks = rng.choice(n, size=size, replace=False)
        term = frozenset(oracle.ground.elements[int(i)] for i in picks)
        terms.append((term, int(rng.integers(0, modulus))))
    constraint = GeneralizedConstraint(modulus, tuple(terms))
    return Instance(oracle, ring, constraint)
