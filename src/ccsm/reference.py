"""Exhaustive reference solver used to certify the enumeration solver.

Scans every subset, applies lattice and feasibility filters on dense
tables, and reports the optimum together with *all* inclusion-minimal
optimal sets.  Deliberately independent of the pair-enumeration machinery
so the two routes can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (
    CongruencyConstraint,
    Constraint,
    GeneralizedConstraint,
    MembershipOracle,
    TCutConstraint,
)
from .ground import popcount_array, reversed_bits_array
from .lattice import RingFamily
from .limits import require_exhaustible
from .oracles import SubmodularOracle


@dataclass(frozen=True)
class OracleResult:
    """``optimum is None`` means no feasible set exists (a value, not an error)."""

    optimum: int | None
    all_minimal_optima: tuple[frozenset[str], ...]
    evals: int

    @property
    def infeasible(self) -> bool:
        return self.optimum is None


def _constraint_table(constraint: Constraint | None, ring: RingFamily) -> np.ndarray:
    n = ring.ground.n
    masks = np.arange(1 << n, dtype=np.int64)
    if constraint is None:
        return np.ones(1 << n, dtype=bool)
    if isinstance(constraint, CongruencyConstraint):
        return popcount_array(masks) % constraint.modulus == constraint.residue
    if isinstance(constraint, TCutConstraint):
        tm = ring.ground.mask_of(constraint.terminals)
        return popcount_array(masks & tm) % constraint.modulus == constraint.residue
    if isinstance(constraint, GeneralizedConstraint):
        ok = np.ones(1 << n, dtype=bool)
        for tm, ri in constraint.term_masks(ring.ground):
            ok &= popcount_array(masks & tm) % constraint.modulus == ri
        return ok
    if isinstance(constraint, MembershipOracle):
        return np.array(
            [constraint.mask_member(int(m), ring.ground) for m in masks], dtype=bool
        )
    raise AssertionError(constraint)


def exhaustive_solve(
    oracle: SubmodularOracle,
    ring: RingFamily | None = None,
    constraint: Constraint | None = None,
) -> OracleResult:
    """Ground truth by full enumeration; n is capped at 24.

    Minimal optima are found with a subset-sum style sweep: a set is
    inclusion-minimal optimal iff it is optimal and no single element can
    be dropped while staying inside the (downward-explored) optimal
    region.  The sweep marks every mask having an optimal feasible subset,
    then keeps optimal masks none of whose one-element-removals are marked.
    """
    ground = oracle.ground
    n = ground.n
    require_exhaustible(n, "exhaustive solving")
    if ring is None:
        ring = RingFamily.full(ground)
    values = oracle.value_table()
    feasible = ring.feasibility_table() & _constraint_table(constraint, ring)
    evals = 1 << n
    if not feasible.any():
        return OracleResult(None, (), evals)
    best = int(values[feasible].min())
    optimal = feasible & (values == best)
    # has_opt_subset[X] == some optimal feasible subset of X exists.
    has_opt_subset = optimal.copy()
    masks = np.arange(1 << n, dtype=np.int64)
    for e in range(n):
        upper = np.nonzero(masks & (1 << e))[0]
        has_opt_subset[upper] |= has_opt_subset[upper ^ (1 << e)]
    # X is dominated when dropping some element of X still leaves an
    # optimal subset underneath; minimal optima are the undominated ones.
    dominated = np.zeros(1 << n, dtype=bool)
    for e in range(n):
        upper = np.nonzero(masks & (1 << e))[0]
        dominated[upper] |= has_opt_subset[upper ^ (1 << e)]
    arr = np.nonzero(optimal & ~dominated)[0].astype(np.int64)
    order = np.lexsort((-reversed_bits_array(arr, n), popcount_array(arr)))
    sets = tuple(ground.set_of(int(arr[i])) for i in order)
    return OracleResult(best, sets, evals)
