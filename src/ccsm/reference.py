"""Exhaustive reference solver used to certify the enumeration solver.

Scans every subset, applies lattice and feasibility filters on dense
tables, and reports the optimum together with *all* inclusion-minimal
optimal sets.  Deliberately independent of the pair-enumeration machinery
so the two routes can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import Constraint, MembershipOracle
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
    if isinstance(constraint, MembershipOracle):
        return np.array(
            [constraint.mask_member(int(m), ring.ground) for m in masks], dtype=bool
        )
    ok = np.ones(1 << n, dtype=bool)
    if constraint is not None:
        for tm, ri in constraint.term_masks(ring.ground):
            ok &= popcount_array(masks & tm) % constraint.modulus == ri
    return ok


def exhaustive_solve(
    oracle: SubmodularOracle,
    ring: RingFamily | None = None,
    constraint: Constraint | None = None,
) -> OracleResult:
    """Ground truth by full enumeration; n is capped at 24.

    The feasible sets are the ring members that pass the constraint's
    dense table: one popcount congruence per term, or the opaque predicate
    on every mask.  Minimal optima are found with a subset-sum style
    sweep: a set is inclusion-minimal optimal iff it is optimal and no
    single element can be dropped while staying inside the
    (downward-explored) optimal region.  The sweep marks every mask having
    an optimal feasible subset, then keeps optimal masks none of whose
    one-element-removals are marked; each step updates the bit-e-set half
    of a strided (above e, bit e, below e) view from its bit-e-clear half.
    Minimal optima come back in (cardinality, lex) order.
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
    for e in range(n):
        v = has_opt_subset.reshape(-1, 2, 1 << e)
        v[:, 1] |= v[:, 0]
    # X is dominated when dropping some element of X still leaves an
    # optimal subset underneath; minimal optima are the undominated ones.
    dominated = np.zeros(1 << n, dtype=bool)
    for e in range(n):
        dominated.reshape(-1, 2, 1 << e)[:, 1] |= has_opt_subset.reshape(-1, 2, 1 << e)[:, 0]
    arr = np.nonzero(optimal & ~dominated)[0].astype(np.int64)
    order = np.lexsort((-reversed_bits_array(arr, n), popcount_array(arr)))
    sets = tuple(ground.set_of(int(arr[i])) for i in order)
    return OracleResult(best, sets, evals)
