"""Congruency-constrained minimization by bounded pair enumeration.

The solver walks every disjoint pair (A, B) of subsets with |A|, |B| <= d,
finds the inclusion-minimal minimizer of f over the lattice members that
contain A and avoid B, and finally picks the best constraint-feasible set
among the collected minimizers.  For a prime-power modulus m the depth
m - 1 (or k * (m - 1) for k simultaneous congruences) makes this exact.

Every pinned minimizer minimizes the scaled objective
g(S) = (n + 1) f(S) + |S| over the dense 2**n table: minimizers of f on a
lattice are closed under union and intersection, so g has a unique
minimizer on every non-empty sublattice and it is the inclusion-minimal
minimizer of f.  ``_node_table`` is the one place that computes them, for
one shared pair list, by one of two routes chosen from the input size:

- the ternary route fills a ``(3,)*n`` array whose axis digit is 0 (free),
  1 (in A) or 2 (in B).  A pair with a free element is the union of the
  two pairs that pin it, so one min-reduction per axis answers all 3**n
  pairs at once, and each pair reads its own cell;
- the per-pair route scans each pair's interval of the table directly.

The ternary route runs when n is within ``ternary_cap()`` and there are
more than ``_PAIR_SWITCH`` pairs; both return identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .constraints import (
    CongruencyConstraint,
    Constraint,
    GeneralizedConstraint,
    MembershipOracle,
    TCutConstraint,
    default_depth,
    guarantees_exactness,
)
from .errors import InputError
from .ground import (
    GroundSet,
    interval_masks,
    iter_bits,
    popcount_array,
    reversed_bits_array,
)
from .lattice import RingFamily
from .limits import _PAIR_SWITCH, _SENTINEL, require_exhaustible, ternary_cap
from .oracles import SubmodularOracle

ROUTE_TERNARY = "ternary"
ROUTE_PER_PAIR = "per_pair"


def pair_count(n: int, d: int) -> int:
    """Number of ordered disjoint pairs (A, B) with |A| <= d and |B| <= d."""
    if n < 0 or d < 0:
        raise InputError("pair_count needs n >= 0 and d >= 0")
    total = 0
    for i in range(min(n, d) + 1):
        for j in range(min(n - i, d) + 1):
            total += comb(n, i) * comb(n - i, j)
    return total


def _pair_masks(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of A and of B for every candidate pair, in candidate order.

    The sets of size <= d, in (size, lex) order, are the A side; the B
    sides of one A are the same list filtered to the sets disjoint from A,
    which keeps their (size, lex) order.
    """
    small = np.array(
        [sum(1 << i for i in c) for k in range(min(n, d) + 1) for c in combinations(range(n), k)],
        dtype=np.int64,
    )
    partners = [small[(small & a) == 0] for a in small.tolist()]
    return np.repeat(small, [len(p) for p in partners]), np.concatenate(partners)


def candidate_pairs(n: int, d: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All disjoint index pairs (A, B) up to size d, in (size, lex) order of
    A and then of B."""
    if n < 0 or d < 0:
        raise InputError("candidate_pairs needs n >= 0 and d >= 0")
    amask, bmask = _pair_masks(n, d)
    for a, b in zip(amask.tolist(), bmask.tolist()):
        yield tuple(iter_bits(a)), tuple(iter_bits(b))


@dataclass
class _NodeTable:
    """Per-pair results: masks of A and B, the minimal minimizer, emptiness.

    ``setmask`` is 0 wherever ``nonempty`` is false.
    """

    n: int
    amask: np.ndarray
    bmask: np.ndarray
    setmask: np.ndarray
    nonempty: np.ndarray
    values: np.ndarray
    route: str


def _scaled_table(oracle: SubmodularOracle, ring: RingFamily) -> tuple[np.ndarray, np.ndarray]:
    n = oracle.ground.n
    values = oracle.value_table()
    feasible = ring.feasibility_table()
    masks = np.arange(1 << n, dtype=np.int64)
    scaled = (n + 1) * values + popcount_array(masks)
    return values, np.where(feasible, scaled, _SENTINEL)


def _node_table_ternary(
    g: np.ndarray, n: int, amask: np.ndarray, bmask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Axis k of the (3,)*n arrays, like axis k of g.reshape((2,)*n), is
    # element n - 1 - k, so the flat index of a pair is the sum of
    # 3**i * digit_i.  Digit 1 (in A) holds bit 1 and digit 2 (in B) bit 0.
    gval = np.full((3,) * n, _SENTINEL, dtype=np.int64)
    sets = np.zeros((3,) * n, dtype=np.int64)
    pinned = (slice(2, 0, -1),) * n
    gval[pinned] = g.reshape((2,) * n)
    sets[pinned] = np.arange(1 << n, dtype=np.int64).reshape((2,) * n)
    for axis in range(n):
        free, left, right = ((slice(None),) * axis + (digit,) for digit in range(3))
        take_left = gval[left] <= gval[right]
        gval[free] = np.where(take_left, gval[left], gval[right])
        sets[free] = np.where(take_left, sets[left], sets[right])
    index = np.zeros_like(amask)
    for i in range(n):
        index += 3**i * (((amask >> i) & 1) + 2 * ((bmask >> i) & 1))
    nonempty = gval.ravel()[index] != _SENTINEL
    return np.where(nonempty, sets.ravel()[index], 0), nonempty


def _node_table_per_pair(
    g: np.ndarray, n: int, amask: np.ndarray, bmask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    setmask = np.zeros(len(amask), dtype=np.int64)
    nonempty = np.zeros(len(amask), dtype=bool)
    for k, (a, b) in enumerate(zip(amask.tolist(), bmask.tolist())):
        idx = interval_masks(a, [i for i in range(n) if not ((a | b) >> i) & 1])
        local = g[idx]
        j = int(np.argmin(local))
        if local[j] != _SENTINEL:
            setmask[k] = idx[j]
            nonempty[k] = True
    return setmask, nonempty


def _node_table(oracle: SubmodularOracle, ring: RingFamily, dmax: int) -> _NodeTable:
    """Minimal minimizers of every candidate pair up to depth ``dmax``."""
    n = oracle.ground.n
    require_exhaustible(n, "pair-enumeration solving")
    values, g = _scaled_table(oracle, ring)
    amask, bmask = _pair_masks(n, dmax)
    if n <= ternary_cap() and len(amask) > _PAIR_SWITCH:
        route, nodes = ROUTE_TERNARY, _node_table_ternary
    else:
        route, nodes = ROUTE_PER_PAIR, _node_table_per_pair
    setmask, nonempty = nodes(g, n, amask, bmask)
    return _NodeTable(n, amask, bmask, setmask, nonempty, values, route)


@dataclass(frozen=True)
class EnumSolution:
    """Result of a pair-enumeration run.

    ``best is None`` means no collected candidate was feasible (a value,
    not an error).  ``candidates`` counts distinct minimal minimizers;
    ``sfm_calls`` counts pairs whose sublattice was non-empty and
    ``skipped_empty`` the rest, so the two sum to ``pair_count(n, depth)``;
    a proper ``solve_cut`` sums them over its pinned runs instead.
    """

    best: frozenset[str] | None
    value: int | None
    depth: int
    candidates: int
    sfm_calls: int
    skipped_empty: int
    guaranteed: bool
    candidate_sets: tuple[frozenset[str], ...] = field(default=(), repr=False)
    route: str = ROUTE_TERNARY


def _ordered_candidates(cands: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Distinct collected sets ordered by (value, cardinality, lex)."""
    order = np.lexsort((-reversed_bits_array(cands, n), popcount_array(cands), values[cands]))
    return cands[order]


def enum_solve(
    oracle: SubmodularOracle,
    ring: RingFamily | None = None,
    constraint: Constraint | None = None,
    depth: int | None = None,
) -> EnumSolution:
    """Minimize f over lattice members satisfying the constraint.

    ``depth`` defaults to the constraint's certified depth; passing a
    smaller value trades exactness for speed and flips ``guaranteed``
    off.  Opaque membership constraints always need an explicit depth.
    """
    ground = oracle.ground
    n = ground.n
    if ring is None:
        ring = RingFamily.full(ground)
    if ring.ground is not ground and ring.ground.elements != ground.elements:
        raise InputError("oracle and ring family use different ground sets")
    if depth is None:
        if constraint is None:
            depth = 0
        else:
            depth = default_depth(constraint)
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    table = _node_table(oracle, ring, depth)
    pairs = len(table.nonempty)
    assert pairs == pair_count(n, depth)
    sfm_calls = int(table.nonempty.sum())
    return _select(ground, table, table.nonempty, constraint, depth, sfm_calls, pairs)


def _select(
    ground: GroundSet,
    table: _NodeTable,
    keep: np.ndarray,
    constraint: Constraint | None,
    depth: int,
    sfm_calls: int,
    pairs: int,
) -> EnumSolution:
    """Answer a run from the node-table entries selected by ``keep``.

    The candidates are the distinct sets collected at the kept pairs; the
    answer is the first constraint-feasible one in (value, cardinality,
    lex) order.  ``keep`` must select only non-empty pairs.  The counters
    are the caller's: ``skipped_empty`` is ``pairs - sfm_calls``.
    """
    ordered = _ordered_candidates(np.unique(table.setmask[keep]), table.values, ground.n).tolist()
    if constraint is None:
        feasible = lambda mask: True  # noqa: E731
        # Unconstrained runs return the lattice minimum itself.
        guaranteed = True
    else:
        feasible = _compile_member(constraint, ground)
        guaranteed = guarantees_exactness(constraint, depth)
    best_mask = next((m for m in ordered if feasible(m)), None)
    return EnumSolution(
        best=None if best_mask is None else ground.set_of(best_mask),
        value=None if best_mask is None else int(table.values[best_mask]),
        depth=depth,
        candidates=len(ordered),
        sfm_calls=sfm_calls,
        skipped_empty=pairs - sfm_calls,
        guaranteed=guaranteed,
        candidate_sets=tuple(ground.set_of(m) for m in ordered),
        route=table.route,
    )


def _compile_member(constraint: Constraint, ground):
    """Bind a constraint to a ground set as a fast mask predicate."""
    if isinstance(constraint, CongruencyConstraint):
        m, r = constraint.modulus, constraint.residue
        return lambda mask: mask.bit_count() % m == r
    if isinstance(constraint, TCutConstraint):
        tm = ground.mask_of(constraint.terminals)
        m, r = constraint.modulus, constraint.residue
        return lambda mask: (mask & tm).bit_count() % m == r
    if isinstance(constraint, GeneralizedConstraint):
        tms = constraint.term_masks(ground)
        m = constraint.modulus
        return lambda mask: all((mask & tm).bit_count() % m == ri for tm, ri in tms)
    if isinstance(constraint, MembershipOracle):
        return lambda mask: constraint.mask_member(mask, ground)
    raise InputError(f"unknown constraint {constraint!r}")
