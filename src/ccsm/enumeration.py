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
minimizer of f.  ``_node_table`` is the one place that computes them,
for one shared pair list, in ``_pinned_minimizers``:

- slice: for a fixed B, the sets that avoid B form a 2**(n - |B|)
  sub-cube of the table, copied out with B's axes at 0;
- sweep: one in-place superset-min pass per remaining axis leaves in each
  cell the minimum of g over its supersets, so the cell of A holds the
  minimum over the interval [A, N - B];
- walk: starting at A, add each free element whose cell still holds that
  minimum; the walk ends on the minimizer, then B's bits go back in.

The sweeps cost sum over j <= d of C(n, j) (n - j) 2**(n - j) cell
updates, and the walks n - |B| steps per pair.  Slices with the same
|B| = j are stacked 2**j to a chunk, so apart from arrays with one
entry per pair, the working memory beyond the table is one chunk of
2**n cells.  The README gives measured timings.
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
from .ground import GroundSet, iter_bits, popcount_array, reversed_bits_array
from .lattice import RingFamily
from .limits import _SENTINEL, require_exhaustible
from .oracles import SubmodularOracle

ROUTE_TABLE = "table"


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

    amask: np.ndarray
    bmask: np.ndarray
    setmask: np.ndarray
    nonempty: np.ndarray
    values: np.ndarray


def _scaled_table(oracle: SubmodularOracle, ring: RingFamily) -> tuple[np.ndarray, np.ndarray]:
    n = oracle.ground.n
    values = oracle.value_table()
    feasible = ring.feasibility_table()
    masks = np.arange(1 << n, dtype=np.int64)
    scaled = (n + 1) * values + popcount_array(masks)
    return values, np.where(feasible, scaled, _SENTINEL)


def _drop_bits(masks: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Delete the bit positions set in ``drop`` from each mask, closing the gaps."""
    while drop.any():
        low = drop & -drop
        masks = (masks & (low - 1)) | ((masks >> 1) & -low)
        drop = (drop ^ low) >> 1
    return masks


def _restore_bits(masks: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Inverse of ``_drop_bits``: put zero bits back at the positions of ``drop``."""
    while drop.any():
        low = drop & -drop
        masks = (masks & (low - 1)) | ((masks & -low) << 1)
        drop = drop ^ low
    return masks


def _pinned_minimizers(
    g: np.ndarray, n: int, amask: np.ndarray, bmask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, an argmin of ``g`` over the interval [A, N - B] and
    whether the interval holds a member (a cell below ``_SENTINEL``); the
    argmin is 0 where it does not.  Found by the slice, sweep and walk of
    the module docstring.

    The walk ends on a cell x that holds the interval minimum, while each
    ``x | t`` is a superset of the cell where t was rejected and so holds
    more.  Every proper superset of x lies under some ``x | t``, so g[x]
    itself is the minimum: the walk finds an argmin on any table, and on
    submodular input the unique one, the inclusion-minimal minimizer.
    """
    cube = g.reshape((2,) * n)
    buf = np.empty(1 << n, dtype=np.int64)
    setmask = np.zeros_like(amask)
    nonempty = np.zeros(len(amask), dtype=bool)
    # Pairs in (|B|, B) order: each chunk's pairs are one run of ``order``.
    key = (popcount_array(bmask) << n) | bmask
    order = np.argsort(key)
    bkeys, first = np.unique(key[order], return_index=True)
    first = np.append(first, len(order))
    for j in range(n + 1):
        free = n - j
        lo, hi = np.searchsorted(bkeys >> n, [j, j + 1]).tolist()
        for start in range(lo, hi, 1 << j):
            chunk = bkeys[start : min(start + (1 << j), hi)]
            slices = buf[: len(chunk) << free].reshape((len(chunk),) + (2,) * free)
            for row, b in enumerate((chunk & ((1 << n) - 1)).tolist()):
                avoid_b = [slice(None)] * n
                for i in iter_bits(b):
                    avoid_b[n - 1 - i] = 0  # axis k of the cube is element n - 1 - k
                slices[row] = cube[tuple(avoid_b)]
            sub = slices.reshape(len(chunk), -1)
            for t in range(free):
                v = sub.reshape(len(chunk), -1, 2, 1 << t)
                np.minimum(v[:, :, 0], v[:, :, 1], out=v[:, :, 0])
            # The walk runs on flat cell indices: the row number above A'.
            run = order[first[start] : first[start + len(chunk)]]
            cells = sub.reshape(-1)
            x = (np.searchsorted(chunk, key[run]) << free) | _drop_bits(amask[run], bmask[run])
            target = cells[x]
            for t in range(free):
                step = x | (1 << t)
                x = np.where(cells[step] == target, step, x)
            nonempty[run] = hit = target != _SENTINEL
            setmask[run] = np.where(hit, _restore_bits(x & ((1 << free) - 1), bmask[run]), 0)
    return setmask, nonempty


def _node_table(oracle: SubmodularOracle, ring: RingFamily, dmax: int) -> _NodeTable:
    """Minimal minimizers of every candidate pair up to depth ``dmax``."""
    n = oracle.ground.n
    require_exhaustible(n, "pair-enumeration solving")
    values, g = _scaled_table(oracle, ring)
    amask, bmask = _pair_masks(n, dmax)
    setmask, nonempty = _pinned_minimizers(g, n, amask, bmask)
    return _NodeTable(amask, bmask, setmask, nonempty, values)


@dataclass(frozen=True)
class EnumSolution:
    """Result of a pair-enumeration run.

    ``best is None`` means no collected candidate was feasible (a value,
    not an error).  ``candidates`` counts distinct minimal minimizers;
    ``sfm_calls`` counts pairs whose sublattice was non-empty and
    ``skipped_empty`` the rest, so the two sum to ``pair_count(n, depth)``;
    a proper ``solve_cut`` sums them over its pinned runs instead.
    ``route`` names how the pinned minimizers were computed; the only
    route is ``"table"``, the sweeps over the dense value table.
    """

    best: frozenset[str] | None
    value: int | None
    depth: int
    candidates: int
    sfm_calls: int
    skipped_empty: int
    guaranteed: bool
    candidate_sets: tuple[frozenset[str], ...] = field(default=(), repr=False)
    route: str = ROUTE_TABLE


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
