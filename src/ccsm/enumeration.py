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
for every pair, in ``_pinned_minimizers``:

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

The node table lists the pairs in the order they are swept, (|B|, B,
|A|, A): once B's bits are squeezed out of its slice, every B with
|B| = j leaves the same n - j free bits, so one list of A sides, the
subsets of at most d of those bits, serves them all.  Each row carries
its minimizer and the minimizer's g, and ``_select`` orders the distinct
sets by (g, lex).  As 0 <= |S| <= n < n + 1, that is (f, |S|, lex) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .constraints import Constraint, default_depth, guarantees_exactness
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


def candidate_pairs(n: int, d: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All disjoint index pairs (A, B) up to size d, in (size, lex) order of
    A and then of B."""
    if n < 0 or d < 0:
        raise InputError("candidate_pairs needs n >= 0 and d >= 0")
    for i in range(min(n, d) + 1):
        for a in combinations(range(n), i):
            rest = [e for e in range(n) if e not in a]
            for j in range(min(n - i, d) + 1):
                for b in combinations(rest, j):
                    yield a, b


@dataclass
class _NodeTable:
    """One row per pair, in (|B|, B, |A|, A) order: the masks of A and B,
    the minimal minimizer and its scaled value g.

    Empty pairs hold ``setmask`` 0 and ``g`` equal to ``_SENTINEL``.
    """

    amask: np.ndarray
    bmask: np.ndarray
    setmask: np.ndarray
    g: np.ndarray

    @property
    def nonempty(self) -> np.ndarray:
        return self.g != _SENTINEL


def _scaled_table(oracle: SubmodularOracle, ring: RingFamily) -> np.ndarray:
    n = oracle.ground.n
    values = oracle.value_table()
    feasible = ring.feasibility_table()
    masks = np.arange(1 << n, dtype=np.int64)
    scaled = (n + 1) * values + popcount_array(masks)
    return np.where(feasible, scaled, _SENTINEL)


def _subset_masks(n: int, sizes: range) -> np.ndarray:
    """Masks of the subsets of n bits whose size lies in ``sizes``, in
    (size, lex) order."""
    return np.array(
        [sum(1 << i for i in c) for k in sizes for c in combinations(range(n), k)],
        dtype=np.int64,
    )


def _restore_bits(masks: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Put zero bits back at the positions set in ``drop`` in each mask."""
    while drop.any():
        low = drop & -drop
        masks = (masks & (low - 1)) | ((masks & -low) << 1)
        drop = drop ^ low
    return masks


def _pinned_minimizers(g: np.ndarray, n: int, d: int) -> _NodeTable:
    """The node table of every pair up to depth ``d``: per pair an argmin
    of ``g`` over the interval [A, N - B], or an empty row where the
    interval holds no member (no cell below ``_SENTINEL``).  Found by the
    slice, sweep and walk of the module docstring, with rows in the
    (|B|, B, |A|, A) order given there.

    The walk ends on a cell x that holds the interval minimum, while each
    ``x | t`` is a superset of the cell where t was rejected and so holds
    more.  Every proper superset of x lies under some ``x | t``, so g[x]
    itself is the minimum: the walk finds an argmin on any table, and on
    submodular input the unique one, the inclusion-minimal minimizer.
    """
    cube = g.reshape((2,) * n)
    buf = np.empty(1 << n, dtype=np.int64)
    table = _NodeTable(*(np.empty(pair_count(n, d), dtype=np.int64) for _ in range(4)))
    done = 0
    for j in range(min(n, d) + 1):
        free = n - j
        starts = _subset_masks(free, range(min(free, d) + 1))
        bsides = _subset_masks(n, range(j, j + 1))
        for lo in range(0, len(bsides), 1 << j):
            chunk = bsides[lo : lo + (1 << j)]
            slices = buf[: len(chunk) << free].reshape((len(chunk),) + (2,) * free)
            for row, b in enumerate(chunk.tolist()):
                avoid_b = [slice(None)] * n
                for i in iter_bits(b):
                    avoid_b[n - 1 - i] = 0  # axis k of the cube is element n - 1 - k
                slices[row] = cube[tuple(avoid_b)]
            sub = slices.reshape(len(chunk), -1)
            for t in range(free):
                v = sub.reshape(len(chunk), -1, 2, 1 << t)
                np.minimum(v[:, :, 0], v[:, :, 1], out=v[:, :, 0])
            # The walk runs on flat cell indices: the row number above the
            # free-bit mask of A, from the one list ``starts`` of this |B|.
            cells = sub.reshape(-1)
            x = ((np.arange(len(chunk), dtype=np.int64) << free)[:, None] | starts).reshape(-1)
            target = cells[x]
            for t in range(free):
                step = x | (1 << t)
                x = np.where(cells[step] == target, step, x)
            rows = slice(done, done + len(x))
            drop = np.repeat(chunk, len(starts))
            table.amask[rows] = _restore_bits(np.tile(starts, len(chunk)), drop)
            table.bmask[rows] = drop
            table.setmask[rows] = np.where(
                target != _SENTINEL, _restore_bits(x & ((1 << free) - 1), drop), 0
            )
            table.g[rows] = target
            done += len(x)
    return table


def _node_table(oracle: SubmodularOracle, ring: RingFamily, dmax: int) -> _NodeTable:
    """Minimal minimizers of every candidate pair up to depth ``dmax``."""
    n = oracle.ground.n
    require_exhaustible(n, "pair-enumeration solving")
    return _pinned_minimizers(_scaled_table(oracle, ring), n, dmax)


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


def _ordered_candidates(cands: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Distinct sets ordered by (g, lex), given each set's scaled value
    g = (n + 1) f + |S|.  As 0 <= |S| <= n, that is (f, |S|, lex) order."""
    return cands[np.lexsort((-reversed_bits_array(cands, n), g))]


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
    if constraint is not None and not isinstance(constraint, Constraint):
        raise InputError(f"unknown constraint {constraint!r}")
    if depth is None:
        if constraint is None:
            depth = 0
        else:
            depth = default_depth(constraint)
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    table = _node_table(oracle, ring, depth)
    pairs = len(table.g)
    assert pairs == pair_count(n, depth)
    keep = table.nonempty
    return _select(ground, table, keep, constraint, depth, int(keep.sum()), pairs)


def _select(
    ground: GroundSet,
    table: _NodeTable,
    keep: np.ndarray,
    constraint: Constraint | None,
    depth: int,
    sfm_calls: int,
    pairs: int,
) -> EnumSolution:
    """Answer a run from the node-table rows selected by ``keep``.

    The candidates are the distinct sets collected at the kept pairs; the
    answer is the first constraint-feasible one in (value, cardinality,
    lex) order.  ``keep`` must select only non-empty pairs.  The counters
    are the caller's: ``skipped_empty`` is ``pairs - sfm_calls``.
    """
    n = ground.n
    sets, first = np.unique(table.setmask[keep], return_index=True)
    scaled = table.g[keep][first]
    ordered = _ordered_candidates(sets, scaled, n).tolist()
    if constraint is None:
        feasible = lambda mask: True  # noqa: E731
        # Unconstrained runs return the lattice minimum itself.
        guaranteed = True
    else:
        feasible = lambda mask: constraint.mask_member(mask, ground)  # noqa: E731
        guaranteed = guarantees_exactness(constraint, depth)
    best_mask = next((m for m in ordered if feasible(m)), None)
    value = None
    if best_mask is not None:
        best_g = int(scaled[np.searchsorted(sets, best_mask)])
        value = (best_g - best_mask.bit_count()) // (n + 1)
    return EnumSolution(
        best=None if best_mask is None else ground.set_of(best_mask),
        value=value,
        depth=depth,
        candidates=len(ordered),
        sfm_calls=sfm_calls,
        skipped_empty=pairs - sfm_calls,
        guaranteed=guaranteed,
        candidate_sets=tuple(ground.set_of(m) for m in ordered),
    )
