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

- cells: ``_scaled_cells`` writes g - base, base = (n + 1) lo, straight
  from f, the feasibility table and |S| (no int64 table of g exists), in
  the first of uint16 / uint32 / uint64 whose top value, which marks the
  non-members, exceeds (n + 1)(hi - lo) + n; lo and hi bound f over the
  members.  A constant shift, with the holes above every member, keeps
  every ``<`` and ``==`` the sweep and the walk make, so each row is the
  one an int64 table of g would give, its g back in int64 with base added;
- sweep: one in-place superset-min pass per bit position leaves in each
  cell the minimum of g over its supersets.  For a fixed B the sets that
  avoid B form a 2**(n - |B|) sub-cube, kept with B's bits squeezed out,
  and once it is swept the cell of A holds the minimum over the interval
  [A, N - B];
- share: one depth-first pass over the positions 0 ... n - 1 sweeps the
  sub-cubes of every B.  Before a table sweeps position p, its 0-half at
  p is copied out as the table of B + p.  Sweeps of different positions
  commute and the 0-half at p is untouched by sweeps of other positions,
  so the child starts from a table already swept below p and sweeps only
  the positions above.  Every B thus shares the sweeps of its prefix;
- runs: a level-j table's sweep of position p and its child copy pair
  runs of w = 2**(p - j) contiguous cells, and numpy's inner loop spans
  one run.  Narrow runs thus cost far more a cell than wide ones.  Where
  w <= 8 and the table holds at least 2**15 cells, both run once per
  column c < w instead, on 1-D strided views that span the table.  One
  pass, in ns a cell (uint16, 2**15 ... 2**20 cells, 2-CPU VM):

      w              1          2          4          8         16
      whole view     0.32-0.39  3.9-4.3    2.0-2.3    1.1-1.2   0.56-0.64
      by column      0.32-0.42  0.32-0.42  0.34-0.50  0.44-0.80 0.88-1.5

  and 0.04-0.11 for the one call when a run spans half the table.  A
  column call costs a few microseconds, so columns lose at w = 16 and
  gain little at w = 8 below 2**15 cells;
- walk: from each A whose cell is not a hole, add each free element whose
  cell still holds the interval minimum; the walk ends on the minimizer,
  then B's bits go back in.

Each table of level j = |B| sweeps the positions above max(B), so the
sweeps cost sum over j <= d of C(n, j + 1) 2**(n - j) cell updates
(n + C(n, 2) / 2 full passes at d = 1), and the walks n - |B| steps per
non-empty pair.  Finished tables of level j are stacked 2**j to a chunk
in one buffer of 2**n cells and walked together, so apart from arrays
with one entry per non-empty pair, the working memory beyond f is the
level-0 cells and d buffers of 2**n cells, each cell 2, 4 or 8 bytes.
The README gives measured timings.

Within a chunk every B with |B| = j leaves the same n - j free bits once
they are squeezed, so one list of A sides, the subsets of at most d of
those bits, serves them all.  Each non-empty pair gets a row: its
minimizer, the minimizer's g, |A| (the popcount of the start) and |B| = j.
``_select`` orders the distinct sets by (g, lex); no reader relies on the
row order.  As 0 <= |S| <= n < n + 1, that is (f, |S|, lex) order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .constraints import Constraint, default_depth, guarantees_exactness
from .errors import InputError
from .ground import GroundSet, reversed_bits_array
from .lattice import RingFamily
from .limits import require_exhaustible
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
    """One row per non-empty pair (A, B): the minimal minimizer over
    [A, N - B], its scaled value g, and the sizes |A| and |B|, all int64.
    Empty pairs have no row, and no reader relies on the row order."""

    setmask: np.ndarray
    g: np.ndarray
    asize: np.ndarray
    bsize: np.ndarray


def _scaled_cells(oracle: SubmodularOracle, ring: RingFamily) -> tuple[np.ndarray, int]:
    """The level-0 cells and base of the module docstring.  No 2**n
    temporary is wider than the cells: |S| is uint8 (n <= 24)."""
    n = oracle.ground.n
    f = oracle.value_table()
    member = ring.feasibility_table()
    # range_bound >= max |f| stands in for lo where there is no member.
    lo = int(f.min(initial=oracle.range_bound, where=member))
    hi = int(f.max(initial=lo, where=member))
    span = (n + 1) * (hi - lo) + n
    width = next(t for t in (np.uint16, np.uint32, np.uint64) if np.iinfo(t).max > span)
    # Holes wrap around here; they are overwritten last.
    cells = np.empty(1 << n, dtype=width)
    np.subtract(f, lo, out=cells, casting="unsafe")
    cells *= n + 1
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    cells += sizes
    del sizes
    cells[~member] = np.iinfo(width).max
    return cells, (n + 1) * lo


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


def _pinned_minimizers(cells: np.ndarray, base: int, n: int, d: int) -> _NodeTable:
    """The node table of the pairs up to depth ``d``: per pair whose
    interval [A, N - B] holds a member (a cell below ``top``, the maximum
    of the cells' unsigned dtype), one row with an argmin of ``cells``
    there and its g = cell + ``base``, which must fit in int64.  Found by
    the depth-first sweep, in place, and the walk of the module docstring.

    The table of B + p is copied from its parent's 0-half at p before the
    parent sweeps p, so it starts swept at every position below p and
    sweeps only those above: sum over j <= d of C(n, j + 1) 2**(n - j)
    cell updates in all.  Besides ``cells``, the sweep holds one chunk
    of 2**n cells per level 1 ... d, in the cells' width.  The sweep and
    the copy of a position whose runs hold w <= 8 cells, on a table of at
    least 2**15 cells, loop over the w columns (``_columns``); elsewhere
    they make one call on the whole view.  The module docstring gives
    the measured cost a cell of both.

    Each chunk's walk returns its rows, and they are joined once at the
    end; the pairs of the walked chunks, empty ones included, must number
    ``pair_count(n, d)``.

    The walk ends on a cell x that holds the interval minimum, while each
    ``x | t`` is a superset of the cell where t was rejected and so holds
    more.  Every proper superset of x lies under some ``x | t``, so cell x
    itself is the minimum: the walk finds an argmin on any table, and on
    submodular input the unique one, the inclusion-minimal minimizer.
    """
    d = min(n, d)
    top = np.iinfo(cells.dtype).max
    # Level j stacks up to 2**j tables of 2**(n - j) cells, one per B with
    # |B| = j, in the order of ``bsides[j]``; the slot after them holds the
    # level's table in progress.  Level 0 is ``cells`` itself.
    chunks = [cells] + [np.empty(1 << n, dtype=cells.dtype) for _ in range(d)]
    starts = [_subset_masks(n - j, range(min(n - j, d) + 1)) for j in range(d + 1)]
    bsides: list[list[int]] = [[] for _ in range(d + 1)]
    rows = []
    pairs = 0
    # Each entry is a table still being swept: its level j = |B|, the next
    # bit position p to sweep and B.  Every element of B lies below p, so
    # p sits at bit p - j of the table, whose B bits are squeezed out.
    stack = [(0, 0, 0)]
    while stack:
        j, p, b = stack.pop()
        free = n - j
        if p == n:
            bsides[j].append(b)
            pairs += len(starts[j])
            if len(bsides[j]) == 1 << j:
                rows.append(_walk_chunk(chunks[j], n, j, starts[j], bsides[j], base, top))
            continue
        k = len(bsides[j])
        w = 1 << (p - j)
        halves = chunks[j][k << free : (k + 1) << free].reshape(-1, 2, w)
        cols = _columns(w, free)
        stack.append((j, p + 1, b))
        if j < d:
            # B + p avoids p: its table is this table's 0-half at p, which
            # is already swept at every position below p.
            lo = len(bsides[j + 1]) << (free - 1)
            child = chunks[j + 1][lo : lo + (1 << (free - 1))].reshape(-1, w)
            for c in cols:
                child[:, c] = halves[:, 0, c]
            stack.append((j + 1, p + 1, b | 1 << p))
        for c in cols:
            np.minimum(halves[:, 0, c], halves[:, 1, c], out=halves[:, 0, c])
    for j in range(d + 1):
        if bsides[j]:
            rows.append(_walk_chunk(chunks[j], n, j, starts[j], bsides[j], base, top))
    assert pairs == pair_count(n, d)
    return _NodeTable(*map(np.concatenate, zip(*rows)))


def _columns(w: int, free: int) -> range | tuple[slice]:
    """What a sweep or copy of a table of 2**``free`` cells in runs of
    ``w`` contiguous cells loops over: each column c < w, or once the
    whole view.  See the module docstring for the rule's timings."""
    return range(w) if w <= 8 and free >= 15 else (slice(None),)


def _walk_chunk(
    chunk: np.ndarray,
    n: int,
    j: int,
    starts: np.ndarray,
    bsides: list[int],
    base: int,
    top: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk the non-empty pairs of the tables in ``chunk``, one per B in
    ``bsides`` (|B| = ``j``), empty ``bsides`` and return the pairs' rows:
    setmask, g, |A| and |B|.  Cells hold g - ``base``, or ``top`` for a
    hole; a pair whose start cell is ``top`` is empty and not walked."""
    # The walk runs on flat cell indices: the table's slot above the
    # free-bit mask of A, from the one list ``starts`` of this |B|.
    free = n - j
    cells = chunk[: len(bsides) << free]
    x = ((np.arange(len(bsides), dtype=np.int64) << free)[:, None] | starts).reshape(-1)
    x = x[cells[x] != top]
    target = cells[x]
    asize = np.bitwise_count(x & ((1 << free) - 1)).astype(np.int64)
    for t in range(free):
        step = x | (1 << t)
        x = np.where(cells[step] == target, step, x)
    drop = np.array(bsides, dtype=np.int64)[x >> free]
    bsides.clear()
    setmask = _restore_bits(x & ((1 << free) - 1), drop)
    return setmask, target.astype(np.int64) + base, asize, np.full(len(x), j, dtype=np.int64)


def _node_table(oracle: SubmodularOracle, ring: RingFamily, dmax: int) -> _NodeTable:
    """Minimal minimizers of the non-empty pairs up to depth ``dmax``."""
    n = oracle.ground.n
    require_exhaustible(n, "pair-enumeration solving")
    return _pinned_minimizers(*_scaled_cells(oracle, ring), n, dmax)


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
    depth = _checked_depth(depth)
    rows = _node_table(oracle, ring, depth)
    pairs = pair_count(ground.n, depth)
    return _select(ground, rows.setmask, rows.g, constraint, depth, len(rows.g), pairs)


def _checked_depth(depth) -> int:
    """``depth`` as an int; ``InputError`` unless it is an integer >= 0."""
    try:
        depth = operator.index(depth)
    except TypeError:
        raise InputError(f"depth must be an integer, got {depth!r}") from None
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    return depth


def _select(
    ground: GroundSet,
    setmask: np.ndarray,
    g: np.ndarray,
    constraint: Constraint | None,
    depth: int,
    sfm_calls: int,
    pairs: int,
) -> EnumSolution:
    """Answer a run from node-table rows, given as their sets and g.

    The candidates are the distinct sets among the rows, in any order; the
    answer is the first constraint-feasible one in (value, cardinality,
    lex) order.  The counters are the caller's: ``skipped_empty`` is
    ``pairs - sfm_calls``.
    """
    n = ground.n
    sets, first = np.unique(setmask, return_index=True)
    scaled = g[first]
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
