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
minimizer of f.  The table route computes them for every pair at once,
in ``_pinned_minimizers``:

- cells: ``_scaled_cells`` has the oracle write g - base, base =
  (n + 1) lo, straight from its spec (no table of f or g exists), in
  the first of uint16 / uint32 / uint64 whose top value exceeds
  (n + 1)(hi - lo) + n, where lo <= f <= hi are the spec's own bounds,
  and an input no width holds is refused with ``InputError``; the ring
  then writes the top value at its non-members.  The cells are
  computed mod 2**bits, and every true cell value lies in
  [0, (n + 1)(hi - lo) + n], below the top, so each residue is the
  value itself.  A constant shift, with the holes above every member,
  keeps every ``<=`` made below, so each row is the one cells of
  unbounded integers would give;
- nodes: after t steps a node is a table of 2**(n - t) cells with the
  |A| <= d_A and |B| <= d_B it has taken: cell c holds the least cell
  over the sets that end in c and, on the top t bits, hold its A bits,
  avoid its B bits and take any value on the rest.  Level 0 is the
  cells alone;
- step: bit e = n - 1 - t is every node's top bit, so its halves h0 and
  h1 (bit e clear, set) are contiguous.  Each node gives a free child
  min(h0, h1), one with |B| < d_B a B-child h0 and one with |A| < d_A an
  A-child h1: one ``np.minimum`` and one ``np.take`` for all nodes, and
  the free children's decisions h1 <= h0 are kept, packed 8 to a byte.
  After bit 0 each node is a pair's one cell: the least cell of
  [A, N - B], or the top value if that holds no member;
- backtrack: from each other leaf, bit 0 first, a B-child's bit is 0,
  an A-child's 1 and a free child's its parent's decision at the cell
  the bits set so far pick.  A step keeps the parents of its B- and
  A-children only, as free child i's parent is node i.  Ties go to the
  1-half, so a free bit is set whenever some argmin with the lower bits
  holds it: the set is the argmin greatest in bit-reversed order, on
  submodular input the only one, the inclusion-minimal minimizer of f.

With both caps d, level t has N_d(t) nodes, the pairs over t bits with
|A|, |B| <= d, so the steps write the sum over t >= 1 of
N_d(t) 2**(n - t) cells, 9 x 2**n at d = 1 and 35-38 x 2**n at d = 2,
and the backtrack takes n steps per non-empty pair.  The largest level
holds 1.75 x 2**n cells at d = 1 and 4.4 x 2**n at d = 2, so a level
that would pass max(2**n, 2**16) cells is built from pieces of the node
list, one after another, each taken to its leaves before the next; a
lone node passes its B- and A-children on as views of its halves.  The
traced peak of a whole ``enum_solve`` on a cut, cells included, is
6.0-6.1 bytes a cell at d = 1 (n = 16 ... 24) and 9.7-10.6 at d = 2
(n = 20, 17).  The README gives timings.

Each non-empty pair gets a row: its minimizer, |A| and |B|, in no order
a reader relies on; the minimizer's g is base plus its own cell.  A
route, ``_route(oracle, ring, depth, proper)``, hands over the distinct
minimizers as Python ints in (g, lex) order, which as 0 <= |S| <= n <
n + 1 is (f, |S|, lex) order, with their g and the pair counters
(``_Candidates``).  ``_solve`` reads nothing else, so no int64 and no
size cap reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from .constraints import Constraint, default_depth, guarantees_exactness
from .errors import InputError
from .ground import GroundSet, reversed_bits_array
from .lattice import RingFamily
from .limits import require_exhaustible
from .oracles import SubmodularOracle, _integer

ROUTE_TABLE = "table"


def pair_count(n: int, d: int) -> int:
    """Number of ordered disjoint pairs (A, B) with |A| <= d and |B| <= d."""
    if n < 0 or d < 0:
        raise InputError("pair_count needs n >= 0 and d >= 0")
    return _pair_count(n, d, d)


def _pair_count(n: int, da: int, db: int) -> int:
    """Number of ordered disjoint pairs (A, B) of n elements with
    |A| <= da and |B| <= db."""
    total = 0
    for i in range(min(n, da) + 1):
        for j in range(min(n - i, db) + 1):
            total += comb(n, i) * comb(n - i, j)
    return total


def _scaled_cells(oracle: SubmodularOracle, ring: RingFamily) -> tuple[np.ndarray, int]:
    """The level-0 cells and base of the module docstring: the oracle
    writes them in the cell width, picked from its spec's bounds
    lo <= f <= hi, and the ring writes the top value at its non-members.
    ``InputError`` when even the 64-bit cells' top does not exceed the
    scaled range (n + 1)(hi - lo) + n."""
    n = oracle.ground.n
    lo, hi = oracle.bounds
    span = (n + 1) * (hi - lo) + n
    width = next((t for t in (np.uint16, np.uint32, np.uint64) if np.iinfo(t).max > span), None)
    if width is None:
        raise InputError(
            f"function values in [{lo}, {hi}] on {n} elements do not fit the solver's "
            f"64-bit cells: the scaled range (n + 1)(hi - lo) + n = {span} reaches 2**64 - 1"
        )
    base = (n + 1) * lo
    cells = oracle.cells(width, scale=n + 1, sizes=True, shift=base)
    ring.mark_non_members(cells, np.iinfo(width).max)
    return cells, base


def _pinned_minimizers(cells: np.ndarray, n: int, da: int, db: int) -> _Rows:
    """The node table of the pairs with |A| <= ``da`` and |B| <= ``db``:
    per pair whose interval [A, N - B] holds a member (a cell below
    ``top``, the maximum of the cells' unsigned dtype), one row with the
    argmin of ``cells`` there that is greatest in bit-reversed order (an
    int64 mask), |A| and |B|; the interval's least cell is the one at
    that mask.  ``cells``, which may be a strided view, is left as it is.

    The steps of the module docstring write the sum over t >= 1 of
    N_d(t) 2**(n - t) cells, and a level that would pass
    max(2**n, 2**16) cells goes on in pieces (``_split``).  Decisions
    take the 1-half on ties, so the backtrack, bit 0 first, sets each
    free bit that some argmin with the lower bits holds: the greedy walk
    that adds free bits lowest first while an argmin remains.  The leaves
    must number ``_pair_count(n, da, db)``.
    """
    da, db = min(n, da), min(n, db)
    zero = np.zeros(1, dtype=np.int8)
    cap = max(1 << n, 1 << 16)
    rows, leaves = _climb(_descend(cells.reshape(1, -1), zero, zero, da, db, cap))
    assert leaves == _pair_count(n, da, db)
    return rows


class _Rows(NamedTuple):
    """Non-empty leaves during the backtrack: the bits set so far, |A|,
    |B|, and the node of the current level each leaf descends from."""

    setmask: np.ndarray
    asize: np.ndarray
    bsize: np.ndarray
    node: np.ndarray


def _descend(
    tab: np.ndarray, asize: np.ndarray, bsize: np.ndarray, da: int, db: int, cap: int
) -> tuple[list, _Rows, int]:
    """Eliminate the top bit of the nodes ``tab``, one row of 2**e cells
    each with |A| and |B| so far in ``asize`` and ``bsize`` (capped at
    ``da`` and ``db``), until each
    node is one cell, or until a level would pass ``cap`` cells and
    ``_split`` takes the nodes to their leaves.  Returns the steps taken
    for ``_climb``, the rows of the non-empty leaves, with ``node`` a node
    of the last level built, and the number of leaves.  No level outlives
    the call, so the backtrack runs without them."""
    steps = []
    while tab.shape[1] > 1:
        half = tab.shape[1] >> 1
        h0, h1 = tab[:, :half], tab[:, half:]
        bside = np.flatnonzero(bsize < db)
        aside = np.flatnonzero(asize < da)
        free = len(tab)
        count = free + len(bside) + len(aside)
        if count * half > cap:
            return steps, *_split(tab, asize, bsize, da, db, cap, count * half)
        # Children in the order free, B, A.  Row 2i of the halves is h0 of
        # node i and row 2i + 1 its h1; mode="clip" lets take write
        # straight into ``out``.
        kids = np.empty((count, half), dtype=tab.dtype)
        np.minimum(h0, h1, out=kids[:free])
        fixed = np.concatenate((2 * bside, 2 * aside + 1))
        np.take(tab.reshape(-1, half), fixed, axis=0, out=kids[free:], mode="clip")
        parents = np.concatenate((bside, aside))
        steps.append((_decisions(h0, h1), free, free + len(bside), parents, half))
        asize = np.concatenate((asize, asize[bside], asize[aside] + 1))
        bsize = np.concatenate((bsize, bsize[bside] + 1, bsize[aside]))
        tab = kids
    node = np.flatnonzero(tab[:, 0] != np.iinfo(tab.dtype).max)
    setmask = np.zeros(len(node), dtype=np.int64)
    return steps, _Rows(setmask, asize[node], bsize[node], node), len(tab)


def _climb(descent: tuple[list, _Rows, int]) -> tuple[_Rows, int]:
    """Backtrack a ``_descend`` from its leaves' rows, last step first:
    the rows with every eliminated bit set and ``node`` a row of the nodes
    it started from, and the number of leaves.  Each step, and the rows
    it was given, are let go once it is done."""
    steps, rows, leaves = descent
    del descent
    while steps:
        rows = _backtrack(rows, *steps.pop())
    return rows, leaves


def _split(
    tab: np.ndarray, asize: np.ndarray, bsize: np.ndarray, da: int, db: int, cap: int, size: int
) -> tuple[_Rows, int]:
    """``_descend`` and ``_climb`` on nodes whose children would take
    ``size`` > ``cap`` cells.  Several nodes go on in ceil(size / cap)
    pieces, one after another.  A lone node passes its B- and A-children
    on as views of its halves, so only its free child is new.  Only the
    root can be a lone node whose children pass the cap: a node at level
    t >= 1 has children of at most 0.75 x 2**n cells."""
    k, width = tab.shape
    half = width >> 1
    if k > 1:
        pieces = min(k, -(-size // cap))
        bounds = [k * i // pieces for i in range(pieces + 1)]
        parts = [
            _climb(_descend(tab[lo:hi], asize[lo:hi], bsize[lo:hi], da, db, cap))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return _join(parts, bounds)
    h0, h1 = tab[:, :half], tab[:, half:]
    parts = [_climb(_descend(np.minimum(h0, h1), asize, bsize, da, db, cap))]
    if bsize[0] < db:
        parts.append(_climb(_descend(h0, asize, bsize + 1, da, db, cap)))
    if asize[0] < da:
        parts.append(_climb(_descend(h1, asize + 1, bsize, da, db, cap)))
    rows, leaves = _join(parts, range(len(parts)))
    parents = np.zeros(len(parts) - 1, dtype=np.int64)
    return _backtrack(rows, _decisions(h0, h1), 1, 1 + int(bsize[0] < db), parents, half), leaves


def _decisions(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """The bits "the 1-half holds the minimum" (ties to the 1-half), packed
    in little bit order with the nodes' rows end to end: cell c of node i
    is bit i * half + c."""
    return np.packbits((h1 <= h0).reshape(-1), bitorder="little")


def _join(parts: list[tuple[_Rows, int]], offsets) -> tuple[_Rows, int]:
    """The rows of ``_climb`` runs on consecutive node lists, each
    run's nodes counted from its offset, and their number of leaves."""
    columns = [np.concatenate(c) for c in zip(*(rows[:3] for rows, _ in parts))]
    node = np.concatenate([rows.node + at for (rows, _), at in zip(parts, offsets)])
    return _Rows(*columns, node), sum(leaves for _, leaves in parts)


def _backtrack(
    rows: _Rows, decisions: np.ndarray, free: int, bonly: int, parents: np.ndarray, half: int
) -> _Rows:
    """Set the bit one step eliminated in each row, worth ``half``, and
    move the rows to the step's parent nodes.  A row's node is a free
    child below ``free``, a B-child below ``bonly`` and an A-child from
    there on.  Free child i's parent is node i and its bit the parent's
    decision at the cell of the bits set so far; ``parents`` holds the
    B- and A-children's parents, child ``free`` first, and their bits are
    0 and 1.  The free children's parents exist only during the call."""
    node = rows.node
    parent = np.concatenate((np.arange(free), parents))[node]
    at = parent * half
    at += rows.setmask
    bit = (decisions[at >> 3] >> (at & 7)) & 1
    bit = np.where(node < free, bit, node >= bonly)
    bit *= half
    bit |= rows.setmask
    return rows._replace(setmask=bit, node=parent)


class _Candidates(NamedTuple):
    """A route's answer: the distinct minimizers in (g, lex) order, their
    g, the non-empty pairs and all pairs, as Python ints."""

    masks: list[int]
    g: list[int]
    sfm_calls: int
    pairs: int


def _table_route(
    oracle: SubmodularOracle, ring: RingFamily, depth: int, proper: bool
) -> _Candidates:
    """The candidates of the pairs up to ``depth`` from the node table.

    With ``proper``, the candidates of the 2(n - 1) runs of a proper cut
    anchored at element 0, (0 inside, v outside) and (v inside, 0
    outside), which together hold every proper set.  Each run's pinned
    pairs (A, B) are over the other n - 2 elements, so a run has
    ``pair_count(n - 2, depth)`` of them.  They are read off two tables
    over the n - 1 elements after 0, the halves of the cells where 0 is
    in and where it is out: pair (A, B) of run (0, v) is the 0-in pair
    (A, B + v), with |A| <= depth and |B + v| <= depth + 1, and a 0-in
    pair (A, B') with B' non-empty is used by the |B'| runs (0, v), v in
    B'; the 0-out half is the same with the sides swapped.  So
    ``sfm_calls`` sums |B'| over the 0-in rows and |A'| over the 0-out
    rows, and the pair total is 2(n - 1) ``pair_count(n - 2, depth)``.
    With n < 2 there is no run.
    """
    n = oracle.ground.n
    require_exhaustible(n, "pair-enumeration solving")
    if proper and n < 2:
        return _Candidates([], [], 0, 0)
    cells, base = _scaled_cells(oracle, ring)
    if proper:
        # Bit 0 is element 0, so column 1 of the cell pairs is the 0-in half.
        halves = cells.reshape(-1, 2)
        inside = _pinned_minimizers(halves[:, 1], n - 1, depth, depth + 1)
        outside = _pinned_minimizers(halves[:, 0], n - 1, depth + 1, depth)
        setmask = np.concatenate(
            (
                (inside.setmask[inside.bsize != 0] << 1) | 1,
                outside.setmask[outside.asize != 0] << 1,
            )
        )
        sfm_calls = int(inside.bsize.sum(dtype=np.int64) + outside.asize.sum(dtype=np.int64))
        pairs = 2 * (n - 1) * pair_count(n - 2, depth)
    else:
        setmask = _pinned_minimizers(cells, n, depth, depth).setmask
        sfm_calls, pairs = len(setmask), pair_count(n, depth)
    # Sort and diff: the first plain np.unique call imports numpy.ma, which
    # leaves objects for the cyclic GC.
    sets = np.sort(setmask)
    sets = sets[np.diff(sets, prepend=-1) != 0]
    sets = sets[_candidate_order(sets, cells[sets], n)]
    g = [cell + base for cell in cells[sets].tolist()]
    return _Candidates(sets.tolist(), g, sfm_calls, pairs)


# The route ``_solve`` calls; a test may put another in its place.
_route = _table_route


@dataclass(frozen=True)
class EnumSolution:
    """Result of a pair-enumeration run.

    ``best is None`` means no collected candidate was feasible (a value,
    not an error).  ``candidates`` counts distinct minimal minimizers;
    ``sfm_calls`` counts pairs whose sublattice was non-empty and
    ``skipped_empty`` the rest, so the two sum to ``pair_count(n, depth)``;
    a proper ``solve_cut`` sums them over its 2(n - 1) pinned runs, which
    have ``pair_count(n - 2, depth)`` pairs each.
    ``route`` names how the pinned minimizers were computed; the only
    route is ``"table"``, the node table's bit elimination over cells
    written from the oracle's spec.

    ``candidate_masks`` holds the distinct candidates as masks over
    ``ground``, in (value, cardinality, lex) order.  ``candidate_sets``,
    the same candidates as label sets, is built when first read, so a
    run whose caller wants only ``best`` builds no other set.  Equality
    compares the masks and the ground set; neither is in the ``repr``.
    """

    best: frozenset[str] | None
    value: int | None
    depth: int
    candidates: int
    sfm_calls: int
    skipped_empty: int
    guaranteed: bool
    candidate_masks: tuple[int, ...] = field(default=(), repr=False)
    ground: GroundSet | None = field(default=None, repr=False)
    route: str = ROUTE_TABLE

    @cached_property
    def candidate_sets(self) -> tuple[frozenset[str], ...]:
        """The candidates as label sets, in ``candidate_masks`` order."""
        return tuple(self.ground.set_of(m) for m in self.candidate_masks)


def _candidate_order(cands: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The order of distinct sets by (g, lex), given each set's scaled
    value g = (n + 1) f + |S| or g less a constant.  As 0 <= |S| <= n,
    that is (f, |S|, lex) order."""
    return np.lexsort((-reversed_bits_array(cands, n), g))


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
    return _solve(oracle, ring, constraint, depth, False)


def _solve(
    oracle: SubmodularOracle,
    ring: RingFamily,
    constraint: Constraint | None,
    depth: int | None,
    proper: bool,
) -> EnumSolution:
    """One run: the candidates of ``_route`` and the first of them, in
    (value, cardinality, lex) order, that meets the constraint.  ``depth``
    defaults to the constraint's certified depth (0 without one)."""
    if depth is None:
        depth = 0 if constraint is None else default_depth(constraint)
    depth = _integer(depth, "depth")
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    masks, g, sfm_calls, pairs = _route(oracle, ring, depth, proper)
    ground = oracle.ground
    if constraint is None:
        # Unconstrained runs return the lattice minimum itself.
        at = 0 if masks else None
        guaranteed = True
    else:
        at = next((i for i, m in enumerate(masks) if constraint.mask_member(m, ground)), None)
        guaranteed = guarantees_exactness(constraint, depth)
    best = value = None
    if at is not None:
        best = ground.set_of(masks[at])
        value = (g[at] - masks[at].bit_count()) // (ground.n + 1)
    return EnumSolution(
        best=best,
        value=value,
        depth=depth,
        candidates=len(masks),
        sfm_calls=sfm_calls,
        skipped_empty=pairs - sfm_calls,
        guaranteed=guaranteed,
        candidate_masks=tuple(masks),
        ground=ground,
    )
