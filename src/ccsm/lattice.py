"""Ring families encoded by forced elements plus implication arcs.

A ring family (a lattice of sets closed under union and intersection) is
represented by a set of forced-in elements, a set of forced-out elements,
and implication arcs ``u -> v`` meaning "whenever u is chosen, v must be".
``S`` is a member iff it contains every forced-in element, avoids every
forced-out element, and violates no arc.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InputError
from .ground import GroundSet, iter_bits, popcount_array, reversed_bits_array
from .limits import require_exhaustible
from .oracles import _integer


class RingFamily:
    """Lattice of subsets closed under union and intersection.

    Treat instances as immutable.
    """

    def __init__(
        self,
        ground: GroundSet,
        forced_in: int = 0,
        forced_out: int = 0,
        implications: Iterable[tuple[int, int]] = (),
    ):
        full = ground.full_mask
        forced_in = _integer(forced_in, "a forced-in mask")
        forced_out = _integer(forced_out, "a forced-out mask")
        if forced_in < 0 or forced_in > full or forced_out < 0 or forced_out > full:
            raise InputError("forced masks out of range for the ground set")
        if forced_in & forced_out:
            bad = ground.labels_of(forced_in & forced_out)
            raise InputError(f"elements forced both in and out: {bad}")
        arcs = set()
        n = ground.n
        for u, v in implications:
            u, v = _integer(u, "an implication endpoint"), _integer(v, "an implication endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"implication ({u}, {v}) out of range for n={n}")
            if u != v:
                arcs.add((u, v))
        self.ground = ground
        self.forced_in = forced_in
        self.forced_out = forced_out
        self.implications: tuple[tuple[int, int], ...] = tuple(sorted(arcs))
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.implications:
            succ[u].append(v)
        self._succ = succ

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, ground: GroundSet) -> "RingFamily":
        """The unconstrained lattice 2**N."""
        return cls(ground)

    @classmethod
    def from_labels(
        cls,
        ground: GroundSet,
        forced_in: Iterable[str] = (),
        forced_out: Iterable[str] = (),
        implications: Iterable[tuple[str, str]] = (),
    ) -> "RingFamily":
        arcs = [(ground.index(u), ground.index(v)) for u, v in implications]
        return cls(ground, ground.mask_of(forced_in), ground.mask_of(forced_out), arcs)

    # -- basic queries --------------------------------------------------

    @property
    def free_mask(self) -> int:
        return self.ground.full_mask & ~(self.forced_in | self.forced_out)

    @property
    def is_empty(self) -> bool:
        """True when no subset satisfies all three kinds of constraint."""
        return bool(self.closure_mask(self.forced_in) & self.forced_out)

    def closure_mask(self, mask: int) -> int:
        """Smallest superset of ``mask | forced_in`` closed under the arcs."""
        out = mask | self.forced_in
        stack = list(iter_bits(out))
        while stack:
            u = stack.pop()
            for v in self._succ[u]:
                bit = 1 << v
                if not out & bit:
                    out |= bit
                    stack.append(v)
        return out

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        return self.ground.set_of(self.closure_mask(self.ground.mask_of(subset)))

    def member_mask(self, mask: int) -> bool:
        if mask & self.forced_in != self.forced_in:
            return False
        if mask & self.forced_out:
            return False
        for u, v in self.implications:
            if (mask >> u) & 1 and not (mask >> v) & 1:
                return False
        return True

    def member(self, subset: Iterable[str]) -> bool:
        return self.member_mask(self.ground.mask_of(subset))

    # -- dense views ----------------------------------------------------

    def feasibility_table(self) -> np.ndarray:
        """Boolean table over all 2**n masks marking members of the family."""
        require_exhaustible(self.ground.n, "materializing a lattice feasibility table")
        ok = np.ones(1 << self.ground.n, dtype=bool)
        self.mark_non_members(ok, False)
        return ok

    def mark_non_members(self, table: np.ndarray, value) -> None:
        """Write ``value`` at every non-member mask of the 2**n ``table``.

        Each forced element and each arc rules out one sub-cube of the
        table, written as a strided view with its one or two bits fixed.
        """
        n = self.ground.n
        cube = table.reshape((2,) * n)

        def rule_out(*fixed: tuple[int, int]) -> None:
            view = [slice(None)] * n
            for i, bit in fixed:
                view[n - 1 - i] = bit  # axis k of the cube is element n - 1 - k
            cube[tuple(view)] = value

        for i in iter_bits(self.forced_in):
            rule_out((i, 0))
        for i in iter_bits(self.forced_out):
            rule_out((i, 1))
        for u, v in self.implications:
            rule_out((u, 1), (v, 0))

    def members(self) -> list[frozenset[str]]:
        """All members in (cardinality, lexicographic) order; exhaustive sizes only."""
        table = self.feasibility_table()
        masks = np.nonzero(table)[0].astype(np.int64)
        order = np.lexsort((-reversed_bits_array(masks, self.ground.n), popcount_array(masks)))
        return [self.ground.set_of(int(masks[i])) for i in order]

    def __repr__(self) -> str:
        return (
            f"RingFamily(in={self.ground.labels_of(self.forced_in)}, "
            f"out={self.ground.labels_of(self.forced_out)}, "
            f"arcs={len(self.implications)})"
        )
