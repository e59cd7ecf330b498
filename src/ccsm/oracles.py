"""Submodular function specs and evaluation oracles.

A :class:`SubmodularOracle` pairs a ground set with one of the function
specs below and exposes scalar and full-table evaluation.  Values are
integers throughout; every oracle also carries ``range_bound``, an upper
bound on ``max |f|``.  Functions whose scaled values could pass
``limits._SENTINEL`` are refused with ``InputError``.

``Modular``, ``CutUndirected`` and ``CutDirected`` specs compile to one
pairwise energy f(S) = sum_i a_i x_i + sum_{j<i} b_ij x_i x_j with every
b_ij <= 0 (a modular spec is the case b = 0), the form a graph
construction for pinned minimizers reads (Kolmogorov & Zabih 2004).
The dense table is built by bit doubling: the half of the table whose
masks hold bit i is the lower half plus one cheap step (a_i plus the
modular table of row b_i for the energy, an OR for coverage), so a table
over 2**n sets costs O(2**n) numpy work however many edges or items the
spec has.  Every intermediate is at most 3 * range_bound in absolute
value, so the int64 arithmetic is exact.  The scalar ``eval_mask``
follows the spec's definition (weights, edge lists, item sets) directly
and never reads the compiled energy or the cached table, so it is the
independent check on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError
from .ground import GroundSet, iter_bits
from .limits import _SENTINEL, require_exhaustible


@dataclass(frozen=True)
class Modular:
    """f(S) = sum of per-element weights over S (f(empty) = 0)."""

    weights: Mapping[str, int]


@dataclass(frozen=True)
class CutUndirected:
    """Weight of edges crossing the (S, complement) partition."""

    edges: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class CutDirected:
    """Weight of arcs leaving S, i.e. tail in S and head outside."""

    arcs: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class Coverage:
    """Number of distinct items covered by the chosen elements."""

    covered_sets: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class ExplicitTable:
    """One integer per subset, indexed by bitmask against the ground order."""

    values: tuple[int, ...]


FunctionSpec = Modular | CutUndirected | CutDirected | Coverage | ExplicitTable


def _integer(value, what: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer, else
    ``InputError``.  Bools, floats and strings are refused rather than cast:
    ``int`` would truncate 1.9 to 1 and read ``"3"`` as 3."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_edge_list(ground: GroundSet, items, kind: str):
    out = []
    for entry in items:
        try:
            u, v, w = entry
        except (TypeError, ValueError):
            raise InputError(f"{kind} entries must be (u, v, weight) triples, got {entry!r}")
        iu, iv = ground.index(u), ground.index(v)
        if iu == iv:
            raise InputError(f"{kind} endpoints must differ, got loop at {u!r}")
        w = _integer(w, f"{kind} weight")
        if w < 0:
            raise InputError(f"{kind} weights must be nonnegative, got {w} on ({u!r}, {v!r})")
        out.append((iu, iv, w))
    return out


_WORD = (1 << 64) - 1


def _energy_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of sum a_i x_i + sum_{j<i} b_ij x_i x_j over all 2**len(a) masks.

    The upper half for bit i is the lower half plus a_i plus, where row
    b_i is non-zero, the modular table of b_i over the bits below i.  With
    b = 0 this is the plain modular table.
    """
    n = len(a)
    t = np.zeros(1 << n, dtype=np.int64)
    rows = b.any(axis=1)
    for i in range(n):
        h = 1 << i
        upper = t[h : 2 * h]
        np.add(t[:h], a[i], out=upper)
        if rows[i]:
            upper += _energy_table(b[i, :i], np.zeros((i, i), dtype=np.int64))
    return t


class SubmodularOracle:
    """Evaluator for one of the function specs, bound to a ground set.

    Instances are immutable after construction; the compiled internals and
    the cached value table may be shared freely across threads.
    """

    def __init__(self, ground: GroundSet, spec: FunctionSpec):
        self.ground = ground
        self.spec = spec
        self._table: np.ndarray | None = None
        self._compile()

    # -- construction ---------------------------------------------------

    def _compile(self) -> None:
        ground, spec = self.ground, self.spec
        n = ground.n
        if isinstance(spec, Modular):
            weights = [0] * n
            for lab, wt in spec.weights.items():
                weights[ground.index(lab)] = _integer(wt, "a modular weight")
            self._set_range_bound(sum(abs(w) for w in weights))
            self._a = np.array(weights, dtype=np.int64)
            self._b = np.zeros((n, n), dtype=np.int64)
        elif isinstance(spec, (CutUndirected, CutDirected)):
            undirected = isinstance(spec, CutUndirected)
            items = spec.edges if undirected else spec.arcs
            triples = _check_edge_list(ground, items, type(spec).__name__)
            self._set_range_bound(sum(t[2] for t in triples))
            self._eu = np.array([t[0] for t in triples], dtype=np.int64)
            self._ev = np.array([t[1] for t in triples], dtype=np.int64)
            self._ew = np.array([t[2] for t in triples], dtype=np.int64)
            # An edge uv of weight w adds w to a_u and a_v and -2w to b_uv;
            # an arc u->v adds w to a_u and -w to b_uv.
            self._a = np.zeros(n, dtype=np.int64)
            self._b = np.zeros((n, n), dtype=np.int64)
            np.add.at(self._a, self._eu, self._ew)
            if undirected:
                np.add.at(self._a, self._ev, self._ew)
            hi, lo = np.maximum(self._eu, self._ev), np.minimum(self._eu, self._ev)
            np.add.at(self._b, (hi, lo), -(1 + undirected) * self._ew)
        elif isinstance(spec, Coverage):
            for lab, its in spec.covered_sets.items():
                if isinstance(its, str):
                    raise InputError(f"the items covered by {lab!r} must be a list, got {its!r}")
            items = sorted({it for its in spec.covered_sets.values() for it in its})
            item_index = {it: j for j, it in enumerate(items)}
            covers = [0] * n
            for lab, its in spec.covered_sets.items():
                i = ground.index(lab)
                for it in its:
                    covers[i] |= 1 << item_index[it]
            self._covers = covers
            self._n_items = len(items)
            self._set_range_bound(len(items))
        elif isinstance(spec, ExplicitTable):
            # np.asarray reads (0, True) as int64, so a sequence's bools are
            # looked for value by value; an ndarray's dtype tells.
            if not isinstance(spec.values, np.ndarray) and {bool, np.bool_} & set(
                map(type, spec.values)
            ):
                raise InputError("explicit table values must be integers, got a bool")
            vals = np.asarray(spec.values)
            if vals.shape != (1 << n,):
                raise InputError(
                    f"explicit table needs exactly 2**n = {1 << n} values, got {vals.shape}"
                )
            if vals.dtype.kind not in "iu":
                raise InputError(
                    f"explicit table values must be integers that fit in int64, got {vals.dtype}"
                )
            self._set_range_bound(max(int(vals.max()), -int(vals.min())))
            self._table = vals.astype(np.int64, copy=False)
        else:
            raise InputError(f"unknown function spec {spec!r}")

    def _set_range_bound(self, bound: int) -> None:
        """Record ``bound >= max |f|``, computed on Python ints.

        The solver's scaled objective ``(n + 1) * f + |S|`` goes back to
        int64 in the node table's rows; inputs whose scaled values could
        reach ``_SENTINEL`` are refused rather than left to wrap around.
        """
        n = self.ground.n
        if (n + 2) * bound > _SENTINEL:
            raise InputError(
                f"function values up to {bound} on {n} elements are too large for exact "
                f"int64 arithmetic: (n + 2) * {bound} exceeds {_SENTINEL}"
            )
        self.range_bound = bound

    # -- evaluation -----------------------------------------------------

    def eval(self, subset: Iterable[str]) -> int:
        return self.eval_mask(self.ground.mask_of(subset))

    def eval_mask(self, mask: int) -> int:
        if mask < 0 or mask > self.ground.full_mask:
            raise InputError(f"mask {mask} out of range for n={self.ground.n}")
        spec = self.spec
        if isinstance(spec, ExplicitTable):
            return int(spec.values[mask])
        if isinstance(spec, Modular):
            ground = self.ground
            return sum(int(w) for lab, w in spec.weights.items() if (mask >> ground.index(lab)) & 1)
        if isinstance(spec, CutUndirected):
            total = 0
            for u, v, w in zip(self._eu, self._ev, self._ew):
                if ((mask >> int(u)) & 1) != ((mask >> int(v)) & 1):
                    total += int(w)
            return total
        if isinstance(spec, CutDirected):
            total = 0
            for u, v, w in zip(self._eu, self._ev, self._ew):
                if ((mask >> int(u)) & 1) and not ((mask >> int(v)) & 1):
                    total += int(w)
            return total
        if isinstance(spec, Coverage):
            covered = 0
            for i in iter_bits(mask):
                covered |= self._covers[i]
            return covered.bit_count()
        raise AssertionError(spec)

    def value_table(self) -> np.ndarray:
        """The dense table f over all 2**n subsets (cached), built by bit doubling.

        Step i writes ``t[2**i : 2**(i+1)]`` from ``t[:2**i]``: O(2**n) numpy
        work per table.  Intermediates stay within 3 * range_bound, which
        ``(n + 2) * range_bound <= _SENTINEL`` keeps exact in int64.
        """
        if self._table is None:
            require_exhaustible(self.ground.n, "materializing a value table")
            if isinstance(self.spec, Coverage):
                self._table = self._coverage_table()
            else:
                self._table = _energy_table(self._a, self._b)
        return self._table

    def _coverage_table(self) -> np.ndarray:
        """Item counts: an OR-doubled uint64 table per 64-item word, popcounted."""
        n = self.ground.n
        t = np.zeros(1 << n, dtype=np.int64)
        for shift in range(0, self._n_items, 64):
            word = np.zeros(1 << n, dtype=np.uint64)
            for i, cov in enumerate(self._covers):
                h = 1 << i
                np.bitwise_or(word[:h], np.uint64((cov >> shift) & _WORD), out=word[h : 2 * h])
            t += np.bitwise_count(word)
        return t


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of a submodularity check."""

    ok: bool
    checks: int
    witness: tuple[frozenset[str], frozenset[str]] | None = None


def check_submodular(oracle: SubmodularOracle) -> SubmodularityReport:
    """Verify f(A) + f(B) >= f(A | B) + f(A & B) exactly.

    Runs the local exchange characterization: for every set S and distinct
    e, f outside S it checks ``f(S+e) + f(S+f) >= f(S+e+f) + f(S)``, which
    is equivalent to submodularity and needs n**2 * 2**n table lookups.
    For each pair e < f the four sets are four strided views of the table.
    Bounded by the exhaustive cap.  The first violated exchange, by (e, f)
    and then by S, is reported as the witness pair (S+e, S+f).
    """
    n = oracle.ground.n
    require_exhaustible(n, "an exhaustive submodularity check")
    table = oracle.value_table()
    checks = 0
    for e in range(n):
        for f_ in range(e + 1, n):
            be, bf = 1 << e, 1 << f_
            # Axes (bits above f, bit f, bits between, bit e, bits below e).
            shape = (1 << (n - 1 - f_), 2, 1 << (f_ - e - 1), 2, 1 << e)
            v = table.reshape(shape)
            bad = v[:, 0, :, 1] + v[:, 1, :, 0] < v[:, 1, :, 1] + v[:, 0, :, 0]
            checks += bad.size
            if bad.any():
                hi, mid, lo = np.unravel_index(int(bad.argmax()), bad.shape)
                base = (int(hi) << (f_ + 1)) | (int(mid) << (e + 1)) | int(lo)
                wit = (oracle.ground.set_of(base | be), oracle.ground.set_of(base | bf))
                return SubmodularityReport(False, checks, wit)
    return SubmodularityReport(True, checks)
