"""Submodular function specs and evaluation oracles.

A :class:`SubmodularOracle` pairs a ground set with one of the function
specs below and exposes scalar, vectorized, and full-table evaluation.
Values are integers throughout; every oracle also carries ``range_bound``,
an upper bound on ``max |f|``.  Functions whose values could push the
solver's scaled int64 tables past ``limits._SENTINEL`` are refused with
``InputError``.
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


@dataclass(frozen=True)
class _Projected:
    """Internal: f'(S) = base(S restricted to selected bit positions)."""

    base: "SubmodularOracle"
    source_bits: tuple[int, ...]


FunctionSpec = Modular | CutUndirected | CutDirected | Coverage | ExplicitTable | _Projected


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
        w = int(w)
        if w < 0:
            raise InputError(f"{kind} weights must be nonnegative, got {w} on ({u!r}, {v!r})")
        out.append((iu, iv, w))
    return out


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
                weights[ground.index(lab)] = int(wt)
            self._set_range_bound(sum(abs(w) for w in weights))
            self._weights = np.array(weights, dtype=np.int64)
        elif isinstance(spec, (CutUndirected, CutDirected)):
            items = spec.edges if isinstance(spec, CutUndirected) else spec.arcs
            triples = _check_edge_list(ground, items, type(spec).__name__)
            self._set_range_bound(sum(t[2] for t in triples))
            self._eu = np.array([t[0] for t in triples], dtype=np.int64)
            self._ev = np.array([t[1] for t in triples], dtype=np.int64)
            self._ew = np.array([t[2] for t in triples], dtype=np.int64)
        elif isinstance(spec, Coverage):
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
            try:
                vals = np.asarray(spec.values, dtype=np.int64)
            except OverflowError:
                raise InputError("explicit table values must fit in int64") from None
            if vals.shape != (1 << n,):
                raise InputError(
                    f"explicit table needs exactly 2**n = {1 << n} values, got {vals.shape}"
                )
            self._set_range_bound(max(int(vals.max()), -int(vals.min())))
            self._table = vals
        elif isinstance(spec, _Projected):
            self._set_range_bound(spec.base.range_bound)
        else:
            raise InputError(f"unknown function spec {spec!r}")

    def _set_range_bound(self, bound: int) -> None:
        """Record ``bound >= max |f|``, computed on Python ints.

        The solver's scaled objective ``(n + 1) * f + |S|`` lives in int64
        next to ``_SENTINEL``; inputs that could reach it are refused rather
        than left to wrap around.
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
        if self._table is not None:
            return int(self._table[mask])
        if isinstance(spec, Modular):
            return int(sum(int(self._weights[i]) for i in iter_bits(mask)))
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
        if isinstance(spec, _Projected):
            base_mask = 0
            for j, b in enumerate(spec.source_bits):
                base_mask |= ((mask >> b) & 1) << j
            return spec.base.eval_mask(base_mask)
        raise AssertionError(spec)

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an int64 array of masks."""
        masks = np.asarray(masks, dtype=np.int64)
        spec = self.spec
        if self._table is not None:
            return self._table[masks]
        if isinstance(spec, Modular):
            out = np.zeros(len(masks), dtype=np.int64)
            for i in range(self.ground.n):
                wi = int(self._weights[i])
                if wi:
                    out += ((masks >> i) & 1) * wi
            return out
        if isinstance(spec, CutUndirected):
            out = np.zeros(len(masks), dtype=np.int64)
            for u, v, w in zip(self._eu, self._ev, self._ew):
                out += (((masks >> int(u)) ^ (masks >> int(v))) & 1) * int(w)
            return out
        if isinstance(spec, CutDirected):
            out = np.zeros(len(masks), dtype=np.int64)
            for u, v, w in zip(self._eu, self._ev, self._ew):
                out += ((masks >> int(u)) & ~(masks >> int(v)) & 1) * int(w)
            return out
        if isinstance(spec, Coverage):
            if self._n_items <= 64:
                acc = np.zeros(len(masks), dtype=np.uint64)
                for i in range(self.ground.n):
                    cov = np.uint64(self._covers[i])
                    acc |= np.where((masks >> i) & 1 == 1, cov, np.uint64(0))
                return np.bitwise_count(acc).astype(np.int64)
            return np.array([self.eval_mask(int(m)) for m in masks], dtype=np.int64)
        if isinstance(spec, _Projected):
            base_masks = np.zeros(len(masks), dtype=np.int64)
            for j, b in enumerate(spec.source_bits):
                base_masks |= ((masks >> b) & 1) << j
            return spec.base.eval_masks(base_masks)
        raise AssertionError(spec)

    def value_table(self) -> np.ndarray:
        """The dense table f over all 2**n subsets (cached)."""
        if self._table is None:
            n = self.ground.n
            require_exhaustible(n, "materializing a value table")
            masks = np.arange(1 << n, dtype=np.int64)
            self._table = self.eval_masks(masks)
        return self._table


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of a submodularity check."""

    ok: bool
    mode: str
    checks: int
    witness: tuple[frozenset[str], frozenset[str]] | None = None


def check_submodular(
    oracle: SubmodularOracle, mode: str = "exhaustive", trials: int = 1000, seed: int = 0
) -> SubmodularityReport:
    """Verify f(A) + f(B) >= f(A | B) + f(A & B), exactly or by sampling.

    The exhaustive mode runs the local exchange characterization: for every
    set S and distinct e, f outside S it checks
    ``f(S+e) + f(S+f) >= f(S+e+f) + f(S)``, which is equivalent to
    submodularity and needs n**2 * 2**n table lookups.  Requires n <= 16.
    The first violated exchange is reported as the witness pair
    (S+e, S+f).
    """
    n = oracle.ground.n
    if mode == "exhaustive":
        if n > 16:
            raise InputError(f"exhaustive submodularity check requires n <= 16, got {n}")
        table = oracle.value_table()
        masks = np.arange(1 << n, dtype=np.int64)
        checks = 0
        for e in range(n):
            for f_ in range(e + 1, n):
                be, bf = 1 << e, 1 << f_
                s = masks[(masks & (be | bf)) == 0]
                checks += len(s)
                lhs = table[s | be] + table[s | bf]
                rhs = table[s | be | bf] + table[s]
                bad = np.nonzero(lhs < rhs)[0]
                if len(bad):
                    base = int(s[bad[0]])
                    wit = (
                        oracle.ground.set_of(base | be),
                        oracle.ground.set_of(base | bf),
                    )
                    return SubmodularityReport(False, mode, checks, wit)
        return SubmodularityReport(True, mode, checks)
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        full = oracle.ground.full_mask
        for t in range(trials):
            a = int(rng.integers(0, full + 1))
            b = int(rng.integers(0, full + 1))
            fa, fb = oracle.eval_mask(a), oracle.eval_mask(b)
            fu, fi = oracle.eval_mask(a | b), oracle.eval_mask(a & b)
            if fa + fb < fu + fi:
                return SubmodularityReport(
                    False, mode, t + 1, (oracle.ground.set_of(a), oracle.ground.set_of(b))
                )
        return SubmodularityReport(True, mode, trials)
    raise InputError(f"unknown submodularity check mode {mode!r}")
