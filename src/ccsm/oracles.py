"""Submodular function specs and evaluation oracles.

A :class:`SubmodularOracle` pairs a ground set with one of the function
specs below and exposes scalar and full-table evaluation.  Values are
Python integers of any size; every oracle carries ``bounds``,
lo <= f <= hi read off the spec: the sums of the negative and of the
positive weights, 0 and the total edge weight, 0 and the item count, or
an explicit table's least and greatest entry.  Only fixed-width tables
refuse, with ``InputError``, what their width cannot hold: the int64
``value_table`` |f| >= 2**62, the solver's cells
(``enumeration._scaled_cells``) a scaled range past 64 bits, and an
explicit table, stored in int64, an entry outside int64.

``Modular``, ``CutUndirected`` and ``CutDirected`` specs compile to one
pairwise energy f(S) = sum_i a_i x_i + sum_{j<i} b_ij x_i x_j with every
b_ij <= 0 (a modular spec is the case b = 0), the form a graph
construction for pinned minimizers reads (Kolmogorov & Zabih 2004).
``_a`` lists the a_i and row i of ``_b`` the b_ij for j < i.

``SubmodularOracle.cells`` writes scale * f(S) + |S| - shift mod
2**bits over all 2**n sets, in any integer dtype, by bit doubling: the
half of the table whose masks hold bit i is the lower half plus one
cheap step (a_i plus the table of row b_i for the energy, an OR for
coverage's item words), so a table costs O(2**n) numpy work however many
edges or items the spec has.  Each constant is reduced mod 2**bits in
Python before it meets an array, and the residues are exact whatever
the intermediates.  The solver's node table asks for its cells in its
own width; ``value_table`` is the cached int64 call at scale 1 with no
size term, for the exhaustive reference, the submodularity check and
the tests, and is not on the solve path.  The scalar ``eval_mask``
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
from .limits import require_exhaustible


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


def _residues(values: list[int], dtype: np.dtype) -> np.ndarray:
    """``values`` mod 2**bits in the integer ``dtype`` of at most 64 bits
    (two's complement for a signed one).  numpy 2 refuses a Python int
    outside a dtype's range, so every constant is reduced here, in Python,
    before it meets an array; the cast from uint64 keeps the low bits."""
    return np.array([v & _WORD for v in values], dtype=np.uint64).astype(dtype)


def _energy_cells(a: list[int], b: list[list[int]], shift: int, dtype: np.dtype) -> np.ndarray:
    """sum a_i x_i + sum_{j<i} b_ij x_i x_j - shift mod 2**bits, over all
    2**len(a) masks, in ``dtype``; row i of ``b`` holds b_ij for j < i.

    The upper half for bit i is the lower half plus the table of
    a_i + sum_j b_ij x_j over the bits below i, written by doubling in one
    scratch buffer; a row with no b_ij is the constant a_i.
    """
    n = len(a)
    a = _residues(a, dtype)
    t = np.empty(1 << n, dtype=dtype)
    t[0] = _residues([-shift], dtype)[0]
    scratch = np.empty(1 << max(n - 1, 0), dtype=dtype)
    for i in range(n):
        h = 1 << i
        if not any(b[i]):
            np.add(t[:h], a[i], out=t[h : 2 * h])
            continue
        row = _residues(b[i], dtype)
        scratch[0] = a[i]
        for j in range(i):
            np.add(scratch[: 1 << j], row[j], out=scratch[1 << j : 2 << j])
        np.add(t[:h], scratch[:h], out=t[h : 2 * h])
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
            self.bounds = (sum(w for w in weights if w < 0), sum(w for w in weights if w > 0))
            self._a = weights
            self._b = [[0] * i for i in range(n)]
        elif isinstance(spec, (CutUndirected, CutDirected)):
            undirected = isinstance(spec, CutUndirected)
            items = spec.edges if undirected else spec.arcs
            self._edges = _check_edge_list(ground, items, type(spec).__name__)
            self.bounds = (0, sum(w for _, _, w in self._edges))
            # An edge uv of weight w adds w to a_u and a_v and -2w to b_uv;
            # an arc u->v adds w to a_u and -w to b_uv.
            self._a = [0] * n
            self._b = [[0] * i for i in range(n)]
            for u, v, w in self._edges:
                self._a[u] += w
                if undirected:
                    self._a[v] += w
                self._b[max(u, v)][min(u, v)] -= (1 + undirected) * w
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
            self.bounds = (0, len(items))
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
            # Stored in int64, where a uint64 entry of 2**63 or more would wrap.
            if vals.dtype.kind not in "iu" or int(vals.max()) >= 1 << 63:
                raise InputError(
                    f"explicit table values must be integers that fit in int64, got {vals.dtype}"
                )
            self.bounds = (int(vals.min()), int(vals.max()))
            self._values = vals.astype(np.int64, copy=False)
        else:
            raise InputError(f"unknown function spec {spec!r}")

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
            return sum(w for u, v, w in self._edges if ((mask >> u) ^ (mask >> v)) & 1)
        if isinstance(spec, CutDirected):
            return sum(w for u, v, w in self._edges if (mask >> u) & 1 and not (mask >> v) & 1)
        if isinstance(spec, Coverage):
            covered = 0
            for i in iter_bits(mask):
                covered |= self._covers[i]
            return covered.bit_count()
        raise AssertionError(spec)

    def value_table(self) -> np.ndarray:
        """The dense int64 table f over all 2**n subsets (cached): ``cells``
        at scale 1, with no size term and no shift.  The solver does not
        read it; its node table asks ``cells`` for its own width.
        ``InputError`` unless |f| < 2**62 by the bounds, so that the sum of
        two entries in ``check_submodular`` is exact."""
        if self._table is None:
            lo, hi = self.bounds
            if max(hi, -lo) >= 1 << 62:
                raise InputError(
                    f"function values in [{lo}, {hi}] do not fit the int64 value table, "
                    "which holds |f| < 2**62"
                )
            self._table = self.cells(np.int64)
        return self._table

    def cells(
        self, dtype, *, scale: int = 1, sizes: bool = False, shift: int = 0
    ) -> np.ndarray:
        """scale * f(S) + |S| - shift (or, without ``sizes``, scale * f(S) -
        shift) mod 2**bits over all 2**n masks S, in the integer ``dtype``
        of ``bits`` bits, built by bit doubling: O(2**n) numpy work however
        many edges or items the spec has.

        Integers mod 2**bits form a ring, so every entry is the residue of
        its value whatever the intermediates were, and is the value itself
        when that lies in the dtype's range.  The energy folds the size
        term into its linear part, a' = scale * a + 1 and b' = scale * b.
        Coverage and explicit tables start from the size term and the
        shift alone (a' = 1, b' = 0); coverage adds scale times the
        popcount of its OR-doubled item words, an explicit table scale
        times its values.
        """
        require_exhaustible(self.ground.n, "materializing a value table")
        dtype = np.dtype(dtype)
        spec, n, size = self.spec, self.ground.n, int(sizes)
        if isinstance(spec, (Modular, CutUndirected, CutDirected)):
            a = [scale * w + size for w in self._a]
            b = [[scale * w for w in row] for row in self._b]
            return _energy_cells(a, b, shift, dtype)
        t = _energy_cells([size] * n, [[]] * n, shift, dtype)
        factor = _residues([scale], dtype)[0]
        if isinstance(spec, ExplicitTable):
            values = self._values.astype(dtype)
            values *= factor
            t += values
            return t
        for at in range(0, self._n_items, 64):
            word = np.zeros(1 << n, dtype=np.uint64)
            for i, cov in enumerate(self._covers):
                h = 1 << i
                np.bitwise_or(word[:h], np.uint64((cov >> at) & _WORD), out=word[h : 2 * h])
            counts = np.bitwise_count(word)
            del word
            t += counts if scale == 1 else np.multiply(counts, factor, dtype=dtype)
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
