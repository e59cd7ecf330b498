"""Minimum cuts under congruency side constraints.

A cut problem selects a vertex set S and pays the weight of edges crossing
the boundary (undirected) or leaving S (directed).  The ``mode`` fixes
which S are feasible: a congruence on |S|, or even/odd intersections with
given terminal sets.  With ``proper`` set, the trivial cuts (empty set and
all vertices) are excluded by taking the best over all pinned runs that
force one vertex inside and another outside; each pinned run is an
ordinary lattice restriction, so exactness guarantees carry over.  The
runs are not solved one by one: together they read the pairs of one
depth + 1 table whose sides are both non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import CongruencyConstraint, GeneralizedConstraint, default_depth
from .enumeration import EnumSolution, _node_table, _select, enum_solve, pair_count
from .errors import InputError
from .ground import GroundSet, popcount_array
from .lattice import RingFamily
from .oracles import CutDirected, CutUndirected, SubmodularOracle


@dataclass(frozen=True)
class TSetEven:
    """Feasible iff every terminal set meets S in an even number of vertices."""

    tsets: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class TSetOdd:
    """Feasible iff every terminal set meets S in an odd number of vertices."""

    tsets: tuple[frozenset[str], ...]


CutMode = CongruencyConstraint | TSetEven | TSetOdd


@dataclass(frozen=True)
class CutProblem:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    directed: bool
    mode: CutMode
    proper: bool = False


def load_graph(payload: dict) -> tuple[tuple[str, ...], tuple[tuple[str, str, int], ...], bool]:
    """Parse the on-disk graph form {"vertices", "edges", "directed"}."""
    if not isinstance(payload, dict):
        raise InputError("graph payload must be an object")
    extra = set(payload) - {"vertices", "edges", "directed"}
    if extra:
        raise InputError(f"unknown graph keys {sorted(extra)}")
    try:
        vertices = tuple(payload["vertices"])
        edges = tuple((str(u), str(v), int(w)) for u, v, w in payload["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph payload: {exc}") from None
    return vertices, edges, bool(payload.get("directed", False))


def _mode_constraint(mode: CutMode):
    if isinstance(mode, CongruencyConstraint):
        return mode
    if isinstance(mode, TSetEven):
        if not mode.tsets:
            raise InputError("tset_even mode needs at least one terminal set")
        return GeneralizedConstraint(2, tuple((frozenset(t), 0) for t in mode.tsets))
    if isinstance(mode, TSetOdd):
        if not mode.tsets:
            raise InputError("tset_odd mode needs at least one terminal set")
        return GeneralizedConstraint(2, tuple((frozenset(t), 1) for t in mode.tsets))
    raise InputError(f"unknown cut mode {mode!r}")


def solve_cut(problem: CutProblem, depth: int | None = None) -> EnumSolution:
    """Solve the constrained cut problem exactly for prime-power moduli.

    The proper variant answers all n(n - 1) pinned runs (u inside, v
    outside) from one pair table at depth + 1: the pinned pair (A, B) of
    run (u, v) is the unpinned pair (A + u, B + v), so the runs together
    cover exactly the table pairs whose sides are both non-empty, and
    their best answer is the best feasible set collected there.  The
    counters add up the runs: a non-empty table pair (A, B) is used by
    |A| * |B| runs, so ``sfm_calls`` is the sum of |A| * |B| over the
    non-empty pairs and ``skipped_empty`` is
    ``n * (n - 1) * pair_count(n, depth) - sfm_calls``.  Otherwise the
    counters are those of one ``enum_solve`` run, which sum to
    ``pair_count(n, depth)``.
    """
    ground = GroundSet(problem.vertices)
    spec = CutDirected(problem.edges) if problem.directed else CutUndirected(problem.edges)
    oracle = SubmodularOracle(ground, spec)
    constraint = _mode_constraint(problem.mode)
    if depth is None:
        depth = default_depth(constraint)
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    ring = RingFamily.full(ground)
    if not problem.proper:
        return enum_solve(oracle, ring, constraint, depth)

    n = ground.n
    table = _node_table(oracle, ring, depth + 1)
    runs = popcount_array(table.amask) * popcount_array(table.bmask)
    sfm_calls = int(runs[table.nonempty].sum())
    keep = table.nonempty & (runs != 0)
    pairs = n * (n - 1) * pair_count(n, depth)
    return _select(ground, table, keep, constraint, depth, sfm_calls, pairs)
