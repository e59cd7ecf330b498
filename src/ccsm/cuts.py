"""Minimum cuts under congruency side constraints.

A cut problem selects a vertex set S and pays the weight of edges crossing
the boundary (undirected) or leaving S (directed).  The ``mode`` fixes
which S are feasible: a congruence on |S|, or even/odd intersections with
given terminal sets.  With ``proper`` set, the trivial cuts (empty set and
all vertices) are excluded by taking the best over all pinned runs that
force one vertex inside and another outside; each pinned run is an
ordinary lattice restriction, so exactness guarantees carry over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (
    CongruencyConstraint,
    GeneralizedConstraint,
    default_depth,
    guarantees_exactness,
)
from .enumeration import (
    ROUTE_PER_PAIR,
    EnumSolution,
    _compile_member,
    _node_table,
    _ordered_candidates,
    enum_solve,
    pair_count,
)
from .errors import InputError
from .ground import GroundSet, popcount_array, reversed_bits_array
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

    The proper variant shares one pair table across all pinned runs: the
    pinned pair (A, B) of a run equals the unpinned pair (A + u, B + v),
    so one table at depth + 1 answers every run.  Aggregated counters sum
    over runs, hence ``sfm_calls + skipped_empty`` equals
    ``n * (n - 1) * pair_count(n, depth)`` there, and plain
    ``pair_count(n, depth)`` otherwise.
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
    guaranteed = guarantees_exactness(constraint, depth)
    if n < 2:
        # No proper cut exists; a table this small would take the per-pair route.
        return EnumSolution(
            best=None,
            value=None,
            depth=depth,
            candidates=0,
            sfm_calls=0,
            skipped_empty=0,
            guaranteed=guaranteed,
            route=ROUTE_PER_PAIR,
        )
    table = _node_table(oracle, ring, depth + 1)
    feasible = _compile_member(constraint, ground)
    # Order nodes by their collected set's (value, cardinality, lex) key so
    # every run's winner is its first acceptable node in this order.
    sets = table.setmask
    key = np.lexsort(
        (
            -reversed_bits_array(sets, n),
            popcount_array(sets),
            table.values[sets],
        )
    )
    amask = table.amask[key]
    bmask = table.bmask[key]
    sets = sets[key]
    nonempty = table.nonempty[key]
    feas_set = np.array([feasible(int(m)) for m in sets], dtype=bool)
    acceptable = nonempty & feas_set
    pinned = (amask != 0) & (bmask != 0) & nonempty
    cand_masks = np.unique(sets[pinned])
    per_run_pairs = pair_count(n, depth)
    total_calls = 0
    total_skipped = 0
    best_pos = len(sets)
    for u in range(n):
        ua = ((amask >> u) & 1) == 1
        for v in range(n):
            if u == v:
                continue
            run = ua & (((bmask >> v) & 1) == 1)
            run_calls = int((run & nonempty).sum())
            total_calls += run_calls
            total_skipped += per_run_pairs - run_calls
            hit = run & acceptable
            pos = int(np.argmax(hit))
            if hit[pos] and pos < best_pos:
                best_pos = pos
    if best_pos == len(sets):
        best_mask = None
        value = None
    else:
        best_mask = int(sets[best_pos])
        value = int(table.values[best_mask])
    ordered_cands = _ordered_candidates(cand_masks, table.values, n)
    return EnumSolution(
        best=None if best_mask is None else ground.set_of(best_mask),
        value=value,
        depth=depth,
        candidates=len(cand_masks),
        sfm_calls=total_calls,
        skipped_empty=total_skipped,
        guaranteed=guaranteed,
        candidate_sets=tuple(ground.set_of(int(m)) for m in ordered_cands),
        route=table.route,
    )

