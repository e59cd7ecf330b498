"""Minimum cuts under congruency side constraints.

A cut problem selects a vertex set S and pays the weight of edges crossing
the boundary (undirected) or leaving S (directed).  The ``mode`` fixes
which S are feasible: a congruence on |S|, or even/odd intersections with
given terminal sets.  With ``proper`` set, the trivial cuts (empty set and
all vertices) are excluded by taking the best over all pinned runs that
force one vertex inside and another outside; each pinned run is an
ordinary lattice restriction, so exactness guarantees carry over.  The
runs are not solved one by one: the enumeration's route answers them
together, and computes their counters (``enumeration._table_route``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import CongruencyConstraint, GeneralizedConstraint
from .enumeration import EnumSolution, _solve
from .errors import InputError
from .ground import GroundSet, label_set
from .instances import json_edges
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
    """Parse the on-disk graph form {"vertices", "edges", "directed"}:
    a list of labels, [u, v, w] edges with JSON integer weights, and an
    optional JSON boolean (default false)."""
    if not isinstance(payload, dict):
        raise InputError("graph payload must be an object")
    extra = set(payload) - {"vertices", "edges", "directed"}
    if extra:
        raise InputError(f"unknown graph keys {sorted(extra)}")
    try:
        vertices = payload["vertices"]
        edges = json_edges(payload["edges"], "an edge")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph payload: {exc}") from None
    if not isinstance(vertices, list):
        raise InputError(f'"vertices" must be a list, got {vertices!r}')
    directed = payload.get("directed", False)
    if not isinstance(directed, bool):
        raise InputError(f'"directed" must be true or false, got {directed!r}')
    return tuple(vertices), edges, directed


def _mode_constraint(mode: CutMode):
    if isinstance(mode, CongruencyConstraint):
        return mode
    if isinstance(mode, (TSetEven, TSetOdd)):
        odd = int(isinstance(mode, TSetOdd))
        if not mode.tsets:
            raise InputError(f"tset_{('even', 'odd')[odd]} mode needs at least one terminal set")
        terms = tuple((label_set(t, "a terminal set"), odd) for t in mode.tsets)
        return GeneralizedConstraint(2, terms)
    raise InputError(f"unknown cut mode {mode!r}")


def solve_cut(problem: CutProblem, depth: int | None = None) -> EnumSolution:
    """Solve the constrained cut problem exactly for prime-power moduli.

    The proper variant takes the best feasible set over all n(n - 1)
    pinned runs (u inside, v outside), which the enumeration's route
    answers from one pair table at depth + 1; it also sums the runs'
    counters, so ``sfm_calls`` and ``skipped_empty`` add up to
    ``n * (n - 1) * pair_count(n, depth)``, though a run has only the
    ``pair_count(n - 2, depth)`` pairs of the other vertices: the excess
    counts as empty (README, ``--proper``).  Otherwise the counters are
    those of one ``enum_solve`` run, which sum to ``pair_count(n, depth)``.
    """
    ground = GroundSet(problem.vertices)
    spec = CutDirected(problem.edges) if problem.directed else CutUndirected(problem.edges)
    oracle = SubmodularOracle(ground, spec)
    constraint = _mode_constraint(problem.mode)
    return _solve(oracle, RingFamily.full(ground), constraint, depth, problem.proper)
