"""The route seam: ``enum_solve`` and ``solve_cut`` read nothing from a
route but its ordered candidates, their g and the pair counters.

A route written here by brute force, swapped in for the table route,
must give equal solutions; a stub route past the exhaustive cap must
pass through untouched, since the cap belongs to the table route alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from ccsm import enumeration
from ccsm.constraints import CongruencyConstraint
from ccsm.cuts import CutProblem, TSetEven, TSetOdd, solve_cut
from ccsm.enumeration import enum_solve
from ccsm.errors import UnsupportedSizeError
from ccsm.families import FAMILY_NAMES, random_generalized_instance, random_instance
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import CutUndirected, SubmodularOracle


def _pairs(elements, d):
    """Disjoint pairs (A, B) of sets of ``elements``, |A|, |B| <= d."""
    for i in range(min(len(elements), d) + 1):
        for a in combinations(elements, i):
            rest = [e for e in elements if e not in a]
            for j in range(min(len(rest), d) + 1):
                for b in combinations(rest, j):
                    yield a, b


def _brute_route(oracle, ring, depth, proper):
    """The route by a masked minimum per pair over ``value_table()`` and
    ``feasibility_table()``.  With ``proper``, the 2(n - 1) runs (0 in,
    v out) and (v in, 0 out) each take the pairs of the other elements.
    Every pair whose interval holds a member counts one minimization,
    and the pair total counts every pair of every run."""
    n = oracle.ground.n
    assert n <= 9
    f = oracle.value_table().tolist()
    members = np.flatnonzero(ring.feasibility_table()).tolist()
    scaled = sorted(((n + 1) * f[s] + s.bit_count(), s) for s in members)

    def pinned_min(inside, outside):
        hits = [(g, s) for g, s in scaled if s & inside == inside and not s & outside]
        if hits:
            assert len(hits) == 1 or hits[0][0] < hits[1][0]
            return hits[0]
        return None

    runs = [run for v in range(1, n) for run in ((0, v), (v, 0))] if proper else [None]
    found = {}
    sfm_calls = pairs = 0
    for run in runs:
        rest = [i for i in range(n) if run is None or i not in run]
        for a, b in _pairs(rest, depth):
            pairs += 1
            inside = sum(1 << i for i in a) | (0 if run is None else 1 << run[0])
            outside = sum(1 << i for i in b) | (0 if run is None else 1 << run[1])
            hit = pinned_min(inside, outside)
            if hit is not None:
                sfm_calls += 1
                found[hit[1]] = hit[0]
    order = sorted(found, key=lambda s: (found[s], [i for i in range(n) if s >> i & 1]))
    return order, [found[s] for s in order], sfm_calls, pairs


def _with_route(monkeypatch, route, solve):
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_route", route)
        return solve()


def _library_runs():
    rng = np.random.default_rng(330)
    for t in range(60):
        family = FAMILY_NAMES[t % len(FAMILY_NAMES)]
        n = int(rng.integers(0, 10))
        if t % 2 and n:
            inst = random_generalized_instance(rng, family, n, 2, int(rng.integers(1, 3)), 0.8)
        else:
            inst = random_instance(rng, family, n, int(rng.integers(1, 5)), 0.8)
        yield lambda i=inst: enum_solve(i.oracle, i.ring, i.constraint)
        yield lambda i=inst: enum_solve(i.oracle, i.ring)
        depth = int(rng.integers(0, 3))
        yield lambda i=inst, d=depth: enum_solve(i.oracle, i.ring, i.constraint, d)


def _cut_runs():
    rng = np.random.default_rng(331)
    for t in range(24):
        n = int(rng.integers(2, 9))
        labels = tuple(f"v{i}" for i in range(n))
        edges = tuple(
            (labels[i], labels[j], int(rng.integers(0, 6)))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.5 and (i < j or t % 2)
        )
        tsets = (frozenset(labels[: int(rng.integers(1, n + 1))]),)
        mode = (CongruencyConstraint(3, int(rng.integers(0, 3))), TSetEven(tsets), TSetOdd(tsets))[
            t % 3
        ]
        for proper in (False, True):
            problem = CutProblem(labels, edges, bool(t % 2), mode, proper)
            yield lambda p=problem: solve_cut(p)


@pytest.mark.parametrize("runs", [_library_runs, _cut_runs], ids=["enum_solve", "solve_cut"])
def test_a_brute_force_route_gives_the_table_routes_solutions(monkeypatch, runs):
    """Seeded congruency, generalized, unconstrained and shallow runs on
    restricted rings, and proper and plain cuts: the solutions, which
    compare every field (``candidate_masks``, ``sfm_calls`` and
    ``skipped_empty`` included), are equal under both routes."""
    seen = 0
    for solve in runs():
        table = solve()
        brute = _with_route(monkeypatch, _brute_route, solve)
        assert brute == table
        assert brute.candidate_masks == table.candidate_masks
        assert (brute.sfm_calls, brute.skipped_empty) == (table.sfm_calls, table.skipped_empty)
        seen += table.best is not None
    assert seen > 10


def test_the_size_cap_lives_in_the_table_route(monkeypatch):
    """On 70 elements a stub route's candidates, one of them 1 << 69,
    reach the solution as they are, through ``enum_solve`` and a proper
    ``solve_cut``; without the stub both refuse n = 70 at the cap 24."""
    n = 70
    labels = tuple(f"v{i}" for i in range(n))
    ground = GroundSet(labels)
    edges = ((labels[0], labels[69], 3),)
    oracle = SubmodularOracle(ground, CutUndirected(edges))
    top = 1 << 69
    # {v0, v69}, {v69} and {v0, v1, v2} cut 0, 3 and 3, so g = 71 f + |S|
    # orders them so; the first has even size.
    masks, g = [top | 1, top, 0b111], [2, 214, 216]
    calls = []

    def stub(oracle, ring, depth, proper):
        calls.append((depth, proper))
        return masks, g, 5, 9

    constraint = CongruencyConstraint(2, 1)
    problem = CutProblem(labels, edges, False, constraint, proper=True)
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_route", stub)
        sol = enum_solve(oracle, RingFamily.full(ground), constraint)
        cut = solve_cut(problem)
    assert calls == [(1, False), (1, True)]
    for got in (sol, cut):
        assert got.best == frozenset({"v69"})
        assert got.value == 3
        assert got.candidate_masks == (top | 1, top, 0b111)
        assert all(type(m) is int for m in got.candidate_masks)
        assert (got.candidates, got.sfm_calls, got.skipped_empty) == (3, 5, 4)
    with pytest.raises(UnsupportedSizeError, match="cap 24"):
        enum_solve(oracle, RingFamily.full(ground), constraint)
    with pytest.raises(UnsupportedSizeError, match="cap 24"):
        solve_cut(problem)
