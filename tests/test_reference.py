"""Exhaustive reference solver: optimum and all minimal optima."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from ccsm.constraints import CongruencyConstraint
from ccsm.errors import UnsupportedSizeError
from ccsm.families import random_generalized_instance, random_instance, tight_depth_instance
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import Modular, SubmodularOracle, check_submodular
from ccsm.reference import exhaustive_solve
from helpers import brute_constrained_min, inclusion_minimal, naive_ring_member


def test_depth_family_m3_has_ten_minimal_optima():
    instance = tight_depth_instance(3)
    result = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
    assert result.optimum == -1
    assert result.evals == 1 << 6
    assert len(result.all_minimal_optima) == 10
    for s in result.all_minimal_optima:
        assert "0" in s and len(s) == 3


def test_unconstrained_modular():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({"a": -2, "b": 1}))
    result = exhaustive_solve(oracle)
    assert result.optimum == -2
    assert result.all_minimal_optima == (frozenset({"a"}),)
    assert not result.infeasible


def test_infeasible_combination_returns_none():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({}))
    # Ring {empty set} plus |S| odd has no feasible member.
    ring = RingFamily(g, 0, g.full_mask)
    result = exhaustive_solve(oracle, ring, CongruencyConstraint(2, 1))
    assert result.infeasible
    assert result.optimum is None
    assert result.all_minimal_optima == ()


def test_zero_function_ties_every_feasible_set():
    # f = 0 makes every feasible set optimal; the minimal ones are exactly
    # the r-sets, reported in (cardinality, lex) order.
    for n in range(7):
        g = GroundSet(tuple(f"v{i}" for i in range(n)))
        oracle = SubmodularOracle(g, Modular({}))
        for m in range(1, 5):
            for r in range(m):
                result = exhaustive_solve(oracle, None, CongruencyConstraint(m, r))
                if r > n:
                    assert result.infeasible and result.all_minimal_optima == ()
                    continue
                assert result.optimum == 0
                assert result.all_minimal_optima == tuple(
                    frozenset(c) for c in combinations(g.elements, r)
                )


def test_size_cap_is_enforced():
    # 25 elements is one past the cap: refused before any 2**25 table exists.
    g = GroundSet(tuple(f"v{i}" for i in range(25)))
    oracle = SubmodularOracle(g, Modular({}))
    with pytest.raises(UnsupportedSizeError, match="exceeds the cap 24"):
        exhaustive_solve(oracle)
    with pytest.raises(UnsupportedSizeError, match="exceeds the cap 24"):
        check_submodular(oracle)


def _minimal_optima_brute(instance):
    g = instance.ground
    ring = instance.ring
    fin = g.labels_of(ring.forced_in)
    fout = g.labels_of(ring.forced_out)
    arcs = [(g.elements[u], g.elements[v]) for u, v in ring.implications]
    constraint = instance.constraint

    def member(s):
        if not naive_ring_member(s, fin, fout, arcs):
            return False
        return constraint is None or constraint.member(s)

    best, optima = brute_constrained_min(g.elements, instance.oracle.eval, member)
    return best, inclusion_minimal(optima)


def test_minimal_optima_match_a_naive_filter():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        family = ("modular", "cut", "coverage", "table")[int(rng.integers(0, 4))]
        instance = random_instance(rng, family, n, m)
        want_best, want_minimal = _minimal_optima_brute(instance)
        result = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        assert result.optimum == want_best
        assert set(result.all_minimal_optima) == set(want_minimal)


def test_minimal_optima_for_generalized_constraints():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        instance = random_generalized_instance(rng, "modular", n, 2, 2)
        want_best, want_minimal = _minimal_optima_brute(instance)
        result = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        assert result.optimum == want_best
        assert set(result.all_minimal_optima) == set(want_minimal)


def test_minimal_optima_are_sorted_and_antichain():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        instance = random_instance(rng, "cut", n, 2)
        result = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        sets = result.all_minimal_optima
        sizes = [len(s) for s in sets]
        assert sizes == sorted(sizes)
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                assert not (a < b or b < a)
