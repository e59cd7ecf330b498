"""Submodular minimization over ring families, as the solver does it.

Every test reads the table route's one candidate at depth 0, that of the
(empty, empty) pair, which is the inclusion-minimal minimizer of f over
the whole ring family.
"""

from __future__ import annotations

import numpy as np

from ccsm.enumeration import _table_route
from ccsm.families import random_oracle, random_ring
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import CutUndirected, Modular, SubmodularOracle
from helpers import brute_constrained_min, card_lex_key, naive_ring_member

ABC = GroundSet(("a", "b", "c"))
SQUARE = GroundSet(("a", "b", "c", "d"))
CYCLE4 = tuple((u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))


def _minimal_min(oracle, ring):
    """(minimizer, value), or None where the ring is empty."""
    masks = _table_route(oracle, ring, 0, False).masks
    if not masks:
        return None
    best = oracle.ground.set_of(masks[0])
    return best, oracle.eval(best)


def test_unconstrained_modular_minimum():
    f = SubmodularOracle(ABC, Modular({"a": -2, "b": 1, "c": 3}))
    assert _minimal_min(f, RingFamily.full(ABC)) == (frozenset({"a"}), -2)


def test_forced_in_element_changes_the_minimum():
    g = GroundSet(("a", "b"))
    f = SubmodularOracle(g, Modular({"a": -2, "b": 1}))
    ring = RingFamily.from_labels(g, forced_in=("b",))
    assert _minimal_min(f, ring) == (frozenset({"a", "b"}), -1)


def test_cut_with_forced_sides():
    f = SubmodularOracle(SQUARE, CutUndirected(CYCLE4))
    ring = RingFamily.from_labels(SQUARE, forced_in=("a",), forced_out=("c",))
    # {a} is the smallest of the optimal sides of value 2.
    assert _minimal_min(f, ring) == (frozenset({"a"}), 2)


def test_minimal_min_of_the_zero_function_is_empty():
    f = SubmodularOracle(ABC, Modular({}))
    assert _minimal_min(f, RingFamily.full(ABC)) == (frozenset(), 0)


def test_minimal_min_ignores_zero_weight_padding():
    g = GroundSet(("a", "b"))
    f = SubmodularOracle(g, Modular({"a": 0, "b": -1}))
    # {b} and {a, b} are both optimal; only {b} is inclusion-minimal.
    assert _minimal_min(f, RingFamily.full(g)) == (frozenset({"b"}), -1)


def _random_cases(count, max_n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        family = ("modular", "cut", "cut_directed", "coverage", "table")[
            int(rng.integers(0, 5))
        ]
        oracle = random_oracle(rng, family, n)
        ring = random_ring(rng, oracle.ground, lattice_prob=0.7)
        if ring.is_empty:
            continue
        yield oracle, ring


def _brute(oracle, ring):
    g = oracle.ground
    fin = g.labels_of(ring.forced_in)
    fout = g.labels_of(ring.forced_out)
    arcs = [(g.elements[u], g.elements[v]) for u, v in ring.implications]
    return brute_constrained_min(
        g.elements,
        oracle.eval,
        lambda s: naive_ring_member(s, fin, fout, arcs),
    )


def test_sfm_min_matches_brute_force_with_tie_break():
    # The minimal minimizer is contained in every optimum, so it is also
    # the first optimum in (cardinality, label order).
    for oracle, ring in _random_cases(60, 7, seed=20):
        best, optima = _brute(oracle, ring)
        want = min(optima, key=card_lex_key(list(oracle.ground.elements)))
        assert _minimal_min(oracle, ring) == (want, best)


def test_sfm_minimal_min_is_contained_in_every_minimizer():
    for oracle, ring in _random_cases(60, 7, seed=21):
        best, optima = _brute(oracle, ring)
        minimizer, value = _minimal_min(oracle, ring)
        assert value == best
        for opt in optima:
            assert minimizer <= opt
