"""Congruency constraints, depth parameters, and the clone reduction."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ccsm.constraints import (
    CongruencyConstraint,
    GeneralizedConstraint,
    MembershipOracle,
    TCutConstraint,
    default_depth,
    guarantees_exactness,
    is_prime_power,
    tcut_reduce,
)
from ccsm.cuts import CutProblem, TSetEven, TSetOdd, solve_cut
from ccsm.enumeration import enum_solve
from ccsm.errors import InputError, UnsupportedSizeError
from ccsm.families import FAMILY_NAMES, random_oracle, random_ring, random_table
from ccsm.ground import GroundSet
from ccsm.instances import Instance, instance_from_dict, instance_to_dict
from ccsm.lattice import RingFamily
from ccsm.oracles import Modular, SubmodularOracle
from ccsm.reference import _constraint_table, exhaustive_solve
from helpers import powerset

ABCD = GroundSet(("a", "b", "c", "d"))


def test_is_prime_power_table():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(25) == (5, 2)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
    assert is_prime_power(0) is None


def test_is_prime_power_against_direct_factorization():
    for m in range(2, 400):
        facts = set()
        x, p = m, 2
        while p * p <= x:
            while x % p == 0:
                facts.add(p)
                x //= p
            p += 1
        if x > 1:
            facts.add(x)
        got = is_prime_power(m)
        if len(facts) == 1:
            p = facts.pop()
            alpha = 0
            x = m
            while x % p == 0:
                x //= p
                alpha += 1
            assert got == (p, alpha)
        else:
            assert got is None


def test_congruency_membership():
    c = CongruencyConstraint(2, 1)
    assert c.member(("a",))
    assert not c.member(())
    c3 = CongruencyConstraint(3, 0)
    assert not c3.member(("a", "b"))
    assert c3.member(("a", "b", "c"))


def test_residue_validation():
    with pytest.raises(InputError):
        CongruencyConstraint(0, 0)
    with pytest.raises(InputError):
        CongruencyConstraint(3, 3)
    with pytest.raises(InputError):
        TCutConstraint(frozenset("a"), 2, -1)
    with pytest.raises(InputError):
        GeneralizedConstraint(2, ())


_A = frozenset("a")
_NUMBER_USES = {
    "congruency modulus": lambda x: CongruencyConstraint(x, 0),
    "congruency residue": lambda x: CongruencyConstraint(2, x),
    "generalized modulus": lambda x: GeneralizedConstraint(x, ((_A, 0),)),
    "generalized residue": lambda x: GeneralizedConstraint(2, ((_A, x),)),
    "tcut modulus": lambda x: TCutConstraint(_A, x, 0),
    "tcut residue": lambda x: TCutConstraint(_A, 2, x),
    "depth": lambda x: enum_solve(
        SubmodularOracle(ABCD, Modular({"a": 1})), None, CongruencyConstraint(2, 1), x
    ),
}


@pytest.mark.parametrize("value", [True, False, 1.0, 1.5, 1.9, 2.5, "1"])
@pytest.mark.parametrize("use", sorted(_NUMBER_USES))
def test_moduli_residues_and_depths_must_be_integers(use, value):
    """Bools, floats and strings are refused, not cast: ``True`` would run
    as modulus 1 or depth 1, and ``int(1.9)`` would read residue 1."""
    with pytest.raises(InputError, match="must be an integer"):
        _NUMBER_USES[use](value)


def test_numpy_integer_moduli_and_residues_are_accepted():
    c = GeneralizedConstraint(np.int64(3), ((_A, np.int64(2)),))
    assert c.terms == ((_A, 2),) and type(c.terms[0][1]) is int
    assert CongruencyConstraint(np.int32(2), np.int8(1)).member(("a",))


_AB = GroundSet(("a", "b", "ab"))
_STRING_LABEL_SETS = {
    "tcut": lambda: TCutConstraint("ab", 2, 1),
    "generalized": lambda: GeneralizedConstraint(2, (("ab", 1),)),
    "tcut_reduce": lambda: tcut_reduce(
        SubmodularOracle(_AB, Modular({"a": 1})), RingFamily.full(_AB), "ab", 2, 1
    ),
    "tset_even": lambda: solve_cut(CutProblem(_AB.elements, (), False, TSetEven(("ab",)))),
    "tset_odd": lambda: solve_cut(CutProblem(_AB.elements, (), False, TSetOdd(("ab",)))),
}


@pytest.mark.parametrize("use", sorted(_STRING_LABEL_SETS))
def test_a_string_label_set_is_refused_not_split(use):
    """On the ground (a, b, ab) the string "ab" would split into the
    labels a and b; it is refused, and the list ["ab"] names the one
    element ab."""
    with pytest.raises(InputError, match="got the string 'ab'"):
        _STRING_LABEL_SETS[use]()
    assert TCutConstraint(["ab"], 2, 1).terminals == {"ab"}


NUMPY_KINDS = {
    "congruency": lambda: CongruencyConstraint(np.int64(2), np.int64(1)),
    "generalized": lambda: GeneralizedConstraint(np.int64(3), ((_A, np.int64(2)),)),
    "tcut": lambda: TCutConstraint(frozenset({"a", "c"}), np.int64(2), np.int64(1)),
}


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_numpy_integer_constraints_store_ints_and_round_trip_through_json(kind):
    """A constraint built from numpy integers stores Python ints, so an
    instance carrying it has a file form that ``json`` writes and that
    loads back to an equal constraint."""
    constraint = NUMPY_KINDS[kind]()
    residues = [r for _, r in constraint.terms] if kind == "generalized" else [constraint.residue]
    assert all(type(v) is int for v in (constraint.modulus, *residues))
    instance = Instance(SubmodularOracle(ABCD, Modular({})), RingFamily.full(ABCD), constraint)
    text = json.dumps(instance_to_dict(instance))
    assert instance_from_dict(json.loads(text)).constraint == constraint


def test_generalized_membership_frozen_example():
    c = GeneralizedConstraint(
        2, ((frozenset({"a", "b"}), 1), (frozenset({"c", "d"}), 1))
    )
    assert c.member(("a", "d"))
    assert not c.member(("a", "b"))
    assert not c.member(())
    assert c.k == 2


def test_tcut_equals_its_generalized_form():
    t = TCutConstraint(frozenset({"a", "c"}), 3, 1)
    g = GeneralizedConstraint(3, ((frozenset({"a", "c"}), 1),))
    for s in powerset(ABCD.elements):
        assert t.member(s) == g.member(s)
    assert t.term_masks(ABCD) == g.term_masks(ABCD) == ((0b0101, 1),)


def _kinds_on(ground, rng):
    """One constraint of each kind over ``ground``, with k terms for the depth rule."""
    elems = ground.elements
    m = int(rng.integers(1, 5))

    def some_set():
        return frozenset(e for e in elems if rng.random() < 0.5)

    k = int(rng.integers(1, 4))
    terms = tuple((some_set(), int(rng.integers(0, m))) for _ in range(k))
    pick = some_set()
    return (
        (CongruencyConstraint(m, int(rng.integers(0, m))), 1),
        (TCutConstraint(some_set(), m, int(rng.integers(0, m))), 1),
        (GeneralizedConstraint(m, terms), k),
        (MembershipOracle(lambda s: len(s & pick) % 2 == 0), None),
    )


def test_member_mask_member_and_reference_table_agree_on_every_mask():
    rng = np.random.default_rng(13)
    for n in range(7):
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        ring = RingFamily.full(ground)
        for _ in range(4):
            for c, k in _kinds_on(ground, rng):
                table = _constraint_table(c, ring)
                assert table.shape == (1 << n,)
                for mask in range(1 << n):
                    expected = c.member(ground.labels_of(mask))
                    assert c.mask_member(mask, ground) == expected
                    assert bool(table[mask]) == expected
                if k is not None:
                    assert len(c.term_masks(ground)) == k
                    assert default_depth(c) == k * (c.modulus - 1)


def test_default_depths():
    assert default_depth(CongruencyConstraint(3, 0)) == 2
    assert default_depth(CongruencyConstraint(1, 0)) == 0
    assert default_depth(TCutConstraint(frozenset("a"), 4, 0)) == 3
    terms = tuple((frozenset({f"v{i}"}), 0) for i in range(3))
    assert default_depth(GeneralizedConstraint(2, terms)) == 3
    with pytest.raises(InputError):
        default_depth(MembershipOracle(lambda s: True))


def test_guarantees_exactness_rules():
    c8 = CongruencyConstraint(8, 1)
    assert guarantees_exactness(c8, 7)
    assert guarantees_exactness(c8, 9)
    assert not guarantees_exactness(c8, 6)
    c6 = CongruencyConstraint(6, 1)
    assert not guarantees_exactness(c6, 50)
    c1 = CongruencyConstraint(1, 0)
    assert not guarantees_exactness(c1, 0)
    assert not guarantees_exactness(MembershipOracle(lambda s: True), 99)


def test_membership_oracle_wraps_a_predicate():
    c = MembershipOracle(lambda s: "a" in s)
    assert c.member(("a", "b"))
    assert not c.member(("b",))
    assert c.mask_member(0b0001, ABCD)


def test_tcut_reduce_with_all_terminals_changes_nothing():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({"a": 1, "b": 2}))
    red = tcut_reduce(oracle, RingFamily.full(g), ("a", "b"), 2, 1)
    assert red.oracle.ground.elements == ("a", "b")
    assert red.ring.implications == ()
    assert red.constraint == CongruencyConstraint(2, 1)


def test_tcut_reduce_clones_non_terminals():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({"a": 1, "b": 2}))
    red = tcut_reduce(oracle, RingFamily.full(g), ("a",), 2, 1)
    assert red.oracle.ground.elements == ("a", "b", "b#1")
    # The clone is tied to its original in both directions.
    assert set(red.ring.implications) == {(1, 2), (2, 1)}
    # Function values ignore the clones.
    assert red.oracle.eval(("b", "b#1")) == 2
    assert red.oracle.eval(("b#1",)) == 0
    assert red.project(("a", "b", "b#1")) == frozenset({"a", "b"})


def test_tcut_reduce_rejects_label_collisions():
    g = GroundSet(("a", "a#1"))
    oracle = SubmodularOracle(g, Modular({}))
    with pytest.raises(InputError):
        tcut_reduce(oracle, RingFamily.full(g), ("a#1",), 2, 0)


def test_tcut_reduction_preserves_optima():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        family = ("modular", "cut", "coverage")[int(rng.integers(0, 3))]
        oracle = random_oracle(rng, family, n)
        ring = random_ring(rng, oracle.ground, lattice_prob=0.4)
        if ring.is_empty:
            continue
        m = int(rng.integers(2, 4))
        r = int(rng.integers(0, m))
        size = int(rng.integers(1, n + 1))
        terms = frozenset(
            oracle.ground.elements[int(i)]
            for i in rng.choice(n, size=size, replace=False)
        )
        direct = exhaustive_solve(
            oracle, ring, TCutConstraint(terms, m, r)
        )
        red = tcut_reduce(oracle, ring, terms, m, r)
        reduced = exhaustive_solve(red.oracle, red.ring, red.constraint)
        assert reduced.optimum == direct.optimum
        if reduced.optimum is not None:
            projected = red.project(reduced.all_minimal_optima[0])
            assert oracle.eval(projected) == direct.optimum
            assert len(projected & terms) % m == r
            assert ring.member(projected)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_tcut_reductions_round_trip_through_the_file_form(family):
    """A reduced instance is an instance like any other: written to its file
    form and read back, it has the same optimum and minimal optima."""
    rng = np.random.default_rng(78)
    for _ in range(6):
        n = int(rng.integers(1, 6))
        oracle = random_oracle(rng, family, n)
        ring = random_ring(rng, oracle.ground, lattice_prob=0.4)
        m = int(rng.integers(2, 4))
        r = int(rng.integers(0, m))
        size = int(rng.integers(1, n + 1))
        terms = frozenset(
            oracle.ground.elements[int(i)] for i in rng.choice(n, size=size, replace=False)
        )
        red = tcut_reduce(oracle, ring, terms, m, r)
        reduced_instance = Instance(red.oracle, red.ring, red.constraint)
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(reduced_instance))))
        assert back.ground == red.oracle.ground
        reduced = exhaustive_solve(red.oracle, red.ring, red.constraint)
        assert exhaustive_solve(back.oracle, back.ring, back.constraint) == reduced
        assert reduced.optimum == exhaustive_solve(oracle, ring, TCutConstraint(terms, m, r)).optimum


def test_tcut_reduce_refuses_a_table_whose_enlarged_ground_passes_the_cap():
    oracle = random_table(np.random.default_rng(5), 13)
    g = oracle.ground
    # 12 non-terminals with 2 clones each: n' = 13 + 24 = 37.
    with pytest.raises(UnsupportedSizeError, match="n=37"):
        tcut_reduce(oracle, RingFamily.full(g), g.elements[:1], 3, 1)
