"""Set systems: checkers, the classical construction, atoms, and search."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from ccsm.errors import InputError
from ccsm.families import random_closed_covering_system
from ccsm.ground import GroundSet, popcount
from ccsm.systems import (
    SetSystem,
    atoms,
    check_md_system,
    check_mkd_system,
    construct_mm2_system,
    frankl_wilson_check,
    inclusion_exclusion_check,
    search_md_system,
)
from ccsm.transforms import Binomial, Power, transform_system

ABC = GroundSet(("a", "b", "c"))


def _all_subsets_system(ground):
    return SetSystem(ground, tuple(range(1, (1 << ground.n))))


def test_set_system_basics():
    system = SetSystem.from_labels(ABC, [("a",), ("a", "b")])
    assert len(system) == 2
    assert system.labels(system.sets[1]) == ("a", "b")
    with pytest.raises(InputError):
        SetSystem.from_labels(ABC, [("a",), ("a",)])
    with pytest.raises(InputError):
        SetSystem(ABC, (9,))


def test_set_system_dict_round_trip():
    system = SetSystem.from_labels(ABC, [("b", "a"), ("c",)])
    payload = system.to_dict()
    assert payload == {"ground": ["a", "b", "c"], "sets": [["c"], ["a", "b"]]}
    again = SetSystem.from_dict(payload)
    assert set(again.sets) == set(system.sets)
    with pytest.raises(InputError):
        SetSystem.from_dict({"ground": ["a"], "sets": [], "extra": 1})


def test_construction_m3_is_the_known_family():
    system = construct_mm2_system(3)
    labels = {system.labels(h) for h in system.sets}
    assert labels == {("1",), ("1", "2"), ("1", "3")}
    assert check_md_system(system, 3, 1).ok
    verdict = check_md_system(system, 3, 2)
    assert not verdict.ok
    assert verdict.failed == "covering"
    assert verdict.witness == ("2", "3")


def test_construction_m2_is_a_single_set():
    system = construct_mm2_system(2)
    assert {system.labels(h) for h in system.sets} == {("1",)}
    assert check_md_system(system, 2, 0).ok


def test_construction_m4_has_seven_sets():
    system = construct_mm2_system(4)
    assert len(system) == 7
    assert check_md_system(system, 4, 2).ok


def test_construction_passes_for_a_range_of_moduli():
    for m in range(2, 11):
        system = construct_mm2_system(m)
        assert len(system) == (1 << (m - 1)) - 1
        assert check_md_system(system, m, m - 2).ok


def test_construction_validation():
    with pytest.raises(InputError):
        construct_mm2_system(1)
    with pytest.raises(InputError):
        construct_mm2_system(21)


def test_check_md_intersection_failure():
    system = SetSystem.from_labels(GroundSet(("a", "b")), [("a",), ("b",)])
    verdict = check_md_system(system, 2, 0)
    assert not verdict.ok
    assert verdict.failed == "intersection_closed"
    assert verdict.witness == (("a",), ("b",))


def test_check_md_member_residue_failure():
    # |{a,b}| = 2 matches |N| = 2 modulo anything.
    system = SetSystem.from_labels(GroundSet(("a", "b")), [("a", "b")])
    verdict = check_md_system(system, 2, 0)
    assert not verdict.ok
    assert verdict.failed == "member_residue"


def test_check_md_against_naive_predicate():
    rng = np.random.default_rng(9)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
        n_sets = int(rng.integers(1, min(6, (1 << n) + 1)))
        sets = set()
        while len(sets) < n_sets:
            sets.add(int(rng.integers(0, ground.full_mask + 1)))
        system = SetSystem(ground, tuple(sorted(sets)))
        m = int(rng.integers(1, 5))
        d = int(rng.integers(0, 4))
        closed = all(a & b in sets for a in sets for b in sets)
        residues = all(popcount(h) % m != n % m for h in sets)
        covering = all(
            any(ground.mask_of(sub) & h == ground.mask_of(sub) for h in sets)
            for size in range(min(d, n) + 1)
            for sub in combinations(ground.elements, size)
        )
        assert check_md_system(system, m, d).ok == (closed and residues and covering)


def test_check_mkd_reduces_to_md_for_the_full_factor():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
        sets = {int(rng.integers(0, ground.full_mask + 1)) for _ in range(4)}
        system = SetSystem(ground, tuple(sorted(sets)))
        m = int(rng.integers(1, 5))
        d = int(rng.integers(0, 3))
        md = check_md_system(system, m, d)
        mkd = check_mkd_system(system, m, d, [ground.elements])
        assert md.ok == mkd.ok
        assert md.failed == mkd.failed


def test_check_mkd_vector_residues():
    ground = GroundSet(("a", "b", "c", "d"))
    system = SetSystem.from_labels(ground, [("a", "c")])
    # Ground vector is (2, 2) mod 4 against factors ab / cd; (1, 1) differs.
    verdict = check_mkd_system(system, 4, 0, [("a", "b"), ("c", "d")])
    assert verdict.ok
    bad = SetSystem.from_labels(ground, [("a", "b", "c", "d")])
    verdict = check_mkd_system(bad, 4, 0, [("a", "b"), ("c", "d")])
    assert not verdict.ok
    assert verdict.failed == "member_residue"


def _naive_mkd(system, m, d, factors):
    """(ok, failed, witness) of the (m, k, d)-system check, read off the
    definitions over label sets."""
    ground = system.ground

    def ordered(labels):
        return tuple(e for e in ground.elements if e in labels)

    members = [ground.set_of(h) for h in system.sets]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if a & b not in members:
                return False, "intersection_closed", (ordered(a), ordered(b))
    factor_sets = [frozenset(f) for f in factors]
    target = tuple(len(f) % m for f in factor_sets)
    for h in members:
        vec = tuple(len(h & f) % m for f in factor_sets)
        if vec == target:
            return False, "member_residue", (ordered(h), vec)
    for size in range(d + 1):
        for sub in combinations(ground.elements, size):
            if not any(set(sub) <= h for h in members):
                return False, "covering", sub
    return True, None, None


def _closed(sets):
    while True:
        extra = {a & b for a in sets for b in sets} - sets
        if not extra:
            return sets
        sets |= extra


def test_check_mkd_matches_naive_predicate_with_random_factor_sets():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(0, 7))
        ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
        sets = {int(rng.integers(0, ground.full_mask + 1)) for _ in range(int(rng.integers(0, 6)))}
        if rng.random() < 0.6:
            sets = _closed(sets)
        order = sorted(sets)
        rng.shuffle(order)
        system = SetSystem(ground, tuple(int(h) for h in order))
        m = int(rng.integers(1, 6))
        d = int(rng.integers(0, 4))
        factors = [
            tuple(e for e in ground.elements if rng.random() < 0.5)
            for _ in range(int(rng.integers(1, 4)))
        ]
        verdict = check_mkd_system(system, m, d, factors)
        assert (verdict.ok, verdict.failed, verdict.witness) == _naive_mkd(system, m, d, factors)
        seen.add(verdict.failed)

        over_n = check_mkd_system(system, m, d, [ground.elements])
        md = check_md_system(system, m, d)
        assert (md.ok, md.failed) == (over_n.ok, over_n.failed)
        if md.failed == "member_residue":
            assert md.witness == over_n.witness[:1]
        else:
            assert md.witness == over_n.witness
    assert seen == {None, "intersection_closed", "member_residue", "covering"}


def test_atoms_frozen_examples():
    assert atoms(SetSystem(ABC, ())) == (frozenset({"a", "b", "c"}),)
    got = atoms(SetSystem.from_labels(ABC, [("a",)]))
    assert got == (frozenset({"a"}), frozenset({"b", "c"}))


def test_atoms_partition_property():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        ground = GroundSet(tuple(str(i) for i in range(n)))
        sets = {int(rng.integers(0, ground.full_mask + 1)) for _ in range(5)}
        system = SetSystem(ground, tuple(sorted(sets)))
        blocks = atoms(system)
        union = frozenset().union(*blocks) if blocks else frozenset()
        assert union == frozenset(ground.elements)
        assert sum(len(b) for b in blocks) == n
        # No member may split a block.
        for h in system.sets:
            hs = ground.set_of(h)
            for block in blocks:
                assert block <= hs or not (block & hs)


def test_atoms_of_transformed_power_set():
    ground = ABC
    full_family = SetSystem(ground, tuple(range(1 << ground.n)))
    image = transform_system(Power(2), full_family)
    blocks = atoms(image)
    # Three diagonal singletons and three symmetric off-diagonal pairs.
    assert len(blocks) == 6
    sizes = sorted(len(b) for b in blocks)
    assert sizes == [1, 1, 1, 2, 2, 2]
    assert len(blocks) <= 1 + 2 * ground.n**2


def test_inclusion_exclusion_frozen_failures():
    system = construct_mm2_system(3)
    verdict = inclusion_exclusion_check(system, 3, 1)
    assert not verdict.ok
    assert verdict.failed == "member_residues"
    assert verdict.witness == (("1", "2"),)

    ground = GroundSet(tuple(str(i) for i in range(1, 5)))
    whole = SetSystem(ground, (ground.full_mask,))
    verdict = inclusion_exclusion_check(whole, 2, 4 % 2)
    assert not verdict.ok
    assert verdict.failed == "ground_residue"


def test_inclusion_exclusion_other_branches():
    assert inclusion_exclusion_check(SetSystem(ABC, ()), 2, 0).failed == "nonempty"
    split = SetSystem.from_labels(ABC, [("a",), ("b",)])
    assert inclusion_exclusion_check(split, 2, 1).failed == "intersection_closed"
    # Closed, right residues on four elements, but misses b, c, d entirely.
    abcd = GroundSet(("a", "b", "c", "d"))
    partial = SetSystem.from_labels(abcd, [("a",)])
    verdict = inclusion_exclusion_check(partial, 2, 1)
    assert verdict.failed == "covering"
    assert verdict.witness == ("b",)
    with pytest.raises(InputError):
        inclusion_exclusion_check(split, 4, 1)
    with pytest.raises(InputError):
        inclusion_exclusion_check(split, 3, 3)


def test_inclusion_exclusion_never_accepts_closed_covering_families():
    rng = np.random.default_rng(12)
    for _ in range(150):
        system = random_closed_covering_system(rng, int(rng.integers(1, 7)))
        for p in (2, 3, 5):
            for r in range(p):
                verdict = inclusion_exclusion_check(system, p, r)
                assert not verdict.ok
                assert verdict.failed in ("ground_residue", "member_residues")


def test_frankl_wilson_singletons():
    for n in (3, 5, 8):
        ground = GroundSet(tuple(str(i) for i in range(n)))
        singles = SetSystem(ground, tuple(1 << i for i in range(n)))
        verdict = frankl_wilson_check(singles, 2, 1, (1, 0))
        assert verdict.ok
        assert verdict.witness == (n, n)


def test_frankl_wilson_failure_branches():
    ground = GroundSet(("a", "b", "c", "d"))
    mixed = SetSystem.from_labels(ground, [("a",), ("a", "b")])
    assert frankl_wilson_check(mixed, 2, 1, (1, 0)).failed == "uniform"
    pairs = SetSystem.from_labels(ground, [("a", "b")])
    assert frankl_wilson_check(pairs, 2, 1, (1, 0)).failed == "size_residue"
    # Pairs meeting in one point, but only residue 0 is allowed mod 3.
    touching = SetSystem.from_labels(ground, [("a", "b"), ("b", "c")])
    verdict = frankl_wilson_check(touching, 3, 1, (2, 0))
    assert verdict.failed == "intersection_residue"
    assert verdict.witness == (("a", "b"), ("b", "c"))
    assert frankl_wilson_check(SetSystem(ground, ()), 2, 1, (1, 0)).failed == "nonempty"


def test_frankl_wilson_validation():
    system = construct_mm2_system(3)
    with pytest.raises(InputError):
        frankl_wilson_check(system, 4, 1, (1, 0))
    with pytest.raises(InputError):
        frankl_wilson_check(system, 3, 3, (1, 0, 2, 0))
    with pytest.raises(InputError):
        frankl_wilson_check(system, 3, 2, (1, 1, 0))
    with pytest.raises(InputError):
        frankl_wilson_check(system, 3, 2, (1, 0))


def test_frankl_wilson_bound_on_a_transformed_family():
    # Images of a uniform intersecting family stay within the bound.
    ground = GroundSet(tuple(str(i) for i in range(5)))
    singles = SetSystem(ground, tuple(1 << i for i in range(5)))
    image = transform_system(Binomial(1), singles)
    verdict = frankl_wilson_check(image, 2, 1, (1, 0))
    assert verdict.ok


def test_search_finds_the_m3_construction():
    found = search_md_system(3, 1, 3, 3)
    assert found is not None
    assert check_md_system(found, 3, 1).ok
    labels = {found.labels(h) for h in found.sets}
    assert labels == {("1",), ("1", "2"), ("1", "3")}


def test_search_reports_not_found_for_m2():
    for n in range(1, 5):
        assert search_md_system(2, 1, n, 4) is None


def test_search_finds_a_4_2_system():
    found = search_md_system(4, 2, 4, 4)
    assert found is not None
    assert check_md_system(found, 4, 2).ok


def test_search_validation():
    with pytest.raises(InputError):
        search_md_system(2, 1, 9, 4)
    with pytest.raises(InputError):
        search_md_system(2, 1, 4, 0)
    with pytest.raises(InputError):
        search_md_system(2, 1, 4, 7)
    with pytest.raises(InputError):
        search_md_system(0, 1, 4, 3)
    with pytest.raises(InputError):
        search_md_system(3, 1, -1, 3)
