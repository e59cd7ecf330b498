"""Cardinality transforms: images, witness structure, and g arithmetic."""

from __future__ import annotations

import tracemalloc
from math import comb

import pytest

from ccsm.errors import InputError
from ccsm.ground import GroundSet
from ccsm.systems import SetSystem
from ccsm.transforms import (
    Binomial,
    Constant,
    GeneralizedProduct,
    Power,
    PrimePower,
    Sum,
    apply_transform,
    binom_mod_check,
    g_value,
    level,
    transform_system,
    verify_transform,
)
from helpers import powerset

AB = GroundSet(("a", "b"))
ABC = GroundSet(("a", "b", "c"))


def test_levels():
    assert level(Constant(7)) == 0
    assert level(Power(3)) == 3
    assert level(Binomial(2)) == 2
    assert level(Sum((Power(1), Constant(1)))) == 1
    assert level(PrimePower(4)) == 3
    assert level(GeneralizedProduct((frozenset("a"), frozenset("bc")))) == 2


def test_g_value_frozen_examples():
    assert g_value(Constant(7), 12) == 7
    assert g_value(Power(2), 3) == 9
    assert g_value(Power(4), 3) == 81
    assert g_value(Binomial(2), 4) == 6
    assert g_value(Binomial(3), 2) == 0
    assert g_value(Sum((Power(1), Constant(1))), 5) == 6
    assert g_value(PrimePower(4), 2) == 3
    assert g_value(PrimePower(4), 4) == 14
    assert g_value(GeneralizedProduct((frozenset("a"), frozenset("bc"))), (1, 2)) == 2


def test_g_value_validation():
    with pytest.raises(InputError):
        g_value(Power(2), -1)
    with pytest.raises(InputError):
        g_value(GeneralizedProduct((frozenset("a"),)), 3)
    with pytest.raises(InputError):
        Constant(0)
    with pytest.raises(InputError):
        PrimePower(6)
    with pytest.raises(InputError):
        Sum(())


def test_prime_power_residue_pattern():
    # g(x) is divisible by p exactly when x is divisible by p**alpha.
    for m in (2, 3, 4, 5, 7, 8, 9):
        p = 2 if m in (2, 4, 8) else (3 if m in (3, 9) else m)
        for x in range(0, 4 * m + 1):
            assert (g_value(PrimePower(m), x) % p == 0) == (x % m == 0)


def test_fermat_pattern_for_prime_powers_of_x():
    for m in (2, 3, 5, 7):
        for x in range(0, 4 * m + 1):
            assert (g_value(Power(m - 1), x) % m == 0) == (x % m == 0)


def test_power_transform_on_two_elements():
    tr = apply_transform(Power(2), AB)
    assert tr.target.elements == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert tr.image(("a",)) == frozenset({"(a,a)"})
    assert tr.image(("a", "b")) == frozenset(tr.target.elements)
    assert tr.witness("(a,b)") == frozenset({"a", "b"})
    assert tr.level == 2


def test_binomial_transform_on_three_elements():
    tr = apply_transform(Binomial(2), ABC)
    assert tr.target.n == 3
    assert tr.image(("a", "b")) == frozenset({"{a,b}"})
    assert tr.image(("a",)) == frozenset()


def test_constant_transform_ignores_the_subset():
    tr = apply_transform(Constant(3), AB)
    assert tr.target.n == 3
    for s in powerset(AB.elements):
        assert tr.image(s) == frozenset(tr.target.elements)


def test_sum_transform_tags_parts():
    tr = apply_transform(Sum((Power(1), Constant(1))), AB)
    assert tr.target.elements == ("0:(a)", "0:(b)", "1:c1")
    assert tr.image(()) == frozenset({"1:c1"})
    assert tr.image(("b",)) == frozenset({"0:(b)", "1:c1"})


def test_generalized_product_tracks_factor_intersections():
    kind = GeneralizedProduct((frozenset({"a"}), frozenset({"b", "c"})))
    tr = apply_transform(kind, ABC)
    assert tr.target.n == 2
    assert tr.image(("a", "b", "c")) == frozenset({"(a,b)", "(a,c)"})
    assert tr.image(("a", "b")) == frozenset({"(a,b)"})
    assert tr.image(("b", "c")) == frozenset()


def test_witness_rule_defines_the_image():
    for kind in (Power(2), Binomial(2), PrimePower(3), Constant(2)):
        tr = apply_transform(kind, ABC)
        for s in powerset(ABC.elements):
            want = frozenset(
                w for w in tr.target.elements if tr.witness(w) <= frozenset(s)
            )
            assert tr.image(s) == want


def test_transform_laws_independently():
    for kind, size_of in (
        (Power(2), lambda x: x * x),
        (Binomial(2), lambda x: comb(x, 2)),
        (PrimePower(3), lambda x: comb(x, 1) + 2 * comb(x, 2)),
    ):
        tr = apply_transform(kind, ABC)
        subsets = powerset(ABC.elements)
        assert tr.image(ABC.elements) == frozenset(tr.target.elements)
        for s in subsets:
            assert len(tr.image(s)) == size_of(len(s))
            for t in subsets:
                assert tr.image(s) & tr.image(t) == tr.image(s & t)


def test_verify_transform_exhaustive_passes():
    assert verify_transform(Power(2), 4).ok
    assert verify_transform(Binomial(3), 5).ok
    assert verify_transform(PrimePower(4), 4).ok
    assert verify_transform(Sum((Power(1), Constant(1))), 4).ok
    kind = GeneralizedProduct((frozenset({"e1"}), frozenset({"e2", "e3"})))
    assert verify_transform(kind, 3).ok


@pytest.mark.parametrize("n", range(3, 7))
def test_verify_transform_accepts_a_sum_holding_a_generalized_product(n):
    product = GeneralizedProduct((frozenset({"e1", "e2"}), frozenset({"e2", "e3"})))
    kind = Sum((product, Binomial(1)))
    report = verify_transform(kind, n)
    assert report.ok, report.failures


def test_verify_transform_refuses_more_than_eight_elements():
    with pytest.raises(InputError, match="n <= 8"):
        verify_transform(Power(2), 9)


def test_apply_transform_respects_target_cap():
    g = GroundSet(tuple(f"v{i}" for i in range(6)))
    with pytest.raises(InputError):
        apply_transform(Power(8), g)


def _labels(n):
    return GroundSet(tuple(f"e{i}" for i in range(1, n + 1)))


@pytest.mark.parametrize(
    "kind, n, size",
    [
        (Constant(200_001), 0, 200_001),
        (Power(4), 22, 22**4),
        (Binomial(5), 32, comb(32, 5)),
        (PrimePower(5), 35, 35 + 4 * comb(35, 2) + comb(35, 3) + 4 * comb(35, 4)),
        (Sum((Binomial(2), Power(3))), 60, comb(60, 2) + 60**3),
        (GeneralizedProduct(tuple(frozenset(_labels(60).elements) for _ in range(3))), 60, 60**3),
    ],
    ids=["constant", "power", "binomial", "primepower", "sum", "genproduct"],
)
def test_an_oversized_target_is_refused_before_it_is_built(kind, n, size):
    assert size > 200_000
    ground = _labels(n)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"would have {size} elements, cap is 200000"):
            apply_transform(kind, ground)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_sum_holding_a_generalized_product_builds_below_the_cap():
    kind = Sum((GeneralizedProduct((frozenset({"a"}), frozenset({"b", "c"}))), Constant(1)))
    tr = apply_transform(kind, ABC)
    assert tr.target.elements == ("0:(a,b)", "0:(a,c)", "1:c1")
    assert tr.image(("a", "b")) == frozenset({"0:(a,b)", "1:c1"})


def test_transform_system_collapses_duplicate_images():
    system = SetSystem.from_labels(ABC, [("a",), ("b",), ("a", "b")])
    out = transform_system(Binomial(2), system)
    # Both singletons map to the empty image; only one empty set survives.
    assert len(out) == 2


def test_transform_preserves_intersection_closedness():
    base = SetSystem.from_labels(
        ABC, [("a",), ("a", "b"), ("a", "c"), ("a", "b", "c")]
    )
    base_sets = set(base.sets)
    assert all(x & y in base_sets for x in base.sets for y in base.sets)
    for kind in (Power(2), Binomial(2), PrimePower(3)):
        out = transform_system(kind, base)
        present = set(out.sets)
        for x in out.sets:
            for y in out.sets:
                assert x & y in present


def test_binom_mod_check_frozen_congruence():
    # Upper index 7 collapses to 3 modulo 4 without changing C(., 2) mod 2.
    assert comb(7, 2) % 2 == comb(3, 2) % 2 == 1
    for p, alpha in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        report = binom_mod_check(p, alpha, 120)
        assert report.ok
        assert report.checked == 121 * p**alpha


def test_binom_mod_check_validation():
    with pytest.raises(InputError):
        binom_mod_check(4, 1, 10)
    with pytest.raises(InputError):
        binom_mod_check(3, 0, 10)
    with pytest.raises(InputError):
        binom_mod_check(3, 1, -1)
