"""Bit-level plumbing: ground sets, masks, popcounts, orderings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccsm.enumeration import _candidate_order
from ccsm.errors import InputError
from ccsm.ground import (
    GroundSet,
    iter_bits,
    popcount,
    popcount_array,
    reversed_bits_array,
)
from ccsm.lattice import RingFamily
from ccsm.oracles import Modular, SubmodularOracle


def test_popcount_matches_bin_count():
    for mask in range(1 << 10):
        assert popcount(mask) == bin(mask).count("1")


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=50))
def test_popcount_array_matches_scalar(masks):
    arr = np.array(masks, dtype=np.int64)
    assert list(popcount_array(arr)) == [popcount(m) for m in masks]


def test_iter_bits_yields_set_positions():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


@given(st.integers(min_value=1, max_value=12), st.data())
def test_reversed_bits_is_an_involution(n, data):
    masks = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=30)
    )
    arr = np.array(masks, dtype=np.int64)
    rev = reversed_bits_array(arr, n)
    assert list(reversed_bits_array(rev, n)) == masks


def test_reversed_bits_small_window():
    # In a 3-bit window, 0b001 <-> 0b100 and 0b010 is a palindrome.
    arr = np.array([0b001, 0b010, 0b100], dtype=np.int64)
    assert list(reversed_bits_array(arr, 3)) == [0b100, 0b010, 0b001]


def test_ground_set_round_trip():
    g = GroundSet(("a", "b", "c"))
    assert g.n == 3
    assert g.full_mask == 0b111
    assert g.mask_of(("a", "c")) == 0b101
    assert g.labels_of(0b101) == ("a", "c")
    assert g.set_of(0b110) == frozenset({"b", "c"})
    assert "b" in g and "z" not in g
    assert list(g) == ["a", "b", "c"]


def test_ground_set_rejects_duplicates_and_unknown_labels():
    with pytest.raises(InputError):
        GroundSet(("a", "a"))
    g = GroundSet(("a", "b"))
    with pytest.raises(InputError):
        g.mask_of(("z",))
    with pytest.raises(InputError):
        g.index("z")


_AB = GroundSet(("a", "b", "ab"))
_AB_ORACLE = SubmodularOracle(_AB, Modular({"a": 1, "b": 2, "ab": 5}))
# Each entry point taking a label set, and what it gives for ["ab"].
_STRING_LABEL_SETS = {
    "ring_forced_in": (lambda s: RingFamily.from_labels(_AB, forced_in=s).forced_in, 0b100),
    "ring_member": (lambda s: RingFamily.full(_AB).member(s), True),
    "oracle_eval": (_AB_ORACLE.eval, 5),
}


@pytest.mark.parametrize("use", sorted(_STRING_LABEL_SETS))
def test_mask_of_refuses_a_string_label_set(use):
    """On the ground (a, b, ab) the string "ab" would split into the
    labels a and b; ``mask_of`` refuses it, and ["ab"] names the one
    element ab."""
    entry, want = _STRING_LABEL_SETS[use]
    with pytest.raises(InputError, match="got the string 'ab'"):
        entry("ab")
    assert entry(["ab"]) == want


def test_card_lex_order_prefers_small_then_early_bits():
    # {a} before {b} before {a, b} under (cardinality, label order).
    # With f = 0 the scaled value g = (n + 1) f + |S| is the cardinality.
    arr = np.array([0b11, 0b10, 0b01])
    order = arr[_candidate_order(arr, popcount_array(arr), 2)]
    assert order.tolist() == [0b01, 0b10, 0b11]
    arr = np.array([0b110, 0b011])
    order = arr[_candidate_order(arr, popcount_array(arr), 3)]
    assert order.tolist() == [0b011, 0b110]


@given(st.integers(min_value=1, max_value=8), st.data())
def test_card_lex_order_matches_sorted_label_sets(n, data):
    masks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=20
        )
    )
    arr = np.array(data.draw(st.permutations(sorted(set(masks)))), dtype=np.int64)
    f = {int(m): data.draw(st.integers(min_value=-3, max_value=3)) for m in arr}
    g = np.array([(n + 1) * f[int(m)] + popcount(int(m)) for m in arr], dtype=np.int64)
    order = arr[_candidate_order(arr, g, n)]
    got = [int(m) for m in order]
    want = sorted(f, key=lambda m: (f[m], popcount(m), tuple(iter_bits(m))))
    assert got == want
