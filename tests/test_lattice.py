"""Ring families: membership, closure, dense views."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsm.errors import InputError
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from helpers import naive_closure, naive_ring_member, naive_ring_members, powerset

ABC = GroundSet(("a", "b", "c"))


@st.composite
def ring_families(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ground = GroundSet(tuple(f"v{i}" for i in range(n)))
    n_arcs = draw(st.integers(min_value=0, max_value=2 * n))
    arcs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(n_arcs)
    ]
    arcs = [(u, v) for u, v in arcs if u != v]
    forced_in = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    forced_out = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & ~forced_in
    return RingFamily(ground, forced_in, forced_out, arcs)


def _label_arcs(ring):
    g = ring.ground
    return [(g.elements[u], g.elements[v]) for u, v in ring.implications]


def test_full_lattice_contains_everything():
    ring = RingFamily.full(ABC)
    for s in powerset(ABC.elements):
        assert ring.member(s)
    assert not ring.is_empty
    assert ring.free_mask == ABC.full_mask


def test_forced_elements_and_arcs_validate():
    with pytest.raises(InputError):
        RingFamily(ABC, forced_in=0b001, forced_out=0b001)
    with pytest.raises(InputError):
        RingFamily(ABC, implications=[(0, 5)])
    # Self-loops are meaningless and silently dropped.
    ring = RingFamily(ABC, implications=[(1, 1), (0, 1)])
    assert ring.implications == ((0, 1),)
    # Numpy integers are read as the ints they hold.
    ring = RingFamily(ABC, np.int64(1), np.uint8(4), [(np.int32(0), np.int64(1))])
    assert (ring.forced_in, ring.forced_out, ring.implications) == (1, 4, ((0, 1),))
    assert all(type(v) is int for v in (ring.forced_in, ring.forced_out, *ring.implications[0]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"implications": [(0.5, 0)]},
        {"implications": [(True, 2)]},
        {"implications": [(0, 1.0)]},
        {"implications": [(0, "1")]},
        {"forced_in": 1.5},
        {"forced_in": True},
        {"forced_out": 2.0},
    ],
    ids=["arc-tail-half", "arc-tail-bool", "arc-head-float", "arc-head-str", "in-half",
         "in-bool", "out-float"],
)
def test_masks_and_arc_endpoints_must_be_integers(kwargs):
    """Floats, bools and strings are refused, not truncated: ``(0.5, 0)``
    would be stored as the loop (0, 0) and ``(True, 2)`` as the arc
    (1, 2), and ``member_mask`` would then disagree with the dense table."""
    with pytest.raises(InputError, match="must be an integer"):
        RingFamily(ABC, **kwargs)


def test_from_labels_round_trip():
    ring = RingFamily.from_labels(
        ABC, forced_in=("a",), forced_out=("c",), implications=[("a", "b")]
    )
    assert ring.forced_in == 0b001
    assert ring.forced_out == 0b100
    assert ring.implications == ((0, 1),)


@settings(max_examples=60)
@given(ring_families(), st.data())
def test_closure_matches_naive_fixpoint(ring, data):
    g = ring.ground
    mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    got = ring.closure(g.labels_of(mask))
    want = naive_closure(
        g.labels_of(mask), g.labels_of(ring.forced_in), _label_arcs(ring)
    )
    assert got == want


@settings(max_examples=60)
@given(ring_families())
def test_closure_is_idempotent_and_extensive(ring):
    g = ring.ground
    for mask in range(min(1 << g.n, 64)):
        once = ring.closure_mask(mask)
        assert once & (mask | ring.forced_in) == (mask | ring.forced_in)
        assert ring.closure_mask(once) == once


@settings(max_examples=60)
@given(ring_families())
def test_membership_matches_naive_definition(ring):
    g = ring.ground
    fin = g.labels_of(ring.forced_in)
    fout = g.labels_of(ring.forced_out)
    arcs = _label_arcs(ring)
    for s in powerset(g.elements):
        assert ring.member(s) == naive_ring_member(s, fin, fout, arcs)


@settings(max_examples=60)
@given(ring_families())
def test_feasibility_table_and_is_empty_agree_with_members(ring):
    g = ring.ground
    table = ring.feasibility_table()
    members = naive_ring_members(
        g.elements, g.labels_of(ring.forced_in), g.labels_of(ring.forced_out), _label_arcs(ring)
    )
    assert int(table.sum()) == len(members)
    assert ring.is_empty == (len(members) == 0)
    for s in members:
        assert table[g.mask_of(s)]


def test_feasibility_table_matches_member_mask_on_larger_rings():
    """Cell by cell against ``member_mask``, at sizes past the strategy's."""
    rng = np.random.default_rng(47)
    for n in range(7, 13):
        ground = GroundSet(tuple(f"v{i}" for i in range(n)))
        for _ in range(3):
            arcs = rng.integers(0, n, size=(int(rng.integers(0, n)), 2)).tolist()
            forced_in, forced_out = (
                sum(1 << i for i in range(n) if rng.random() < 0.15) for _ in range(2)
            )
            ring = RingFamily(ground, forced_in, forced_out & ~forced_in, arcs)
            table = ring.feasibility_table()
            assert table.tolist() == [ring.member_mask(mask) for mask in range(1 << n)]


def test_members_come_in_cardinality_then_label_order():
    ring = RingFamily.from_labels(ABC, implications=[("a", "b")])
    members = ring.members()
    assert members[0] == frozenset()
    sizes = [len(s) for s in members]
    assert sizes == sorted(sizes)
    # Among the singletons, "b" precedes "c" ({a} alone violates a -> b).
    singles = [s for s in members if len(s) == 1]
    assert singles == [frozenset({"b"}), frozenset({"c"})]
