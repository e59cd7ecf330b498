"""Value oracles: the five function kinds and the submodularity checker."""

from __future__ import annotations

import numpy as np
import pytest

from ccsm.constraints import tcut_reduce
from ccsm.errors import InputError
from ccsm.families import random_oracle
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.limits import _SENTINEL
from ccsm.oracles import (
    Coverage,
    CutDirected,
    CutUndirected,
    ExplicitTable,
    Modular,
    SubmodularOracle,
    check_submodular,
)
from helpers import (
    naive_coverage,
    naive_cut_directed,
    naive_cut_undirected,
    naive_modular,
    powerset,
)

ABC = GroundSet(("a", "b", "c"))
SQUARE = GroundSet(("a", "b", "c", "d"))
CYCLE4 = tuple((u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))


def test_modular_frozen_values():
    f = SubmodularOracle(ABC, Modular({"a": -2, "b": 1, "c": 3}))
    assert f.eval(()) == 0
    assert f.eval(("a",)) == -2
    assert f.eval(("a", "c")) == 1
    assert f.eval(("a", "b", "c")) == 2


def test_cut_undirected_frozen_values():
    f = SubmodularOracle(SQUARE, CutUndirected(CYCLE4))
    assert f.eval(()) == 0
    assert f.eval(("a",)) == 2
    assert f.eval(("a", "b")) == 2
    assert f.eval(("a", "c")) == 4
    assert f.eval(("a", "b", "c", "d")) == 0


def test_cut_directed_counts_leaving_arcs_only():
    f = SubmodularOracle(ABC, CutDirected((("a", "b", 2), ("b", "c", 1))))
    assert f.eval(("a",)) == 2
    assert f.eval(("b",)) == 1
    assert f.eval(("a", "b")) == 1
    assert f.eval(("c",)) == 0
    assert f.eval(("a", "b", "c")) == 0


def test_coverage_counts_distinct_items():
    f = SubmodularOracle(
        ABC, Coverage({"a": ("1", "2"), "b": ("2", "3"), "c": ()})
    )
    assert f.eval(()) == 0
    assert f.eval(("a",)) == 2
    assert f.eval(("a", "b")) == 3
    assert f.eval(("a", "b", "c")) == 3


def test_explicit_table_round_trip():
    values = tuple(range(8))
    f = SubmodularOracle(ABC, ExplicitTable(values))
    for mask in range(8):
        assert f.eval_mask(mask) == mask


def test_explicit_table_requires_full_table():
    with pytest.raises(InputError):
        SubmodularOracle(ABC, ExplicitTable((0, 1, 2)))


@pytest.mark.parametrize(
    "spec",
    [
        Modular({"a": 1.9}),
        Modular({"a": "3"}),
        Modular({"a": "x"}),
        Modular({"a": True}),
        Modular({"a": np.float64(2.0)}),
        CutUndirected((("a", "b", 1.9),)),
        CutUndirected((("a", "b", "3"),)),
        CutUndirected((("a", "b", "x"),)),
        CutUndirected((("a", "b", True),)),
        CutDirected((("a", "b", 1.9),)),
        ExplicitTable((0, 1.5, 0.7, 1.2, 1, 1, 1, 1)),
        ExplicitTable((0, 1, 1, 1, 1, 1, 1, "3")),
        ExplicitTable((False, True, True, True, True, True, True, True)),
        ExplicitTable((0, True, 1, 1, 1, 1, 1, 1)),
        ExplicitTable((0, np.True_, 1, 1, 1, 1, 1, 1)),
        Coverage({"a": "xyz"}),
    ],
    ids=repr,
)
def test_specs_refuse_values_that_are_not_integers(spec):
    """Weights and table values are never cast: 1.9 would become 1 and
    "3" would become 3.  An item list given as a string is not split."""
    with pytest.raises(InputError):
        SubmodularOracle(ABC, spec)


def test_specs_take_numpy_integers():
    weights = {"a": np.int64(-2), "b": np.uint8(1), "c": 3}
    assert SubmodularOracle(ABC, Modular(weights)).eval(("a", "b", "c")) == 2
    cut = SubmodularOracle(ABC, CutDirected((("a", "b", np.int32(4)),)))
    assert cut.eval(("a",)) == 4
    table = SubmodularOracle(ABC, ExplicitTable(np.arange(8, dtype=np.uint16)))
    assert table.value_table().tolist() == list(range(8))


def test_edge_validation():
    with pytest.raises(InputError):
        SubmodularOracle(ABC, CutUndirected((("a", "a", 1),)))
    with pytest.raises(InputError):
        SubmodularOracle(ABC, CutUndirected((("a", "b", -1),)))
    with pytest.raises(InputError):
        SubmodularOracle(ABC, CutUndirected((("a", "z", 1),)))


def test_eval_mask_rejects_out_of_range():
    f = SubmodularOracle(ABC, Modular({"a": 1}))
    with pytest.raises(InputError):
        f.eval_mask(8)
    with pytest.raises(InputError):
        f.eval_mask(-1)


def _random_oracles(seed=0):
    rng = np.random.default_rng(seed)
    n = 5
    ground = GroundSet(tuple(f"v{i}" for i in range(n)))
    weights = {lab: int(rng.integers(-5, 6)) for lab in ground.elements}
    edges = []
    arcs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = int(rng.integers(0, 4))
            if w:
                arcs.append((f"v{i}", f"v{j}", w))
            if i < j and w:
                edges.append((f"v{i}", f"v{j}", w))
    covered = {
        lab: tuple(f"i{j}" for j in range(8) if rng.random() < 0.4)
        for lab in ground.elements
    }
    yield SubmodularOracle(ground, Modular(weights)), lambda s: naive_modular(weights, s)
    yield (
        SubmodularOracle(ground, CutUndirected(tuple(edges))),
        lambda s: naive_cut_undirected(edges, s),
    )
    yield (
        SubmodularOracle(ground, CutDirected(tuple(arcs))),
        lambda s: naive_cut_directed(arcs, s),
    )
    yield (
        SubmodularOracle(ground, Coverage(covered)),
        lambda s: naive_coverage(covered, s),
    )


@pytest.mark.parametrize("case", range(4))
def test_oracles_match_naive_formulas(case):
    oracle, naive = list(_random_oracles())[case]
    ground = oracle.ground
    for subset in powerset(ground.elements):
        assert oracle.eval(subset) == naive(subset)


def test_value_table_agrees_with_eval_mask_and_eval():
    for oracle, _ in _random_oracles(seed=3):
        _assert_table_matches_scalar(oracle)


def _assert_table_matches_scalar(oracle, naive=None):
    """The doubled table equals the scalar path (and ``naive``) on every mask."""
    ground = oracle.ground
    table = oracle.value_table()
    scalar = [oracle.eval_mask(mask) for mask in range(1 << ground.n)]
    by_labels = [oracle.eval(ground.labels_of(mask)) for mask in range(1 << ground.n)]
    assert table.dtype == np.int64 and table.shape == (1 << ground.n,)
    assert table.tolist() == scalar == by_labels
    if naive is not None:
        assert scalar == [naive(ground.labels_of(mask)) for mask in range(1 << ground.n)]


def _labels(n):
    return tuple(f"v{i}" for i in range(n))


def _edge_cases():
    """(id, oracle factory, naive formula) triples for the table check."""
    five = GroundSet(_labels(5))
    rng = np.random.default_rng(7)
    multi = [("v0", "v1", 3), ("v0", "v1", 2), ("v1", "v0", 4), ("v2", "v4", 0),
             ("v4", "v2", 5), ("v3", "v1", 1), ("v3", "v1", 1), ("v0", "v4", 0)]
    randomized = [
        (f"v{u}", f"v{v}", int(rng.integers(0, 7)))
        for u, v in rng.integers(0, 5, size=(30, 2))
        if u != v
    ]
    for name, ground in (("n0", GroundSet(())), ("n1", GroundSet(("v0",)))):
        yield f"modular-{name}", lambda g=ground: SubmodularOracle(g, Modular({"v0": -3} if g.n else {})), None
        yield f"cut-{name}", lambda g=ground: SubmodularOracle(g, CutUndirected(())), None
        yield f"arcs-{name}", lambda g=ground: SubmodularOracle(g, CutDirected(())), None
        yield (
            f"coverage-{name}",
            lambda g=ground: SubmodularOracle(g, Coverage({"v0": ("x", "y")} if g.n else {})),
            None,
        )
    zeros = {lab: 0 for lab in five.elements}
    yield "modular-zero", lambda: SubmodularOracle(five, Modular(zeros)), None
    zero_edges = [(u, v, 0) for u, v, _ in multi]
    yield "cut-zero", lambda: SubmodularOracle(five, CutUndirected(tuple(zero_edges))), None
    yield "arcs-zero", lambda: SubmodularOracle(five, CutDirected(tuple(zero_edges))), None
    for name, edges in (("multi", multi), ("random", randomized)):
        yield (
            f"cut-{name}",
            lambda e=edges: SubmodularOracle(five, CutUndirected(tuple(e))),
            lambda s, e=edges: naive_cut_undirected(e, s),
        )
        yield (
            f"arcs-{name}",
            lambda e=edges: SubmodularOracle(five, CutDirected(tuple(e))),
            lambda s, e=edges: naive_cut_directed(e, s),
        )
    for n_items in (0, 64, 130):
        items = [f"i{j}" for j in range(n_items)]
        covered = {
            lab: tuple(it for it in items if rng.random() < 0.3) for lab in five.elements
        }
        if n_items:
            covered["v4"] = tuple(items)
        yield (
            f"coverage-{n_items}-items",
            lambda c=covered: SubmodularOracle(five, Coverage(c)),
            lambda s, c=covered: naive_coverage(c, s),
        )


@pytest.mark.parametrize(
    "make, naive", [case[1:] for case in _edge_cases()], ids=[case[0] for case in _edge_cases()]
)
def test_value_table_matches_scalar_on_edge_cases(make, naive):
    _assert_table_matches_scalar(make(), naive)


def test_value_table_matches_scalar_on_projections():
    base_ground = GroundSet(_labels(4))
    arcs = (("v0", "v1", 2), ("v1", "v0", 1), ("v2", "v3", 4), ("v3", "v0", 3))
    bases = [
        SubmodularOracle(base_ground, CutUndirected(arcs)),
        SubmodularOracle(base_ground, ExplicitTable(tuple((m * 7) % 11 - 5 for m in range(16)))),
        SubmodularOracle(base_ground, Coverage({"v1": ("x",), "v3": ("x", "y")})),
    ]
    ring = RingFamily(base_ground)
    for base in bases:
        for terminals in (("v1",), ("v0", "v3")):
            reduced = tcut_reduce(base, ring, terminals, 3, 1)
            _assert_table_matches_scalar(
                reduced.oracle, lambda s, b=base: b.eval(reduced.project(s))
            )


def test_eval_mask_never_reads_the_cached_table():
    """Corrupting one cached cell leaves the scalar path on the definition."""
    rng = np.random.default_rng(13)
    values = tuple(int(v) for v in rng.integers(-9, 10, size=32))
    table_oracle = SubmodularOracle(GroundSet(_labels(5)), ExplicitTable(values))
    cases = list(_random_oracles(seed=17))
    cases.append((table_oracle, lambda s: values[table_oracle.ground.mask_of(s)]))
    for base, naive in list(cases):
        ring = RingFamily(base.ground)
        reduced = tcut_reduce(base, ring, ("v0", "v2"), 2, 1)
        cases.append((reduced.oracle, lambda s, r=reduced, f=naive: f(r.project(s))))
    for oracle, naive in cases:
        ground = oracle.ground
        mask = ground.full_mask // 3
        oracle.value_table()[mask] += 1
        for m in (mask, 0, ground.full_mask):
            assert oracle.eval_mask(m) == naive(ground.labels_of(m))
        assert oracle.value_table()[mask] == naive(ground.labels_of(mask)) + 1


def test_value_table_is_cached_and_complete():
    oracle = SubmodularOracle(ABC, Modular({"a": 1, "b": 2, "c": 4}))
    table = oracle.value_table()
    scalar = [oracle.eval_mask(m) for m in range(8)]
    assert table is oracle.value_table()
    assert list(table) == scalar


def test_range_bound_dominates_all_values():
    for oracle, _ in _random_oracles(seed=11):
        table = oracle.value_table()
        assert int(np.abs(table).max()) <= oracle.range_bound


def test_values_beyond_int64_headroom_are_refused():
    # 2**62 + 2**62 wraps to -2**63 in int64; 2**63 does not fit at all.
    for weights in ({"a": 2**62, "b": 2**62, "c": -5}, {"a": 2**63}):
        with pytest.raises(InputError, match="int64"):
            SubmodularOracle(ABC, Modular(weights))
    with pytest.raises(InputError, match="int64"):
        SubmodularOracle(ABC, CutUndirected((("a", "b", 2**63),)))
    with pytest.raises(InputError, match="int64"):
        SubmodularOracle(ABC, CutDirected((("a", "b", 2**63),)))
    with pytest.raises(InputError, match="int64"):
        SubmodularOracle(ABC, ExplicitTable((0,) * 7 + (2**63,)))
    # The largest bound with (n + 2) * range_bound <= _SENTINEL is accepted.
    limit = _SENTINEL // 5
    assert SubmodularOracle(ABC, Modular({"a": -limit})).range_bound == limit
    with pytest.raises(InputError, match="int64"):
        SubmodularOracle(ABC, Modular({"a": -limit - 1}))


def test_compiled_energies_have_only_nonpositive_pair_terms():
    """Modular and cut specs compile to sum a_i x_i + sum_{j<i} b_ij x_i x_j
    with every b_ij <= 0, and b = 0 for a modular spec: the precondition
    of a graph construction for pinned minimizers."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 11))
        for family in ("modular", "cut", "cut_directed"):
            oracle = random_oracle(rng, family, n)
            b = oracle._b
            assert b.shape == (n, n)
            assert not np.triu(b).any()
            if family == "modular":
                assert not b.any()
            else:
                assert (b <= 0).all()


def test_check_submodular_accepts_all_builtin_kinds():
    for oracle, _ in _random_oracles(seed=5):
        report = check_submodular(oracle)
        assert report.ok


def test_check_submodular_flags_a_supermodular_table():
    # f(S) = |S|^2 violates diminishing returns as soon as n >= 2.
    values = tuple(bin(m).count("1") ** 2 for m in range(8))
    oracle = SubmodularOracle(ABC, ExplicitTable(values))
    report = check_submodular(oracle)
    assert not report.ok
    assert report.witness is not None
    a, b = report.witness
    assert a != b and len(a) == len(b)
