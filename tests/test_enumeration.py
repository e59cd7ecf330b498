"""Pair enumeration: counting, the node table, and the solver itself."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ccsm.constraints import (
    CongruencyConstraint,
    GeneralizedConstraint,
    MembershipOracle,
)
from ccsm.cuts import CutProblem, solve_cut
from ccsm.enumeration import (
    _pinned_minimizers,
    _scaled_cells,
    candidate_pairs,
    enum_solve,
    pair_count,
)
from ccsm.errors import InputError
from ccsm.families import (
    FAMILY_NAMES,
    random_generalized_instance,
    random_instance,
    random_modular,
    random_oracle,
    random_ring,
    tight_depth_instance,
)
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import Coverage, CutUndirected, Modular, SubmodularOracle
from ccsm.reference import exhaustive_solve
from helpers import (
    brute_constrained_min,
    card_lex_key,
    modular_congruence_min,
    naive_cut_undirected,
    naive_pairs,
    naive_ring_member,
    powerset,
)


def test_pair_count_frozen_values():
    assert pair_count(2, 0) == 1
    assert pair_count(2, 1) == 7
    assert pair_count(3, 3) == 27
    assert pair_count(6, 2) == 283


def test_pair_count_matches_direct_enumeration():
    for n in range(0, 7):
        labels = [str(i) for i in range(n)]
        for d in range(0, 7):
            assert pair_count(n, d) == len(naive_pairs(labels, d))


def test_pair_count_saturates_at_three_to_the_n():
    for n in range(0, 9):
        assert pair_count(n, n) == 3**n
        assert pair_count(n, n + 5) == 3**n


def test_candidate_pairs_frozen_order():
    got = list(candidate_pairs(2, 1))
    assert got == [
        ((), ()),
        ((), (0,)),
        ((), (1,)),
        ((0,), ()),
        ((0,), (1,)),
        ((1,), ()),
        ((1,), (0,)),
    ]


def test_candidate_pairs_are_disjoint_and_complete():
    for n in range(0, 6):
        for d in range(0, 4):
            pairs = list(candidate_pairs(n, d))
            assert len(pairs) == pair_count(n, d)
            seen = set()
            for a, b in pairs:
                assert len(a) <= d and len(b) <= d
                assert not set(a) & set(b)
                seen.add((a, b))
            assert len(seen) == len(pairs)


def _bounded_depth_cases():
    """Hand-made and random cases at depths 1-3."""
    abc = GroundSet(("a", "b", "c"))
    square = GroundSet(("a", "b", "c", "d"))
    cycle = tuple((u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
    yield SubmodularOracle(abc, Modular({})), RingFamily.full(abc), 2
    yield SubmodularOracle(abc, Modular({"a": 0, "b": -1})), RingFamily.full(abc), 1
    yield (
        SubmodularOracle(square, CutUndirected(cycle)),
        RingFamily.from_labels(square, forced_in=("a",), forced_out=("c",)),
        2,
    )
    empty = RingFamily.from_labels(abc, ("a",), ("b",), implications=[("a", "b")])
    yield SubmodularOracle(abc, Modular({})), empty, 1
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        family = ("modular", "cut", "cut_directed", "coverage", "table")[int(rng.integers(0, 5))]
        oracle = random_oracle(rng, family, n)
        yield oracle, random_ring(rng, oracle.ground, lattice_prob=0.7), int(rng.integers(1, 4))


def _full_depth_cases():
    """The two ends of the depth range: depth 0 (the one unpinned pair)
    and depth n (the whole ternary set of 3**n pairs)."""
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        family = ("modular", "cut", "coverage", "table")[int(rng.integers(0, 4))]
        oracle = random_oracle(rng, family, n)
        ring = random_ring(rng, oracle.ground, lattice_prob=0.5)
        yield oracle, ring, 0
        yield oracle, ring, n


NODE_TABLE_CASES = {"bounded_depth": _bounded_depth_cases, "full_depth": _full_depth_cases}


def _rows_by_sizes(rows, base):
    """The node table's rows as sorted (|A|, |B|, set, g) tuples, g = cell
    + ``base``, so two tables compare per pair size whatever their row
    order."""
    columns = (rows.asize, rows.bsize, rows.setmask, rows.value)
    return sorted((a, b, s, cell + base) for a, b, s, cell in zip(*(c.tolist() for c in columns)))


def _node_table(oracle, ring, d):
    """The node table of ``oracle`` on ``ring`` up to depth ``d``, as
    ``_rows_by_sizes`` gives it."""
    cells, base = _scaled_cells(oracle, ring)
    return _rows_by_sizes(_pinned_minimizers(cells, oracle.ground.n, d), base)


@pytest.mark.parametrize("cases", sorted(NODE_TABLE_CASES))
def test_node_table_matches_brute_force(cases):
    """The node table holds one row per pair (A, B) for which some ring
    member contains A and avoids B: the inclusion-minimal minimizer of f
    over those members, found by a literal scan, and its g = (n + 1) f + |S|."""
    for oracle, ring, d in NODE_TABLE_CASES[cases]():
        g = oracle.ground
        labels = g.elements
        fin = g.labels_of(ring.forced_in)
        fout = g.labels_of(ring.forced_out)
        arcs = [(labels[u], labels[v]) for u, v in ring.implications]
        value = {s: oracle.eval(s) for s in powerset(labels)}
        want = []
        for a, b in candidate_pairs(g.n, d):
            a_labels = [labels[i] for i in a]
            b_labels = [labels[i] for i in b]
            best, optima = brute_constrained_min(
                labels,
                value.__getitem__,
                lambda s: naive_ring_member(s, (*fin, *a_labels), (*fout, *b_labels), arcs),
            )
            if best is None:
                continue
            minimal = [s for s in optima if all(s <= opt for opt in optima)]
            assert len(minimal) == 1
            got = minimal[0]
            want.append((len(a), len(b), g.mask_of(got), (g.n + 1) * best + len(got)))
        assert _node_table(oracle, ring, d) == sorted(want)


# (cell width, base): tables of unsigned cells in each cell width, with
# rows' g = cell + base.
CELL_TABLES = (
    (np.uint16, 0),
    (np.uint16, -1_000),
    (np.uint16, 70_000),
    (np.uint32, 0),
    (np.uint64, -(2**63)),
)


def _any_tables(rng):
    """Cell tables with ties and 30 % holes (cells at the width's top)
    and a member cell at top - 1, in each of ``CELL_TABLES``, for
    n = 0 ... 8, then all-hole tables in each width."""
    for width, base in CELL_TABLES:
        top = np.iinfo(width).max
        values = np.array([0, 1, 2, top - 2, top - 1], dtype=width)
        for n in range(9):
            cells = rng.choice(values, size=1 << n)
            cells[rng.random(1 << n) < 0.3] = top
            ends = rng.choice(1 << n, size=min(2, 1 << n), replace=False)
            cells[ends] = np.array((0, top - 1), dtype=width)[: len(ends)]
            yield n, cells, base
    for width, base in CELL_TABLES:
        for n in range(5):
            yield n, np.full(1 << n, np.iinfo(width).max, dtype=width), base


def _interval_rows(cells, base, n, d, batch=1 << 21):
    """The node table's rows by brute force, sorted as ``_rows_by_sizes``
    sorts them: per pair (A, B) whose interval [A, N - B] holds a cell
    below the width's top, (|A|, |B|, argmin, base + minimum), where the
    argmin is the one greatest in bit-reversed order.  The cells of each
    interval are gathered by index, ``batch`` cells at a time."""
    top = np.iinfo(cells.dtype).max
    pairs = list(candidate_pairs(n, d))
    want = []
    # Pairs with equal |A| + |B| = u have intervals of 2**(n - u) cells.
    # Column k of an interval is A plus the free bits picked by k's bits,
    # the lowest free bit by k's top bit, so k orders the sets as their
    # bit-reversed masks do and the pick is the last tie.
    for u in range(min(n, 2 * d) + 1):
        group = [(a, b) for a, b in pairs if len(a) + len(b) == u]
        step = max(1, batch >> (n - u))
        for at in range(0, len(group), step):
            part = group[at : at + step]
            idx = np.array([[sum(1 << i for i in a)] for a, _ in part], dtype=np.int32)
            free = np.array(
                [[i for i in range(n) if i not in a and i not in b] for a, b in part],
                dtype=np.int32,
            ).reshape(len(part), n - u)
            for t in reversed(range(n - u)):
                idx = np.concatenate([idx, idx | (1 << free[:, t : t + 1])], axis=1)
            values = cells[idx]
            low = values.min(axis=1)
            last = (values == low[:, None])[:, ::-1].argmax(axis=1)
            pick = idx[np.arange(len(part)), -1 - last]
            want += [
                (len(a), len(b), int(s), int(v) + base)
                for (a, b), s, v in zip(part, pick, low)
                if v != top
            ]
    return sorted(want)


def test_pinned_entries_attain_the_interval_minimum_on_any_table():
    """On tables with ties and holes, where the minimizer need not be
    unique, the node table has one row per pair whose interval [A, N - B]
    holds a cell below the width's top, and none for an interval of
    holes.  Each row's g is base plus the least cell of its interval, and
    its set is the argmin there that is greatest in bit-reversed order:
    the backtrack sets bit 0 first and takes the 1-half on every tie.
    Depths run past n, so nodes run out of budget at every level; the
    tables reach every cell width, each with a member at top - 1."""
    rng = np.random.default_rng(35)
    for n, cells, base in _any_tables(rng):
        d = int(rng.integers(0, n + 2))
        want = _interval_rows(cells, base, n, d)
        assert _rows_by_sizes(_pinned_minimizers(cells.copy(), n, d), base) == want


@pytest.mark.parametrize("width", [np.uint16, np.uint32], ids=["uint16", "uint32"])
def test_pinned_entries_attain_the_interval_minimum_on_large_tables(width):
    """As above on tables of 2**15 and 2**16 cells, where levels pass the
    cap of max(2**n, 2**16) cells and ``_split`` takes over: at n = 16,
    d = 1 the lone first node passes its B- and A-children on as views of
    its halves, at d = 2 node lists also go on in pieces (three to six
    splits a table), and at d = 3, the depth of a proper cut's table, the
    pieces split again level after level (nine splits at n = 15)."""
    rng = np.random.default_rng(36)
    top = np.iinfo(width).max
    values = np.array([0, 1, 2, 3, top - 1], dtype=width)
    for n, depths in ((15, (1, 2, 3)), (16, (1, 2))):
        cells = rng.choice(values, size=1 << n)
        cells[rng.random(1 << n) < 0.3] = top
        for d in depths:
            want = _interval_rows(cells, -7, n, d)
            assert _rows_by_sizes(_pinned_minimizers(cells.copy(), n, d), -7) == want


def test_a_solve_leaves_no_garbage_cycle():
    """Solves free their tables by reference counting: a reference cycle
    would keep each solve's 2**n buffers alive until the cyclic GC ran."""
    instance = random_instance(np.random.default_rng(48), "cut", 8, 3)
    problem = CutProblem(
        instance.oracle.ground.elements,
        instance.oracle.spec.edges,
        False,
        CongruencyConstraint(2, 1),
        proper=True,
    )
    gc.collect()
    gc.disable()
    try:
        enum_solve(instance.oracle, instance.ring, instance.constraint)
        solve_cut(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth_family_m3_frozen_solution():
    instance = tight_depth_instance(3)
    full = enum_solve(instance.oracle, instance.ring, instance.constraint)
    assert full.value == -1
    assert full.best == frozenset({"0", "1", "2"})
    assert full.depth == 2
    assert full.guaranteed
    assert full.sfm_calls == 283
    assert full.skipped_empty == 0

    shallow = enum_solve(instance.oracle, instance.ring, instance.constraint, depth=1)
    assert shallow.value == 0
    assert shallow.best == frozenset()
    assert not shallow.guaranteed


def test_four_cycle_generalized_frozen_solution():
    g = GroundSet(("a", "b", "c", "d"))
    edges = tuple((u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
    oracle = SubmodularOracle(g, CutUndirected(edges))
    constraint = GeneralizedConstraint(
        2, ((frozenset({"a", "b"}), 1), (frozenset({"c", "d"}), 1))
    )
    sol = enum_solve(oracle, None, constraint)
    assert sol.depth == 2
    assert sol.value == 2
    assert sol.best == frozenset({"a", "d"})
    assert sol.guaranteed


def test_unconstrained_run_returns_the_lattice_minimum():
    rng = np.random.default_rng(40)
    for _ in range(10):
        oracle = random_oracle(rng, "modular", 6)
        ring = random_ring(rng, oracle.ground, lattice_prob=0.8)
        if ring.is_empty:
            continue
        sol = enum_solve(oracle, ring)
        assert sol.value == exhaustive_solve(oracle, ring, None).optimum
        assert sol.guaranteed


def test_empty_ring_yields_no_candidates():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({}))
    ring = RingFamily(g, g.mask_of(("a",)), 0, [(0, 1)])
    empty = RingFamily(g, ring.forced_in, g.mask_of(("b",)), ring.implications)
    sol = enum_solve(oracle, empty, CongruencyConstraint(2, 0))
    assert sol.best is None and sol.value is None
    assert sol.sfm_calls == 0
    assert sol.skipped_empty == pair_count(2, 1)
    assert sol.candidates == 0


def test_counter_identity_holds_everywhere():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        instance = random_instance(rng, "modular", n, m)
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        assert sol.sfm_calls + sol.skipped_empty == pair_count(n, sol.depth)
        assert sol.candidates <= sol.sfm_calls or sol.depth == 0


def test_deeper_search_never_worsens_the_value():
    rng = np.random.default_rng(42)
    for _ in range(15):
        instance = random_instance(rng, "cut", 6, 4)
        values = []
        for d in range(0, 4):
            sol = enum_solve(
                instance.oracle, instance.ring, instance.constraint, depth=d
            )
            values.append(sol.value)
        seen_values = [v for v in values if v is not None]
        assert seen_values == sorted(seen_values, reverse=True)
        # Once feasible, deeper runs stay feasible.
        first = next((i for i, v in enumerate(values) if v is not None), None)
        if first is not None:
            assert all(v is not None for v in values[first:])


def test_candidate_family_grows_with_depth():
    rng = np.random.default_rng(43)
    instance = random_instance(rng, "coverage", 6, 3)
    prev: set = set()
    for d in range(0, 4):
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint, depth=d)
        cur = set(sol.candidate_sets)
        assert prev <= cur
        prev = cur


def test_candidate_sets_are_built_only_when_read(monkeypatch):
    """A solve builds a label set for ``best`` alone; ``candidate_sets``,
    built on first read, lists the distinct candidates in (f, |S|, lex)
    order.  Equal runs compare equal, and ``replace`` keeps the
    candidates."""
    built = []
    set_of = GroundSet.set_of

    def counted_set_of(ground, mask):
        built.append(mask)
        return set_of(ground, mask)

    monkeypatch.setattr(GroundSet, "set_of", counted_set_of)

    def check(solution, f):
        ground = solution.ground
        assert built == ([] if solution.best is None else [ground.mask_of(solution.best)])
        built.clear()
        sets = solution.candidate_sets
        assert built == list(solution.candidate_masks)
        card_lex = card_lex_key(ground.elements)
        assert len(set(sets)) == len(sets) == solution.candidates
        assert sets == tuple(sorted(sets, key=lambda s: (f(s), card_lex(s))))
        assert solution.candidate_sets is sets

    rng = np.random.default_rng(66)
    for family in FAMILY_NAMES:
        for m in (2, 3, 5):
            instance = random_instance(rng, family, int(rng.integers(5, 10)), m)
            args = (instance.oracle, instance.ring, instance.constraint)
            built.clear()
            solution = enum_solve(*args)
            check(solution, instance.oracle.eval)
            assert enum_solve(*args) == solution
    # Depth 0 collects the empty set alone, and it misses the residue.
    oracle = SubmodularOracle(GroundSet(("a", "b")), Modular({}))
    built.clear()
    solution = enum_solve(oracle, None, CongruencyConstraint(2, 1), depth=0)
    assert solution.best is None and solution.candidates == 1
    check(solution, oracle.eval)
    labels = tuple(f"x{i}" for i in range(8))
    edges = tuple(
        (labels[i], labels[j], int(rng.integers(1, 10)))
        for i, j in combinations(range(8), 2)
        if rng.random() < 0.4
    )
    for constraint in (CongruencyConstraint(3, 1), CongruencyConstraint(2, 0)):
        problem = CutProblem(labels, edges, False, constraint, proper=True)
        built.clear()
        solution = solve_cut(problem)
        check(solution, lambda s: naive_cut_undirected(edges, s))
        again = solve_cut(problem)
        assert again == solution
        changed = replace(again, value=again.value + 1)
        assert changed != solution
        assert changed.candidate_sets == solution.candidate_sets


def test_enum_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 6))
        family = ("modular", "cut", "cut_directed", "coverage", "table")[
            int(rng.integers(0, 5))
        ]
        instance = random_instance(rng, family, n, m)
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        truth = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        if sol.guaranteed:
            assert sol.value == truth.optimum
        elif sol.value is not None:
            assert truth.optimum is not None
            assert sol.value >= truth.optimum


@pytest.mark.parametrize(
    "scale, width",
    [(1, np.uint16), (2**16, np.uint32), (2**36, np.uint64)],
    ids=["uint16", "uint32", "uint64"],
)
def test_solves_match_the_reference_at_every_cell_width(scale, width):
    """Weights scaled so that every node table has cells of ``width``:
    ``enum_solve`` matches the exhaustive reference and a proper cut
    matches a brute-force scan, in value and in the (cardinality, lex)
    first optimal set."""
    rng = np.random.default_rng(49)

    for _ in range(10):
        n = int(rng.integers(3, 11))
        m = int(rng.choice([2, 3, 4, 5]))
        constraint = CongruencyConstraint(m, int(rng.integers(0, m)))
        labels = tuple(f"x{i}" for i in range(n))
        ground = GroundSet(labels)
        card_lex = card_lex_key(labels)
        weights = {x: int(rng.integers(-9, 10)) * scale for x in labels}
        edges = tuple(
            (labels[i], labels[j], int(rng.integers(1, 10)) * scale)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        ring = random_ring(rng, ground, lattice_prob=0.5)
        cut = SubmodularOracle(ground, CutUndirected(edges))
        for oracle in (SubmodularOracle(ground, Modular(weights)), cut):
            assert _scaled_cells(oracle, ring)[0].dtype == width
            sol = enum_solve(oracle, ring, constraint)
            truth = exhaustive_solve(oracle, ring, constraint)
            assert sol.guaranteed and sol.value == truth.optimum
            if sol.best is not None:
                assert sol.best == min(truth.all_minimal_optima, key=card_lex)
        assert _scaled_cells(cut, RingFamily.full(ground))[0].dtype == width
        solution = solve_cut(CutProblem(labels, edges, False, constraint, proper=True))
        trivial = (frozenset(), frozenset(labels))
        best, optima = brute_constrained_min(
            labels,
            lambda s: naive_cut_undirected(edges, s),
            lambda s: len(s) % m == constraint.residue and s not in trivial,
        )
        assert solution.guaranteed and solution.value == best
        if best is not None:
            assert solution.best == min(optima, key=card_lex)


@pytest.mark.parametrize("family", ["cut", "cut_directed", "coverage"])
def test_solves_whose_levels_split_match_the_reference(family):
    """At n = 16 the node table's levels pass their cap and split: the value
    and the (cardinality, lex) first optimal set match the exhaustive
    reference, and every inclusion-minimal optimum is a candidate.  Draws
    whose optimum is missing or only the empty or the full set, as for a
    cut on the full lattice at a residue of 0 or n, are drawn again."""
    rng = np.random.default_rng(64)
    for m in (2, 3):
        while True:
            instance = random_instance(rng, family, 16, m)
            truth = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
            if any(0 < len(s) < 16 for s in truth.all_minimal_optima):
                break
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        card_lex = card_lex_key(instance.ground.elements)
        assert sol.guaranteed and sol.value == truth.optimum
        assert sol.best == min(truth.all_minimal_optima, key=card_lex)
        assert set(truth.all_minimal_optima) <= set(sol.candidate_sets)


def test_a_proper_cut_whose_levels_split_matches_a_dense_scan():
    """A proper cut at n = 16, m = 2 (a node table at depth 2) against a
    scan of all 2**16 sets: value and (cardinality, lex) first optimum."""
    rng = np.random.default_rng(65)
    n = 16
    labels = tuple(f"x{i}" for i in range(n))
    edges = tuple(
        (labels[i], labels[j], int(rng.integers(1, 10)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    )
    masks = np.arange(1 << n)
    value = np.zeros(1 << n, dtype=np.int64)
    for u, v, w in edges:
        value += w * (((masks >> labels.index(u)) ^ (masks >> labels.index(v))) & 1)
    sizes = np.bitwise_count(masks)
    for residue in (0, 1):
        feasible = (sizes % 2 == residue) & (sizes > 0) & (sizes < n)
        best = value[feasible].min()
        optima = [
            frozenset(labels[i] for i in range(n) if s >> i & 1)
            for s in masks[feasible & (value == best)].tolist()
        ]
        constraint = CongruencyConstraint(2, residue)
        solution = solve_cut(CutProblem(labels, edges, False, constraint, proper=True))
        assert solution.guaranteed and solution.value == best
        assert solution.best == min(optima, key=card_lex_key(labels))


# id: (spec kind, n, weight, width).  f is weight * [x0 in S] for
# "modular", a single edge x0x1 of that weight for "cut" and x0 covering
# that many items for "coverage", so the spec's bounds are 0 and weight
# and the id names the scaled range (n + 1) * weight + n (modular ids
# carry no kind).  Coverage stops at the uint16 boundaries: reaching
# uint64 would take about 2**32 / (n + 1) items.
WIDTH_EDGES = {
    "2**16-2": ("modular", 2, 21_844, np.uint16),
    "2**16-1": ("modular", 1, 2**15 - 1, np.uint32),
    "2**32-2": ("modular", 2, 1_431_655_764, np.uint32),
    "2**32-1": ("modular", 1, 2**31 - 1, np.uint64),
    "cut-2**16-2": ("cut", 2, 21_844, np.uint16),
    "cut-2**16-1": ("cut", 3, 16_383, np.uint32),
    "cut-2**32-2": ("cut", 2, 1_431_655_764, np.uint32),
    "cut-2**32-1": ("cut", 3, 2**30 - 1, np.uint64),
    "coverage-2**16-2": ("coverage", 2, 21_844, np.uint16),
    "coverage-2**16-1": ("coverage", 3, 16_383, np.uint32),
}


@pytest.mark.parametrize("kind, n, weight, width", WIDTH_EDGES.values(), ids=WIDTH_EDGES)
def test_cell_width_is_the_first_whose_top_exceeds_the_scaled_range(kind, n, weight, width):
    """The width is picked from the spec's bounds: the ids give the scaled
    range (n + 1)(hi - lo) + n, and one below a width's top keeps that
    width while the top itself takes the next.  The rows of all pairs
    match a scan of each interval for its least g = (n + 1) f + |S|."""
    labels = tuple(f"x{i}" for i in range(n))
    ground = GroundSet(labels)
    if kind == "modular":
        spec = Modular({"x0": weight})
    elif kind == "cut":
        spec = CutUndirected((("x0", "x1", weight),))
    else:
        spec = Coverage({"x0": tuple(f"i{j}" for j in range(weight))})
    oracle = SubmodularOracle(ground, spec)
    assert oracle.bounds == (0, weight)
    ring = RingFamily.full(ground)
    assert _scaled_cells(oracle, ring)[0].dtype == width
    want = []
    for a, b in candidate_pairs(n, n):
        inside, outside = sum(1 << i for i in a), sum(1 << i for i in b)
        scan = sorted(
            ((n + 1) * oracle.eval_mask(s) + s.bit_count(), s)
            for s in range(1 << n)
            if s & inside == inside and not s & outside
        )
        assert len(scan) == 1 or scan[0][0] < scan[1][0]
        want.append((len(a), len(b), scan[0][1], scan[0][0]))
    assert _node_table(oracle, ring, n) == sorted(want)


def test_cell_width_follows_the_spec_bounds_where_the_ring_narrows_the_members():
    """With x0 forced out, f lies in [-2, 1] on the members, but the width
    follows the spec's bounds [-2, 20001]: 4 * 20003 + 3 = 80015 takes
    uint32 where the members' range alone would fit uint16.  The answer
    is the exhaustive reference's."""
    ground = GroundSet(("x0", "x1", "x2"))
    oracle = SubmodularOracle(ground, Modular({"x0": 20_000, "x1": -2, "x2": 1}))
    ring = RingFamily.from_labels(ground, forced_out=("x0",))
    constraint = CongruencyConstraint(2, 0)
    assert oracle.bounds == (-2, 20_001)
    assert _scaled_cells(oracle, ring)[0].dtype == np.uint32
    sol = enum_solve(oracle, ring, constraint)
    truth = exhaustive_solve(oracle, ring, constraint)
    assert sol.guaranteed and sol.value == truth.optimum == -1
    assert (sol.best,) == truth.all_minimal_optima == (frozenset({"x1", "x2"}),)


def test_the_solve_path_builds_no_value_table(monkeypatch):
    """With ``value_table`` patched to raise, ``enum_solve`` on modular,
    cut, directed-cut and coverage oracles and a proper ``solve_cut``
    still give the reference answers computed beforehand: the cells come
    from the spec, not from an int64 table of f."""
    rng = np.random.default_rng(67)
    runs = []
    for family in ("modular", "cut", "cut_directed", "coverage"):
        for m in (2, 3):
            instance = random_instance(rng, family, 9, m)
            truth = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
            fresh = SubmodularOracle(instance.ground, instance.oracle.spec)
            runs.append((fresh, instance, truth))
    labels = tuple(f"x{i}" for i in range(9))
    edges = tuple(
        (labels[i], labels[j], int(rng.integers(1, 10)))
        for i in range(9)
        for j in range(i + 1, 9)
        if rng.random() < 0.5
    )
    best, optima = brute_constrained_min(
        labels,
        lambda s: naive_cut_undirected(edges, s),
        lambda s: len(s) % 3 == 1 and 0 < len(s) < 9,
    )

    def refuse(self):
        raise AssertionError("value_table() called on the solve path")

    monkeypatch.setattr(SubmodularOracle, "value_table", refuse)
    for oracle, instance, truth in runs:
        sol = enum_solve(oracle, instance.ring, instance.constraint)
        assert sol.guaranteed and sol.value == truth.optimum
        if truth.optimum is not None:
            card_lex = card_lex_key(instance.ground.elements)
            assert sol.best == min(truth.all_minimal_optima, key=card_lex)
    solution = solve_cut(CutProblem(labels, edges, False, CongruencyConstraint(3, 1), True))
    assert solution.guaranteed and solution.value == best
    assert solution.best == min(optima, key=card_lex_key(labels))


def test_node_table_builds_no_int64_table_of_g():
    """``enum_solve`` on a fresh cut oracle at n = 16, d = 1 peaks below 8
    bytes a cell: the cells are written in their cell width straight from
    the spec, with no 2**n int64 table of f or of g = (n + 1) f + |S|."""
    n = 16
    instance = random_instance(np.random.default_rng(50), "cut", n, 2)
    tracemalloc.start()
    try:
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.depth == 1
    assert peak < 8 << n


def test_enum_matches_exhaustive_on_generalized_instances():
    rng = np.random.default_rng(45)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, 4))
        instance = random_generalized_instance(rng, "cut", n, 2, k)
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        truth = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        assert sol.guaranteed
        assert sol.value == truth.optimum


def test_solution_set_achieves_its_value_and_is_feasible():
    rng = np.random.default_rng(46)
    for _ in range(20):
        instance = random_instance(rng, "table", 6, 3)
        sol = enum_solve(instance.oracle, instance.ring, instance.constraint)
        if sol.best is None:
            continue
        assert instance.oracle.eval(sol.best) == sol.value
        assert instance.ring.member(sol.best)
        assert instance.constraint.member(sol.best)


def test_input_validation():
    g = GroundSet(("a", "b"))
    h = GroundSet(("x", "y"))
    oracle = SubmodularOracle(g, Modular({}))
    with pytest.raises(InputError):
        enum_solve(oracle, RingFamily.full(h))
    with pytest.raises(InputError):
        enum_solve(oracle, None, CongruencyConstraint(2, 0), depth=-1)
    with pytest.raises(InputError):
        enum_solve(oracle, None, MembershipOracle(lambda s: True))


def test_non_constraint_with_explicit_depth_is_refused():
    g = GroundSet(("a", "b"))
    oracle = SubmodularOracle(g, Modular({}))
    with pytest.raises(InputError):
        enum_solve(oracle, None, lambda s: True, depth=1)


def test_membership_oracle_with_explicit_depth_runs_unguaranteed():
    g = GroundSet(("a", "b", "c"))
    oracle = SubmodularOracle(g, Modular({"a": -1, "b": 2, "c": -1}))
    want_pair = MembershipOracle(lambda s: len(s) == 2)
    sol = enum_solve(oracle, None, want_pair, depth=2)
    assert not sol.guaranteed
    assert sol.value == -2
    assert sol.best == frozenset({"a", "c"})


def test_depth_must_be_an_integer():
    """A float or string depth is an input error, not a crash inside the
    node table; a numpy integer depth still works."""
    instance = tight_depth_instance(3)
    args = (instance.oracle, instance.ring, instance.constraint)
    problem = CutProblem(
        ("a", "b", "c"), (("a", "b", 1), ("b", "c", 2)), False, CongruencyConstraint(2, 1)
    )
    for depth in (1.5, 2.0, "1"):
        with pytest.raises(InputError, match="integer"):
            enum_solve(*args, depth)
        for proper in (False, True):
            with pytest.raises(InputError, match="integer"):
                solve_cut(replace(problem, proper=proper), depth)
    assert enum_solve(*args, np.int64(2)) == enum_solve(*args, 2)
    for proper in (False, True):
        cut = replace(problem, proper=proper)
        assert solve_cut(cut, np.int64(1)) == solve_cut(cut, 1)


def _forced_modular(rng, n, modulus):
    """A random ``Modular`` instance on a ring of forced-in and forced-out
    elements only, under |S| = r (mod modulus), and the DP's answer."""
    oracle = random_modular(rng, n)
    labels = oracle.ground.elements
    state = rng.integers(0, 6, size=n)
    fin = [x for x, s in zip(labels, state) if s == 0]
    fout = [x for x, s in zip(labels, state) if s == 1]
    ring = RingFamily.from_labels(oracle.ground, fin, fout)
    residue = int(rng.integers(0, modulus))
    want = modular_congruence_min(oracle.spec.weights, labels, fin, fout, modulus, residue)
    return oracle, ring, CongruencyConstraint(modulus, residue), want


def test_residue_dp_matches_the_reference():
    rng = np.random.default_rng(61)
    for n in range(13):
        for modulus in (2, 3, 4, 5):
            oracle, ring, constraint, want = _forced_modular(rng, n, modulus)
            assert exhaustive_solve(oracle, ring, constraint).optimum == want


@pytest.mark.parametrize(
    "sizes, modulus",
    [(range(14, 21), 2), (range(14, 21), 3), (range(1, 13), 5)],
    ids=["m2-n14-20", "m3-n14-20", "m5-n1-12"],
)
def test_modular_solves_match_the_residue_dp(sizes, modulus):
    """Above the sizes the reference checks comfortably, the solver's
    value is checked against an O(n * m) dynamic program."""
    rng = np.random.default_rng(62 + modulus)
    for n in sizes:
        oracle, ring, constraint, want = _forced_modular(rng, n, modulus)
        assert enum_solve(oracle, ring, constraint).value == want
