"""Constrained minimum cuts: modes, proper variant, and graph parsing."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from ccsm.constraints import CongruencyConstraint
from ccsm.cuts import CutProblem, TSetEven, TSetOdd, _mode_constraint, load_graph, solve_cut
from ccsm.enumeration import enum_solve, pair_count
from ccsm.errors import InputError
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import CutDirected, CutUndirected, SubmodularOracle
from helpers import (
    brute_constrained_min,
    card_lex_key,
    naive_cut_directed,
    naive_cut_undirected,
    powerset,
)

TRIANGLE = tuple((u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("a", "c")))
FOUR_CYCLE = tuple(
    (u, v, 1) for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
)


def test_triangle_odd_cut_allows_the_whole_vertex_set():
    problem = CutProblem(("a", "b", "c"), TRIANGLE, False, CongruencyConstraint(2, 1))
    solution = solve_cut(problem)
    assert solution.value == 0
    assert solution.best == frozenset({"a", "b", "c"})
    assert solution.guaranteed


def test_triangle_proper_odd_cut_is_a_singleton():
    problem = CutProblem(
        ("a", "b", "c"), TRIANGLE, False, CongruencyConstraint(2, 1), proper=True
    )
    solution = solve_cut(problem)
    assert solution.value == 2
    assert solution.best == frozenset({"a"})
    assert solution.guaranteed
    n = 3
    assert solution.sfm_calls + solution.skipped_empty == 2 * (n - 1) * pair_count(n - 2, 1)
    assert solution.skipped_empty == 0


def test_four_cycle_odd_tset_pair():
    tsets = (frozenset({"a", "b"}), frozenset({"c", "d"}))
    problem = CutProblem(("a", "b", "c", "d"), FOUR_CYCLE, False, TSetOdd(tsets))
    solution = solve_cut(problem)
    assert solution.depth == 2
    assert solution.value == 2
    assert solution.best == frozenset({"a", "d"})
    assert solution.guaranteed


def test_single_edge_even_tset_takes_the_empty_cut():
    problem = CutProblem(
        ("u", "v"), (("u", "v", 5),), False, TSetEven((frozenset({"u"}),))
    )
    solution = solve_cut(problem)
    assert solution.value == 0
    assert solution.best == frozenset()


def test_empty_tset_list_is_rejected():
    with pytest.raises(InputError):
        solve_cut(CutProblem(("a", "b"), (), False, TSetEven(())))
    with pytest.raises(InputError):
        solve_cut(CutProblem(("a", "b"), (), False, TSetOdd(())))


def test_proper_on_one_vertex_has_no_candidates():
    for vertices in (("a",), ()):
        problem = CutProblem(vertices, (), False, CongruencyConstraint(2, 1), proper=True)
        solution = solve_cut(problem)
        assert solution.best is None
        assert solution.value is None
        assert solution.candidates == 0
        assert solution.candidate_sets == ()
        assert solution.sfm_calls == 0
        assert solution.skipped_empty == 0


def test_undirected_cut_is_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        labels = tuple(f"v{i}" for i in range(n))
        edges = tuple(
            (labels[i], labels[j], int(rng.integers(1, 9)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        )
        oracle = SubmodularOracle(GroundSet(labels), CutUndirected(edges))
        table = oracle.value_table()
        full = (1 << n) - 1
        for mask in range(1 << n):
            assert table[mask] == table[full ^ mask]


def _random_graph(rng, n, directed):
    labels = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j < i):
                continue
            if rng.random() < 0.5:
                edges.append((labels[i], labels[j], int(rng.integers(1, 8))))
    return labels, tuple(edges)


def _random_mode(rng, labels):
    roll = rng.random()
    if roll < 0.4:
        m = int(rng.integers(2, 5))
        return CongruencyConstraint(m, int(rng.integers(0, m)))
    k = int(rng.integers(1, 3))
    tsets = []
    for _ in range(k):
        t = frozenset(x for x in labels if rng.random() < 0.5) or frozenset(labels[:1])
        tsets.append(t)
    cls = TSetEven if roll < 0.7 else TSetOdd
    return cls(tuple(tsets))


def _mode_member(mode):
    if isinstance(mode, CongruencyConstraint):
        return lambda s: len(s) % mode.modulus == mode.residue
    want = 0 if isinstance(mode, TSetEven) else 1
    return lambda s: all(len(s & t) % 2 == want for t in mode.tsets)


def _cut_value(edges, directed):
    naive = naive_cut_directed if directed else naive_cut_undirected
    return lambda s: naive(edges, s)


def test_solver_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(22)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        directed = bool(rng.integers(0, 2))
        proper = bool(rng.integers(0, 2))
        labels, edges = _random_graph(rng, n, directed)
        mode = _random_mode(rng, labels)
        problem = CutProblem(labels, edges, directed, mode, proper=proper)
        solution = solve_cut(problem)
        assert solution.guaranteed

        value = _cut_value(edges, directed)
        member = _mode_member(mode)
        if proper:
            trivial = (frozenset(), frozenset(labels))
            feasible = lambda s: member(s) and s not in trivial
        else:
            feasible = member
        best, optima = brute_constrained_min(labels, value, member_fn=feasible)
        assert solution.value == best, (trial, mode)
        if best is None:
            assert solution.best is None
        else:
            assert solution.best in optima
            assert min(optima, key=card_lex_key(labels)) == solution.best


def test_proper_counters_aggregate_over_runs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        labels, edges = _random_graph(rng, n, directed=False)
        m = int(rng.integers(2, 4))
        problem = CutProblem(
            labels, edges, False, CongruencyConstraint(m, 0), proper=True
        )
        solution = solve_cut(problem)
        # The 2(n - 1) runs anchored at the first vertex each pin the pairs
        # of the other n - 2 vertices, and on the full ring none is empty.
        runs = 2 * (n - 1)
        pairs = runs * pair_count(n - 2, solution.depth)
        assert solution.sfm_calls + solution.skipped_empty == pairs
        assert solution.skipped_empty == 0


def test_proper_cut_equals_its_explicitly_pinned_runs():
    # Run (u, v) forces u inside and v outside.  The 2(n - 1) runs with
    # u or v the first vertex must collect the proper solve's candidates,
    # and its answer must be the best over all n(n - 1) runs.
    rng = np.random.default_rng(25)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        directed = bool(rng.integers(0, 2))
        labels, edges = _random_graph(rng, n, directed)
        mode = _random_mode(rng, labels)
        solution = solve_cut(CutProblem(labels, edges, directed, mode, proper=True))

        ground = GroundSet(labels)
        spec = CutDirected(edges) if directed else CutUndirected(edges)
        oracle = SubmodularOracle(ground, spec)
        runs = {
            (u, v): enum_solve(
                oracle,
                RingFamily(ground, 1 << u, 1 << v),
                _mode_constraint(mode),
                solution.depth,
            )
            for u, v in permutations(range(n), 2)
        }
        anchored = [run for (u, v), run in runs.items() if 0 in (u, v)]
        pooled = set().union(*(run.candidate_sets for run in anchored))
        assert set(solution.candidate_sets) == pooled, (trial, mode)
        card_lex = card_lex_key(labels)
        answers = [
            (run.value, card_lex(run.best), run.best)
            for run in runs.values()
            if run.best is not None
        ]
        if not answers:
            assert solution.best is None and solution.value is None
        else:
            value, _, best = min(answers, key=lambda a: a[:2])
            assert (solution.value, solution.best) == (value, best), (trial, mode)


def test_single_odd_terminal_matches_minimum_odd_cut():
    # Classic T-odd minimum cut with |T| = 1 pins one vertex inside S.
    rng = np.random.default_rng(24)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        labels, edges = _random_graph(rng, n, directed=False)
        t = labels[int(rng.integers(0, n))]
        problem = CutProblem(labels, edges, False, TSetOdd((frozenset({t}),)))
        solution = solve_cut(problem)
        value = _cut_value(edges, False)
        best = min(value(s) for s in powerset(labels) if len(s & {t}) % 2 == 1)
        assert solution.value == best


def test_proper_t_odd_cuts_match_gomory_hu():
    """Padberg and Rao (1982): for |T| even, a minimum T-odd cut is the
    cheapest fundamental cut of a Gomory-Hu tree with an odd number of T
    vertices on one side.  A proper ``tset_odd`` solve on a connected graph
    matches it, and its set is T-odd with that cut value in networkx."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(52)
    for n in [*range(2, 17), *rng.integers(2, 17, size=40).tolist(), 20]:
        labels = tuple(f"v{i}" for i in range(n))
        pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        edges = tuple((labels[i], labels[j], int(rng.integers(1, 10))) for i, j in sorted(pairs))
        graph = nx.Graph()
        graph.add_weighted_edges_from(edges, weight="capacity")
        size = 2 * int(rng.integers(1, n // 2 + 1))
        tset = frozenset(labels[i] for i in rng.choice(n, size=size, replace=False))
        tree = nx.gomory_hu_tree(graph)
        best = None
        for u, v, w in list(tree.edges(data="weight")):
            tree.remove_edge(u, v)
            side = nx.node_connected_component(tree, u)
            tree.add_edge(u, v, weight=w)
            if len(side & tset) % 2 == 1:
                best = w if best is None else min(best, w)
        solution = solve_cut(CutProblem(labels, edges, False, TSetOdd((tset,)), proper=True))
        assert solution.guaranteed and solution.value == best, (n, sorted(tset))
        assert len(solution.best & tset) % 2 == 1
        assert nx.cut_size(graph, solution.best, weight="capacity") == best


def test_explicit_depth_zero_is_not_guaranteed():
    problem = CutProblem(("a", "b", "c"), TRIANGLE, False, CongruencyConstraint(2, 1))
    solution = solve_cut(problem, depth=0)
    assert not solution.guaranteed
    with pytest.raises(InputError):
        solve_cut(problem, depth=-1)


def test_load_graph_parses_and_validates():
    vertices, edges, directed = load_graph(
        {"vertices": ["a", "b"], "edges": [["a", "b", 3]], "directed": True}
    )
    assert vertices == ("a", "b")
    assert edges == (("a", "b", 3),)
    assert directed

    _, _, directed = load_graph({"vertices": ["a"], "edges": []})
    assert not directed

    with pytest.raises(InputError):
        load_graph({"vertices": ["a"], "edges": [], "weights": []})
    with pytest.raises(InputError):
        load_graph({"vertices": ["a"]})
    with pytest.raises(InputError):
        load_graph({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    with pytest.raises(InputError):
        load_graph([1, 2])


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"vertices": ["a", "b"], "edges": [["a", "b", 0.9]]}, "JSON integer"),
        ({"vertices": ["a", "b"], "edges": [["a", "b", True]]}, "JSON integer"),
        ({"vertices": ["a", "b"], "edges": [["a", "b", "2"]]}, "JSON integer"),
        ({"vertices": ["a", "b"], "edges": [], "directed": "false"}, "directed"),
        ({"vertices": ["a", "b"], "edges": [], "directed": 0}, "directed"),
        ({"vertices": ["a", "b"], "edges": [], "directed": None}, "directed"),
        ({"vertices": "ab", "edges": []}, "vertices"),
        ({"vertices": {"a": 1}, "edges": []}, "vertices"),
    ],
)
def test_load_graph_refuses_values_it_would_have_to_cast(payload, message):
    """Edge weights must be JSON integers, "directed" a JSON boolean and
    "vertices" a list: casting would truncate a weight, read "false" as
    true, or split a string into one-letter labels."""
    with pytest.raises(InputError, match=message):
        load_graph(payload)
