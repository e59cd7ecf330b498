"""End-to-end acceptance suite.

Ten numbered checks pin the toolkit's headline behavior at fixed scales:
exactness of the pair enumeration against exhaustive oracles (single and
vector congruences, the tight-depth family, minimal-optima coverage, call
budgets), the transform laws and residue formulas, the set-system
construction / search / impossibility checkers, and the terminal-cut
reduction.  Each test prints one PASS/FAIL summary line on the terminal.

Criteria 4 and 5 reuse the instance streams of criteria 1-3: the runners
below are memoized, and every run stores the lightweight per-instance
records (counters, minimal-optima misses) the later criteria need.
"""

from __future__ import annotations

import time

import numpy as np

from ccsm.constraints import is_prime_power, tcut_reduce
from ccsm.enumeration import enum_solve, pair_count
from ccsm.families import (
    FAMILY_NAMES,
    random_closed_covering_system,
    random_generalized_instance,
    random_instance,
    tight_depth_instance,
)
from ccsm.ground import GroundSet
from ccsm.lattice import RingFamily
from ccsm.oracles import CutUndirected, SubmodularOracle
from ccsm.reference import exhaustive_solve
from ccsm.systems import (
    SetSystem,
    atoms,
    check_md_system,
    construct_mm2_system,
    inclusion_exclusion_check,
    search_md_system,
)
from ccsm.transforms import (
    Binomial,
    Constant,
    GeneralizedProduct,
    Power,
    PrimePower,
    Sum,
    binom_mod_check,
    g_value,
    transform_system,
    verify_transform,
)
from helpers import naive_cut_undirected, powerset

_RESULTS: dict[str, dict] = {}


def _line(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _minimal_miss_count(solution, truth) -> int:
    candidates = set(solution.candidate_sets)
    return sum(1 for s in truth.all_minimal_optima if s not in candidates)


# --- shared runners -------------------------------------------------------


def _criterion1() -> dict:
    if "c1" not in _RESULTS:
        start = time.perf_counter()
        rows = []
        c4_records = []
        for m in (2, 3, 4, 5):
            inst = tight_depth_instance(m)
            deep = enum_solve(inst.oracle, inst.ring, inst.constraint)
            shallow = enum_solve(inst.oracle, inst.ring, inst.constraint, depth=m - 2)
            truth = exhaustive_solve(inst.oracle, inst.ring, inst.constraint)
            rows.append({"m": m, "deep": deep.value, "shallow": shallow.value})
            if deep.guaranteed and inst.ground.n <= 10:
                c4_records.append(
                    {"n": inst.ground.n, "misses": _minimal_miss_count(deep, truth)}
                )
        _RESULTS["c1"] = {
            "rows": rows,
            "c4": c4_records,
            "elapsed": time.perf_counter() - start,
        }
    return _RESULTS["c1"]


def _criterion2() -> dict:
    if "c2" not in _RESULTS:
        start = time.perf_counter()
        mismatches = 0
        stats = []
        c4_records = []
        for mi, m in enumerate((2, 3, 4, 5, 7, 8, 9)):
            for fi, family in enumerate(FAMILY_NAMES):
                rng = np.random.default_rng(20_000 + 97 * mi + fi)
                for _ in range(100):
                    high = 11 if family == "table" else 13
                    n = int(rng.integers(6, high))
                    inst = random_instance(rng, family, n, m)
                    sol = enum_solve(inst.oracle, inst.ring, inst.constraint)
                    truth = exhaustive_solve(inst.oracle, inst.ring, inst.constraint)
                    if sol.value != truth.optimum:
                        mismatches += 1
                    stats.append(
                        {
                            "n": n,
                            "m": m,
                            "depth": sol.depth,
                            "sfm_calls": sol.sfm_calls,
                            "skipped": sol.skipped_empty,
                        }
                    )
                    if sol.guaranteed and n <= 10:
                        c4_records.append(
                            {"n": n, "misses": _minimal_miss_count(sol, truth)}
                        )
        _RESULTS["c2"] = {
            "mismatches": mismatches,
            "stats": stats,
            "c4": c4_records,
            "elapsed": time.perf_counter() - start,
        }
    return _RESULTS["c2"]


def _criterion3() -> dict:
    if "c3" not in _RESULTS:
        start = time.perf_counter()
        mismatches = 0
        runs = 0
        c4_records = []
        for ci, (m, k) in enumerate(((2, 1), (2, 2), (2, 3), (3, 2))):
            rng = np.random.default_rng(30_000 + ci)
            for trial in range(50):
                family = FAMILY_NAMES[trial % len(FAMILY_NAMES)]
                n = int(rng.integers(5, 12))
                if family == "table":
                    n = min(n, 10)
                inst = random_generalized_instance(rng, family, n, m, k)
                sol = enum_solve(inst.oracle, inst.ring, inst.constraint)
                truth = exhaustive_solve(inst.oracle, inst.ring, inst.constraint)
                runs += 1
                if sol.value != truth.optimum:
                    mismatches += 1
                if sol.guaranteed and n <= 10:
                    c4_records.append(
                        {"n": n, "misses": _minimal_miss_count(sol, truth)}
                    )
        _RESULTS["c3"] = {
            "mismatches": mismatches,
            "runs": runs,
            "c4": c4_records,
            "elapsed": time.perf_counter() - start,
        }
    return _RESULTS["c3"]


# --- the ten criteria -----------------------------------------------------


def test_criterion_1_tight_depth_family(capsys):
    res = _criterion1()
    deep_ok = all(r["deep"] == -1 for r in res["rows"])
    shallow_ok = all(
        r["shallow"] is None or r["shallow"] > -1 for r in res["rows"]
    )
    in_time = res["elapsed"] < 5.0
    _line(
        capsys,
        1,
        deep_ok and shallow_ok and in_time,
        f"m=2..5: depth m-1 hits -1, depth m-2 stays above; {res['elapsed']:.2f} s",
    )
    assert deep_ok, res["rows"]
    assert shallow_ok, res["rows"]
    assert in_time, res["elapsed"]


def test_criterion_2_single_congruence_oracle_equivalence(capsys):
    res = _criterion2()
    ok = res["mismatches"] == 0 and res["elapsed"] < 600.0
    _line(
        capsys,
        2,
        ok,
        f"{len(res['stats'])} runs over m in {{2,3,4,5,7,8,9}} x 5 families, "
        f"{res['mismatches']} mismatches; {res['elapsed']:.1f} s",
    )
    assert res["mismatches"] == 0
    assert res["elapsed"] < 600.0


def test_criterion_3_vector_congruence_oracle_equivalence(capsys):
    res = _criterion3()
    ok = res["mismatches"] == 0 and res["elapsed"] < 600.0
    _line(
        capsys,
        3,
        ok,
        f"{res['runs']} runs over (m,k) in {{(2,1),(2,2),(2,3),(3,2)}}, "
        f"{res['mismatches']} mismatches; {res['elapsed']:.1f} s",
    )
    assert res["mismatches"] == 0
    assert res["elapsed"] < 600.0


def test_criterion_4_minimal_optima_are_candidates(capsys):
    records = _criterion1()["c4"] + _criterion2()["c4"] + _criterion3()["c4"]
    missed = sum(r["misses"] for r in records)
    _line(
        capsys,
        4,
        missed == 0,
        f"{len(records)} guaranteed instances with n<=10, {missed} missed minimal optima",
    )
    assert records, "no guaranteed small instances were collected"
    assert missed == 0


def test_criterion_5_call_budget(capsys):
    stats = _criterion2()["stats"]
    identity_ok = all(
        row["sfm_calls"] + row["skipped"] == pair_count(row["n"], row["depth"])
        for row in stats
    )
    budget_ok = all(
        row["sfm_calls"]
        <= pair_count(row["n"], row["m"] - 1)
        <= (row["n"] + 1) ** (2 * (row["m"] - 1)) * row["m"] ** 2
        for row in stats
    )
    _line(
        capsys,
        5,
        identity_ok and budget_ok,
        f"{len(stats)} runs: calls+skips == pair_count and calls within "
        "(n+1)^(2(m-1))*m^2",
    )
    assert identity_ok
    assert budget_ok


def _transform_kinds(n: int) -> list:
    labels = tuple(f"e{i}" for i in range(1, n + 1))
    kinds: list = []
    for k in (1, 2, 3):
        kinds += [Constant(k), Power(k), Binomial(k)]
    kinds += [PrimePower(2), PrimePower(3), PrimePower(4)]
    kinds += [
        Sum((Constant(2),)),
        Sum((Power(2), Binomial(2))),
        Sum((Constant(1), Power(1), Binomial(1))),
    ]
    kinds.append(GeneralizedProduct((frozenset(labels),)))
    if n >= 2:
        kinds.append(
            GeneralizedProduct((frozenset({labels[0]}), frozenset(labels[1:])))
        )
    if n >= 3:
        kinds.append(
            GeneralizedProduct(
                (
                    frozenset({labels[0]}),
                    frozenset({labels[1]}),
                    frozenset(labels[2:]),
                )
            )
        )
    return kinds


def test_criterion_6_transform_laws(capsys):
    start = time.perf_counter()
    failures = []
    verified = 0
    for n in range(1, 7):
        for kind in _transform_kinds(n):
            report = verify_transform(kind, n)
            verified += 1
            if not report.ok:
                failures.append((n, kind, report.failures))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _line(
        capsys,
        6,
        ok,
        f"{verified} transform/ground pairs verified exhaustively; {elapsed:.2f} s",
    )
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_7_prime_power_residue_formula(capsys):
    start = time.perf_counter()
    moduli = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
    bad = []
    for m in moduli:
        p, _ = is_prime_power(m)
        kind = PrimePower(m)
        for x in range(10 * m + 1):
            expect = 0 if x % m == 0 else 1
            if g_value(kind, x) % p != expect:
                bad.append((m, x))
    primes = [m for m in moduli if is_prime_power(m) == (m, 1)]
    for m in primes:
        kind = Power(m - 1)
        for x in range(10 * m + 1):
            expect = 0 if x % m == 0 else 1
            if g_value(kind, x) % m != expect:
                bad.append(("fermat", m, x))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _line(
        capsys,
        7,
        ok,
        f"{len(moduli)} prime powers plus {len(primes)} Fermat cases, exact "
        f"two-case residues; {elapsed:.3f} s",
    )
    assert not bad, bad[:5]
    assert elapsed < 1.0


def test_criterion_8_binomial_periodicity(capsys):
    start = time.perf_counter()
    pairs = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
    bad = []
    for p, alpha in pairs:
        report = binom_mod_check(p, alpha, 500)
        if not report.ok or report.checked != 501 * p**alpha:
            bad.append((p, alpha, report))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _line(
        capsys,
        8,
        ok,
        f"{len(pairs)} (p,alpha) pairs exhaustive to a=500; {elapsed:.3f} s",
    )
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_9_systems_and_atoms(capsys):
    start = time.perf_counter()
    construction_ok = all(
        check_md_system(construct_mm2_system(m), m, m - 2).ok for m in range(2, 11)
    )
    search_ok = all(search_md_system(2, 1, n, 4) is None for n in range(1, 7))

    rng = np.random.default_rng(90_001)
    rejected = 0
    accepted = 0
    for _ in range(1000):
        system = random_closed_covering_system(rng, int(rng.integers(1, 7)))
        for p in (2, 3, 5):
            for r in range(p):
                verdict = inclusion_exclusion_check(system, p, r)
                if verdict.ok:
                    accepted += 1
        rejected += 1

    atom_ok = True
    for n in range(2, 7):
        ground = GroundSet(tuple(f"e{i}" for i in range(1, n + 1)))
        every_subset = SetSystem(ground, tuple(range(1 << n)))
        for kind in (Power(2), Binomial(2)):
            image = transform_system(kind, every_subset)
            if len(atoms(image)) > 1 + 2 * n**2:
                atom_ok = False

    elapsed = time.perf_counter() - start
    ok = construction_ok and search_ok and accepted == 0 and atom_ok
    _line(
        capsys,
        9,
        ok,
        f"construction m=2..10, search(2,1) not-found to n=6, {rejected} random "
        f"closed covering families all rejected, atom bound 1+2n^2 holds; "
        f"{elapsed:.1f} s",
    )
    assert construction_ok
    assert search_ok
    assert accepted == 0
    assert atom_ok


def test_criterion_10_terminal_cut_reduction(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(50_000)
    mismatches = 0
    projection_bad = 0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        labels = tuple(f"v{i}" for i in range(n))
        edges = tuple(
            (labels[i], labels[j], int(rng.integers(1, 8)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        ground = GroundSet(labels)
        oracle = SubmodularOracle(ground, CutUndirected(edges))
        m = int(rng.integers(2, 4))
        t_size = int(rng.integers(1, n + 1))
        terminals = frozenset(
            labels[int(i)] for i in rng.choice(n, size=t_size, replace=False)
        )
        r = int(rng.integers(0, m))

        feasible = [
            s for s in powerset(labels) if len(s & terminals) % m == r
        ]
        brute = min((naive_cut_undirected(edges, s) for s in feasible), default=None)

        red = tcut_reduce(oracle, RingFamily.full(ground), terminals, m, r)
        reduced = exhaustive_solve(red.oracle, red.ring, red.constraint)
        if reduced.optimum != brute:
            mismatches += 1
            continue
        if reduced.optimum is not None:
            projected = red.project(reduced.all_minimal_optima[0])
            if (
                naive_cut_undirected(edges, projected) != reduced.optimum
                or len(projected & terminals) % m != r
            ):
                projection_bad += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and projection_bad == 0
    _line(
        capsys,
        10,
        ok,
        f"50 random graphs, m in {{2,3}}: reduced optimum equals brute force, "
        f"projections stay optimal and feasible; {elapsed:.1f} s",
    )
    assert mismatches == 0
    assert projection_bad == 0
