"""Command-line surface.

One subcommand per invocation, one JSON document on standard output,
diagnostics on standard error.  Exit codes: 0 success, 1 no feasible set
found, 2 input error, 3 a certified impossibility was observed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .constraints import CongruencyConstraint, is_prime_power
from .cuts import CutProblem, TSetEven, TSetOdd, load_graph, solve_cut
from .enumeration import EnumSolution, enum_solve, pair_count
from .errors import InputError, InternalInconsistencyError, UnsupportedSizeError
from .families import random_closed_covering_system, random_instance, tight_depth_instance
from .ground import GroundSet
from .instances import json_labels, load_instance, read_json
from .reference import exhaustive_solve
from .systems import (
    SetSystem,
    check_md_system,
    check_mkd_system,
    frankl_wilson_check,
    inclusion_exclusion_check,
    search_md_system,
)
from .transforms import (
    Binomial,
    Constant,
    GeneralizedProduct,
    Power,
    PrimePower,
    apply_transform,
    binom_mod_check,
    g_value,
    level,
    transform_system,
    verify_transform,
)

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _ordered_labels(ground: GroundSet, subset: frozenset[str]) -> list[str]:
    return [e for e in ground.elements if e in subset]


def _report_solution(solution: EnumSolution, ground: GroundSet) -> int:
    """Warn when the answer carries no guarantee, emit it, and give its exit code."""
    if not solution.guaranteed:
        _note("warning: no exactness guarantee for this modulus/depth combination")
    _emit(
        {
            "value": solution.value,
            "set": None if solution.best is None else _ordered_labels(ground, solution.best),
            "depth": solution.depth,
            "sfm_calls": solution.sfm_calls,
            "skipped_empty": solution.skipped_empty,
            "guaranteed": solution.guaranteed,
        }
    )
    return EXIT_OK if solution.best is not None else EXIT_NONE


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    solution = enum_solve(instance.oracle, instance.ring, instance.constraint, args.depth)
    return _report_solution(solution, instance.ground)


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    result = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
    _emit(
        {
            "optimum": result.optimum,
            "all_minimal_optima": [
                _ordered_labels(instance.ground, s) for s in result.all_minimal_optima
            ],
            "evals": result.evals,
        }
    )
    return EXIT_OK if result.optimum is not None else EXIT_NONE


def _load_label_lists(path: str) -> list[list[str]]:
    payload = read_json(path, f"label list file {path}")
    if isinstance(payload, dict) and "sets" in payload:
        payload = payload["sets"]
    entries = json_labels(payload, f"the label lists in {path}")
    return [[str(x) for x in json_labels(entry, f"a label list in {path}")] for entry in entries]


def _cmd_solve_cut(args) -> int:
    vertices, edges, directed = load_graph(read_json(args.graph, "graph file"))
    if args.mode == "congruency":
        if args.m is None or args.r is None:
            raise InputError("congruency mode needs --m and --r")
        mode = CongruencyConstraint(args.m, args.r)
    else:
        if not args.tsets:
            raise InputError(f"{args.mode} mode needs --tsets FILE")
        tsets = tuple(frozenset(t) for t in _load_label_lists(args.tsets))
        mode = TSetEven(tsets) if args.mode == "tset_even" else TSetOdd(tsets)
    problem = CutProblem(vertices, edges, directed, mode, proper=args.proper)
    solution = solve_cut(problem, depth=args.depth)
    return _report_solution(solution, GroundSet(vertices))


def _load_system(path: str) -> SetSystem:
    return SetSystem.from_dict(read_json(path, "system file"))


def _cmd_verify_system(args) -> int:
    system = _load_system(args.system)
    if args.sets is not None or args.k is not None:
        if args.sets is None:
            raise InputError("--k needs --sets FILE with the factor sets")
        factors = _load_label_lists(args.sets)
        if args.k is not None and args.k != len(factors):
            raise InputError(f"--k {args.k} does not match {len(factors)} factor sets")
        verdict = check_mkd_system(system, args.m, args.d, factors)
    else:
        verdict = check_md_system(system, args.m, args.d)
    _emit(
        {
            "ok": verdict.ok,
            "failed": verdict.failed,
            "witness": verdict.witness,
            "sets": len(system),
        }
    )
    return EXIT_OK


def _parse_kind(args):
    kind = args.kind
    if kind == "constant":
        return Constant(args.k if args.k is not None else 1)
    if kind == "power":
        return Power(args.k if args.k is not None else 2)
    if kind == "binomial":
        return Binomial(args.k if args.k is not None else 2)
    if kind == "primepower":
        if args.m is None:
            raise InputError("primepower transform needs --m")
        return PrimePower(args.m)
    if kind == "genproduct":
        if not args.sets:
            raise InputError("genproduct transform needs --sets FILE")
        return GeneralizedProduct(tuple(frozenset(t) for t in _load_label_lists(args.sets)))
    raise InputError(f"unknown transform kind {kind!r}")


def _cmd_transform(args) -> int:
    kind = _parse_kind(args)
    if args.system is not None:
        system = _load_system(args.system)
        transformed = transform_system(kind, system)
        _emit(transformed.to_dict())
        return EXIT_OK
    if args.n is None:
        raise InputError("transform needs --n or --system")
    if args.n < 0:
        raise InputError(f"--n must be >= 0, got {args.n}")
    ground = GroundSet(tuple(f"e{i}" for i in range(1, args.n + 1)))
    tr = apply_transform(kind, ground)
    report = verify_transform(kind, args.n) if args.n <= 8 else None
    payload = {
        "kind": args.kind,
        "n": args.n,
        "level": level(kind),
        "target_size": tr.target.n,
        "g": None
        if isinstance(kind, GeneralizedProduct)
        else [g_value(kind, x) for x in range(args.n + 1)],
        "verified": None if report is None else report.ok,
    }
    _emit(payload)
    return EXIT_OK


def _cmd_search_system(args) -> int:
    found = search_md_system(args.m, args.d, args.n, args.budget)
    if found is None:
        _note(f"no ({args.m},{args.d})-system within budget {args.budget} on n={args.n}")
        _emit({"found": False, "m": args.m, "d": args.d, "n": args.n, "budget": args.budget})
        return EXIT_NONE
    # Emit the bare system form so the output feeds verify-system directly.
    _emit(found.to_dict())
    return EXIT_OK


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _cmd_check_lemmas(args) -> int:
    rng = _seeded_rng(args.seed)
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    for p, alpha in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        rep = binom_mod_check(p, alpha, 500)
        record(
            f"binomial periodicity p={p} alpha={alpha}",
            rep.ok,
            "" if rep.ok else f"counterexample {rep.counterexample}",
        )
    for m in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        p, _ = is_prime_power(m)
        ok = all(
            (g_value(PrimePower(m), x) % p == 0) == (x % m == 0) for x in range(10 * m + 1)
        )
        record(f"prime-power residue pattern m={m}", ok)
    for m in (2, 3, 5, 7):
        ok = all((pow(x, m - 1, m) == 0) == (x % m == 0) for x in range(10 * m + 1))
        record(f"power residue pattern prime m={m}", ok)
    bad = 0
    for _ in range(200):
        system = random_closed_covering_system(rng, int(rng.integers(1, 7)))
        for p in (2, 3, 5):
            for r in range(p):
                try:
                    verdict = inclusion_exclusion_check(system, p, r)
                except InternalInconsistencyError:
                    bad += 1
                    continue
                if verdict.ok:
                    bad += 1
    record("no random closed covering family satisfies all exclusion hypotheses", bad == 0)
    fw_ok = True
    for n in range(3, 9):
        ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
        singletons = SetSystem(ground, tuple(1 << i for i in range(n)))
        verdict = frankl_wilson_check(singletons, 2, 1, (1, 0))
        fw_ok &= verdict.ok
    record("uniform-family size bound on singletons", fw_ok)
    ok_all = all(c["ok"] for c in checks)
    _emit({"ok": ok_all, "checks": checks})
    return EXIT_OK if ok_all else EXIT_INCONSISTENT


def _cmd_bench(args) -> int:
    if args.m < 1 or args.n < 0 or args.trials < 0:
        raise InputError("bench needs --m >= 1, --n >= 0 and --trials >= 0")
    rng = _seeded_rng(args.seed)
    rows = []
    all_agree = True
    # Trials whose guaranteed solve disagrees with the reference.  A solve
    # without the guarantee (m not a prime power) may legitimately differ.
    wrong = []
    for trial in range(args.trials):
        if args.family == "sec6":
            instance = tight_depth_instance(args.m)
        else:
            instance = random_instance(rng, args.family.removeprefix("random-"), args.n, args.m)
        solution = enum_solve(instance.oracle, instance.ring, instance.constraint)
        truth = exhaustive_solve(instance.oracle, instance.ring, instance.constraint)
        agree = solution.value == truth.optimum
        all_agree &= agree
        if solution.guaranteed and not agree:
            wrong.append(trial)
        rows.append(
            {
                "trial": trial,
                "n": instance.ground.n,
                "value": solution.value,
                "oracle_value": truth.optimum,
                "sfm_calls": solution.sfm_calls,
                "pair_count": pair_count(instance.ground.n, solution.depth),
                "agree": agree,
            }
        )
    _emit(
        {
            "family": args.family,
            "m": args.m,
            "trials": args.trials,
            "seed": args.seed,
            "rows": rows,
            "all_agree": all_agree,
        }
    )
    if wrong:
        _note(f"internal inconsistency: trials {wrong} disagree with the reference")
        return EXIT_INCONSISTENT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsm",
        description="Exact submodular minimization under congruency constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="pair-enumeration solver on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive reference solver on an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("solve-cut", help="constrained minimum cut on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", required=True, choices=("congruency", "tset_even", "tset_odd"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--tsets", default=None, help="JSON file with terminal sets")
    p.add_argument("--proper", action="store_true")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_solve_cut)

    p = sub.add_parser("verify-system", help="check a set system file")
    p.add_argument("--system", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--sets", default=None, help="JSON file with factor sets")
    p.set_defaults(func=_cmd_verify_system)

    p = sub.add_parser("transform", help="apply or verify a cardinality transform")
    p.add_argument("--kind", required=True,
                   choices=("constant", "power", "binomial", "primepower", "genproduct"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--system", default=None, help="transform this system file instead")
    p.add_argument("--sets", default=None, help="JSON file with factor sets (genproduct)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("search-system", help="exhaustive search for a small system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(func=_cmd_search_system)

    p = sub.add_parser("check-lemmas", help="run the certified self-tests")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("bench", help="solver vs oracle on generated instances")
    p.add_argument("--family", required=True, choices=("sec6", "random-cut", "random-modular"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UnsupportedSizeError) as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        _note(f"internal inconsistency: {exc}")
        return EXIT_INCONSISTENT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
