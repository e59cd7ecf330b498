"""Set systems with residue and covering structure, plus their checkers.

The central objects are intersection-closed families whose member sizes
avoid the ground-set size modulo m while still covering every small
subset.  Such families are exactly the obstructions that force the
pair-enumeration depth, so this module provides checkers, a classical
construction, an exhaustive search, and two certified impossibility
checks that raise ``InternalInconsistencyError`` when a theorem-breaking
family is presented.

One checker, ``check_mkd_system``, states the three properties over a
list of factor sets; an (m, d)-system is an (m, k, d)-system over the
single factor set N, so ``check_md_system`` and ``search_md_system``
read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import InputError, InternalInconsistencyError
from .ground import GroundSet, popcount
from .constraints import is_prime_power
from .instances import json_labels


@dataclass(frozen=True)
class SetSystem:
    """A list of distinct subsets of a common ground set."""

    ground: GroundSet
    sets: tuple[int, ...]

    def __post_init__(self):
        full = self.ground.full_mask
        seen = set()
        for s in self.sets:
            if s < 0 or s > full:
                raise InputError(f"set mask {s} out of range for the ground set")
            if s in seen:
                raise InputError(
                    f"duplicate set {sorted(self.ground.labels_of(s))} in system"
                )
            seen.add(s)

    @classmethod
    def from_labels(cls, ground: GroundSet, sets: Iterable[Iterable[str]]) -> "SetSystem":
        return cls(ground, tuple(ground.mask_of(s) for s in sets))

    @classmethod
    def from_dict(cls, payload: dict) -> "SetSystem":
        if not isinstance(payload, dict) or set(payload) != {"ground", "sets"}:
            raise InputError('a set system needs exactly the keys "ground" and "sets"')
        sets = [json_labels(s, "a set") for s in json_labels(payload["sets"], '"sets"')]
        try:
            return cls.from_labels(GroundSet(json_labels(payload["ground"], '"ground"')), sets)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed set system: {exc}") from None

    def to_dict(self) -> dict:
        ordered = sorted(self.sets, key=lambda m: (popcount(m), self.labels(m)))
        return {
            "ground": list(self.ground.elements),
            "sets": [list(self.labels(m)) for m in ordered],
        }

    def labels(self, mask: int) -> tuple[str, ...]:
        return self.ground.labels_of(mask)

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class SystemVerdict:
    """Outcome of a system check; ``failed`` names the first broken property."""

    ok: bool
    failed: str | None = None
    witness: tuple | None = None


def _first_missing_intersection(system: SetSystem) -> tuple | None:
    present = set(system.sets)
    for i, hi in enumerate(system.sets):
        for hj in system.sets[i + 1 :]:
            if hi & hj not in present:
                return (system.labels(hi), system.labels(hj))
    return None


def _first_uncovered(system: SetSystem, d: int) -> tuple | None:
    n = system.ground.n
    for size in range(min(d, n) + 1):
        for sub in combinations(range(n), size):
            sm = sum(1 << i for i in sub)
            if not any(sm & h == sm for h in system.sets):
                return tuple(system.ground.elements[i] for i in sub)
    return None


def check_md_system(system: SetSystem, m: int, d: int) -> SystemVerdict:
    """Check the three defining properties, reporting the first violation.

    A valid system is intersection-closed, every member size differs from
    the ground-set size modulo m, and every subset of size at most d lies
    inside some member (so the family cannot be empty once d >= 0).  This
    is ``check_mkd_system`` with the single factor set N; a
    ``member_residue`` witness names the member alone.
    """
    verdict = check_mkd_system(system, m, d, [system.ground.elements])
    if verdict.failed == "member_residue":
        return replace(verdict, witness=verdict.witness[:1])
    return verdict


def check_mkd_system(
    system: SetSystem, m: int, d: int, factors: Sequence[Iterable[str]]
) -> SystemVerdict:
    """Vector-residue variant: member intersection sizes with the factor
    sets must differ, as a vector mod m, from the ground set's."""
    if m < 1:
        raise InputError(f"modulus must be >= 1, got {m}")
    if d < 0:
        raise InputError(f"covering size must be >= 0, got {d}")
    if not factors:
        raise InputError("at least one factor set is required")
    fmasks = [system.ground.mask_of(f) for f in factors]
    wit = _first_missing_intersection(system)
    if wit is not None:
        return SystemVerdict(False, "intersection_closed", wit)
    full = system.ground.full_mask
    target = tuple(popcount(full & fm) % m for fm in fmasks)
    for h in system.sets:
        vec = tuple(popcount(h & fm) % m for fm in fmasks)
        if vec == target:
            return SystemVerdict(False, "member_residue", (system.labels(h), vec))
    wit = _first_uncovered(system, d)
    if wit is not None:
        return SystemVerdict(False, "covering", wit)
    return SystemVerdict(True)


def construct_mm2_system(m: int) -> SetSystem:
    """The classical tight family on m elements: all proper subsets that
    contain element "1", sized up to m - 1.

    It is intersection-closed, every member size differs from m modulo m,
    and every subset of at most m - 2 elements extends (adding "1" if
    missing) to a member, so the covering property holds at d = m - 2.
    The family has 2**(m-1) - 1 members.
    """
    if m < 2:
        raise InputError(f"construction needs m >= 2, got {m}")
    if m > 20:
        raise InputError(f"construction is exponential in m; {m} > 20 refused")
    ground = GroundSet(tuple(str(i) for i in range(1, m + 1)))
    sets = []
    for size in range(1, m):
        for sub in combinations(range(1, m), size - 1):
            sets.append(1 | sum(1 << i for i in sub))
    system = SetSystem(ground, tuple(sets))
    assert len(system) == (1 << (m - 1)) - 1
    return system


def atoms(system: SetSystem) -> tuple[frozenset[str], ...]:
    """Partition the ground set by membership signature across the family.

    Two elements land in one atom iff exactly the same members contain
    them; elements in no member form atoms of the leftover block, one per
    signature (so the empty signature yields a single atom).
    """
    n = system.ground.n
    signature: dict[tuple[bool, ...], list[int]] = {}
    for i in range(n):
        sig = tuple(bool((h >> i) & 1) for h in system.sets)
        signature.setdefault(sig, []).append(i)
    blocks = sorted(signature.values(), key=lambda idxs: idxs[0])
    return tuple(
        frozenset(system.ground.elements[i] for i in idxs) for idxs in blocks
    )


def inclusion_exclusion_check(system: SetSystem, p: int, r: int) -> SystemVerdict:
    """Certified impossibility: report which hypothesis fails.

    For prime p, no non-empty intersection-closed covering family can have
    every member size congruent to r mod p while the ground-set size is
    not.  The check returns the first failing hypothesis with a witness;
    if all hypotheses hold the theorem is violated and
    ``InternalInconsistencyError`` is raised.
    """
    if is_prime_power(p) != (p, 1):
        raise InputError(f"modulus must be prime, got {p}")
    if not 0 <= r < p:
        raise InputError(f"residue must lie in [0, {p}), got {r}")
    if len(system) == 0:
        return SystemVerdict(False, "nonempty", ())
    wit = _first_missing_intersection(system)
    if wit is not None:
        return SystemVerdict(False, "intersection_closed", wit)
    if system.ground.n % p == r:
        return SystemVerdict(False, "ground_residue", (system.ground.n,))
    for h in system.sets:
        if popcount(h) % p != r:
            return SystemVerdict(False, "member_residues", (system.labels(h),))
    wit = _first_uncovered(system, 1)
    if wit is not None:
        return SystemVerdict(False, "covering", wit)
    raise InternalInconsistencyError(
        "an intersection-closed covering family with uniform member residue "
        f"{r} mod {p} on a ground set of size {system.ground.n} cannot exist"
    )


def frankl_wilson_check(
    system: SetSystem, p: int, s: int, residues: Sequence[int]
) -> SystemVerdict:
    """Uniform-size families with few intersection residues are small.

    ``residues`` lists mu_0 (the member size mod p) followed by the s
    allowed pairwise-intersection residues; all s + 1 values must be
    distinct mod p.  When the family matches that pattern its size is at
    most C(n, s); observing more members raises
    ``InternalInconsistencyError``.  A verdict with ``ok=False`` means the
    family does not match the pattern, so the bound does not apply.
    """
    if is_prime_power(p) != (p, 1):
        raise InputError(f"modulus must be prime, got {p}")
    if not 1 <= s <= p - 1:
        raise InputError(f"s must lie in [1, {p - 1}], got {s}")
    res = [int(x) for x in residues]
    if len(res) != s + 1:
        raise InputError(f"expected {s + 1} residues, got {len(res)}")
    if any(not 0 <= x < p for x in res):
        raise InputError(f"residues must lie in [0, {p})")
    if len(set(res)) != len(res):
        raise InputError("residues must be distinct mod p")
    if len(system) == 0:
        return SystemVerdict(False, "nonempty", ())
    sizes = {popcount(h) for h in system.sets}
    if len(sizes) != 1:
        a, b = sorted(sizes)[:2]
        return SystemVerdict(False, "uniform", (a, b))
    k = sizes.pop()
    if k % p != res[0]:
        return SystemVerdict(False, "size_residue", (k,))
    allowed = set(res[1:])
    for i, hi in enumerate(system.sets):
        for hj in system.sets[i + 1 :]:
            if popcount(hi & hj) % p not in allowed:
                return SystemVerdict(
                    False, "intersection_residue", (system.labels(hi), system.labels(hj))
                )
    bound = comb(system.ground.n, s)
    if len(system) > bound:
        raise InternalInconsistencyError(
            f"{len(system)} sets match a {s}-residue intersection pattern mod {p} "
            f"on {system.ground.n} elements, exceeding the certified bound {bound}"
        )
    return SystemVerdict(True, None, (len(system), bound))


def search_md_system(m: int, d: int, n: int, generator_budget: int) -> SetSystem | None:
    """Exhaustively look for a valid system generated by few sets.

    Tries every selection of up to ``generator_budget`` candidate members,
    closes it under intersection, and returns the first closure that
    ``check_md_system`` accepts, in a deterministic (budget, then
    lexicographic) order, or None.  Candidates are restricted to masks
    whose size already avoids n mod m, since no member may match it.
    """
    if m < 1 or d < 0 or n < 0:
        raise InputError("need m >= 1, d >= 0 and n >= 0")
    if n > 8:
        raise InputError(f"search is exponential; n={n} > 8 refused")
    if generator_budget < 1 or generator_budget > 6:
        raise InputError(f"generator budget must lie in [1, 6], got {generator_budget}")
    ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
    full = ground.full_mask
    n_mod = n % m
    pool = [mask for mask in range(full + 1) if popcount(mask) % m != n_mod]
    pool.sort(key=lambda mask: (popcount(mask), ground.labels_of(mask)))
    for size in range(1, generator_budget + 1):
        for gens in combinations(pool, size):
            if d >= 1:
                union = 0
                for g in gens:
                    union |= g
                if union != full:
                    continue
            family = set()
            for pick in range(1, 1 << size):
                inter = full
                for j in range(size):
                    if (pick >> j) & 1:
                        inter &= gens[j]
                family.add(inter)
            if any(popcount(h) % m == n_mod for h in family):
                continue
            system = SetSystem(ground, tuple(sorted(family)))
            if check_md_system(system, m, d).ok:
                return system
    return None
