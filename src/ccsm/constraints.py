"""Cardinality-congruency constraints and their depth parameters.

The three declarative constraint kinds share one form: k congruences
|S & T_i| = r_i (mod m) with a single modulus m.  A congruence on |S| is
the one term T = N, a T-cut the one term T, and a generalized constraint
lists its terms.  ``term_masks`` gives those terms as bitmasks, and the
membership test, ``default_depth`` (k * (m - 1), the depth at which the
pair-enumeration solver is exact for prime-power moduli) and the
reference's dense table all read it.  An opaque membership predicate is
the fourth kind; it carries no terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InputError
from .ground import GroundSet, label_set, popcount
from .lattice import RingFamily
from .limits import require_exhaustible
from .oracles import ExplicitTable, SubmodularOracle, _integer


def is_prime_power(m: int) -> tuple[int, int] | None:
    """Return (p, alpha) with m == p**alpha, or None if m is not a prime power."""
    if m < 2:
        return None
    for p in range(2, m + 1):
        if p * p > m:
            return (m, 1)
        if m % p == 0:
            alpha = 0
            rest = m
            while rest % p == 0:
                rest //= p
                alpha += 1
            return (p, alpha) if rest == 1 else None
    return None


def _check_residue(modulus: int, residue: int, what: str) -> tuple[int, int]:
    """``modulus`` and ``residue`` as Python ints; ``InputError`` unless
    both are integers (as ``oracles._integer`` reads them) with
    0 <= residue < modulus."""
    modulus = _integer(modulus, f"{what} modulus")
    residue = _integer(residue, f"{what} residue")
    if modulus < 1:
        raise InputError(f"{what} modulus must be >= 1, got {modulus}")
    if not 0 <= residue < modulus:
        raise InputError(f"{what} residue must lie in [0, {modulus}), got {residue}")
    return modulus, residue


class _Congruences:
    """k congruences |S & T_i| = r_i (mod ``modulus``), one per ``term_masks`` entry."""

    modulus: int
    k = 1

    def term_masks(self, ground: GroundSet) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError

    def mask_member(self, mask: int, ground: GroundSet) -> bool:
        return all(
            popcount(mask & tm) % self.modulus == ri for tm, ri in self.term_masks(ground)
        )


@dataclass(frozen=True)
class CongruencyConstraint(_Congruences):
    """Feasible iff |S| is congruent to ``residue`` modulo ``modulus``."""

    modulus: int
    residue: int

    def __post_init__(self):
        modulus, residue = _check_residue(self.modulus, self.residue, "congruency")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue", residue)

    def member(self, subset: Iterable[str]) -> bool:
        return len(frozenset(subset)) % self.modulus == self.residue

    def term_masks(self, ground: GroundSet) -> tuple[tuple[int, int], ...]:
        return ((ground.full_mask, self.residue),)


@dataclass(frozen=True)
class GeneralizedConstraint(_Congruences):
    """Feasible iff |S & S_i| hits residue r_i mod ``modulus`` for every term.

    All terms share one modulus; mixing moduli is rejected by construction
    because the type stores a single one.
    """

    modulus: int
    terms: tuple[tuple[frozenset[str], int], ...]

    def __post_init__(self):
        if not self.terms:
            raise InputError("generalized constraint needs at least one term")
        terms = []
        for s, r in self.terms:
            modulus, r = _check_residue(self.modulus, r, "generalized")
            terms.append((label_set(s, "a generalized term's set"), r))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def k(self) -> int:
        return len(self.terms)

    def member(self, subset: Iterable[str]) -> bool:
        s = frozenset(subset)
        return all(len(s & si) % self.modulus == ri for si, ri in self.terms)

    def term_masks(self, ground: GroundSet) -> tuple[tuple[int, int], ...]:
        return tuple((ground.mask_of(si), ri) for si, ri in self.terms)


@dataclass(frozen=True)
class TCutConstraint(_Congruences):
    """Feasible iff |S & terminals| is congruent to ``residue`` mod ``modulus``.

    Equivalent to a one-term generalized constraint; kept as its own kind so
    instances can choose between solving it directly and reducing it to a
    plain congruency constraint on an enlarged ground set.
    """

    terminals: frozenset[str]
    modulus: int
    residue: int

    def __post_init__(self):
        modulus, residue = _check_residue(self.modulus, self.residue, "tcut")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "terminals", label_set(self.terminals, "tcut terminals"))

    def member(self, subset: Iterable[str]) -> bool:
        return len(frozenset(subset) & self.terminals) % self.modulus == self.residue

    def term_masks(self, ground: GroundSet) -> tuple[tuple[int, int], ...]:
        return ((ground.mask_of(self.terminals), self.residue),)


@dataclass(frozen=True)
class MembershipOracle:
    """Opaque feasibility predicate; no exactness guarantee attaches to it."""

    predicate: Callable[[frozenset[str]], bool]

    def member(self, subset: Iterable[str]) -> bool:
        return bool(self.predicate(frozenset(subset)))

    def mask_member(self, mask: int, ground: GroundSet) -> bool:
        return self.member(ground.labels_of(mask))


Constraint = CongruencyConstraint | GeneralizedConstraint | TCutConstraint | MembershipOracle


def default_depth(constraint: Constraint) -> int:
    """Enumeration depth sufficient for exactness at prime-power moduli.

    k simultaneous congruences need depth k * (m - 1).  A modulus of 1
    never excludes anything, hence depth 0.  Membership oracles carry no
    structure to derive a depth from.
    """
    if isinstance(constraint, _Congruences):
        return constraint.k * (constraint.modulus - 1)
    raise InputError("no default depth for an opaque membership oracle; pass one explicitly")


def guarantees_exactness(constraint: Constraint, depth: int) -> bool:
    """Whether the pair enumeration at ``depth`` is certified exact."""
    if isinstance(constraint, _Congruences):
        return is_prime_power(constraint.modulus) is not None and depth >= default_depth(
            constraint
        )
    return False


@dataclass(frozen=True)
class TCutReduction:
    """Outcome of rewriting a T-cut style constraint as plain congruency.

    ``oracle`` and ``ring`` live on an enlarged ground set that appends
    ``modulus - 1`` clones of every non-terminal element, tied to their
    original by implications both ways.  Each clone tracks its original, so
    |S'| of a closed set equals |S & T| plus a multiple of the modulus, and
    the plain congruence on |S'| expresses the original constraint on
    |S & T|.  ``oracle`` has a spec of the base's own kind on which the
    clones change no value, so the reduced instance has a file form like
    any other.  ``project`` maps enlarged solutions back.
    """

    oracle: SubmodularOracle
    ring: RingFamily
    constraint: CongruencyConstraint
    original_ground: GroundSet

    def project(self, subset: Iterable[str]) -> frozenset[str]:
        return frozenset(subset) & frozenset(self.original_ground.elements)


def tcut_reduce(
    oracle: SubmodularOracle,
    ring: RingFamily,
    terminals: Iterable[str],
    modulus: int,
    residue: int,
) -> TCutReduction:
    """Reduce ``|S & T| = r (mod m)`` to ``|S'| = r (mod m)`` on a bigger ground.

    For every element x outside T, m - 1 clones named ``x#1 .. x#{m-1}``
    are appended after the original elements and forced to take the same
    in/out state as x via a pair of implications.  The function value of an
    enlarged set is the value of its original part: a modular, cut or
    coverage spec names only original elements, so it is reused as it
    stands, and an explicit table is repeated once for each of the
    2**(n' - n) settings of the clones, which are the high bits of a mask.
    That tiling needs n' within the exhaustive cap.
    """
    ground = ring.ground
    modulus, residue = _check_residue(modulus, residue, "tcut")
    t_mask = ground.mask_of(label_set(terminals, "tcut terminals"))
    n = ground.n
    clones: list[str] = []
    clone_arcs: list[tuple[int, int]] = []
    next_bit = n
    for i in range(n):
        if (t_mask >> i) & 1:
            continue
        for j in range(1, modulus):
            label = f"{ground.elements[i]}#{j}"
            if label in ground:
                raise InputError(f"clone label {label!r} collides with an existing element")
            clones.append(label)
            clone_arcs.append((i, next_bit))
            clone_arcs.append((next_bit, i))
            next_bit += 1
    big_ground = GroundSet(ground.elements + tuple(clones))
    big_ring = RingFamily(
        big_ground,
        ring.forced_in,
        ring.forced_out,
        list(ring.implications) + clone_arcs,
    )
    spec = oracle.spec
    if isinstance(spec, ExplicitTable):
        require_exhaustible(big_ground.n, "an explicit table on the enlarged ground")
        spec = ExplicitTable(tuple(spec.values) * (1 << len(clones)))
    big_oracle = SubmodularOracle(big_ground, spec)
    return TCutReduction(
        oracle=big_oracle,
        ring=big_ring,
        constraint=CongruencyConstraint(modulus, residue),
        original_ground=ground,
    )
