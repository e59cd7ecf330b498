"""Cardinality transforms: maps G from subsets of N to subsets of W.

Each transform kind induces a map G with three properties: G(N) = W, the
image size depends only on |S| through an integer polynomial g, and G is
an intersection homomorphism, G(S) & G(T) = G(S & T).  Every element of W
carries a witness set of at most ``level`` originals such that
``w in G(S)  iff  witness(w) <= S``; the level is the transform's cost in
covering budget.

The prime-power kind combines binomial transforms so that, for
m = p**alpha, g(x) is divisible by p exactly when x is divisible by m.
That conversion is what turns a family avoiding residues mod a prime
power into one avoiding residues mod a prime.  The mix is written once,
as the (k, copies) pairs of ``_primepower_mix``; ``g_value`` sums it in
closed form and ``_build_elements`` builds it as a ``Sum`` of binomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb, prod
from typing import Iterable

from .constraints import is_prime_power
from .errors import InputError
from .ground import GroundSet, popcount
from .systems import SetSystem

_MAX_TARGET = 200_000


@dataclass(frozen=True)
class Constant:
    """G(S) is always the same k fresh elements; level 0."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"constant transform needs size >= 1, got {self.size}")


@dataclass(frozen=True)
class Power:
    """W = N**k, tuples componentwise inside S; level k."""

    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise InputError(f"power transform needs exponent >= 1, got {self.exponent}")


@dataclass(frozen=True)
class Binomial:
    """W = all k-element subsets of N; level k."""

    choose: int

    def __post_init__(self):
        if self.choose < 1:
            raise InputError(f"binomial transform needs choose >= 1, got {self.choose}")


@dataclass(frozen=True)
class Sum:
    """Disjoint tagged union of component transforms; level is the max."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise InputError("sum transform needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class PrimePower:
    """Binomial mix realizing the mod-p divisibility pattern of x mod p**alpha."""

    modulus: int

    def __post_init__(self):
        if is_prime_power(self.modulus) is None:
            raise InputError(
                f"prime-power transform needs a prime power modulus, got {self.modulus}"
            )


@dataclass(frozen=True)
class GeneralizedProduct:
    """W is the product of the factor sets; image tracks each S & S_i."""

    factors: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.factors:
            raise InputError("generalized product needs at least one factor")
        object.__setattr__(self, "factors", tuple(frozenset(f) for f in self.factors))


TransformKind = Constant | Power | Binomial | Sum | PrimePower | GeneralizedProduct


@cache
def _primepower_mix(m: int) -> tuple[tuple[int, int], ...]:
    """The prime-power transform for m = p**alpha as (k, copies) pairs:
    C(x, k) once for odd k and p - 1 times for even k, k = 1 .. m - 1."""
    p, _ = is_prime_power(m)
    return tuple((k, 1 if k % 2 == 1 else p - 1) for k in range(1, m))


def level(kind: TransformKind) -> int:
    """Largest witness size the transform can produce."""
    if isinstance(kind, Constant):
        return 0
    if isinstance(kind, Power):
        return kind.exponent
    if isinstance(kind, Binomial):
        return kind.choose
    if isinstance(kind, Sum):
        return max(level(p) for p in kind.parts)
    if isinstance(kind, PrimePower):
        return kind.modulus - 1
    if isinstance(kind, GeneralizedProduct):
        return len(kind.factors)
    raise InputError(f"unknown transform kind {kind!r}")


def g_value(kind: TransformKind, x) -> int:
    """Image size for |S| = x; the generalized product takes a vector of
    per-factor intersection sizes instead."""
    if isinstance(kind, GeneralizedProduct):
        xs = list(x) if isinstance(x, (list, tuple)) else None
        if xs is None or len(xs) != len(kind.factors):
            raise InputError(
                "generalized product needs one intersection size per factor"
            )
        return prod(int(v) for v in xs)
    x = int(x)
    if x < 0:
        raise InputError(f"cardinality must be >= 0, got {x}")
    if isinstance(kind, Constant):
        return kind.size
    if isinstance(kind, Power):
        return x**kind.exponent
    if isinstance(kind, Binomial):
        return comb(x, kind.choose)
    if isinstance(kind, Sum):
        return sum(g_value(p, x) for p in kind.parts)
    if isinstance(kind, PrimePower):
        return sum(copies * comb(x, k) for k, copies in _primepower_mix(kind.modulus))
    raise InputError(f"unknown transform kind {kind!r}")


@dataclass(frozen=True)
class SetTransform:
    """A transform applied to a concrete ground set.

    ``witnesses[j]`` is the original-side mask that must be inside S for
    target element j to appear in the image.
    """

    kind: TransformKind
    ground: GroundSet
    target: GroundSet
    witnesses: tuple[int, ...]

    @property
    def level(self) -> int:
        return level(self.kind)

    def image_mask(self, mask: int) -> int:
        out = 0
        for j, wit in enumerate(self.witnesses):
            if wit & ~mask == 0:
                out |= 1 << j
        return out

    def image(self, subset: Iterable[str]) -> frozenset[str]:
        return self.target.set_of(self.image_mask(self.ground.mask_of(subset)))

    def witness(self, target_label: str) -> frozenset[str]:
        return self.ground.set_of(self.witnesses[self.target.index(target_label)])


def _build_elements(kind: TransformKind, ground: GroundSet) -> list[tuple[str, int]]:
    """(label, witness mask) pairs for the target ground set, in order."""
    n = ground.n
    if isinstance(kind, Constant):
        return [(f"c{i}", 0) for i in range(1, kind.size + 1)]
    if isinstance(kind, (Power, GeneralizedProduct)):
        factors = (ground.elements,) * kind.exponent if isinstance(kind, Power) else kind.factors
        out = []
        for tup in product(*(sorted(ground.index(lab) for lab in f) for f in factors)):
            label = "(" + ",".join(ground.elements[i] for i in tup) + ")"
            out.append((label, sum(1 << i for i in set(tup))))
        return out
    if isinstance(kind, Binomial):
        out = []
        for tup in combinations(range(n), kind.choose):
            label = "{" + ",".join(ground.elements[i] for i in tup) + "}"
            out.append((label, sum(1 << i for i in tup)))
        return out
    if isinstance(kind, Sum):
        out = []
        for tag, part in enumerate(kind.parts):
            for label, wit in _build_elements(part, ground):
                out.append((f"{tag}:{label}", wit))
        return out
    if isinstance(kind, PrimePower):
        mix = _primepower_mix(kind.modulus)
        return _build_elements(Sum(tuple(Binomial(k) for k, c in mix for _ in range(c))), ground)
    raise InputError(f"unknown transform kind {kind!r}")


def _target_size(kind: TransformKind, n: int) -> int:
    """Size of the target on an n-element ground set, known before it is built."""
    if isinstance(kind, Sum):
        return sum(_target_size(part, n) for part in kind.parts)
    if isinstance(kind, GeneralizedProduct):
        return prod(len(f) for f in kind.factors)
    return g_value(kind, n)


def apply_transform(kind: TransformKind, ground: GroundSet) -> SetTransform:
    """Materialize the transform for a ground set; a target above the cap
    is refused before it is built."""
    size = _target_size(kind, ground.n)
    if size > _MAX_TARGET:
        raise InputError(f"transform target would have {size} elements, cap is {_MAX_TARGET}")
    elems = _build_elements(kind, ground)
    target = GroundSet(tuple(lab for lab, _ in elems))
    return SetTransform(
        kind=kind,
        ground=ground,
        target=target,
        witnesses=tuple(wit for _, wit in elems),
    )


def transform_system(kind: TransformKind, system: SetSystem) -> SetSystem:
    """Image of each member; identical images collapse to one set."""
    tr = apply_transform(kind, system.ground)
    images = []
    seen = set()
    for h in system.sets:
        img = tr.image_mask(h)
        if img not in seen:
            seen.add(img)
            images.append(img)
    return SetSystem(tr.target, tuple(images))


@dataclass(frozen=True)
class TransformReport:
    ok: bool
    checks: int
    failures: tuple[str, ...] = ()


def verify_transform(kind: TransformKind, n: int) -> TransformReport:
    """Check the defining properties on a fresh n-element ground set.

    Every subset pair is checked, so n is limited to 8.  The generalized
    product requires its factor labels to exist in the generated ground
    set "e1" .. "e{n}".
    """
    if n > 8:
        raise InputError(f"exhaustive verification needs n <= 8, got {n}")
    ground = GroundSet(tuple(f"e{i}" for i in range(1, n + 1)))
    tr = apply_transform(kind, ground)
    failures: list[str] = []
    checks = 0
    full = ground.full_mask
    w_all = tr.image_mask(full)
    checks += 1
    if w_all != tr.target.full_mask:
        failures.append("image of the full set is not the full target")
    lv = tr.level
    for j, wit in enumerate(tr.witnesses):
        checks += 1
        if popcount(wit) > lv:
            failures.append(
                f"witness of {tr.target.elements[j]!r} exceeds level {lv}"
            )
            break
    images = [tr.image_mask(s) for s in range(full + 1)]
    for s in range(full + 1):
        checks += 1
        if popcount(images[s]) != _image_size(kind, ground, s):
            failures.append(f"image size off at subset mask {s}")
            break
    for s in range(full + 1):
        done = False
        for t in range(s, full + 1):
            checks += 1
            if images[s] & images[t] != images[s & t]:
                failures.append(
                    f"intersection homomorphism fails at masks ({s}, {t})"
                )
                done = True
                break
        if done:
            break
    return TransformReport(not failures, checks, tuple(failures))


def _image_size(kind: TransformKind, ground: GroundSet, mask: int) -> int:
    """The image size g predicts for the subset ``mask``: a sum adds its
    parts' sizes, each read with its own argument, the per-factor
    intersection sizes for a generalized product and |S| for the rest."""
    if isinstance(kind, Sum):
        return sum(_image_size(part, ground, mask) for part in kind.parts)
    if isinstance(kind, GeneralizedProduct):
        return g_value(kind, [popcount(mask & ground.mask_of(f)) for f in kind.factors])
    return g_value(kind, popcount(mask))


@dataclass(frozen=True)
class BinomReport:
    ok: bool
    checked: int
    counterexample: tuple[int, int] | None = None


def binom_mod_check(p: int, alpha: int, a_max: int) -> BinomReport:
    """Verify C(a, b) = C(a mod p**alpha, b) (mod p) for all b < p**alpha.

    This periodicity is the number-theoretic engine behind the prime-power
    transform: binomials of bounded lower index see the upper index only
    through its residue.
    """
    if is_prime_power(p) != (p, 1):
        raise InputError(f"p must be prime, got {p}")
    if alpha < 1:
        raise InputError(f"alpha must be >= 1, got {alpha}")
    if a_max < 0:
        raise InputError(f"a_max must be >= 0, got {a_max}")
    q = p**alpha
    checked = 0
    for a in range(a_max + 1):
        for b in range(q):
            checked += 1
            if comb(a, b) % p != comb(a % q, b) % p:
                return BinomReport(False, checked, (a, b))
    return BinomReport(True, checked)
