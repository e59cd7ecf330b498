"""Ground sets and bitmask subset utilities.

Subsets of a ground set are held as Python integers: bit ``i`` set means the
element at index ``i`` is in the subset.  NumPy arrays of masks use the same
convention, which keeps every exhaustive computation a handful of vectorized
bit operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError


def popcount(mask: int) -> int:
    return mask.bit_count()


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Per-entry population count for an int64 array of masks."""
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def label_set(labels: Iterable[str], what: str) -> frozenset[str]:
    """``labels`` as a frozenset, or ``InputError`` for a ``str``, which
    would be split into its letters: ``"ab"`` would read as a and b."""
    if isinstance(labels, str):
        raise InputError(f"{what} must be a collection of labels, got the string {labels!r}")
    return frozenset(labels)


def reversed_bits_array(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit-reverse each mask within an ``n``-bit window.

    Sorting equal-cardinality masks by this key in *descending* order lists
    them in lexicographic order of their sorted index tuples, e.g. for n=4
    the pair {0,3} precedes {1,2}.
    """
    out = np.zeros(len(masks), dtype=np.int64)
    m = masks.astype(np.int64)
    for i in range(n):
        out |= ((m >> i) & 1) << (n - 1 - i)
    return out


@dataclass(frozen=True)
class GroundSet:
    """An ordered set of distinct element labels.

    The order of ``elements`` fixes the bit layout of every mask built
    against this ground set.
    """

    elements: tuple[str, ...]

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InputError("ground set labels must be distinct")
        for e in elems:
            if not isinstance(e, str) or not e:
                raise InputError(f"ground set labels must be non-empty strings, got {e!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elems)})

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown element label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        """The mask of ``labels``; ``InputError`` for a label outside the
        ground set, or for a ``str``, as in ``label_set``."""
        if isinstance(labels, str):
            raise InputError(
                f"a label set must be a collection of labels, got the string {labels!r}"
            )
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        if mask < 0 or mask > self.full_mask:
            raise InputError(f"mask {mask} out of range for n={self.n}")
        return tuple(self.elements[i] for i in iter_bits(mask))

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels_of(mask))

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

