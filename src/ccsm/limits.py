"""Size caps for exhaustive computations.

Everything in this package that enumerates subsets works on dense tables of
size 2**n, so the cap below bounds memory and time.
"""

from __future__ import annotations

from .errors import UnsupportedSizeError

# Hard ceiling for any 2**n table.  16M int64 entries = 128 MiB.
_EXHAUSTIVE_CAP = 24

# int64 max // 4.  Oracles refuse inputs whose scaled values
# (n + 2) * range_bound could reach it, so every int64 sum the package
# forms stays exact.
_SENTINEL = (2**63 - 1) // 4


def require_exhaustible(n: int, what: str) -> None:
    """Raise ``UnsupportedSizeError`` when ``n`` exceeds the exhaustive cap."""
    if n > _EXHAUSTIVE_CAP:
        raise UnsupportedSizeError(
            f"{what} needs a dense 2**n table and n={n} exceeds the cap {_EXHAUSTIVE_CAP}; "
            "no polynomial-time backend is built in"
        )
