"""Size caps for exhaustive computations.

Everything in this package that enumerates subsets works on dense tables of
size 2**n, so the caps below bound memory and time.  The environment variable
``CCSM_MAX_N`` lowers (never raises) the exhaustive cap, which is handy on
constrained machines.
"""

from __future__ import annotations

import os

from .errors import UnsupportedSizeError

# Hard ceiling for any 2**n table.  16M int64 entries = 128 MiB.
_EXHAUSTIVE_CAP = 24

# Marks non-members in the solver's scaled int64 tables (int64 max // 4).
# Oracles refuse inputs whose scaled values (n + 2) * range_bound could
# reach it, so every int64 sum the package forms stays exact.
_SENTINEL = (2**63 - 1) // 4


def exhaustive_cap() -> int:
    """Current cap on ground-set size for 2**n table computations."""
    cap = _EXHAUSTIVE_CAP
    env = os.environ.get("CCSM_MAX_N")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise UnsupportedSizeError(f"CCSM_MAX_N must be an integer, got {env!r}")
        cap = min(cap, requested)
    return cap


def require_exhaustible(n: int, what: str) -> None:
    """Raise ``UnsupportedSizeError`` when ``n`` exceeds the exhaustive cap."""
    cap = exhaustive_cap()
    if n > cap:
        raise UnsupportedSizeError(
            f"{what} needs a dense 2**n table and n={n} exceeds the cap {cap}; "
            "no polynomial-time backend is built in"
        )
