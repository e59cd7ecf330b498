"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CcsmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CcsmError):
    """Malformed input: unknown labels, bad parameters, invalid files."""


class UnsupportedSizeError(CcsmError):
    """The instance exceeds the exhaustive-computation size caps."""


class InternalInconsistencyError(CcsmError):
    """A certified impossibility was observed; indicates a bug somewhere."""
