"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: parameter problems exit 2,
out-of-scope instances exit 3, resource-cap refusals exit 4.  A
ConstructionError signals a broken internal invariant, i.e. a bug, never bad
input; it exits 5 (internal error), so it never reads as a failed
verification (exit 1).
"""

from __future__ import annotations


class KneserMinorError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(KneserMinorError):
    """Malformed or inconsistent caller input (bad interval, size vector, file)."""


class OutOfScopeError(KneserMinorError):
    """Structurally valid parameters outside the supported domain."""


class ResourceCapError(KneserMinorError):
    """Instance exceeds a configured work cap and was refused, not attempted."""


class ConstructionError(KneserMinorError):
    """An internal invariant failed while building; firing one is a bug."""
