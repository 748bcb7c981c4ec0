"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DomainError",
    "InvariantViolation",
    "ToleranceError",
    "ResourceLimitError",
    "UsageError",
]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class InvariantViolation(RuntimeError):
    """Two routes that must agree disagreed; signals an implementation bug."""


class ToleranceError(RuntimeError):
    """A numerical routine could not reach its accuracy target."""


class ResourceLimitError(RuntimeError):
    """A workload would exceed a fixed size cap; raised before the work starts."""


class UsageError(ValueError):
    """Malformed CLI arguments or configuration."""
