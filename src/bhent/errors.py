"""Exception hierarchy shared across the package, and the argument checks that raise it.

Physics-level errors (bad spacetime parameters, superradiant modes) are kept
distinct from programming-contract violations so the CLI can map them to
different exit codes.  check_positive, check_non_negative and check_integer
state every single-argument domain; each tests finiteness before any bound.
"""

import math


class PhysicsDomainError(ValueError):
    """Input is outside the physical domain of the requested quantity."""


class NakedSingularityError(PhysicsDomainError):
    """The rotating-metric horizon function has no positive root."""


class SuperradiantModeError(PhysicsDomainError):
    """Effective co-rotating frequency omega - m*Omega is non-positive."""


class TruncationError(PhysicsDomainError):
    """Requested Fock-space truncation is too small for the squeezing value."""


class ContractViolationError(RuntimeError):
    """An internal numerical contract was violated (e.g. asymmetric input)."""


def check_positive(name: str, x: float) -> None:
    """Refuse x unless it is finite and > 0."""
    if not (math.isfinite(x) and x > 0):
        raise PhysicsDomainError(f"{name} must be finite and positive, got {x}")


def check_non_negative(name: str, x: float) -> None:
    """Refuse x unless it is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0):
        raise PhysicsDomainError(f"{name} must be finite and >= 0, got {x}")


def check_integer(name: str, x: float, lo: float, hi: float = math.inf) -> int:
    """int(x) for an integer x, or an integral float such as 4.0, in [lo, hi]."""
    if not (isinstance(x, int) or (math.isfinite(x) and x == int(x))):
        raise PhysicsDomainError(f"{name} must be a finite integer, got {x}")
    if not lo <= x <= hi:
        bounds = f"an integer >= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise PhysicsDomainError(f"{name} must be {bounds}, got {x}")
    return int(x)
