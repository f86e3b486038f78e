"""Field modes and their Hawking-Unruh squeezing parameters.

A stationary mode of frequency omega and azimuthal number m seen near a
horizon with surface gravity kappa and angular velocity Omega is governed by
the single dimensionless combination x = pi*(omega - m*Omega)/kappa:

    bosons:   tanh r = exp(-x)
    fermions: cos r  = (1 + exp(-2x))^(-1/2)   (r in [0, pi/4])

Thermal occupations are N^2 = 1/(exp(2x) -+ 1).  Everything is computed in
log-space (expm1/log1p) so the extreme regimes x in [1e-6, 1e3] stay accurate
and x beyond ~700 degrades to the exact limits instead of overflowing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from bhent.errors import PhysicsDomainError, SuperradiantModeError

BOSON = "boson"
FERMION = "fermion"

# exp(2x) overflows past ~709; beyond this every quantity equals its limit.
_X_OVERFLOW = 350.0


@dataclass(frozen=True)
class ModeSpec:
    """A single field mode: frequency, azimuthal number, statistics."""

    omega: float
    m: int = 0
    statistics: str = BOSON

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise PhysicsDomainError(
                f"mode frequency must be finite and positive, got {self.omega}"
            )
        if not math.isfinite(self.m):
            raise PhysicsDomainError(f"azimuthal number must be finite, got {self.m}")
        if self.statistics not in (BOSON, FERMION):
            raise PhysicsDomainError(f"unknown statistics {self.statistics!r}")


def effective_frequency(mode: ModeSpec, omega_h: float) -> float:
    """Co-rotating frequency omega - m*Omega; rejects superradiant modes."""
    eff = mode.omega - mode.m * omega_h
    if eff <= 0:
        raise SuperradiantModeError(
            f"superradiant mode: omega={mode.omega}, m={mode.m}, Omega={omega_h}"
        )
    return eff


@dataclass(frozen=True)
class SqueezingParams:
    """Bogoliubov squeezing parameter r with its cached trig/hyperbolic values.

    For bosons (tanh_r, cosh_r) are populated; for fermions (cos_r, sin_r).
    """

    statistics: str
    r: float
    tanh_r: float = 0.0
    cosh_r: float = 1.0
    cos_r: float = 1.0
    sin_r: float = 0.0

    @property
    def occupation(self) -> float:
        """Thermal occupation number: sinh^2 r (boson) or sin^2 r (fermion)."""
        if self.statistics == BOSON:
            # sinh^2 = (tanh * cosh)^2 avoids the cancellation in cosh^2 - 1
            s = self.tanh_r * self.cosh_r
            return s * s
        return self.sin_r * self.sin_r


def _check_ratio(omega_eff: float, kappa: float) -> float:
    """x = pi omega_eff / kappa for finite, positive omega_eff and kappa.

    x must also be a normal float: below sys.float_info.min, 1/expm1(2x)
    overflows to inf, and at x = 0 log(-expm1(-x)) fails.
    """
    if not (math.isfinite(omega_eff) and omega_eff > 0):
        raise PhysicsDomainError(
            f"effective frequency must be finite and positive, got {omega_eff}"
        )
    if not (math.isfinite(kappa) and kappa > 0):
        raise PhysicsDomainError(f"surface gravity must be finite and positive, got {kappa}")
    x = math.pi * omega_eff / kappa
    if x < sys.float_info.min:
        raise PhysicsDomainError(
            f"pi*omega_eff/kappa underflows: omega_eff={omega_eff}, kappa={kappa}"
        )
    return x


def squeeze_boson(omega_eff: float, kappa: float) -> SqueezingParams:
    """Bosonic squeezing, tanh r = exp(-pi omega_eff / kappa)."""
    x = _check_ratio(omega_eff, kappa)
    if x > _X_OVERFLOW:
        return SqueezingParams(BOSON, r=0.0, tanh_r=0.0, cosh_r=1.0)
    tanh_r = math.exp(-x)
    # atanh(e^-x) = [log1p(e^-x) - log1p(-e^-x)]/2; log1p(-e^-x) = log(-expm1(-x))
    r = 0.5 * (math.log1p(tanh_r) - math.log(-math.expm1(-x)))
    cosh_r = 1.0 / math.sqrt(-math.expm1(-2.0 * x))
    return SqueezingParams(BOSON, r=r, tanh_r=tanh_r, cosh_r=cosh_r)


def squeeze_fermion(omega_eff: float, kappa: float) -> SqueezingParams:
    """Fermionic squeezing, cos r = (1 + exp(-2 pi omega_eff / kappa))^(-1/2)."""
    x = _check_ratio(omega_eff, kappa)
    if x > _X_OVERFLOW:
        return SqueezingParams(FERMION, r=0.0, cos_r=1.0, sin_r=0.0)
    e = math.exp(-x)
    cos_r = 1.0 / math.sqrt(1.0 + e * e)
    sin_r = e * cos_r
    return SqueezingParams(FERMION, r=math.atan(e), cos_r=cos_r, sin_r=sin_r)


def squeeze(omega_eff: float, kappa: float, statistics: str) -> SqueezingParams:
    if statistics == BOSON:
        return squeeze_boson(omega_eff, kappa)
    if statistics == FERMION:
        return squeeze_fermion(omega_eff, kappa)
    raise PhysicsDomainError(f"unknown statistics {statistics!r}")


def occupation(omega_eff: float, kappa: float, statistics: str) -> float:
    """Hawking occupation N^2 = 1/(exp(2 pi omega_eff/kappa) -+ 1).

    Minus sign for bosons (Bose-Einstein), plus for fermions (Fermi-Dirac).
    Cross-checks: equals sinh^2 r for bosons and sin^2 r for fermions.
    """
    x = _check_ratio(omega_eff, kappa)
    if statistics == BOSON:
        if 2.0 * x > _X_OVERFLOW * 2:
            return 0.0
        return 1.0 / math.expm1(2.0 * x)
    if statistics == FERMION:
        if 2.0 * x > _X_OVERFLOW * 2:
            return 0.0
        e = math.exp(-2.0 * x)
        return e / (1.0 + e)
    raise PhysicsDomainError(f"unknown statistics {statistics!r}")
