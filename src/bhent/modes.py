"""Field modes and their Hawking-Unruh squeezing parameters.

A stationary mode of frequency omega and azimuthal number m seen near a
horizon with surface gravity kappa and angular velocity Omega is governed by
the single dimensionless combination x = pi*(omega - m*Omega)/kappa:

    bosons:   tanh r = exp(-x)
    fermions: cos r  = (1 + exp(-2x))^(-1/2)   (r in [0, pi/4])

Thermal occupations are N^2 = 1/(exp(2x) -+ 1).  Everything is computed in
log-space (expm1/log1p) so the extreme regimes x in [1e-6, 1e3] stay accurate
and x beyond ~700 degrades to the exact limits instead of overflowing.
check_boson_r and check_fermion_r state the domain of r for every module.
"""

from __future__ import annotations

import math
import sys

from bhent.errors import PhysicsDomainError, SuperradiantModeError
from bhent.errors import check_integer, check_non_negative, check_positive

BOSON = "boson"
FERMION = "fermion"

# exp(2x) overflows past ~709; beyond this every quantity equals its limit.
_X_OVERFLOW = 350.0


class ModeSpec:
    """A single field mode: frequency, azimuthal number, statistics."""

    __slots__ = ("omega", "m", "statistics")

    def __init__(self, omega: float, m: int = 0, statistics: str = BOSON) -> None:
        check_positive("mode frequency", omega)
        m = check_integer("azimuthal number", m, -math.inf)
        if statistics not in (BOSON, FERMION):
            raise PhysicsDomainError(f"unknown statistics {statistics!r}")
        self.omega = omega
        self.m = m
        self.statistics = statistics


def effective_frequency(mode: ModeSpec, omega_h: float) -> float:
    """Co-rotating frequency omega - m*Omega; rejects superradiant modes."""
    if not math.isfinite(omega_h):
        raise PhysicsDomainError(f"horizon angular velocity must be finite, got {omega_h}")
    eff = mode.omega - mode.m * omega_h
    if eff <= 0:
        raise SuperradiantModeError(
            f"superradiant mode: omega={mode.omega}, m={mode.m}, Omega={omega_h}"
        )
    return eff


def check_boson_r(r: float) -> None:
    """Refuse a bosonic squeezing parameter unless it is finite and >= 0."""
    check_non_negative("squeezing parameter", r)


def check_fermion_r(r: float) -> None:
    """Refuse a fermionic squeezing parameter outside [0, pi/4] (or nan)."""
    if not 0.0 <= r <= math.pi / 4 + 1e-12:
        raise PhysicsDomainError(f"fermionic squeezing parameter must be in [0, pi/4], got {r}")


class SqueezingParams:
    """One mode's x = pi omega_eff / kappa, Bogoliubov parameter r and occupation N^2.

    N^2 is sinh^2 r for bosons and sin^2 r for fermions; past _X_OVERFLOW
    r and N^2 are their limits, 0.
    """

    __slots__ = ("x", "r", "occupation")

    def __init__(self, x: float, r: float, occupation: float) -> None:
        self.x = x
        self.r = r
        self.occupation = occupation


def _check_ratio(omega_eff: float, kappa: float) -> float:
    """x = pi omega_eff / kappa for finite, positive omega_eff and kappa.

    x must also be a normal float: below sys.float_info.min, 1/expm1(2x)
    overflows to inf, and at x = 0 log(-expm1(-x)) fails.
    """
    check_positive("effective frequency", omega_eff)
    check_positive("surface gravity", kappa)
    x = math.pi * omega_eff / kappa
    if x < sys.float_info.min:
        raise PhysicsDomainError(
            f"pi*omega_eff/kappa underflows: omega_eff={omega_eff}, kappa={kappa}"
        )
    return x


def squeeze_boson(omega_eff: float, kappa: float) -> SqueezingParams:
    """Bosonic squeezing, tanh r = exp(-x); N^2 = 1/(exp(2x) - 1)."""
    x = _check_ratio(omega_eff, kappa)
    if x > _X_OVERFLOW:
        return SqueezingParams(x, 0.0, 0.0)
    tanh_r = math.exp(-x)
    # atanh(e^-x) = [log1p(e^-x) - log1p(-e^-x)]/2.  For small x the rounded
    # e^-x is close to 1, so 1 - e^-x is formed as -expm1(-x).  For large x
    # that rounds to 1 and its log to 0 (r comes out exactly halved from
    # x ~ 37 on), while log1p(-e^-x) stays accurate.  Switching at x = 3
    # leaves every r below it as it was.
    if x > 3.0:
        r = 0.5 * (math.log1p(tanh_r) - math.log1p(-tanh_r))
    else:
        r = 0.5 * (math.log1p(tanh_r) - math.log(-math.expm1(-x)))
    return SqueezingParams(x, r, 1.0 / math.expm1(2.0 * x))


def squeeze_fermion(omega_eff: float, kappa: float) -> SqueezingParams:
    """Fermionic squeezing, cos r = (1 + exp(-2x))^(-1/2); N^2 = 1/(exp(2x) + 1)."""
    x = _check_ratio(omega_eff, kappa)
    if x > _X_OVERFLOW:
        return SqueezingParams(x, 0.0, 0.0)
    e = math.exp(-x)
    e2 = math.exp(-2.0 * x)
    return SqueezingParams(x, math.atan(e), e2 / (1.0 + e2))


def squeeze(omega_eff: float, kappa: float, statistics: str) -> SqueezingParams:
    if statistics == BOSON:
        return squeeze_boson(omega_eff, kappa)
    if statistics == FERMION:
        return squeeze_fermion(omega_eff, kappa)
    raise PhysicsDomainError(f"unknown statistics {statistics!r}")
