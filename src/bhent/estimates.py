"""SI-unit order-of-magnitude estimates for horizon-adjacent cavities.

Everything here is deliberately rough (the inputs are themselves
order-of-magnitude), but the formulas are evaluated exactly:

    rho  = alpha T^4,  alpha = pi^2 k_B^4 / (15 hbar^3 c^3)
    T_bh = hbar c^3 / (8 pi G M k_B)
    t    = h c^2 / (kappa * dl * alpha T_bh^4 V_c),  kappa = 2 pi c k_B T_bh / hbar

The kappa used here carries acceleration dimensions (m/s^2) and is distinct
from the geometric, natural-unit surface gravity in bhent.geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bhent.errors import PhysicsDomainError


@dataclass(frozen=True)
class SIConstants:
    """CODATA-2018 values, SI units."""

    c: float = 299_792_458.0
    h: float = 6.626_070_15e-34
    k_b: float = 1.380_649e-23
    g_newton: float = 6.674_30e-11
    m_sun: float = 1.988_92e30

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def stefan_alpha(self) -> float:
        """Radiation constant alpha = pi^2 k_B^4 / (15 hbar^3 c^3), J m^-3 K^-4."""
        return math.pi**2 * self.k_b**4 / (15.0 * self.hbar**3 * self.c**3)


SI = SIConstants()


@dataclass(frozen=True)
class CavitySpec:
    """Thick-walled cavity: wall thickness (m) and inner volume (m^3)."""

    wall_thickness: float = 1.0
    volume: float = 1.0

    def __post_init__(self) -> None:
        if self.wall_thickness <= 0 or self.volume <= 0:
            raise PhysicsDomainError("cavity dimensions must be positive")


def radiation_density(temperature: float) -> float:
    """Thermal radiation energy density rho = alpha T^4 in J/m^3."""
    if temperature < 0:
        raise PhysicsDomainError(f"temperature must be non-negative, got {temperature}")
    return SI.stefan_alpha * temperature**4


def hawking_temperature_si(mass_kg: float) -> float:
    """Hawking temperature T = hbar c^3 / (8 pi G M k_B) in kelvin."""
    if mass_kg <= 0:
        raise PhysicsDomainError(f"mass must be positive, got {mass_kg}")
    return SI.hbar * SI.c**3 / (8.0 * math.pi * SI.g_newton * mass_kg * SI.k_b)


def acceleration_surface_gravity(t_bh: float) -> float:
    """kappa = 2 pi c k_B T_bh / hbar, in m/s^2."""
    if t_bh <= 0:
        raise PhysicsDomainError(f"temperature must be positive, got {t_bh}")
    return 2.0 * math.pi * SI.c * SI.k_b * t_bh / SI.hbar


@dataclass(frozen=True)
class CouplingTimeResult:
    time_s: float
    kappa_si: float
    redshift_ratio: float  # Delta nu / nu_0 = kappa dl / c^2
    energy_change_j: float
    t_bh: float


def coupling_time(
    mass_kg: float | None, cavity: CavitySpec, t_bh: float | None = None
) -> CouplingTimeResult:
    """Gravitational coupling time t ~ h c^2 / (kappa dl alpha T_bh^4 V_c).

    The black hole temperature can either be derived from the mass or passed
    directly (the rounded 1e-8 K solar value is a common input).
    """
    if t_bh is None:
        if mass_kg is None:
            raise PhysicsDomainError("need a black hole mass or temperature")
        t_bh = hawking_temperature_si(mass_kg)
    kappa = acceleration_surface_gravity(t_bh)
    redshift = kappa * cavity.wall_thickness / SI.c**2
    delta_e = radiation_density(t_bh) * cavity.volume
    t = SI.h / (redshift * delta_e)
    return CouplingTimeResult(t, kappa, redshift, delta_e, t_bh)


AGE_OF_UNIVERSE_S = 4e17
