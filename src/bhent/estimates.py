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

from bhent.errors import PhysicsDomainError


class SIConstants:
    """CODATA-2018 values, SI units."""

    __slots__ = ("c", "h", "k_b", "g_newton", "m_sun")

    def __init__(
        self,
        c: float = 299_792_458.0,
        h: float = 6.626_070_15e-34,
        k_b: float = 1.380_649e-23,
        g_newton: float = 6.674_30e-11,
        m_sun: float = 1.988_92e30,
    ) -> None:
        self.c = c
        self.h = h
        self.k_b = k_b
        self.g_newton = g_newton
        self.m_sun = m_sun

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def stefan_alpha(self) -> float:
        """Radiation constant alpha = pi^2 k_B^4 / (15 hbar^3 c^3), J m^-3 K^-4."""
        return math.pi**2 * self.k_b**4 / (15.0 * self.hbar**3 * self.c**3)


SI = SIConstants()


class CavitySpec:
    """Thick-walled cavity: wall thickness (m) and inner volume (m^3)."""

    __slots__ = ("wall_thickness", "volume")

    def __init__(self, wall_thickness: float = 1.0, volume: float = 1.0) -> None:
        if wall_thickness <= 0 or volume <= 0:
            raise PhysicsDomainError("cavity dimensions must be positive")
        self.wall_thickness = wall_thickness
        self.volume = volume


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


class CouplingTimeResult:
    __slots__ = ("time_s", "kappa_si", "redshift_ratio", "energy_change_j", "t_bh")

    def __init__(
        self,
        time_s: float,
        kappa_si: float,
        redshift_ratio: float,  # Delta nu / nu_0 = kappa dl / c^2
        energy_change_j: float,
        t_bh: float,
    ) -> None:
        self.time_s = time_s
        self.kappa_si = kappa_si
        self.redshift_ratio = redshift_ratio
        self.energy_change_j = energy_change_j
        self.t_bh = t_bh


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
