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

from bhent.errors import PhysicsDomainError, check_non_negative, check_positive


# CODATA-2018 values, SI units.
C = 299_792_458.0
H = 6.626_070_15e-34
HBAR = H / (2.0 * math.pi)
K_B = 1.380_649e-23
G_NEWTON = 6.674_30e-11
M_SUN = 1.988_92e30
# Radiation constant alpha = pi^2 k_B^4 / (15 hbar^3 c^3), J m^-3 K^-4.
STEFAN_ALPHA = math.pi**2 * K_B**4 / (15.0 * HBAR**3 * C**3)


class CavitySpec:
    """Thick-walled cavity: wall thickness (m) and inner volume (m^3)."""

    __slots__ = ("wall_thickness", "volume")

    def __init__(self, wall_thickness: float = 1.0, volume: float = 1.0) -> None:
        check_positive("cavity wall thickness", wall_thickness)
        check_positive("cavity volume", volume)
        self.wall_thickness = wall_thickness
        self.volume = volume


def radiation_density(temperature: float) -> float:
    """Thermal radiation energy density rho = alpha T^4 in J/m^3."""
    check_non_negative("temperature", temperature)
    rho = STEFAN_ALPHA * temperature**4
    if rho == 0.0 and temperature != 0.0:  # T^4 underflowed; only T = 0 gives rho = 0
        raise PhysicsDomainError(f"radiation density underflows to 0 for temperature={temperature}")
    return rho


def hawking_temperature_si(mass_kg: float) -> float:
    """Hawking temperature T = hbar c^3 / (8 pi G M k_B) in kelvin."""
    check_positive("mass", mass_kg)
    return HBAR * C**3 / (8.0 * math.pi * G_NEWTON * mass_kg * K_B)


def acceleration_surface_gravity(t_bh: float) -> float:
    """kappa = 2 pi c k_B T_bh / hbar, in m/s^2."""
    check_positive("temperature", t_bh)
    return 2.0 * math.pi * C * K_B * t_bh / HBAR


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
    redshift = kappa * cavity.wall_thickness / C**2
    delta_e = radiation_density(t_bh) * cavity.volume
    t = H / (redshift * delta_e)
    return CouplingTimeResult(t, kappa, redshift, delta_e, t_bh)


AGE_OF_UNIVERSE_S = 4e17
