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


def coupling_time(t_bh: float, wall_thickness: float, volume: float) -> dict[str, float]:
    """Gravitational coupling time t ~ h c^2 / (kappa dl alpha T_bh^4 V_c), with its factors.

    A hole at temperature t_bh (K) beside a thick-walled cavity of the given
    wall thickness (m) and inner volume (m^3); the rounded 1e-8 K solar value
    is a common input.  Returns the lines `estimate coupling-time` prints.
    """
    check_positive("cavity wall thickness", wall_thickness)
    check_positive("cavity volume", volume)
    kappa = acceleration_surface_gravity(t_bh)
    redshift = kappa * wall_thickness / C**2  # Delta nu / nu_0
    delta_e = radiation_density(t_bh) * volume
    return {"t_s": H / (redshift * delta_e), "kappa_si": kappa, "redshift_ratio": redshift,
            "delta_E_J": delta_e, "T_bh_K": t_bh}


AGE_OF_UNIVERSE_S = 4e17
