import math

import pytest

from bhent import estimates
from bhent.errors import PhysicsDomainError


class TestConstants:
    def test_radiation_constant(self):
        # alpha = pi^2 k_B^4 / (15 hbar^3 c^3) ~ 7.566e-16 J m^-3 K^-4
        assert estimates.STEFAN_ALPHA == pytest.approx(7.5657e-16, rel=1e-4)

    def test_hbar(self):
        assert estimates.HBAR == pytest.approx(1.054571817e-34, rel=1e-9)


class TestRadiationDensity:
    def test_unit_temperature(self):
        assert estimates.radiation_density(1.0) == estimates.STEFAN_ALPHA

    def test_quartic_scaling(self):
        assert estimates.radiation_density(2.0) == pytest.approx(
            16.0 * estimates.radiation_density(1.0), rel=1e-14
        )

    def test_domain(self):
        for temperature in (-1.0, math.nan, math.inf):
            with pytest.raises(PhysicsDomainError):
                estimates.radiation_density(temperature)


class TestHawkingTemperature:
    def test_solar_value(self):
        t = estimates.hawking_temperature_si(estimates.M_SUN)
        assert t == pytest.approx(6.17e-8, rel=0.01)
        # within one decade of 1e-8 K
        assert 1e-9 <= t <= 1e-7

    def test_inverse_mass_scaling(self):
        t1 = estimates.hawking_temperature_si(1e30)
        t2 = estimates.hawking_temperature_si(2e30)
        assert t1 / t2 == pytest.approx(2.0, rel=1e-12)

    def test_dimensional_consistency(self):
        # hbar c^3 / (8 pi G M k_B): J s * m^3 s^-3 / (m^3 kg^-1 s^-2 * kg * J K^-1)
        # = J m^3 s^-2 / (J K^-1 m^3 s^-2) = K; rebuild from base factors
        e = estimates
        mass = 5e30
        rebuilt = (e.HBAR * e.C**3) / (8.0 * math.pi * e.G_NEWTON * mass * e.K_B)
        assert estimates.hawking_temperature_si(mass) == rebuilt

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_domain(self, mass):
        with pytest.raises(PhysicsDomainError, match="finite"):
            estimates.hawking_temperature_si(mass)


class TestSurfaceGravity:
    def test_value(self):
        # kappa = 2 pi c k_B T / hbar at T = 1e-8 K
        kappa = estimates.acceleration_surface_gravity(1e-8)
        expected = 2.0 * math.pi * estimates.C * estimates.K_B * 1e-8 / estimates.HBAR
        assert kappa == expected
        assert kappa == pytest.approx(2.47e12, rel=0.01)

    @pytest.mark.parametrize("t_bh", [math.nan, math.inf])
    def test_domain(self, t_bh):
        with pytest.raises(PhysicsDomainError, match="finite"):
            estimates.acceleration_surface_gravity(t_bh)


class TestCouplingTime:
    def test_solar_reference(self):
        res = estimates.coupling_time(None, estimates.CavitySpec(1.0, 1.0), t_bh=1e-8)
        # quoted order of magnitude: ~1e19 s, well past the age of the universe
        assert 1e18 <= res.time_s <= 1e20
        assert res.time_s > estimates.AGE_OF_UNIVERSE_S

    def test_internal_identity(self):
        res = estimates.coupling_time(None, estimates.CavitySpec(2.0, 3.0), t_bh=1e-7)
        assert res.time_s == pytest.approx(
            estimates.H / (res.redshift_ratio * res.energy_change_j), rel=1e-14
        )
        assert res.redshift_ratio == pytest.approx(
            res.kappa_si * 2.0 / estimates.C**2, rel=1e-14
        )
        assert res.energy_change_j == pytest.approx(
            estimates.radiation_density(1e-7) * 3.0, rel=1e-14
        )

    def test_mass_to_fifth_power_scaling(self):
        # T ~ 1/M so t ~ 1/(kappa T^4) ~ M^5
        cavity = estimates.CavitySpec(1.0, 1.0)
        t1 = estimates.coupling_time(1e30, cavity).time_s
        t2 = estimates.coupling_time(2e30, cavity).time_s
        assert t2 / t1 == pytest.approx(32.0, rel=1e-9)

    def test_needs_mass_or_temperature(self):
        with pytest.raises(PhysicsDomainError):
            estimates.coupling_time(None, estimates.CavitySpec(1.0, 1.0))

    def test_cavity_validation(self):
        with pytest.raises(PhysicsDomainError):
            estimates.CavitySpec(0.0, 1.0)
        with pytest.raises(PhysicsDomainError):
            estimates.CavitySpec(1.0, -2.0)
        for dims in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
            with pytest.raises(PhysicsDomainError, match="finite"):
                estimates.CavitySpec(*dims)
