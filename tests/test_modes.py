import math
import sys

import mpmath
import pytest

from bhent import modes
from bhent.errors import PhysicsDomainError, SuperradiantModeError


class TestModeSpec:
    def test_validation(self):
        with pytest.raises(PhysicsDomainError):
            modes.ModeSpec(0.0)
        with pytest.raises(PhysicsDomainError):
            modes.ModeSpec(1.0, 0, "anyon")
        with pytest.raises(PhysicsDomainError, match="integer"):
            modes.ModeSpec(1.0, 0.5)

    @pytest.mark.parametrize(
        "omega, m", [(math.nan, 0), (math.inf, 0), (1.0, math.inf)], ids=["nan", "inf", "m-inf"]
    )
    def test_non_finite_rejected(self, omega, m):
        with pytest.raises(PhysicsDomainError, match="finite"):
            modes.ModeSpec(omega, m)

    def test_effective_frequency(self):
        mode = modes.ModeSpec(1.0, 2, modes.BOSON)
        assert modes.effective_frequency(mode, 0.3) == pytest.approx(0.4, rel=1e-15)
        with pytest.raises(SuperradiantModeError):
            modes.effective_frequency(mode, 0.5)
        with pytest.raises(SuperradiantModeError):
            modes.effective_frequency(mode, 0.7)
        with pytest.raises(PhysicsDomainError, match="finite") as info:
            modes.effective_frequency(mode, math.nan)  # once returned nan
        assert info.type is PhysicsDomainError


class TestSqueezeBoson:
    def test_half_tanh_point(self):
        # x = ln 2 makes tanh r = 1/2, so r = atanh(1/2)
        kappa = 1.0
        omega = math.log(2.0) / math.pi
        sq = modes.squeeze_boson(omega, kappa)
        assert math.tanh(sq.r) == pytest.approx(0.5, rel=1e-14)
        assert sq.r == pytest.approx(math.atanh(0.5), rel=1e-14)
        # N^2 = sinh^2 r = tanh^2 r / (1 - tanh^2 r) = 1/3
        assert sq.occupation == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_consistency(self):
        # abs=0: at x = 10 and above tanh r is below approx's default abs=1e-12
        for x in [1e-6, 1e-3, 0.1, 1.0, 10.0, 37.0, 100.0, 300.0]:
            sq = modes.squeeze_boson(x / math.pi, 1.0)
            assert math.tanh(sq.r) == pytest.approx(math.exp(-x), rel=1e-12, abs=0)
            assert sq.x == pytest.approx(x, rel=1e-14, abs=0)

    def test_large_x_matches_mpmath(self):
        # r = atanh(e^-x) keeps its relative accuracy where 1 - e^-x rounds to 1
        with mpmath.workdps(40):
            for i in range(34):
                sq = modes.squeeze_boson(10.0 + 10.0 * i, math.pi)  # x = 10 .. 340
                exact = mpmath.atanh(mpmath.exp(-mpmath.mpf(sq.x)))
                assert sq.r == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_overflow_regime(self):
        sq = modes.squeeze_boson(1e6, 1.0)
        assert sq.r == 0.0
        assert sq.occupation == 0.0

    def test_occupation_identity(self):
        # N^2 = sinh^2 r across the sensible x range, to 1e-12
        for i in range(60):
            x = 10.0 ** (-3 + 4.0 * i / 59)
            sq = modes.squeeze_boson(x / math.pi, 1.0)
            assert sq.occupation == pytest.approx(math.sinh(sq.r) ** 2, rel=1e-12, abs=1e-300)


class TestSqueezeFermion:
    def test_cos_squared_point(self):
        # 2x = ln 4 gives cos^2 r = 1/(1 + 1/4) = 0.8
        x = math.log(4.0) / 2.0
        sq = modes.squeeze_fermion(x / math.pi, 1.0)
        assert math.cos(sq.r) ** 2 == pytest.approx(0.8, rel=1e-14)
        assert sq.r == pytest.approx(math.atan(math.exp(-x)), rel=1e-14)
        assert sq.occupation == pytest.approx(0.2, rel=1e-14)

    def test_range(self):
        for x in [1e-8, 0.5, 5.0, 50.0]:
            sq = modes.squeeze_fermion(x / math.pi, 1.0)
            assert 0.0 <= sq.r <= math.pi / 4
            # N^2 = sin^2 r, so cos^2 r + N^2 = 1
            assert math.cos(sq.r) ** 2 + sq.occupation == pytest.approx(1.0, rel=1e-14)

    def test_kappa_to_infinity_limit(self):
        sq = modes.squeeze_fermion(1.0, 1e15)
        assert sq.r == pytest.approx(math.pi / 4, rel=1e-12)
        assert math.cos(sq.r) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert sq.occupation == pytest.approx(0.5, rel=1e-12)

    def test_overflow_regime(self):
        sq = modes.squeeze_fermion(1e9, 1.0)
        assert sq.r == 0.0
        assert sq.occupation == 0.0

    def test_occupation_identity(self):
        for i in range(60):
            x = 10.0 ** (-3 + 4.0 * i / 59)
            sq = modes.squeeze_fermion(x / math.pi, 1.0)
            assert sq.occupation == pytest.approx(math.sin(sq.r) ** 2, rel=1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    def test_r_decreases_with_x(self, statistics):
        values = []
        for i in range(50):
            x = 10.0 ** (-2 + 4.0 * i / 49)
            values.append(modes.squeeze(x / math.pi, 1.0, statistics).r)
        for lo, hi in zip(values[1:], values):
            assert lo < hi

    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    def test_occupation_increases_with_kappa(self, statistics):
        values = [modes.squeeze(1.0, 10.0**e, statistics).occupation for e in range(-2, 4)]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi


class TestDomainErrors:
    def test_nonpositive_inputs(self):
        with pytest.raises(PhysicsDomainError):
            modes.squeeze_boson(-1.0, 1.0)
        with pytest.raises(PhysicsDomainError):
            modes.squeeze_fermion(1.0, 0.0)
        with pytest.raises(PhysicsDomainError):
            modes.squeeze(1.0, -2.0, modes.BOSON)
        with pytest.raises(PhysicsDomainError):
            modes.squeeze(1.0, 1.0, "anyon")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: modes.squeeze(1.0, math.inf, modes.BOSON),
            lambda: modes.squeeze(math.nan, 1.0, modes.FERMION),
            lambda: modes.squeeze(1.0, math.nan, modes.BOSON),
            lambda: modes.squeeze(math.inf, 1.0, modes.FERMION),
        ],
        ids=["squeeze-kappa-inf", "squeeze-omega-nan", "squeeze-kappa-nan",
             "squeeze-omega-inf"],
    )
    def test_non_finite_inputs(self, call):
        with pytest.raises(PhysicsDomainError, match="finite"):
            call()

    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    @pytest.mark.parametrize(
        "omega_eff, kappa", [(1e-300, 1e300), (1e-310, 1.0), (5e-324, 1e-10)]
    )
    def test_underflowing_ratio(self, omega_eff, kappa, statistics):
        # x = pi omega_eff / kappa is 0 or subnormal: 1/expm1(2x) would be inf
        with pytest.raises(PhysicsDomainError, match="underflows"):
            modes.squeeze(omega_eff, kappa, statistics)

    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    def test_smallest_normal_ratio_is_finite(self, statistics):
        kappa, omega_eff = 1.0, sys.float_info.min  # x = pi * 2.2e-308
        sq = modes.squeeze(omega_eff, kappa, statistics)
        assert math.isfinite(sq.r)
        assert math.isfinite(sq.occupation)
