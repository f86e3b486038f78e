import math
import os
import random
import subprocess
import sys

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

import bhent
from bhent import geometry, sweep
from bhent.errors import ContractViolationError, NakedSingularityError, PhysicsDomainError


class TestGammaHalf:
    def test_known_values(self):
        assert geometry.gamma_half(1) == math.sqrt(math.pi)
        assert geometry.gamma_half(2) == 1.0
        assert geometry.gamma_half(3) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)
        assert geometry.gamma_half(4) == 1.0
        assert geometry.gamma_half(10) == 24.0
        assert geometry.gamma_half(7) == pytest.approx(15.0 * math.sqrt(math.pi) / 8.0, rel=1e-15)

    def test_matches_stdlib(self):
        for twice_x in range(1, 30):
            assert geometry.gamma_half(twice_x) == pytest.approx(
                math.gamma(twice_x / 2.0), rel=1e-13
            )

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            geometry.gamma_half(0)

    def test_overflow_raises(self):
        # Gamma(171.5) ~ 9.5e307 is the last finite value; Gamma(172) = 171! is not
        assert math.isfinite(geometry.gamma_half(343))
        for twice_x in (344, 345, 1000):
            with pytest.raises(OverflowError):
                geometry.gamma_half(twice_x)


class TestSphereVolume:
    def test_low_dimensions(self):
        assert geometry.sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert geometry.sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert geometry.sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            geometry.sphere_volume(0)

    def test_overflow_is_not_a_zero_volume(self):
        assert geometry.sphere_volume(342) > 0.0
        for k in (343, 998, 1239, 1240):
            with pytest.raises(OverflowError):
                geometry.sphere_volume(k)


class TestStaticHole:
    def test_d4_reductions(self):
        # r_h = 2M and kappa = 1/(4M) in four dimensions
        assert geometry.horizon_from_mass(4, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert geometry.mass_from_horizon(4, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert geometry.surface_gravity_schw(4, 2.0) == 0.25

    @pytest.mark.parametrize("d", range(4, 12))
    @pytest.mark.parametrize("r_h", [0.1, 1.0, 7.3])
    def test_mass_horizon_round_trip(self, d, r_h):
        mass = geometry.mass_from_horizon(d, r_h)
        assert geometry.horizon_from_mass(d, mass) == pytest.approx(r_h, rel=1e-12)

    def test_lapse_vanishes_at_horizon(self):
        for d in range(4, 9):
            assert geometry.lapse(d, 1.5, 1.5) == 0.0
            assert geometry.lapse(d, 1.5, 1e9) == pytest.approx(
                1.0 - (1.5e-9) ** (d - 3), rel=1e-12
            )

    def test_temperature(self):
        assert geometry.hawking_temperature(0.25) == pytest.approx(
            0.25 / (2.0 * math.pi), rel=1e-15
        )

    def test_dataclass_properties(self):
        bh = geometry.SchwarzschildBH.from_mass(5, 3.0)
        assert bh.mass == pytest.approx(3.0, rel=1e-12)
        assert bh.kappa == pytest.approx(1.0 / bh.r_h, rel=1e-15)

    def test_answers_as_a_rotating_hole(self):
        bh = geometry.SchwarzschildBH(6, 0.5)
        assert (bh.kappa, bh.omega_h, bh.angular_momentum) == (3.0, 0.0, 0.0)
        with pytest.raises(PhysicsDomainError):
            geometry.SchwarzschildBH(4, -1.0)

    def test_domain_errors(self):
        with pytest.raises(PhysicsDomainError):
            geometry.mass_from_horizon(3, 1.0)
        with pytest.raises(PhysicsDomainError):
            geometry.horizon_from_mass(4, -1.0)
        with pytest.raises(PhysicsDomainError):
            geometry.surface_gravity_schw(4, 0.0)
        # each of these once returned nan, 0.0 or a number for a non-integral dimension
        for call in (
            lambda: geometry.SchwarzschildBH(4, math.nan),
            lambda: geometry.SchwarzschildBH(4, math.inf),
            lambda: geometry.SchwarzschildBH(4.5, 1.0),
            lambda: geometry.sphere_volume(2.5),
            lambda: geometry.gamma_half(3.5),
            lambda: geometry.hawking_temperature(math.nan),
            lambda: geometry.lapse(4, 1.0, math.nan),
            lambda: geometry.tortoise(4, 1.0, math.nan),
            lambda: geometry.tortoise(5, 1.0, math.inf),
        ):
            with pytest.raises(PhysicsDomainError):
                call()

    def test_integral_float_dimension(self):
        # range() once refused d = 5.0 with a bare TypeError
        by_float = geometry.SchwarzschildBH.from_mass(5.0, 1.0)
        by_int = geometry.SchwarzschildBH.from_mass(5, 1.0)
        assert by_float.r_h.hex() == by_int.r_h.hex()
        assert by_float.kappa.hex() == by_int.kappa.hex()
        assert geometry.SchwarzschildBH(5.0, 1.0).mass.hex() == (
            geometry.SchwarzschildBH(5, 1.0).mass.hex()
        )


class TestTortoise:
    def test_d4_analytic(self):
        # r_* = r + r_h ln(r/r_h - 1) in four dimensions
        r_h = 2.0
        for r in (2.5, 3.0, 10.0, 100.0):
            expected = r + r_h * math.log(r / r_h - 1.0)
            assert geometry.tortoise(4, r_h, r) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", range(4, 10))
    def test_derivative_is_inverse_lapse(self, d):
        r_h = 1.3
        for r in (1.4, 2.0, 5.0, 40.0):
            h = 1e-6 * r
            num = (geometry.tortoise(d, r_h, r + h) - geometry.tortoise(d, r_h, r - h)) / (2 * h)
            assert num == pytest.approx(1.0 / geometry.lapse(d, r_h, r), rel=1e-6)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_differences_match_quadrature(self, d):
        r_h = 1.0
        pairs = [(1.5, 3.0), (2.0, 10.0), (1.05, 1.2)]
        for r1, r2 in pairs:
            closed = geometry.tortoise(d, r_h, r2) - geometry.tortoise(d, r_h, r1)
            numeric, err = quad(
                lambda r: 1.0 / geometry.lapse(d, r_h, r), r1, r2, epsabs=1e-12, epsrel=1e-12
            )
            assert err < 1e-9
            assert closed == pytest.approx(numeric, abs=1e-8)

    def test_inside_horizon_rejected(self):
        with pytest.raises(PhysicsDomainError):
            geometry.tortoise(5, 1.0, 0.9)


class TestRotatingHole:
    def test_reference_point(self):
        bh = geometry.RotatingBH(1, 2.0, 1.0)
        assert bh.r_h == pytest.approx(1.0, rel=1e-12)
        assert bh.kappa == pytest.approx(0.5, rel=1e-12)
        assert bh.omega_h == pytest.approx(0.5, rel=1e-12)
        assert bh.a_star == pytest.approx(1.0, rel=1e-12)

    def test_mass_one_extra_dimension(self):
        mass, angmom = geometry.rotating_mass_angmom(1, 1.0, 0.0)
        assert mass == pytest.approx(3.0 * math.pi / 8.0, rel=1e-12)
        assert angmom == 0.0

    def test_naked_singularities(self):
        with pytest.raises(NakedSingularityError):
            geometry.rotating_horizon(1, 1.0, 1.0)  # a^2 >= mu
        with pytest.raises(NakedSingularityError):
            geometry.rotating_horizon(0, 2.0, 1.1)  # 4a^2 > mu^2

    @pytest.mark.parametrize("n", range(0, 7))
    def test_horizon_residual(self, n):
        for mu, a in [(1.0, 0.0), (2.0, 0.4), (5.0, 0.9), (0.3, 0.1)]:
            if n == 0 and 4 * a * a > mu * mu:
                continue
            if n == 1 and a * a >= mu:
                continue
            r_h = geometry.rotating_horizon(n, mu, a)
            scale = max(r_h * r_h, a * a, mu * r_h ** (1 - n))
            assert abs(geometry._delta(n, mu, a, r_h)) <= 1e-12 * scale

    def test_kerr_surface_gravity_cross_check(self):
        # n = 0 reduces to Kerr with mu = 2M: kappa = (r_+ - r_-)/(2(r_+^2 + a^2))
        mass, a = 1.0, 0.6
        bh = geometry.RotatingBH(0, 2.0 * mass, a)
        r_plus = mass + math.sqrt(mass * mass - a * a)
        r_minus = mass - math.sqrt(mass * mass - a * a)
        kappa_kerr = (r_plus - r_minus) / (2.0 * (r_plus**2 + a * a))
        assert bh.r_h == pytest.approx(r_plus, rel=1e-12)
        assert bh.kappa == pytest.approx(kappa_kerr, rel=1e-12)
        omega_kerr = a / (r_plus**2 + a * a)
        assert bh.omega_h == pytest.approx(omega_kerr, rel=1e-12)

    def test_from_a_star_round_trip(self):
        for n in (1, 2, 4):
            bh = geometry.RotatingBH.from_a_star(n, 3.0, 0.7)
            assert bh.a_star == pytest.approx(0.7, rel=1e-10)
            root = geometry.rotating_horizon(n, 3.0, bh.a)
            assert bh.r_h == pytest.approx(root, rel=1e-12)

    def test_zero_spin_matches_static(self):
        # n extra dimensions, a = 0: kappa should equal the (4+n)-dim static value
        for n in (1, 2, 3):
            bh = geometry.RotatingBH(n, 2.0, 0.0)
            assert bh.kappa == pytest.approx(
                geometry.surface_gravity_schw(4 + n, bh.r_h), rel=1e-12
            )
            assert bh.omega_h == 0.0

    def test_domain_errors(self):
        with pytest.raises(PhysicsDomainError):
            geometry.rotating_horizon(-1, 1.0, 0.0)
        with pytest.raises(PhysicsDomainError):
            geometry.rotating_horizon(1, -1.0, 0.0)
        with pytest.raises(PhysicsDomainError):
            geometry.rotating_kappa_omega(1, 1.0, -0.1)
        # each of these once returned a hole, a number or nan
        for call in (
            lambda: geometry.RotatingBH(1.5, 2.0, 0.1),
            lambda: geometry.rotating_horizon(2.5, 1.0, 0.0),
            lambda: geometry.rotating_kappa_omega(1, math.nan, 0.5),
            lambda: geometry.rotating_mass_angmom(-1, 1.0, 0.5),
            lambda: geometry.RotatingBH.from_a_star(-1, 1.0, 0.5),
        ):
            with pytest.raises(PhysicsDomainError):
                call()

    @pytest.mark.parametrize(
        "n, mu, a_star", [(2, 1.0, 1e200), (2, 1.0, 1e155), (0, 1.0, 1e200), (0, 0.1, 5e-324)]
    )
    def test_from_a_star_refuses_vanishing_spin(self, n, mu, a_star):
        # r_h = [mu/(1+a_*^2)]^(1/(n+1)) or a = a_* r_h underflows to 0: once a static hole
        with pytest.raises(PhysicsDomainError, match="spin underflows"):
            geometry.RotatingBH.from_a_star(n, mu, a_star)

    def test_overflowing_spin_keeps_kappa_finite(self):
        # a_*^2 overflows past a_* ~ 1.3e154; kappa once read inf/inf = nan
        n, r_h, a_star = 3, 2.702655987e-118, 1.821937575e196
        kappa, omega = geometry.rotating_kappa_omega(n, r_h, a_star)
        assert kappa == pytest.approx((n - 1) / (2.0 * r_h), rel=1e-15)
        assert omega == pytest.approx(1.0 / (a_star * r_h), rel=1e-15)

    @pytest.mark.parametrize(
        "n, mu, a",
        [(2, math.nan, 0.0), (2, math.inf, 0.0), (0, 1.0, math.nan), (3, 1.0, -math.inf)],
    )
    def test_non_finite_input_is_domain_error(self, n, mu, a):
        with pytest.raises(PhysicsDomainError, match="finite"):
            geometry.rotating_horizon(n, mu, a)

    def test_infinite_spin_returns(self):
        # a = inf once kept the bracket's lower end at inf and never returned.
        code = (
            "from bhent import geometry\n"
            "from bhent.errors import PhysicsDomainError\n"
            "try:\n"
            "    geometry.rotating_horizon(2, 1.0, float('inf'))\n"
            "except PhysicsDomainError as exc:\n"
            "    print('domain:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bhent.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("domain:")


def _horizon_cases():
    """Seeded (n, mu, a) grid: n = 0, 1 and >= 2, mu over twelve decades,
    spins from 0 up to just short of the naked-singularity edge."""
    rng = random.Random(20070731)
    cases = []
    for n in range(10):
        for _ in range(120):
            mu = 10.0 ** rng.uniform(-6.0, 6.0)
            if n == 0:
                edge = mu / 2.0  # 4a^2 = mu^2
            elif n == 1:
                edge = math.sqrt(mu)  # a^2 = mu
            else:
                edge = 10.0 * mu ** (1.0 / (n + 1))  # no edge; spin far above scale
            if rng.random() < 0.5:
                a = edge * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))
            else:
                a = edge * rng.random()
            cases.append((n, mu, a))
    return cases


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: geometry.SchwarzschildBH(4.0, 1.0), "d"),
        (lambda: geometry.SchwarzschildBH.from_mass(5.0, 2.0), "d"),
        (lambda: geometry.RotatingBH(2.0, 1.0, 0.1), "n"),
        (lambda: geometry.RotatingBH.from_a_star(2.0, 1.0, 0.5), "n"),
        (lambda: sweep.resolve_geometry({"d": 4.0, "r_h": 1.0}), "d"),
        (lambda: sweep.resolve_geometry({"n": 3.0, "mu": 1.0, "a": 0.2}), "n"),
    ],
    ids=["static", "static-from-mass", "rotating", "rotating-from-a-star",
         "sweep-static", "sweep-rotating"],
)
def test_holes_keep_the_integer_their_checks_return(make, field):
    assert type(getattr(make(), field)) is int


class TestBrentPort:
    """geometry.brentq is a port of SciPy's C brentq and must return the same floats."""

    def test_horizons_bit_identical_to_scipy(self, monkeypatch):
        ours = [geometry.rotating_horizon(n, mu, a) for n, mu, a in _horizon_cases()]
        monkeypatch.setattr(
            geometry,
            "brentq",
            lambda f, lo, hi, xtol, rtol: scipy_brentq(f, lo, hi, xtol=xtol, rtol=rtol),
        )
        theirs = [geometry.rotating_horizon(n, mu, a) for n, mu, a in _horizon_cases()]
        mismatches = [(c, x, y) for c, x, y in zip(_horizon_cases(), ours, theirs) if x != y]
        assert not mismatches
        assert len(ours) == 1200

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: x**3 - 2.0, 0.0, 5.0),
            (lambda x: math.cos(x) - 0.7 * x, 3.0, -1.0),
            (lambda x: math.atan(x - 1.3), -4.0, 9.0),
            (lambda x: math.expm1(x) - 1e-9, -2.0, 1.0),
        ],
    )
    @pytest.mark.parametrize("xtol, rtol", [(1e-300, 8.9e-16), (1e-6, 1e-10), (2e-12, 1e-4)])
    def test_generic_roots_bit_identical(self, f, lo, hi, xtol, rtol):
        assert geometry.brentq(f, lo, hi, xtol, rtol) == scipy_brentq(
            f, lo, hi, xtol=xtol, rtol=rtol
        )

    def test_bracket_end_on_root(self):
        assert geometry.brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-300, 8.9e-16) == 1.0
        assert geometry.brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-300, 8.9e-16) == 3.0

    def test_guards(self):
        with pytest.raises(ContractViolationError, match="sign change"):
            geometry.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-300, 8.9e-16)
        with pytest.raises(ContractViolationError, match="NaN"):
            geometry.brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-300, 8.9e-16)
        with pytest.raises(ContractViolationError, match="converge"):
            geometry.brentq(lambda x: x**3 - 2.0, 0.0, 5.0, 1e-300, 8.9e-16, maxiter=3)


class TestTevScales:
    def test_reference_case(self):
        scales = geometry.tev_scales(2, 1.0, 5.0)
        assert scales["r_h_4n"] == pytest.approx(2.6e-19, rel=0.2)
        assert 1e-32 <= scales["ratio_4_over_4n"] <= 1e-28
        assert scales["R"] == pytest.approx(2.4e-3, rel=0.05)

    def test_four_dim_horizon(self):
        scales = geometry.tev_scales(2, 1.0, 5.0)
        expected = 2.0 * 5.0 / geometry.M_PLANCK_TEV**2 * geometry.TEV_INV_TO_M
        assert scales["r_h_4"] == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            geometry.tev_scales(0, 1.0, 5.0)
        with pytest.raises(PhysicsDomainError):
            geometry.tev_scales(2, -1.0, 5.0)
        for args in ((2, math.nan, 5.0), (2, 1.0, math.inf), (1.5, 1.0, 5.0)):
            with pytest.raises(PhysicsDomainError):
                geometry.tev_scales(*args)
