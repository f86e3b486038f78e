import math
import random
from types import SimpleNamespace

import mpmath
import pytest

from bhent import channels, cli, modes, sweep
from bhent.errors import PhysicsDomainError
from helpers import Horizon

SERIES_LIMIT = math.log2(1.0 + math.sqrt(math.pi) / 2.0)


class TestBosonicNegativity:
    def test_bell_baseline(self):
        res = channels.log_negativity_boson(0.0)
        assert res.value == 1.0
        assert res.tail_bound == 0.0

    def test_reference_point(self):
        # Frozen oracle value at tanh r = 0.5 (truncated Fock construction)
        res = channels.log_negativity_boson(math.atanh(0.5), 1e-10)
        assert res.value == pytest.approx(0.98373, abs=1e-4)

    def test_hand_summed_partial(self):
        # tanh r = 0.5: first terms of sum t^n sqrt(n+1), t = 1/4
        t = 0.25
        partial = sum(t**n * math.sqrt(n + 1) for n in range(60))
        expected = math.log2(1.0 + partial * (1.0 - t) ** 1.5)
        res = channels.log_negativity_boson(math.atanh(0.5), 1e-12)
        assert res.value == pytest.approx(expected, abs=5e-12)

    def test_tail_bound_certifies(self):
        loose = channels.log_negativity_boson(0.8, 1e-4)
        tight = channels.log_negativity_boson(0.8, 1e-13)
        # log2(1 + s + tail) - log2(1 + s) <= tail / ln 2
        assert abs(loose.value - tight.value) <= loose.tail_bound / math.log(2.0) + 1e-15
        assert loose.terms_used < tight.terms_used

    def test_monotone_decreasing_in_r(self):
        values = [channels.log_negativity_boson(0.1 * k, 1e-12).value for k in range(1, 40)]
        for lo, hi in zip(values[1:], values):
            assert lo < hi

    def test_polylog_branch_continuity(self):
        # just either side of the summation/polylog switch
        r_lo = math.atanh(math.sqrt(0.99985))
        r_hi = math.atanh(math.sqrt(0.99995))
        v_lo = channels.log_negativity_boson(r_lo, 1e-12).value
        v_hi = channels.log_negativity_boson(r_hi, 1e-12).value
        assert v_hi < v_lo
        assert abs(v_hi - v_lo) < 1e-4

    def test_large_r_limit(self):
        res = channels.log_negativity_boson(400.0)
        assert res.value == pytest.approx(SERIES_LIMIT, abs=1e-12)

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            channels.log_negativity_boson(-0.1)
        with pytest.raises(PhysicsDomainError):
            channels.log_negativity_boson(0.5, tol=0.5)
        with pytest.raises(PhysicsDomainError):
            channels.log_negativity_boson(0.5, tol=channels.MIN_SERIES_TOL / 10.0)


class TestLiHalfExpansion:
    """S(t) = Li_{-1/2}(t)/t from the expansion about t = 1, t >= _EXPANSION_SWITCH."""

    T_S = channels._EXPANSION_SWITCH

    def test_matches_mpmath(self):
        rng = random.Random(2026)
        ts = [self.T_S, 1.0 - 1e-12]
        ts += [self.T_S + (0.1 - 1e-12) * rng.random() for _ in range(100)]
        ts += [1.0 - 10.0 ** rng.uniform(-12.0, -1.0) for _ in range(100)]
        with mpmath.workdps(30):
            for t in ts:
                s, _, _ = channels._li_half_over_t(t, channels.MIN_SERIES_TOL)
                ref = mpmath.polylog(-0.5, t) / t
                assert abs(s - ref) <= 1e-14 * ref, t

    def test_continuous_across_switch(self):
        below = math.nextafter(self.T_S, 0.0)
        s_lo, terms_lo, _ = channels._li_half_over_t(below, 1e-15)
        s_hi, terms_hi, _ = channels._li_half_over_t(self.T_S, 1e-15)
        # the direct series ran below the switch, the expansion at it
        assert terms_lo > len(channels._ZETA_NEG_HALF) >= terms_hi
        e_lo = math.log2(1.0 + s_lo * (1.0 - below) ** 1.5)
        e_hi = math.log2(1.0 + s_hi * (1.0 - self.T_S) ** 1.5)
        assert abs(e_hi - e_lo) < 1e-12

    def test_tail_bound_certifies(self):
        r = math.atanh(math.sqrt(0.95))
        loose = channels.log_negativity_boson(r, 1e-4)
        tight = channels.log_negativity_boson(r, 1e-13)
        assert abs(loose.value - tight.value) <= loose.tail_bound / math.log(2.0) + 1e-15
        assert 1 <= loose.terms_used < tight.terms_used <= len(channels._ZETA_NEG_HALF)

    def test_table_reaches_min_tol(self):
        # t = T_S is the worst point: |mu| and (1-t)^{3/2} are largest there
        _, terms, tail = channels._li_half_over_t(self.T_S, channels.MIN_SERIES_TOL)
        assert terms <= len(channels._ZETA_NEG_HALF)
        assert 0.0 <= tail < channels.MIN_SERIES_TOL

    def test_zeta_bound_holds_for_table(self):
        for k, zeta in enumerate(channels._ZETA_NEG_HALF):
            bound = (channels._ZETA_BOUND_0 * math.gamma(k + 1.5) / math.gamma(1.5)
                     / (2.0 * math.pi) ** k)
            assert abs(zeta) <= bound, k


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: channels.log_negativity_boson(math.nan),
            lambda: channels.log_negativity_boson(math.inf),
            lambda: channels.neg_eigenvalue_boson(math.nan, 0),
            lambda: channels.neg_eigenvalue_boson(0.5, math.inf),
            lambda: channels.fidelity_boson(modes.squeeze_boson(math.nan, 1.0)),
            lambda: channels.fidelity_boson(modes.squeeze_boson(1.0, math.inf)),
            lambda: cli._squeezed(
                SimpleNamespace(omega=1.0, m=0.5, statistics=modes.BOSON, kappa=1.0, Omega=0.0)
            ),
        ],
        ids=["E_N-r-nan", "E_N-r-inf", "lambda-r-nan", "lambda-n-inf", "F-omega-nan",
             "F-kappa-inf", "mode-m-half"],
    )
    def test_rejected_at_entry(self, call):
        with pytest.raises(PhysicsDomainError, match="finite"):
            call()


class TestBosonicEigenvalues:
    def test_first_block(self):
        # lambda_0 = -(1 - t^2)^{3/2} / 2
        r = 0.7
        t = math.tanh(r)
        assert channels.neg_eigenvalue_boson(r, 0) == pytest.approx(
            -((1 - t * t) ** 1.5) / 2.0, rel=1e-14
        )

    def test_sum_reproduces_series(self):
        r = math.atanh(0.6)
        total = sum(channels.neg_eigenvalue_boson(r, n) for n in range(200))
        expected = channels.log_negativity_boson(r, 1e-13).value
        assert math.log2(1.0 - 2.0 * total) == pytest.approx(expected, abs=1e-12)

    def test_zero_squeezing(self):
        assert channels.neg_eigenvalue_boson(0.0, 0) == -0.5
        assert channels.neg_eigenvalue_boson(0.0, 3) == 0.0

    def test_block_index_must_be_integral(self):
        for n in (1.5, 0.5, -1):
            with pytest.raises(PhysicsDomainError, match="integer"):
                channels.neg_eigenvalue_boson(0.5, n)
        assert channels.neg_eigenvalue_boson(0.5, 2.0) == channels.neg_eigenvalue_boson(0.5, 2)


class TestFermionicChannel:
    def test_bell_baseline(self):
        assert channels.log_negativity_fermion(0.0) == 1.0
        assert channels.fidelity_fermion(0.0) == 1.0

    def test_saturation(self):
        assert channels.log_negativity_fermion(math.pi / 4) == pytest.approx(
            math.log2(1.5), abs=1e-15
        )
        assert channels.fidelity_fermion(math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_fidelity_from_squeezing_params(self):
        sq = modes.squeeze_fermion(1.0, 2.0)
        assert channels.fidelity_fermion(sq) == pytest.approx(
            channels.fidelity_fermion(sq.r), rel=1e-13
        )

    @pytest.mark.parametrize("x", [19.0, math.nextafter(350.0, math.inf), 1e300, math.inf])
    def test_fidelity_is_exactly_one_for_large_x(self, x):
        # 1 + e^-2x rounds to 1 once e^-2x < 2^-53, through x = 350 and x = inf
        assert channels.fidelity_fermion(modes.SqueezingParams(x, 0.0, 0.0)) == 1.0

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            channels.log_negativity_fermion(1.0)
        with pytest.raises(PhysicsDomainError):
            channels.fidelity_fermion(-0.1)


class TestBosonicFidelity:
    def test_stated_exponent(self):
        # F = (1 - e^{-pi omega/kappa})^3 exactly as implemented
        assert channels.fidelity_boson(modes.squeeze_boson(1.0, math.pi)) == pytest.approx(
            (1.0 - math.exp(-1.0)) ** 3, rel=1e-14
        )

    def test_limits(self):
        assert channels.fidelity_boson(modes.squeeze_boson(1.0, 1e-6)) == 1.0
        assert channels.fidelity_boson(modes.squeeze_boson(1e-9, 1.0)) == pytest.approx(
            0.0, abs=1e-24
        )

    @pytest.mark.parametrize("x", [37.5, math.nextafter(700.0, math.inf), 1e300, math.inf])
    def test_exactly_one_for_large_x(self, x):
        # 1 - e^-x rounds to 1 from x ~ 37.5 on, through x = 700 and x = inf
        assert channels.fidelity_boson(modes.SqueezingParams(x, 0.0, 0.0)) == 1.0

    def test_monotone_in_kappa(self):
        values = [
            channels.fidelity_boson(modes.squeeze_boson(1.0, 10.0**e)) for e in range(0, 4)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi < lo
        # deep in the kappa -> 0 regime the fidelity clamps to exactly 1
        assert channels.fidelity_boson(modes.squeeze_boson(1.0, 1e-3)) == 1.0

    def test_domain(self):
        with pytest.raises(PhysicsDomainError):
            channels.fidelity_boson(modes.squeeze_boson(0.0, 1.0))
        with pytest.raises(PhysicsDomainError):
            channels.fidelity_boson(modes.squeeze_boson(1.0, -1.0))


class TestMiniBHBounds:
    def test_fermion_extrema_respect_analytic_bounds(self):
        res = sweep.minibh_bounds(modes.FERMION)
        assert math.log2(1.5) - 1e-12 <= res.e_n_max <= 1.0 + 1e-12
        assert 0.5 - 1e-12 <= res.f_max <= 1.0 + 1e-12
        assert res.grid_size == 8 * 16

    def test_boson_extrema_bounded(self):
        res = sweep.minibh_bounds(modes.BOSON)
        assert SERIES_LIMIT - 1e-12 <= res.e_n_max <= 1.0 + 1e-12
        assert 0.0 < res.f_max <= 1.0
        assert res.grid_size == 8 * 16

    def test_argmax_is_on_grid(self):
        # the extrema and arg-max of the hand-written grid walker this replaced
        for statistics, e_n_max, f_max in [
            (modes.BOSON, "0x1.fff0d90ff0118p-1", "0x1.c07353ab21c9ap-1"),
            (modes.FERMION, "0x1.ff4faedf4fe0cp-1", "0x1.ff0bafd14940ap-1"),
        ]:
            res = sweep.minibh_bounds(statistics)
            assert (res.e_n_max.hex(), res.f_max.hex()) == (e_n_max, f_max)
            assert res.e_n_argmax == res.f_argmax == (0.5, 0, 0.0)
            w, n, a_star = res.e_n_argmax
            # the paper's grid: n = 0..7 by 16 points of omega*r_h in [0.05, 0.5]
            assert w in sweep.Axis("omega_rh", 0.05, 0.5, 16).values()
            assert type(n) is int and 0 <= n <= 7 and a_star == 0.0

    def test_invalid_grid(self):
        with pytest.raises(PhysicsDomainError, match="statistics must be"):
            sweep.minibh_bounds("bosn")


class TestModePoint:
    """One mode's figures of merit, as a sweep cell evaluates them from OUTPUTS."""

    @staticmethod
    def cell(omega, m, statistics, kappa, omega_h, tol, outputs=sweep.OUTPUT_VOCABULARY):
        params = {"omega": omega, "m": m, "statistics": statistics, "tol": tol}
        return sweep.evaluate_cell(params, Horizon(kappa, omega_h), outputs)

    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    def test_matches_the_closed_forms(self, statistics):
        # omega_eff = 1.5 - 2 * 0.25 = 1
        cell = self.cell(1.5, 2, statistics, 0.8, 0.25, 1e-12)
        sq = modes.squeeze(1.0, 0.8, statistics)
        assert (cell["kappa"], cell["Omega"]) == (0.8, 0.25)
        assert cell["r"] == sq.r
        assert cell["N_occ"] == sq.occupation
        if statistics == modes.BOSON:
            assert cell["E_N"] == channels.log_negativity_boson(sq.r, 1e-12).value
            assert cell["F"] == channels.fidelity_boson(sq)
        else:
            assert cell["E_N"] == channels.log_negativity_fermion(sq.r)
            assert cell["F"] == channels.fidelity_fermion(sq)

    @pytest.mark.parametrize("statistics", [modes.BOSON, modes.FERMION])
    def test_checks_the_ratio_once(self, statistics, monkeypatch):
        calls = []
        check = modes._check_ratio

        def counted(omega_eff, kappa):
            calls.append((omega_eff, kappa))
            return check(omega_eff, kappa)

        monkeypatch.setattr(modes, "_check_ratio", counted)
        self.cell(1.5, 2, statistics, 0.8, 0.25, 1e-12)
        assert calls == [(1.0, 0.8)]

    def test_domain_errors(self):
        def tokens(*args):
            return set(self.cell(*args).values())

        assert tokens(0.5, 2, modes.BOSON, 1.0, 0.25, 1e-10) == {"NA:superradiant"}
        assert tokens(1.0, 0, "bosn", 1.0, 0.0, 1e-10) == {"NA:domain"}
        assert tokens(1.0, 0, modes.BOSON, 1.0, 0.0, 0.5) == {"NA:domain"}
        # a cell reads tol only for the bosonic E_N; its SweepSpec checks it for both
        with pytest.raises(PhysicsDomainError, match="series tolerance"):
            sweep.SweepSpec((sweep.Axis("omega", 0.5, 1.0, 2),),
                            {"d": 4, "r_h": 1.0, "statistics": modes.FERMION, "tol": 0.5})
