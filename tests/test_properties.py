"""Seeded property tests of the closed forms, the eigensolver and the oracle.

The negativity draws cover both evaluators of S(t) = Li_{-1/2}(t)/t: the
direct series below t = tanh^2 r = 0.9 (r < 1.82) and the expansion about
t = 1 above it; tanh^2 r rounds to 1 from r ~ 19 on.
"""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bhent import channels, fock_oracle, kernels, modes
from bhent.errors import PhysicsDomainError

SERIES_LIMIT = math.log2(1.0 + math.sqrt(math.pi) / 2.0)
# Rounding slack: at t = 1 - 2^-52 the exact E_N exceeds SERIES_LIMIT by
# about 5e-17, under an ulp, and the computed value can land one ulp below it.
ROUNDING = 4.5e-16

PROPERTY = settings(max_examples=300, deadline=500, database=None)

r_values = st.floats(min_value=0.0, max_value=40.0)
tolerances = st.floats(min_value=-30.0, max_value=-3.0).map(
    lambda e: min(max(10.0**e, channels.MIN_SERIES_TOL), 1e-3)
)


@seed(7)
@PROPERTY
@given(r=r_values, tol=tolerances)
def test_value_finite_and_between_limits(r, tol):
    value = channels.log_negativity_boson(r, tol).value
    assert math.isfinite(value)
    assert SERIES_LIMIT - ROUNDING <= value <= 1.0


@seed(8)
@PROPERTY
@given(r1=r_values, r2=r_values, tol=tolerances)
def test_does_not_rise_with_r(r1, r2, tol):
    lo, hi = sorted((r1, r2))
    at_lo = channels.log_negativity_boson(lo, tol)
    at_hi = channels.log_negativity_boson(hi, tol)
    # each value is within its tail_bound / ln 2 of the exact, decreasing one
    slack = (at_lo.tail_bound + at_hi.tail_bound) / math.log(2.0) + ROUNDING
    assert at_hi.value <= at_lo.value + slack


@seed(9)
@PROPERTY
@given(r=r_values, tol=tolerances)
def test_bookkeeping_certifies_tol(r, tol):
    result = channels.log_negativity_boson(r, tol)
    if math.tanh(r) ** 2 < 1.0:
        assert result.terms_used >= 1
        assert 0.0 <= result.tail_bound < tol
    else:
        assert (result.terms_used, result.tail_bound) == (0, 0.0)


# One mode at a time through channels.mode_point: E_N and F do not rise with
# kappa and do not fall with omega, for bosons and fermions alike (the
# abstract's "choose a higher frequency mode").  x = pi omega_eff / kappa
# spans 3e-4 to 3e4, so both S(t) evaluators and the x > 350 limit are drawn.
statistics = st.sampled_from([modes.BOSON, modes.FERMION])
scales = st.floats(min_value=1e-2, max_value=1e2)
corotation = st.tuples(st.integers(0, 2), st.floats(min_value=0.0, max_value=1.0))


def _merit(omega_eff, m, omega_h, stats, kappa):
    """(E_N result, F) at effective frequency omega_eff."""
    _, _, fid, e_n = channels.mode_point(
        omega_eff + m * omega_h, m, stats, kappa, omega_h, channels.DEFAULT_SERIES_TOL
    )
    return e_n, fid


def _not_above(hi, lo):
    (e_hi, f_hi), (e_lo, f_lo) = hi, lo
    slack = (e_hi.tail_bound + e_lo.tail_bound) / math.log(2.0) + ROUNDING
    assert e_hi.value <= e_lo.value + slack
    assert f_hi <= f_lo + ROUNDING


@seed(13)
@PROPERTY
@given(stats=statistics, omega=scales, k1=scales, k2=scales, rot=corotation)
def test_mode_point_does_not_rise_with_kappa(stats, omega, k1, k2, rot):
    lo, hi = sorted((k1, k2))
    _not_above(_merit(omega, *rot, stats, hi), _merit(omega, *rot, stats, lo))


@seed(14)
@PROPERTY
@given(stats=statistics, w1=scales, w2=scales, kappa=scales, rot=corotation)
def test_mode_point_does_not_fall_with_omega(stats, w1, w2, kappa, rot):
    lo, hi = sorted((w1, w2))
    _not_above(_merit(lo, *rot, stats, kappa), _merit(hi, *rot, stats, kappa))


# Every mode either has finite figures of merit or is refused with the
# documented PhysicsDomainError: x = pi omega_eff / kappa ranges from 0
# (below the smallest normal float) to inf, and omega_eff may be <= 0.
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@seed(15)
@PROPERTY
@given(
    stats=statistics,
    omega=log_uniform,
    kappa=log_uniform,
    omega_h=st.one_of(st.just(0.0), log_uniform),
    m=st.integers(-2, 2),
)
def test_mode_point_finite_or_domain_error(stats, omega, kappa, omega_h, m):
    try:
        r, n_occ, fid, e_n = channels.mode_point(
            omega, m, stats, kappa, omega_h, channels.DEFAULT_SERIES_TOL
        )
    except PhysicsDomainError:
        return
    assert all(math.isfinite(v) for v in (r, n_occ, fid, e_n.value))


# Entries at least 1e-6 in magnitude (or zero), so that no square underflows.
entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e2),
    st.floats(min_value=-1e2, max_value=-1e-6),
)


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices, n in 1..6: general, diagonal, or
    Q diag(lambda) Q^T with eigenvalues repeated from a three-value set."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["general", "diagonal", "repeated"]))
    if kind == "diagonal":
        return np.diag(draw(st.lists(entries, min_size=n, max_size=n)))
    if kind == "repeated":
        levels = draw(st.lists(st.sampled_from([-1.5, 0.0, 2.0]), min_size=n, max_size=n))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(levels) @ q.T
        return (a + a.T) / 2.0
    upper = draw(st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = upper
    return a + np.triu(a, 1).T


@seed(10)
@PROPERTY
@given(a=symmetric_matrices())
def test_jacobi_matches_lapack(a):
    w = kernels.jacobi_eigh(a.tolist())
    err = np.max(np.abs(np.array(w) - np.linalg.eigvalsh(a)))
    assert err <= 1e-12 * np.linalg.norm(a)


@seed(11)
@PROPERTY
@given(
    r=st.floats(min_value=0.0, max_value=math.pi / 4),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    outcome=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_fermion_oracle_fidelity_at_least_half(r, phi, outcome):
    qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
    x, y = qubit.conditional(*outcome)
    f = fock_oracle.fidelity_numeric(
        fock_oracle.bob_post_state_fermionic(r, qubit, outcome),
        fock_oracle.dual_rail_target(x, y),
    )
    # F = cos^2 r, which is exactly 1/2 at r = pi/4: allow an ulp of rounding
    assert f >= 0.5 - math.ulp(0.5)


GATE = 1e-8


@seed(12)
@settings(max_examples=60, deadline=2000, database=None)
@given(tanh_r=st.floats(min_value=0.0, max_value=0.9))
def test_blockwise_oracle_matches_series(tanh_r):
    r = math.atanh(tanh_r)
    # the smallest truncation the oracle certifies at the gate
    trunc = next(
        n
        for n in range(2, fock_oracle.MAX_TRUNC + 1)
        if fock_oracle._bosonic_trace_deficit(r, n) <= GATE
    )
    oracle = fock_oracle.blockwise_negativity_bosonic(r, trunc, GATE).log_negativity
    series = channels.log_negativity_boson(r, GATE / 10.0).value
    assert abs(oracle - series) < GATE
