"""Seeded property tests of the closed forms, the eigensolver and the oracle.

The negativity draws cover both evaluators of S(t) = Li_{-1/2}(t)/t: the
direct series below t = tanh^2 r = 0.9 (r < 1.82) and the expansion about
t = 1 above it; tanh^2 r rounds to 1 from r ~ 19 on.
"""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bhent import channels, fock_oracle, kernels, modes, sweep
from bhent.errors import PhysicsDomainError, TruncationError
from helpers import Horizon, reference_post_state, sector_items, traced_blockwise

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


# One mode at a time, as a sweep cell evaluates it: E_N and F do not rise with
# kappa and do not fall with omega, for bosons and fermions alike (the
# abstract's "choose a higher frequency mode").  x = pi omega_eff / kappa
# spans 3e-4 to 3e4, so both S(t) evaluators and the x > 350 limit are drawn.
statistics = st.sampled_from([modes.BOSON, modes.FERMION])
scales = st.floats(min_value=1e-2, max_value=1e2)
corotation = st.tuples(st.integers(0, 2), st.floats(min_value=0.0, max_value=1.0))


def _cell(omega, m, stats, kappa, omega_h, outputs=sweep.OUTPUT_VOCABULARY):
    """The sweep cell of one mode near a horizon with (kappa, omega_h), default tol."""
    params = {"omega": omega, "m": m, "statistics": stats}
    return sweep.evaluate_cell(params, Horizon(kappa, omega_h), outputs)


def _merit(omega_eff, m, omega_h, stats, kappa):
    """(E_N, its series tail bound, F) at effective frequency omega_eff."""
    cell = _cell(omega_eff + m * omega_h, m, stats, kappa, omega_h, ("r", "E_N", "F"))
    tail = 0.0  # the fermionic closed form is exact
    if stats == modes.BOSON:
        tail = channels.log_negativity_boson(cell["r"], channels.DEFAULT_SERIES_TOL).tail_bound
    return cell["E_N"], tail, cell["F"]


def _not_above(hi, lo):
    (e_hi, tail_hi, f_hi), (e_lo, tail_lo, f_lo) = hi, lo
    slack = (tail_hi + tail_lo) / math.log(2.0) + ROUNDING
    assert e_hi <= e_lo + slack
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
# documented PhysicsDomainError, which writes one NA token in every column:
# x = pi omega_eff / kappa ranges from 0 (below the smallest normal float) to
# inf, and omega_eff may be <= 0.
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
    values = list(_cell(omega, m, stats, kappa, omega_h).values())
    if isinstance(values[0], str):
        assert values[0] in ("NA:domain", "NA:superradiant")
        assert values == [values[0]] * len(values)
        return
    assert all(math.isfinite(v) for v in values)


# A sweep cell checks x = pi omega_eff / kappa once and reads r, N^2 and F off
# one SqueezingParams.  _reference_mode evaluates each of the three from its
# own closed form (F_fermion through cos r); the two must agree bit for bit
# from the smallest normal x up past the x > 700 fidelity limit.
ratios = st.one_of(
    st.floats(min_value=math.log(sys.float_info.min), max_value=math.log(800.0)).map(math.exp),
    st.floats(min_value=sys.float_info.min, max_value=800.0),
)


def _reference_mode(omega_eff, kappa, stats):
    x = math.pi * omega_eff / kappa
    if x < sys.float_info.min:
        return None
    if stats == modes.BOSON:
        if x > 350.0:
            r = 0.0
        else:
            tanh_r = math.exp(-x)
            if x > 3.0:
                r = 0.5 * (math.log1p(tanh_r) - math.log1p(-tanh_r))
            else:
                r = 0.5 * (math.log1p(tanh_r) - math.log(-math.expm1(-x)))
        n_occ = 0.0 if 2.0 * x > 700.0 else 1.0 / math.expm1(2.0 * x)
        fid = 1.0 if x > 700.0 else (-math.expm1(-x)) ** 3
    else:
        if x > 350.0:
            r, cos_r = 0.0, 1.0
        else:
            e = math.exp(-x)
            cos_r = 1.0 / math.sqrt(1.0 + e * e)
            r = math.atan(e)
        if 2.0 * x > 700.0:
            n_occ = 0.0
        else:
            e = math.exp(-2.0 * x)
            n_occ = e / (1.0 + e)
        fid = cos_r * cos_r
    return r, n_occ, fid


@seed(17)
@PROPERTY
@given(stats=statistics, x=ratios, kappa=scales)
@example(stats=modes.BOSON, x=699.5, kappa=1.0)
@example(stats=modes.BOSON, x=700.5, kappa=1.0)
@example(stats=modes.FERMION, x=349.5, kappa=1.0)
@example(stats=modes.FERMION, x=350.5, kappa=1.0)
def test_mode_point_matches_reference_bits(stats, x, kappa):
    omega_eff = x * kappa / math.pi
    expected = _reference_mode(omega_eff, kappa, stats)
    cell = _cell(omega_eff, 0, stats, kappa, 0.0, ("r", "N_occ", "F"))
    if expected is None:
        assert list(cell.values()) == ["NA:domain"] * 3
        with pytest.raises(PhysicsDomainError, match="underflows"):
            modes.squeeze(omega_eff, kappa, stats)
        return
    assert [v.hex() for v in cell.values()] == [v.hex() for v in expected]


# Once modes.squeeze has passed, E_N and F raise nothing, for any accepted tol
# and either statistics.  So a sweep may compute them only when asked for: a
# cell that is not NA in one column is NA in none.
@seed(23)
@PROPERTY
@given(stats=statistics, x=ratios, kappa=scales, tol=tolerances)
@example(stats=modes.BOSON, x=-math.log(0.9) / 2.0, kappa=1.0, tol=channels.MIN_SERIES_TOL)
@example(stats=modes.BOSON, x=1e-20, kappa=1.0, tol=channels.MIN_SERIES_TOL)
@example(stats=modes.FERMION, x=sys.float_info.min, kappa=1.0, tol=channels.MAX_SERIES_TOL)
def test_figures_raise_nothing_once_squeezed(stats, x, kappa, tol):
    try:
        sq = modes.squeeze(x * kappa / math.pi, kappa, stats)
    except PhysicsDomainError:
        return
    if stats == modes.BOSON:
        figures = channels.log_negativity_boson(sq.r, tol).value, channels.fidelity_boson(sq)
    else:
        figures = channels.log_negativity_fermion(sq.r), channels.fidelity_fermion(sq)
    assert all(math.isfinite(v) for v in figures)


@st.composite
def sweep_specs(draw):
    """A small static or rotating sweep, with naked and superradiant corners."""
    stats = draw(statistics)
    frequency = sweep.Axis(
        draw(st.sampled_from(list(sweep.FREQUENCIES))),
        draw(st.floats(0.05, 1.0)), draw(st.floats(1.0, 3.0)), draw(st.integers(2, 3)),
    )
    if draw(st.booleans()):
        fixed = {"d": draw(st.integers(4, 11))}
        lo, hi = draw(st.floats(0.1, 1.0)), draw(st.floats(1.0, 10.0))
        geometry = sweep.Axis(draw(st.sampled_from(["r_h", "M"])), lo, hi, 2, "log")
    else:  # a = mu/2 on is naked at n = 0, and a^2 = mu on at n = 1
        mu = draw(st.floats(0.5, 4.0))
        fixed = {"n": draw(st.integers(0, 3)), "mu": mu, "m": draw(st.integers(0, 2))}
        spin = draw(st.sampled_from(["a", "a_star"]))
        geometry = sweep.Axis(spin, 0.0, draw(st.floats(0.1, 1.5)) * mu, draw(st.integers(2, 4)))
    fixed["statistics"] = stats
    axes = (geometry, frequency) if draw(st.booleans()) else (frequency, geometry)
    outputs = draw(st.lists(st.sampled_from(sweep.OUTPUT_VOCABULARY), min_size=1, unique=True))
    return sweep.SweepSpec(axes, fixed, tuple(outputs))


def _csv_rows(spec, path):
    sweep.run_sweep(spec, path)
    with open(path, encoding="utf-8", newline="") as fh:
        return [line.split(",") for line in fh.read().split("\n")[:-1]]


@seed(24)
@settings(max_examples=150, deadline=500, database=None)
@given(spec=sweep_specs())
# NA:domain twice: the d = 1000 hole overflows, and at d = 4 x = pi omega/kappa underflows
@example(spec=sweep.SweepSpec(
    (sweep.Axis("d", 4, 1000, 2), sweep.Axis("omega", 1e-300, 1.0, 2)),
    {"M": 1e-300}, ("F", "kappa"),
))
def test_requested_outputs_match_the_full_sweep(spec, tmp_path_factory):
    # each row names its axis values in the same text, so rows pair by position
    everything = sweep.SweepSpec(spec.axes, spec.fixed, sweep.OUTPUT_VOCABULARY)
    root = tmp_path_factory.mktemp("outputs")
    full = _csv_rows(everything, str(root / "all.csv"))
    part = _csv_rows(spec, str(root / "part.csv"))
    columns = [full[0].index(name) for name in spec.header()]
    assert part == [[row[k] for k in columns] for row in full]


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


# blockwise_negativity_bosonic diagonalises the sector blocks as components of
# one direct sum: its value must equal, to the bit, the sequential sum over
# n <= n_blocks of each separate block's full-spectrum negativity, wherever
# the deficit gate passes; where it does not, both refuse the truncation.
blockwise_draws = dict(
    tanh_r=st.floats(min_value=0.0, max_value=0.95),
    n_blocks=st.integers(min_value=2, max_value=fock_oracle.MAX_TRUNC),
)


@seed(21)
@settings(max_examples=100, deadline=2000, database=None)
@given(**blockwise_draws)
@example(tanh_r=0.0, n_blocks=2)
@example(tanh_r=0.95, n_blocks=200)
def test_blockwise_negativity_is_the_sum_of_its_blocks(tanh_r, n_blocks):
    r = math.atanh(tanh_r)
    if fock_oracle._bosonic_trace_deficit(r, n_blocks) > fock_oracle.DEFAULT_MAX_DEFICIT:
        with pytest.raises(TruncationError):
            fock_oracle.blockwise_negativity_bosonic(r, n_blocks)
        return
    total = 0.0
    for n in range(n_blocks + 1):
        total += fock_oracle.negativity_numeric(fock_oracle.bell_block_bosonic(r, n)).negativity
    result = fock_oracle.blockwise_negativity_bosonic(r, n_blocks)
    assert result.negativity.hex() == total.hex()
    assert result.log_negativity.hex() == math.log2(2.0 * total + 1.0).hex()


# The labels of the assembled direct sum are (a, (n, k)), party-B label k of
# sector n tagged by n: its partial transpose must split into blocks of one
# sector each, and, with the tags dropped, into the blocks of that sector's
# own partial transpose, in the same order.
@seed(22)
@settings(max_examples=60, deadline=2000, database=None)
@given(**blockwise_draws)
def test_blockwise_blocks_lie_in_one_sector(tanh_r, n_blocks):
    r = math.atanh(tanh_r)
    _, _, (ppt,) = traced_blockwise(r, n_blocks, max_deficit=1.0)
    blocks = fock_oracle.connected_blocks(ppt)
    assert all(len({n for _, (n, _) in block}) == 1 for block in blocks)
    expected = [
        [(a, (n, k)) for a, k in block]
        for n in range(n_blocks + 1)
        for block in fock_oracle.connected_blocks(
            fock_oracle.partial_transpose(fock_oracle.bell_block_bosonic(r, n))
        )
    ]
    assert blocks == expected


# bob_post_state_bosonic builds the excitation sector k1 + k2 = 1 of the
# post-state.  Its block must equal the whole state of the pair-by-pair
# reference at any truncation, filtered to that sector, in order and to the
# bit.  Its two labels
# are joined by their coherence, so it is one block wherever that is
# non-zero; the coherence is zero when x or y is, or when it underflows at
# tiny r.
small_r = st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e)


@seed(18)
@settings(max_examples=150, deadline=2000, database=None)
@given(
    r=st.one_of(st.floats(min_value=0.0, max_value=2.5), small_r),
    n_trunc=st.integers(min_value=2, max_value=60),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    outcome=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_post_state_sector_matches_reference(r, n_trunc, phi, outcome):
    qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
    items = reference_post_state(r, qubit, outcome, n_trunc)
    post = fock_oracle.bob_post_state_bosonic(r, qubit, outcome)
    assert [(k, v.hex()) for k, v in post.entries.items()] == [
        (k, v.hex()) for k, v in sector_items(items, 1)
    ]
    blocks = fock_oracle.connected_blocks(post)
    if post.entries.get(((1, 0), (0, 1)), 0.0):
        assert blocks == [list(post.basis)]
    else:
        assert len(blocks) <= 2


# bell_state_bosonic is the direct sum of the sector blocks of
# bell_block_bosonic for n <= n_trunc: the same keys, in block order, with
# the same bits.  The gate is opened so that every draw is built.
@seed(20)
@settings(max_examples=150, deadline=2000, database=None)
@given(
    r=st.one_of(st.floats(min_value=0.0, max_value=2.5), small_r),
    n_trunc=st.integers(min_value=2, max_value=60),
)
def test_bell_state_is_the_direct_sum_of_its_blocks(r, n_trunc):
    state = fock_oracle.bell_state_bosonic(r, n_trunc, max_deficit=1.0)
    blocks = [
        (k, v.hex())
        for n in range(n_trunc + 1)
        for k, v in fock_oracle.bell_block_bosonic(r, n).entries.items()
    ]
    assert [(k, v.hex()) for k, v in state.entries.items()] == blocks


# The analytic truncation certificate against 50-digit mpmath.  With
# s = tanh^2 r, the tails of the sums of c0[n]^2 and c1[n]^2 past n_trunc are
# A = s^(n_trunc+1) and B = A ((n_trunc+2) - (n_trunc+1) s); the Bell resource
# loses (A + B)/2.  The match is relative down to the smallest normal float,
# absolute below it.
# The examples lie where 1 - tanh^2 r cancels (r = 5, 8, 10) or rounds to 0
# (r = 20), which no certificate may divide by.
@seed(19)
@settings(max_examples=300, deadline=2000, database=None)
@given(
    r=st.one_of(st.floats(min_value=0.0, max_value=3.0), small_r),
    n_trunc=st.integers(min_value=2, max_value=fock_oracle.MAX_TRUNC),
)
@example(r=5.0, n_trunc=200)
@example(r=8.0, n_trunc=200)
@example(r=10.0, n_trunc=200)
@example(r=20.0, n_trunc=40)
def test_deficits_match_mpmath(r, n_trunc):
    with mpmath.workdps(50):
        s = mpmath.tanh(mpmath.mpf(r)) ** 2
        a = s ** (n_trunc + 1)
        b = a * ((n_trunc + 2) - (n_trunc + 1) * s)
        bell = float((a + b) / 2)
    close = dict(rel=1e-12, abs=sys.float_info.min)
    assert fock_oracle._bosonic_trace_deficit(r, n_trunc) == pytest.approx(bell, **close)


# fock_oracle._fused_dot against its exact-rational reference form, bit for
# bit: every finite float is drawn, signed zeros, subnormals and sums that
# overflow (OverflowError on both sides) included.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _fraction_dot(x, y):
    acc = 0.0
    for a, b in zip(x, y):
        acc = float(Fraction(a) * Fraction(b) + Fraction(acc))
    return acc


def _bits(dot, x, y):
    try:
        return dot(x, y).hex()
    except OverflowError:
        return "OverflowError"


@seed(16)
@PROPERTY
@given(pairs=st.lists(st.tuples(finite_floats, finite_floats), max_size=6))
def test_fused_dot_matches_fraction_form(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    assert _bits(fock_oracle._fused_dot, x, y) == _bits(_fraction_dot, x, y)
