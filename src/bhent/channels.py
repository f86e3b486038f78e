"""Closed-form entanglement and teleportation figures of merit.

Bosonic resource (two-mode squeezed Bell channel):

    lambda_n = -tanh^(2n) r * sqrt(n+1) / (2 cosh^3 r)
    E_N      = log2(1 + sum_n tanh^(2n) r * sqrt(n+1) / cosh^3 r)
    F        = (1 - exp(-pi omega_eff/kappa))^3

Fermionic resource (Pauli-blocked channel):

    E_N = log2(1 + cos^2 r),  F = cos^2 r

The bosonic series sum S(t) = sum_n t^n sqrt(n+1) = Li_{-1/2}(t)/t, with
t = tanh^2 r, carries a certified tail bound.  Below t = 0.9 it is summed
directly: the term ratio is t*sqrt((n+2)/(n+1)), so once that majorant drops
below 1 a geometric bound closes the remainder.  From t = 0.9 up to 1 it is
evaluated from the expansion of Li_{-1/2}(e^mu) about mu = ln t = 0, whose
terms the functional equation of zeta bounds geometrically.  Note the
closed-form series tends to log2(1 + sqrt(pi)/2) ~ 0.915 as r -> infinity;
only the per-block eigenvalues vanish individually there (see fock_oracle for
the full-spectrum value, which does decay to zero).

The bosonic fidelity is implemented with the exponent exactly as the closed
form states (-pi omega/kappa).  The constructive oracle disagrees with it
(it reproduces cosh^-6 r = (1 - exp(-2 pi omega/kappa))^3); the discrepancy
is surfaced in reports.fidelity_boson_rows, never silently reconciled.

sweep.OUTPUTS picks each figure's form for a mode's statistics; the entangle
and teleport commands read the same forms.
"""

from __future__ import annotations

import math

from bhent import modes
from bhent.errors import ContractViolationError, PhysicsDomainError, check_integer

DEFAULT_SERIES_TOL = 1e-10
# Accepted series tolerances; _ZETA_NEG_HALF is sized to certify the smallest.
MIN_SERIES_TOL, MAX_SERIES_TOL = 1e-30, 1e-3

# S(t) is summed directly below this t and expanded about t = 1 from it on.  It
# lies above every tanh^2 r of the docs/ recipes (the largest is 0.882).
_EXPANSION_SWITCH = 0.9

_GAMMA_3_2 = math.sqrt(math.pi) / 2.0

# zeta(-1/2 - k) for k = 0..16: at t = _EXPANSION_SWITCH, the worst point, 17
# terms bound the remainder by 3.3e-32 < MIN_SERIES_TOL.  Generated with
#   mpmath.mp.dps = 30; [float(mpmath.zeta(-0.5 - k)) for k in range(17)]
_ZETA_NEG_HALF = (
    -0.20788622497735457,
    -0.025485201889833036,
    0.008516928777850331,
    0.004441011335479432,
    -0.0030916692472158338,
    -0.0026714580198992244,
    0.0027467679395368687,
    0.00326903957260022,
    -0.00441603287300489,
    -0.006672172296466641,
    0.011146122473942813,
    0.02039697871594279,
    -0.04057496748119458,
    -0.08717525590621725,
    0.2011740493842269,
    0.4962712199120576,
    -1.303229250705114,
)

# The functional equation gives |zeta(-1/2-k)| <= 2 zeta(3/2) Gamma(k+3/2)
# (2 pi)^(-k-3/2); this is that bound's k = 0 value, zeta(3/2) = 2.6123753...
_ZETA_BOUND_0 = 2.0 * 2.612375348685488 * _GAMMA_3_2 / (2.0 * math.pi) ** 1.5


class NegativityResult:
    """Logarithmic negativity with series bookkeeping."""

    __slots__ = ("value", "terms_used", "tail_bound")

    def __init__(self, value: float, terms_used: int, tail_bound: float) -> None:
        self.value = value
        self.terms_used = terms_used
        self.tail_bound = tail_bound


def neg_eigenvalue_boson(r: float, n: int) -> float:
    """n-th negative partial-transpose block eigenvalue of the bosonic channel, n >= 0."""
    modes.check_boson_r(r)
    n = check_integer("block index", n, 0)
    t = math.tanh(r)
    one_minus = 1.0 - t * t  # sech^2 r
    return -(t ** (2 * n)) * math.sqrt(n + 1) * one_minus**1.5 / 2.0


def log_negativity_boson(r: float, tol: float = DEFAULT_SERIES_TOL) -> NegativityResult:
    """E_N = log2(1 + S(t) / cosh^3 r), S(t) = sum_n t^n sqrt(n+1), t = tanh^2 r.

    terms_used and tail_bound come from _li_half_over_t: tail_bound < tol
    bounds the truncation of S(t) / cosh^3 r, so the value is within
    tail_bound / ln 2 of the exact one up to rounding.  tol must lie in
    [MIN_SERIES_TOL, MAX_SERIES_TOL].
    """
    modes.check_boson_r(r)
    check_series_tol(tol)
    t = math.tanh(r) ** 2
    if t >= 1.0:
        # fp limit tanh r == 1: closed-form series limit log2(1 + Gamma(3/2))
        return NegativityResult(math.log2(1.0 + _GAMMA_3_2), 0, 0.0)
    s_val, terms, tail = _li_half_over_t(t, tol)
    return NegativityResult(math.log2(1.0 + s_val * (1.0 - t) ** 1.5), terms, tail)


def _li_half_over_t(t: float, tol: float) -> tuple[float, int, float]:
    """S(t) = Li_{-1/2}(t)/t = sum_n t^n sqrt(n+1) for 0 <= t < 1.

    Returns (S, terms, tail) where tail < tol bounds (1-t)^{3/2} times the
    truncation error of S: the scale at which E_N reads S.

    Below _EXPANSION_SWITCH the series is summed directly.  From there on S
    comes from the expansion about mu = ln t = 0 (DLMF 25.12.12; D. C. Wood,
    "The computation of polylogarithms", 1992):

        Li_{-1/2}(e^mu) = Gamma(3/2) (-mu)^{-3/2} + sum_k zeta(-1/2-k) mu^k/k!

    With q = |mu|/(2 pi) < 0.017, term k is at most b_k = _ZETA_BOUND_0
    Gamma(k+3/2)/(Gamma(3/2) k!) q^k, whose ratio b_{k+1}/b_k =
    q (k+3/2)/(k+1) falls with k, so b_{k+1}/(1 - q (k+5/2)/(k+2)) bounds
    the remainder after term k.
    """
    inv_c3 = (1.0 - t) ** 1.5  # 1 / cosh^3 r
    if t < _EXPANSION_SWITCH:
        # t < 0.9 certifies any tol >= MIN_SERIES_TOL long before t^n underflows
        total = 0.0
        power = 1.0  # t^n
        n = 0
        while True:
            total += power * math.sqrt(n + 1)
            ratio = t * math.sqrt((n + 2) / (n + 1))
            if ratio < 1.0:
                tail = power * t * math.sqrt(n + 2) / (1.0 - ratio)
                if tail * inv_c3 < tol:
                    return total, n + 1, tail * inv_c3
            n += 1
            power *= t

    mu = math.log(t)
    q = -mu / (2.0 * math.pi)
    total = _GAMMA_3_2 * (-mu) ** -1.5
    coef = 1.0  # mu^k / k!
    bound = _ZETA_BOUND_0  # b_k
    for k, zeta in enumerate(_ZETA_NEG_HALF):
        total += zeta * coef
        coef *= mu / (k + 1)
        bound *= q * (k + 1.5) / (k + 1)
        tail = bound / (1.0 - q * (k + 2.5) / (k + 2)) * inv_c3 / t
        if tail < tol:
            return total / t, k + 1, tail
    raise ContractViolationError(f"zeta table cannot certify tol={tol} at t={t}")


def log_negativity_fermion(r: float) -> float:
    """E_N = log2(1 + cos^2 r), r in [0, pi/4]."""
    modes.check_fermion_r(r)
    return math.log2(1.0 + math.cos(r) ** 2)


def fidelity_boson(sq: modes.SqueezingParams) -> float:
    """Teleportation fidelity F = (1 - exp(-x))^3, x = pi omega_eff/kappa, as printed.

    See the module docstring: the constructive value is (1 - exp(-2x))^3;
    this function keeps the stated exponent.
    """
    return (-math.expm1(-sq.x)) ** 3


def fidelity_fermion(r: float | modes.SqueezingParams) -> float:
    """Teleportation fidelity F = cos^2 r for the fermionic channel."""
    if isinstance(r, modes.SqueezingParams):
        e = math.exp(-r.x)
        cos_r = 1.0 / math.sqrt(1.0 + e * e)
        return cos_r * cos_r
    modes.check_fermion_r(r)
    return math.cos(r) ** 2


def check_series_tol(tol: float) -> None:
    """Reject a series tolerance outside [MIN_SERIES_TOL, MAX_SERIES_TOL] (or nan)."""
    if not MIN_SERIES_TOL <= tol <= MAX_SERIES_TOL:
        raise PhysicsDomainError(
            f"series tolerance must be in [{MIN_SERIES_TOL:g}, {MAX_SERIES_TOL:g}], got {tol}"
        )
