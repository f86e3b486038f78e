"""Closed-form entanglement and teleportation figures of merit.

Bosonic resource (two-mode squeezed Bell channel):

    lambda_n = -tanh^(2n) r * sqrt(n+1) / (2 cosh^3 r)
    E_N      = log2(1 + sum_n tanh^(2n) r * sqrt(n+1) / cosh^3 r)
    F        = (1 - exp(-pi omega_eff/kappa))^3

Fermionic resource (Pauli-blocked channel):

    E_N = log2(1 + cos^2 r),  F = cos^2 r

The bosonic series carries a certified tail bound: the term ratio is
t*sqrt((n+2)/(n+1)) with t = tanh^2 r, so once that majorant drops below 1 a
geometric bound closes the remainder.  Note the closed-form series tends to
log2(1 + sqrt(pi)/2) ~ 0.915 as r -> infinity; only the per-block eigenvalues
vanish individually there (see fock_oracle for the full-spectrum value, which
does decay to zero).

The bosonic fidelity is implemented with the exponent exactly as the closed
form states (-pi omega/kappa).  The constructive oracle disagrees with it
(it reproduces cosh^-6 r = (1 - exp(-2 pi omega/kappa))^3); the discrepancy
is surfaced in reports.fidelity_boson_rows, never silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bhent import geometry, modes
from bhent.errors import PhysicsDomainError

DEFAULT_SERIES_TOL = 1e-10

# Above this value of tanh^2 r direct summation needs millions of terms;
# switch to the polylogarithm closed form Li_{-1/2}(t)/t.
_POLYLOG_SWITCH = 0.9999
_MAX_TERMS = 2_000_000


@dataclass(frozen=True)
class NegativityResult:
    """Logarithmic negativity with series bookkeeping."""

    value: float
    terms_used: int
    tail_bound: float


def neg_eigenvalue_boson(r: float, n: int) -> float:
    """n-th negative partial-transpose block eigenvalue of the bosonic channel."""
    _check_boson_r(r)
    if not (math.isfinite(n) and n >= 0):
        raise PhysicsDomainError(f"block index must be finite and >= 0, got {n}")
    t = math.tanh(r)
    one_minus = 1.0 - t * t  # sech^2 r
    return -(t ** (2 * n)) * math.sqrt(n + 1) * one_minus**1.5 / 2.0


def log_negativity_boson(r: float, tol: float = DEFAULT_SERIES_TOL) -> NegativityResult:
    """E_N = log2(1 + sum_n t^n sqrt(n+1) / cosh^3 r), t = tanh^2 r.

    Sums until the geometric-majorant tail bound certifies the remainder below
    tol * cosh^3 r.  For t extremely close to 1 the series is evaluated as
    Li_{-1/2}(t)/t instead (mpmath), with tail_bound reported as 0.
    """
    _check_boson_r(r)
    if not 0.0 < tol <= 1e-3:
        raise PhysicsDomainError(f"series tolerance must be in (0, 1e-3], got {tol}")
    t = math.tanh(r) ** 2
    if t >= 1.0:
        # fp limit tanh r == 1: closed-form series limit log2(1 + Gamma(3/2))
        return NegativityResult(math.log2(1.0 + math.sqrt(math.pi) / 2.0), 0, 0.0)
    inv_c3 = (1.0 - t) ** 1.5  # 1 / cosh^3 r

    if t > _POLYLOG_SWITCH:
        import mpmath

        s_val = float(mpmath.polylog(-0.5, t) / t)
        return NegativityResult(math.log2(1.0 + s_val * inv_c3), 0, 0.0)

    total = 0.0
    power = 1.0  # t^n
    n = 0
    while True:
        total += power * math.sqrt(n + 1)
        ratio = t * math.sqrt((n + 2) / (n + 1))
        if ratio < 1.0:
            tail = power * t * math.sqrt(n + 2) / (1.0 - ratio)
            if tail * inv_c3 < tol:
                return NegativityResult(math.log2(1.0 + total * inv_c3), n + 1, tail * inv_c3)
        n += 1
        power *= t
        if n > _MAX_TERMS:
            raise PhysicsDomainError(f"negativity series failed to converge for r={r}")


def log_negativity_fermion(r: float) -> float:
    """E_N = log2(1 + cos^2 r), r in [0, pi/4]."""
    _check_fermion_r(r)
    return math.log2(1.0 + math.cos(r) ** 2)


def fidelity_boson(omega_eff: float, kappa: float) -> float:
    """Teleportation fidelity F = (1 - exp(-pi omega_eff/kappa))^3, as printed.

    See the module docstring: the constructive value is (1 - exp(-2 pi
    omega_eff/kappa))^3; this function keeps the stated exponent.
    """
    x = modes._check_ratio(omega_eff, kappa)
    if x > 700.0:
        return 1.0
    return (-math.expm1(-x)) ** 3


def fidelity_fermion(r: float | modes.SqueezingParams) -> float:
    """Teleportation fidelity F = cos^2 r for the fermionic channel."""
    if isinstance(r, modes.SqueezingParams):
        return r.cos_r * r.cos_r
    _check_fermion_r(r)
    return math.cos(r) ** 2


def _check_boson_r(r: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise PhysicsDomainError(f"squeezing parameter must be finite and >= 0, got {r}")


def _check_fermion_r(r: float) -> None:
    if not 0.0 <= r <= math.pi / 4 + 1e-12:
        raise PhysicsDomainError(f"fermionic squeezing parameter must be in [0, pi/4], got {r}")


@dataclass(frozen=True)
class MiniBHBounds:
    """Extrema of E_N and F over a mini-black-hole parameter grid."""

    statistics: str
    e_n_max: float
    e_n_argmax: tuple[float, int, float]  # (omega*r_h, n, a_star)
    f_max: float
    f_argmax: tuple[float, int, float]
    grid_size: int


def minibh_bounds(
    statistics: str,
    omega_rh_range: tuple[float, float] = (0.05, 0.5),
    n_values: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7),
    a_star_values: tuple[float, ...] = (0.0,),
    omega_points: int = 16,
    tol: float = 1e-8,
) -> MiniBHBounds:
    """Maximise E_N and F over a grid of (omega*r_h, n, a_*), m = 0 modes.

    All quantities depend on omega/kappa only, so the grid is evaluated in
    units of r_h.  Returns extrema with their arg-max configurations; each
    cell is evaluated independently so the result does not depend on
    iteration order.
    """
    lo, hi = omega_rh_range
    if not (0 < lo < hi) or omega_points < 2 or not n_values or not a_star_values:
        raise PhysicsDomainError("empty or invalid mini-black-hole sweep grid")
    omegas = [lo + (hi - lo) * i / (omega_points - 1) for i in range(omega_points)]

    best_en = -math.inf
    best_f = -math.inf
    arg_en = arg_f = (math.nan, -1, math.nan)
    count = 0
    for n in n_values:
        for a_star in a_star_values:
            kappa_rh, _ = geometry.rotating_kappa_omega(n, 1.0, a_star)
            for w in omegas:
                count += 1
                if statistics == modes.BOSON:
                    sq = modes.squeeze_boson(w, kappa_rh)
                    e_n = log_negativity_boson(sq.r, tol).value
                    f = fidelity_boson(w, kappa_rh)
                else:
                    sq = modes.squeeze_fermion(w, kappa_rh)
                    e_n = log_negativity_fermion(sq.r)
                    f = fidelity_fermion(sq)
                if e_n > best_en:
                    best_en, arg_en = e_n, (w, n, a_star)
                if f > best_f:
                    best_f, arg_f = f, (w, n, a_star)
    return MiniBHBounds(statistics, best_en, arg_en, best_f, arg_f, count)
