"""Black hole spacetime parameters in natural units (G = c = hbar = k_B = 1).

Covers d-dimensional static (Schwarzschild-Tangherlini) holes and singly
rotating (4+n)-dimensional holes.  Everything here is a pure function of its
inputs; the hole classes hold their parameters and cache derived quantities.

Conventions
-----------
- Lapse function f(r) = 1 - (r_h/r)^(d-3); horizon at f(r_h) = 0.
- Surface gravity kappa = (d-3)/(2 r_h) for the static hole, so the Hawking
  temperature is T = kappa/(2 pi).
- The rotating horizon radius is always obtained by bracketed root-finding on
  Delta(r) = r^2 + a^2 - mu / r^(n-1).  RotatingBH.from_a_star uses the closed
  form r_h = [mu/(1+a_*^2)]^(1/(n+1)) only to form a = a_* r_h; r_h, a_* and
  kappa then come from the root, whose residual is checked.
  The root-finder is the in-house `brentq`, a line-by-line port of SciPy's C
  Brent routine (Brent 1973, ch. 4), so it returns the same floats without
  importing SciPy.
"""

from __future__ import annotations

import cmath
import math

from bhent.errors import ContractViolationError, NakedSingularityError, PhysicsDomainError
from bhent.errors import check_integer, check_non_negative, check_positive

# 1 TeV^-1 expressed in metres (hbar*c = 1 convention).
TEV_INV_TO_M = 1.9733e-19
# Planck mass in TeV.
M_PLANCK_TEV = 1.22e16


def gamma_half(twice_x: int) -> float:
    """Gamma(twice_x/2) for positive integer/half-integer arguments.

    Exact recursion from Gamma(1/2) = sqrt(pi) and Gamma(1) = 1; only these
    arguments ever occur in unit-sphere volumes, so no general special-function
    machinery is needed.
    """
    twice_x = check_integer("gamma_half argument twice_x", twice_x, 1)
    if twice_x % 2 == 0:
        out = 1.0
        for k in range(1, twice_x // 2):
            out *= k
    else:
        out = math.sqrt(math.pi)
        x = 0.5
        while x + 1 <= twice_x / 2:
            out *= x
            x += 1.0
    if math.isinf(out):  # from twice_x = 344 on; a volume 1/inf would read 0
        raise OverflowError(f"Gamma({twice_x}/2) overflows a float")
    return out


def sphere_volume(k: int) -> float:
    """Volume (surface measure) of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    k = check_integer("sphere dimension", k, 1)
    return 2.0 * math.pi ** ((k + 1) / 2) / gamma_half(k + 1)


def _check_static(d: int, r_h: float) -> int:
    d = check_integer("spacetime dimension", d, 4)
    check_positive("horizon radius", r_h)
    return d


def mass_from_horizon(d: int, r_h: float) -> float:
    """Mass of the static d-dimensional hole, M = (d-2) r_h^(d-3) Omega_{d-2} / (16 pi)."""
    d = _check_static(d, r_h)
    mass = (d - 2) * r_h ** (d - 3) * sphere_volume(d - 2) / (16.0 * math.pi)
    if mass == 0.0:  # r_h^(d-3) underflowed; the hole would read M = 0
        raise PhysicsDomainError(f"mass underflows to 0 for d={d}, r_h={r_h}")
    if not math.isfinite(mass):  # the product overflowed; the hole would read M = inf
        raise PhysicsDomainError(f"mass overflows for d={d}, r_h={r_h}")
    return mass


def horizon_from_mass(d: int, mass: float) -> float:
    """Inverse of mass_from_horizon: r_h = [16 pi M / ((d-2) Omega_{d-2})]^(1/(d-3))."""
    d = check_integer("spacetime dimension", d, 4)
    check_positive("mass", mass)
    return (16.0 * math.pi * mass / ((d - 2) * sphere_volume(d - 2))) ** (1.0 / (d - 3))


def lapse(d: int, r_h: float, r: float) -> float:
    """f(r) = 1 - (r_h/r)^(d-3)."""
    d = _check_static(d, r_h)
    check_positive("radius", r)
    return 1.0 - (r_h / r) ** (d - 3)


def surface_gravity_schw(d: int, r_h: float) -> float:
    """kappa = (d-3)/(2 r_h)."""
    d = _check_static(d, r_h)
    return (d - 3) / (2.0 * r_h)


def hawking_temperature(kappa: float) -> float:
    """T = kappa / (2 pi); the inverse temperature is beta = 2 pi / kappa."""
    check_positive("surface gravity", kappa)
    return kappa / (2.0 * math.pi)


def tortoise(d: int, r_h: float, r: float) -> float:
    """Tortoise coordinate r_* outside the horizon, dr_*/dr = 1/f(r).

    Closed form from the partial-fraction expansion of 1/f over the (d-3)-th
    roots of unity e_k = exp(-2 pi i k/(d-3)):

        r_* = r + r_h/(d-3) * sum_k e_k * ln(r/r_h - e_k)

    The residue factor e_k in front of each logarithm is required for
    dr_*/dr = 1/f; dropping it only works for d = 4.  Imaginary parts cancel
    in conjugate root pairs; the cancellation is checked before discarding
    them.  The integration constant is whatever this closed form fixes.
    """
    d = _check_static(d, r_h)
    check_positive("radius", r)
    if r <= r_h:
        raise PhysicsDomainError(f"tortoise coordinate needs r > r_h, got r={r}, r_h={r_h}")
    m = d - 3
    x = r / r_h
    acc = 0j
    for k in range(m):
        root = cmath.exp(-2j * math.pi * k / m)
        acc += root * cmath.log(x - root)
    rs = r + (r_h / m) * acc
    if abs(rs.imag) > 1e-10 * max(1.0, abs(rs.real)):
        raise ContractViolationError(
            f"tortoise imaginary parts failed to cancel: {rs.imag} vs {rs.real}"
        )
    return rs.real


class SchwarzschildBH:
    """Static d-dimensional black hole, parameterised by (d, r_h).

    omega_h and angular_momentum are zero, so a static hole answers the same
    questions as a RotatingBH.
    """

    __slots__ = ("d", "r_h", "kappa")
    omega_h = 0.0  # class constants, outside __slots__
    angular_momentum = 0.0

    def __init__(self, d: int, r_h: float) -> None:
        self.d = _check_static(d, r_h)
        self.r_h = r_h
        self.kappa = surface_gravity_schw(self.d, r_h)

    @classmethod
    def from_mass(cls, d: int, mass: float) -> "SchwarzschildBH":
        return cls(d, horizon_from_mass(d, mass))

    @property
    def mass(self) -> float:
        return mass_from_horizon(self.d, self.r_h)


def _delta(n: int, mu: float, a: float, r: float) -> float:
    """Horizon function Delta(r) = r^2 + a^2 - mu * r^(1-n).

    n = 0 reads the mass term as mu*r (4D Kerr with mu = 2M), n = 1 as mu.
    """
    return r * r + a * a - mu * r ** (1 - n)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method.

    A line-by-line port of `brentq` in SciPy's scipy/optimize/Zeros/brentq.c:
    the same inverse-quadratic/secant steps, bisection fallback and stopping
    test |sbis| < (xtol + rtol |x|)/2, so it returns the same float.  The
    guards SciPy's Python wrapper adds become ContractViolationError: a NaN
    function value, a bracket without a sign change, or no convergence in
    maxiter iterations.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ContractViolationError(f"function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ContractViolationError(f"no sign change on the bracket [{xa}, {xb}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ContractViolationError(f"Brent root-finding did not converge in {maxiter} iterations")


def rotating_horizon(n: int, mu: float, a: float) -> float:
    """Largest positive root of Delta(r) = 0, by bracketed root-finding.

    Raises NakedSingularityError when no positive root exists (n = 0 with
    4a^2 > mu^2, n = 1 with a^2 >= mu).  For n >= 2 a horizon always exists.
    """
    n = check_integer("extra dimensions", n, 0)
    check_positive("mass parameter", mu)
    check_non_negative("spin parameter", a)

    scale = max(mu ** (1.0 / (n + 1)), a, 1e-30)
    if n == 0:
        # Upward parabola; the largest root sits right of the vertex mu/2.
        lo = mu / 2.0
        # Delta(mu/2) = a^2 - mu^2/4 would under- or overflow; 2a > mu cannot
        if 2.0 * a > mu:
            raise NakedSingularityError(f"no horizon for n=0, mu={mu}, a={a} (4a^2 > mu^2)")
    elif n == 1:
        if a * a >= mu:
            raise NakedSingularityError(f"no horizon for n=1, mu={mu}, a={a} (a^2 >= mu)")
        lo = 1e-12 * scale
    else:
        # Delta -> -inf as r -> 0+, so shrink until the bracket is valid.
        lo = 1e-3 * scale
        while _delta(n, mu, a, lo) >= 0.0:
            lo *= 0.5
            if lo < 1e-280:
                raise NakedSingularityError(f"no horizon found for n={n}, mu={mu}, a={a}")

    hi = 10.0 * scale
    while _delta(n, mu, a, hi) <= 0.0:
        hi *= 2.0

    r_h = brentq(lambda r: _delta(n, mu, a, r), lo, hi, xtol=1e-300, rtol=8.9e-16)

    residual = abs(_delta(n, mu, a, r_h))
    scale = max(r_h * r_h, a * a, mu * r_h ** (1 - n))
    if scale == 0.0:  # every term of Delta underflows; any bracket end reads as a root
        raise PhysicsDomainError(f"horizon underflows for n={n}, mu={mu}, a={a}")
    tol = 1e-12 * scale
    if residual > tol:
        raise ContractViolationError(f"horizon residual {residual} exceeds {tol}")
    return r_h


def rotating_kappa_omega(n: int, r_h: float, a_star: float) -> tuple[float, float]:
    """Surface gravity and horizon angular velocity of the rotating hole.

    kappa = [(n+1) + (n-1) a_*^2] / (2 (1+a_*^2) r_h),  Omega = a_* / ((1+a_*^2) r_h).
    """
    check_positive("horizon radius", r_h)
    check_non_negative("a_*", a_star)
    n = check_integer("extra dimensions", n, 0)
    if a_star > 1.0:  # divided through by a_*^2, whose overflow would leave inf/inf
        b = 1.0 / a_star
        denom = (b * b + 1.0) * r_h
        return ((n + 1) * b * b + (n - 1)) / (2.0 * denom), b / denom
    denom = 2.0 * (1.0 + a_star * a_star) * r_h
    kappa = ((n + 1) + (n - 1) * a_star * a_star) / denom
    omega = a_star / ((1.0 + a_star * a_star) * r_h)
    return kappa, omega


def rotating_mass_angmom(n: int, mu: float, a: float) -> tuple[float, float]:
    """(M, J) of the rotating hole: M = (n+2) A_{n+2} mu / (16 pi), J = 2 a M/(n+2)."""
    n = check_integer("extra dimensions", n, 0)
    check_positive("mass parameter", mu)
    check_non_negative("spin parameter", a)
    mass = (n + 2) * sphere_volume(n + 2) * mu / (16.0 * math.pi)
    if not math.isfinite(mass):  # J would then read inf, or nan as 0 * inf at a = 0
        raise PhysicsDomainError(f"mass overflows for n={n}, mu={mu}")
    angmom = 2.0 * a * mass / (n + 2)
    if not math.isfinite(angmom):
        raise PhysicsDomainError(f"angular momentum overflows for n={n}, mu={mu}, a={a}")
    return mass, angmom


class RotatingBH:
    """Singly rotating (4+n)-dimensional black hole with parameters (n, mu, a)."""

    __slots__ = ("n", "mu", "a", "r_h", "a_star", "kappa", "omega_h")

    def __init__(self, n: int, mu: float, a: float) -> None:
        self.n = check_integer("extra dimensions", n, 0)
        self.mu = mu
        self.a = a
        self.r_h = rotating_horizon(self.n, mu, a)
        self.a_star = a / self.r_h
        self.kappa, self.omega_h = rotating_kappa_omega(self.n, self.r_h, self.a_star)

    @classmethod
    def from_a_star(cls, n: int, mu: float, a_star: float) -> "RotatingBH":
        """Construct from (n, mu, a_*) via r_h = [mu/(1+a_*^2)]^(1/(n+1))."""
        n = check_integer("extra dimensions", n, 0)
        check_non_negative("a_*", a_star)
        check_positive("mass parameter", mu)
        r_h = (mu / (1.0 + a_star * a_star)) ** (1.0 / (n + 1))
        a = a_star * r_h
        if a == 0.0 and a_star != 0.0:  # r_h or a underflowed; the hole would not rotate
            raise PhysicsDomainError(f"spin underflows to 0 for n={n}, mu={mu}, a_*={a_star}")
        return cls(n, mu, a)

    @property
    def mass(self) -> float:
        return rotating_mass_angmom(self.n, self.mu, self.a)[0]

    @property
    def angular_momentum(self) -> float:
        return rotating_mass_angmom(self.n, self.mu, self.a)[1]


def tev_scales(n: int, m_star_tev: float, m_bh_tev: float) -> dict[str, float]:
    """TeV-gravity length scales for n extra dimensions, in metres.

    Masses are in TeV.  The size R of the extra dimensions follows from
    M_pl^2 = R^n M_*^(n+2); the (4+n)-dimensional horizon radius is
    horizon_from_mass at the mass G_{4+n} M, with G_{4+n} = M_*^-(n+2).
    ratio_4_over_4n estimates r_h(4)/r_h(4+n) as (r_h(4+n)/R)^n; ratio_direct
    divides the two radii.
    """
    n = check_integer("extra dimensions", n, 1)
    check_positive("fundamental scale M_*", m_star_tev)
    check_positive("black hole mass", m_bh_tev)
    size_nat = (M_PLANCK_TEV / m_star_tev) ** (2.0 / n) / m_star_tev
    size = size_nat * TEV_INV_TO_M
    g_d_mass = m_star_tev ** (-(n + 2)) * m_bh_tev
    _check_scales({"G_(4+n) M = M_*^-(n+2) M_bh": g_d_mass}, n, m_star_tev, m_bh_tev)
    horizon_4n = horizon_from_mass(4 + n, g_d_mass) * TEV_INV_TO_M
    horizon_4 = 2.0 * m_bh_tev / M_PLANCK_TEV**2 * TEV_INV_TO_M
    scales = {"R": size, "r_h_4n": horizon_4n, "r_h_4": horizon_4}
    _check_scales(scales, n, m_star_tev, m_bh_tev)  # before a ratio reads one
    ratios = {"ratio_4_over_4n": (horizon_4n / size) ** n, "ratio_direct": horizon_4 / horizon_4n}
    _check_scales(ratios, n, m_star_tev, m_bh_tev)
    return {**scales, **ratios}


def _check_scales(values: dict, n: int, m_star_tev: float, m_bh_tev: float) -> None:
    """Refuse a tev_scales value that rounds to 0 or overflows.

    Each is a product or quotient of nonzero finite factors, so neither is a result.
    """
    for name, value in values.items():
        if value == 0.0 or value == math.inf:
            word = "underflows to 0" if value == 0.0 else "overflows"
            raise PhysicsDomainError(
                f"{name} {word} for n={n}, --mstar {m_star_tev}, --mbh {m_bh_tev}"
            )
