"""Black hole spacetime parameters in natural units (G = c = hbar = k_B = 1).

Covers d-dimensional static (Schwarzschild-Tangherlini) holes and singly
rotating (4+n)-dimensional holes.  Everything here is a pure function of its
inputs; the dataclasses only cache derived quantities.

Conventions
-----------
- Lapse function f(r) = 1 - (r_h/r)^(d-3); horizon at f(r_h) = 0.
- Surface gravity kappa = (d-3)/(2 r_h) for the static hole, so the Hawking
  temperature is T = kappa/(2 pi).
- The rotating horizon radius is always obtained by bracketed root-finding on
  Delta(r) = r^2 + a^2 - mu / r^(n-1); the closed form
  r_h = [mu/(1+a_*^2)]^(1/(n+1)) is asserted against the root, never trusted.
  The root-finder is the in-house `brentq`, a line-by-line port of SciPy's C
  Brent routine (Brent 1973, ch. 4), so it returns the same floats without
  importing SciPy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from bhent.errors import ContractViolationError, NakedSingularityError, PhysicsDomainError

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
    if twice_x < 1:
        raise PhysicsDomainError(f"gamma_half requires twice_x >= 1, got {twice_x}")
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
    if k < 1:
        raise PhysicsDomainError(f"sphere dimension must be >= 1, got {k}")
    return 2.0 * math.pi ** ((k + 1) / 2) / gamma_half(k + 1)


def _check_static(d: int, r_h: float) -> None:
    if d < 4:
        raise PhysicsDomainError(f"spacetime dimension must be >= 4, got {d}")
    if r_h <= 0:
        raise PhysicsDomainError(f"horizon radius must be positive, got {r_h}")


def mass_from_horizon(d: int, r_h: float) -> float:
    """Mass of the static d-dimensional hole, M = (d-2) r_h^(d-3) Omega_{d-2} / (16 pi)."""
    _check_static(d, r_h)
    return (d - 2) * r_h ** (d - 3) * sphere_volume(d - 2) / (16.0 * math.pi)


def horizon_from_mass(d: int, mass: float) -> float:
    """Inverse of mass_from_horizon: r_h = [16 pi M / ((d-2) Omega_{d-2})]^(1/(d-3))."""
    if d < 4:
        raise PhysicsDomainError(f"spacetime dimension must be >= 4, got {d}")
    if mass <= 0:
        raise PhysicsDomainError(f"mass must be positive, got {mass}")
    return (16.0 * math.pi * mass / ((d - 2) * sphere_volume(d - 2))) ** (1.0 / (d - 3))


def lapse(d: int, r_h: float, r: float) -> float:
    """f(r) = 1 - (r_h/r)^(d-3)."""
    _check_static(d, r_h)
    if r <= 0:
        raise PhysicsDomainError(f"radius must be positive, got {r}")
    return 1.0 - (r_h / r) ** (d - 3)


def surface_gravity_schw(d: int, r_h: float) -> float:
    """kappa = (d-3)/(2 r_h)."""
    _check_static(d, r_h)
    return (d - 3) / (2.0 * r_h)


def hawking_temperature(kappa: float) -> float:
    """T = kappa / (2 pi); the inverse temperature is beta = 2 pi / kappa."""
    if kappa <= 0:
        raise PhysicsDomainError(f"surface gravity must be positive, got {kappa}")
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
    _check_static(d, r_h)
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


def local_temperature(t_bh: float, d: int, r_h: float, r: float) -> float:
    """Blue-shifted local temperature T = T_bh / sqrt(f(r)) for a static observer."""
    if t_bh < 0:
        raise PhysicsDomainError(f"temperature must be non-negative, got {t_bh}")
    f = lapse(d, r_h, r)
    if f <= 0:
        raise PhysicsDomainError(f"local temperature defined only outside the horizon, r={r}")
    return t_bh / math.sqrt(f)


@dataclass(frozen=True)
class SchwarzschildBH:
    """Static d-dimensional black hole, parameterised by (d, r_h).

    omega_h and angular_momentum are zero, so a static hole answers the same
    questions as a RotatingBH.
    """

    d: int
    r_h: float
    kappa: float = field(init=False)
    omega_h = 0.0  # not annotated: class constants, not fields
    angular_momentum = 0.0

    def __post_init__(self) -> None:
        # surface_gravity_schw checks (d, r_h) before it computes kappa
        object.__setattr__(self, "kappa", surface_gravity_schw(self.d, self.r_h))

    @classmethod
    def from_mass(cls, d: int, mass: float) -> "SchwarzschildBH":
        return cls(d, horizon_from_mass(d, mass))

    @property
    def mass(self) -> float:
        return mass_from_horizon(self.d, self.r_h)

    @property
    def inverse_kappa(self) -> float:
        """The acceleration-scale parameter 1/kappa = 2 r_h / (d-3)."""
        return 2.0 * self.r_h / (self.d - 3)

    @property
    def temperature(self) -> float:
        return hawking_temperature(self.kappa)

    def lapse(self, r: float) -> float:
        return lapse(self.d, self.r_h, r)

    def tortoise(self, r: float) -> float:
        return tortoise(self.d, self.r_h, r)


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
    if n < 0:
        raise PhysicsDomainError(f"extra dimensions must be >= 0, got {n}")
    if not (math.isfinite(mu) and math.isfinite(a)):
        raise PhysicsDomainError(f"mass and spin parameters must be finite, got mu={mu}, a={a}")
    if mu <= 0:
        raise PhysicsDomainError(f"mass parameter must be positive, got {mu}")
    if a < 0:
        raise PhysicsDomainError(f"spin parameter must be non-negative, got {a}")

    scale = max(mu ** (1.0 / (n + 1)), a, 1e-30)
    if n == 0:
        # Upward parabola; the largest root sits right of the vertex mu/2.
        lo = mu / 2.0
        if _delta(n, mu, a, lo) > 0.0:
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
    tol = 1e-12 * max(r_h * r_h, a * a, mu * r_h ** (1 - n))
    if residual > tol:
        raise ContractViolationError(f"horizon residual {residual} exceeds {tol}")
    return r_h


def rotating_kappa_omega(n: int, r_h: float, a_star: float) -> tuple[float, float]:
    """Surface gravity and horizon angular velocity of the rotating hole.

    kappa = [(n+1) + (n-1) a_*^2] / (2 (1+a_*^2) r_h),  Omega = a_* / ((1+a_*^2) r_h).
    """
    if r_h <= 0:
        raise PhysicsDomainError(f"horizon radius must be positive, got {r_h}")
    if a_star < 0:
        raise PhysicsDomainError(f"a_* must be non-negative, got {a_star}")
    if n < 0:
        raise PhysicsDomainError(f"extra dimensions must be >= 0, got {n}")
    denom = 2.0 * (1.0 + a_star * a_star) * r_h
    kappa = ((n + 1) + (n - 1) * a_star * a_star) / denom
    omega = a_star / ((1.0 + a_star * a_star) * r_h)
    return kappa, omega


def rotating_mass_angmom(n: int, mu: float, a: float) -> tuple[float, float]:
    """(M, J) of the rotating hole: M = (n+2) A_{n+2} mu / (16 pi), J = 2 a M/(n+2)."""
    if mu <= 0:
        raise PhysicsDomainError(f"mass parameter must be positive, got {mu}")
    if a < 0:
        raise PhysicsDomainError(f"spin parameter must be non-negative, got {a}")
    mass = (n + 2) * sphere_volume(n + 2) * mu / (16.0 * math.pi)
    return mass, 2.0 * a * mass / (n + 2)


@dataclass(frozen=True)
class RotatingBH:
    """Singly rotating (4+n)-dimensional black hole with parameters (n, mu, a)."""

    n: int
    mu: float
    a: float
    r_h: float = field(init=False)
    a_star: float = field(init=False)
    kappa: float = field(init=False)
    omega_h: float = field(init=False)

    def __post_init__(self) -> None:
        r_h = rotating_horizon(self.n, self.mu, self.a)
        a_star = self.a / r_h
        kappa, omega = rotating_kappa_omega(self.n, r_h, a_star)
        object.__setattr__(self, "r_h", r_h)
        object.__setattr__(self, "a_star", a_star)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "omega_h", omega)

    @classmethod
    def from_a_star(cls, n: int, mu: float, a_star: float) -> "RotatingBH":
        """Construct from (n, mu, a_*) via r_h = [mu/(1+a_*^2)]^(1/(n+1))."""
        if a_star < 0:
            raise PhysicsDomainError(f"a_* must be non-negative, got {a_star}")
        if mu <= 0:
            raise PhysicsDomainError(f"mass parameter must be positive, got {mu}")
        r_h = (mu / (1.0 + a_star * a_star)) ** (1.0 / (n + 1))
        return cls(n, mu, a_star * r_h)

    @property
    def mass(self) -> float:
        return rotating_mass_angmom(self.n, self.mu, self.a)[0]

    @property
    def angular_momentum(self) -> float:
        return rotating_mass_angmom(self.n, self.mu, self.a)[1]

    @property
    def temperature(self) -> float:
        return hawking_temperature(self.kappa)


@dataclass(frozen=True)
class TevScales:
    """TeV-gravity length scales for n extra dimensions.

    All masses in TeV; all output lengths in metres.  The size of the extra
    dimensions follows from M_pl^2 = R^n M_*^(n+2); the (4+n)-dimensional
    horizon radius from the static mass formula with G_{4+n} = M_*^-(n+2).
    """

    n: int
    m_star: float
    m_bh: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PhysicsDomainError(f"TeV scales need n >= 1, got {self.n}")
        if self.m_star <= 0 or self.m_bh <= 0:
            raise PhysicsDomainError("masses must be positive")

    @property
    def extra_dimension_size_m(self) -> float:
        r_nat = (M_PLANCK_TEV / self.m_star) ** (2.0 / self.n) / self.m_star
        return r_nat * TEV_INV_TO_M

    @property
    def horizon_4n_m(self) -> float:
        d = 4 + self.n
        g_d = self.m_star ** (-(self.n + 2))
        r_nat = (16.0 * math.pi * g_d * self.m_bh / ((d - 2) * sphere_volume(d - 2))) ** (
            1.0 / (d - 3)
        )
        return r_nat * TEV_INV_TO_M

    @property
    def horizon_4_m(self) -> float:
        return 2.0 * self.m_bh / M_PLANCK_TEV**2 * TEV_INV_TO_M

    @property
    def ratio_4_over_4n(self) -> float:
        """r_h(4)/r_h(4+n) estimated as (r_h(4+n)/R)^n."""
        return (self.horizon_4n_m / self.extra_dimension_size_m) ** self.n

    @property
    def ratio_direct(self) -> float:
        return self.horizon_4_m / self.horizon_4n_m


def tev_scales(n: int, m_star_tev: float, m_bh_tev: float) -> dict[str, float]:
    """Convenience dict view of TevScales (lengths in metres)."""
    s = TevScales(n, m_star_tev, m_bh_tev)
    return {
        "R": s.extra_dimension_size_m,
        "r_h_4n": s.horizon_4n_m,
        "r_h_4": s.horizon_4_m,
        "ratio_4_over_4n": s.ratio_4_over_4n,
        "ratio_direct": s.ratio_direct,
    }
