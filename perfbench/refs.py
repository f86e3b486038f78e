"""Reference values and output checks, computed apart from bhent.

Nothing here imports bhent.  Every expected number comes from a closed form
written out again below (geometry, squeezing, fermionic channel, stated
bosonic fidelity) or from mpmath's polylogarithm at 30 digits (bosonic
negativity).  The checkers return a list of problem strings; an empty list
means the output is correct.
"""

from __future__ import annotations

import math

# log2(1 + Gamma(3/2)): the r -> infinity limit of the bosonic series.
EN_BOSON_FLOOR = math.log2(1.0 + math.sqrt(math.pi) / 2.0)
# Series tolerance the program uses by default, and the slack allowed on top
# of it for the float summation of up to ~2.5e5 terms.
SERIES_TOL = 1e-10
EN_BOSON_ATOL = 2.0 * SERIES_TOL
# Outputs printed by the CLI carry 10 significant digits.
PRINT_RTOL = 2e-9
# Stefan-Boltzmann constant (CODATA 2018, exact) and the speed of light.
SIGMA_SB = 5.670374419e-8
C_LIGHT = 299_792_458.0
# Unit conventions the program documents for TeV-gravity scales.
TEV_INV_TO_M = 1.9733e-19
M_PLANCK_TEV = 1.22e16


# ------------------------------------------------------------- geometry


def sphere_volume(k: int) -> float:
    """Area of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


def static_rh_from_mass(d: int, mass: float) -> float:
    if d == 4:
        return 2.0 * mass
    return (16.0 * math.pi * mass / ((d - 2) * sphere_volume(d - 2))) ** (1.0 / (d - 3))


def static_mass_from_rh(d: int, r_h: float) -> float:
    return (d - 2) * r_h ** (d - 3) * sphere_volume(d - 2) / (16.0 * math.pi)


def static_kappa(d: int, r_h: float) -> float:
    return (d - 3) / (2.0 * r_h)


def rotating_rh(n: int, mu: float, a_star: float) -> float:
    """r_h = [mu / (1 + a_*^2)]^(1/(n+1))."""
    return (mu / (1.0 + a_star * a_star)) ** (1.0 / (n + 1))


def rotating_delta(n: int, mu: float, a: float, r: float) -> float:
    """Delta(r) = r^2 + a^2 - mu r^(1-n)."""
    return r * r + a * a - mu * r ** (1 - n)


def rotating_kappa_omega(n: int, r_h: float, a_star: float) -> tuple[float, float]:
    q = 1.0 + a_star * a_star
    return ((n + 1) + (n - 1) * a_star * a_star) / (2.0 * q * r_h), a_star / (q * r_h)


def tev_scales(n: int, m_star: float, m_bh: float) -> dict[str, float]:
    r_extra = (M_PLANCK_TEV / m_star) ** (2.0 / n) / m_star * TEV_INV_TO_M
    r_4n = static_rh_from_mass(4 + n, m_star ** (-(n + 2)) * m_bh) * TEV_INV_TO_M
    r_4 = 2.0 * m_bh / M_PLANCK_TEV**2 * TEV_INV_TO_M
    return {
        "R": r_extra,
        "r_h_4n": r_4n,
        "r_h_4": r_4,
        "ratio_4_over_4n": (r_4n / r_extra) ** n,
        "ratio_direct": r_4 / r_4n,
    }


# ------------------------------------------------------- mode channels


def boson_en(x: float) -> float:
    """E_N = log2(1 + Li_{-1/2}(t)/t * (1-t)^{3/2}), t = tanh^2 r = e^{-2x}, 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        t = mpmath.exp(-2 * mpmath.mpf(x))
        s = mpmath.polylog(-0.5, t) / t
        return float(mpmath.log(1 + s * (1 - t) ** 1.5, 2))


def boson_r(x: float) -> float:
    """r = atanh(e^{-x}), at 30 digits so that x near 0 loses nothing."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.atanh(mpmath.exp(-mpmath.mpf(x))))


def boson_f_stated(x: float) -> float:
    """The bosonic fidelity as the program states it, (1 - e^{-x})^3."""
    return (-math.expm1(-x)) ** 3


def boson_f_sech6(x: float) -> float:
    """The constructive bosonic fidelity cosh^-6 r = (1 - e^{-2x})^3."""
    return (-math.expm1(-2.0 * x)) ** 3


def fermion_cos2(x: float) -> float:
    """cos^2 r = 1 / (1 + e^{-2x})."""
    return 1.0 / (1.0 + math.exp(-2.0 * x))


def fermion_en(x: float) -> float:
    return math.log2(1.0 + fermion_cos2(x))


def lambda_n(r: float, n: int) -> float:
    """n-th negative partial-transpose eigenvalue, -tanh^{2n} r sqrt(n+1) / (2 cosh^3 r)."""
    return -(math.tanh(r) ** (2 * n)) * math.sqrt(n + 1) / (2.0 * math.cosh(r) ** 3)


def close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


# --------------------------------------------------------- sweep cells


def cell_x(params: dict) -> tuple[float, float]:
    """(x, kappa) of one sweep cell, x = pi (omega - m Omega) / kappa.

    Mirrors the sweep vocabulary: static cells carry d and r_h or M, rotating
    cells n, mu and a_star; the frequency is omega or omega_rh.
    """
    if "d" in params:
        d = int(params["d"])
        r_h = params["r_h"] if "r_h" in params else static_rh_from_mass(d, params["M"])
        kappa, omega_h = static_kappa(d, r_h), 0.0
    else:
        n = int(params["n"])
        a_star = params.get("a_star", 0.0)
        r_h = rotating_rh(n, params["mu"], a_star)
        kappa, omega_h = rotating_kappa_omega(n, r_h, a_star)
    omega = params["omega"] if "omega" in params else params["omega_rh"] / r_h
    return math.pi * (omega - params.get("m", 0.0) * omega_h) / kappa, kappa


def check_sweep_csv(text: str, grid, mp_every: int) -> list[str]:
    """Checks one sweep CSV against the references.

    grid carries the sweep's axes (name first), fixed values, outputs and
    row count.  Every row gets the closed-form checks and the range checks;
    every mp_every-th bosonic row is also compared with the mpmath
    polylogarithm.  Bosonic E_N must not rise with kappa at fixed omega, that
    is it must not fall as x grows, by more than the series tolerance: near
    E_N = 1 the true steps are smaller than the certified truncation error.
    """
    problems: list[str] = []
    lines = text.splitlines()
    axes, outputs, fixed = [ax[0] for ax in grid.axes], list(grid.outputs), grid.fixed
    header = axes + outputs
    if not lines or lines[0] != ",".join(header):
        return [f"header {lines[:1]} != {header}"]
    if len(lines) - 1 != grid.rows:
        problems.append(f"{len(lines) - 1} data rows, expected {grid.rows}")
    statistics = fixed.get("statistics", "boson")
    boson_points = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if any(f.startswith("NA") for f in fields):
            problems.append(f"row {i}: NA on a physical grid: {line}")
            continue
        values = dict(zip(header, map(float, fields)))
        x, kappa = cell_x(dict(fixed, **{h: values[h] for h in axes}))
        out = {h: values[h] for h in outputs}
        if "kappa" in out and not close(out["kappa"], kappa, 1e-13):
            problems.append(f"row {i}: kappa {out['kappa']} != {kappa}")
        if statistics == "fermion":
            if "E_N" in out and not close(out["E_N"], fermion_en(x), 1e-13, 1e-15):
                problems.append(f"row {i}: fermion E_N {out['E_N']} != {fermion_en(x)}")
            if "F" in out and not (close(out["F"], fermion_cos2(x), 1e-13, 1e-15) and out["F"] >= 0.5):
                problems.append(f"row {i}: fermion F {out['F']} != {fermion_cos2(x)}")
            continue
        if "r" in out and not close(out["r"], boson_r(x), 1e-11):
            problems.append(f"row {i}: r {out['r']} != {boson_r(x)}")
        if "F" in out and not close(out["F"], boson_f_stated(x), 1e-12, 1e-15):
            problems.append(f"row {i}: boson F {out['F']} != {boson_f_stated(x)}")
        if "E_N" in out:
            en = out["E_N"]
            if not EN_BOSON_FLOOR - 1e-12 <= en <= 1.0:
                problems.append(f"row {i}: boson E_N {en} outside [{EN_BOSON_FLOOR}, 1]")
            if i % mp_every == 0 and not close(en, boson_en(x), 0.0, EN_BOSON_ATOL):
                problems.append(f"row {i}: boson E_N {en} != polylog reference {boson_en(x)}")
            boson_points.append((x, en))
    boson_points.sort()
    for (x0, e0), (x1, e1) in zip(boson_points, boson_points[1:]):
        if e1 < e0 - EN_BOSON_ATOL:
            problems.append(f"boson E_N rises with kappa: E_N(x={x0})={e0} > E_N(x={x1})={e1}")
            break
    return problems


# ------------------------------------------------------ oracle reports

REPORT_HEADER = "quantity,point,closed_form,oracle,abs_diff,note"
# oracle-check's default gate on |closed form - oracle|; its series runs at a
# tenth of the gate.
ORACLE_GATE = 1e-8
REPORT_EN_ATOL = 2.0 * ORACLE_GATE / 10.0
# A report point label prints 6 significant digits; a reference evaluated at
# the label differs from one at the exact point by at most about this much.
LABEL_ATOL = 1e-6


def fidelity_truncation_bound(x: float, trunc: int) -> float:
    """Upper bound on the probability the two-mode post-state loses to truncation.

    Each cavity mode is thermal-like in the hidden occupation n with weight at
    most (n+1) tanh^{2n} r; the mass beyond n = trunc is bounded by twice the
    tail of that series.
    """
    s = math.exp(-2.0 * x)  # tanh^2 r
    head = s ** (trunc + 1)
    return 2.0 * head * ((trunc + 2) - (trunc + 1) * s) / (1.0 - s) ** 2


def check_oracle_csv(text: str, tanh_points: list[float], trunc: int) -> list[str]:
    """Checks one oracle-check report against the references."""
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return [f"report header {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = 2 * len(tanh_points) + 12 + 8 + 7
    if len(rows) != expected:
        problems.append(f"{len(rows)} report rows, expected {expected}")
    by_point: dict[str, dict[str, float]] = {}
    for fields in rows:
        # point labels such as "r=0.1,n=0" contain a comma; notes do not
        q, point, note = fields[0], ",".join(fields[1:-4]), fields[-1]
        if q == "F_boson_verdict":
            if "cosh^-6 r" not in note:
                problems.append(f"verdict does not name cosh^-6 r: {note}")
            continue
        c, o = float(fields[-4]), float(fields[-3])
        by_point.setdefault(point, {})[q] = o
        label = float(point.split("=")[-1]) if "," not in point else None
        if q == "E_N_boson":
            x = -math.log(label)  # tanh r = e^{-x}; the points are exact decimals
            if not close(c, boson_en(x), 0.0, REPORT_EN_ATOL):
                problems.append(f"{q} {point}: series {c} != polylog reference {boson_en(x)}")
            if not abs(o - c) < ORACLE_GATE:
                problems.append(f"{q} {point}: blockwise oracle {o} != series {c}")
        elif q == "lambda_n_boson":
            r_s, n_s = point.split(",")
            ref = lambda_n(float(r_s.split("=")[1]), int(n_s.split("=")[1]))
            if not (close(c, ref, 1e-12) and abs(o - c) < ORACLE_GATE):
                problems.append(f"{q} {point}: {c}, oracle {o} != {ref}")
        elif q in ("E_N_fermion", "F_fermion"):
            # the label carries 6 digits (pi/4 prints as 0.785398)
            ref = math.log2(1.0 + math.cos(label) ** 2) if q == "E_N_fermion" else math.cos(label) ** 2
            if not (close(c, ref, 0.0, LABEL_ATOL) and close(o, c, 0.0, 1e-12)):
                problems.append(f"{q} {point}: {c}, oracle {o} != {ref}")
            if q == "F_fermion" and c < 0.5 - 1e-12:
                problems.append(f"{q} {point}: F {c} < 1/2")
        elif q == "F_boson_sech6":
            ref = boson_f_sech6(label)
            bound = fidelity_truncation_bound(label, trunc) + 1e-12
            if not (close(c, ref, 0.0, LABEL_ATOL) and close(o, c, 0.0, bound)):
                problems.append(f"{q} {point}: closed {c}, oracle {o} != {ref} within {bound}")
        elif q == "F_boson_stated_exponent":
            if not close(c, boson_f_stated(label), 0.0, LABEL_ATOL):
                problems.append(f"{q} {point}: {c} != {boson_f_stated(label)}")
    for point, qs in by_point.items():
        if "E_N_boson_fullspectrum" in qs and not qs["E_N_boson_fullspectrum"] <= qs["E_N_boson"] + 1e-12:
            problems.append(f"{point}: full-spectrum E_N {qs['E_N_boson_fullspectrum']} > blockwise {qs['E_N_boson']}")
    return problems


# ------------------------------------------------------------ CLI ops


def parse_kv(stdout: str) -> dict[str, float]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = float(value)
    return out


def check_cli(kind: str, expect: dict, stdout: str) -> list[str]:
    """Checks the printed `key = value` lines of one CLI op."""
    got = parse_kv(stdout)
    want: dict[str, float] = {}
    if kind == "geom-static":
        d, r_h = expect["d"], expect["r_h"]
        kappa = static_kappa(d, r_h)
        want = {"r_h": r_h, "kappa": kappa, "T": kappa / (2.0 * math.pi),
                "M": static_mass_from_rh(d, r_h), "Omega": 0.0}
    elif kind == "geom-rotating":
        n, mu, a_star = expect["n"], expect["mu"], expect["a_star"]
        r_h = rotating_rh(n, mu, a_star)
        kappa, omega_h = rotating_kappa_omega(n, r_h, a_star)
        want = {"r_h": r_h, "kappa": kappa, "Omega": omega_h, "a_star": a_star}
        if "r_h" in got:
            a = expect["a"]
            scale = max(r_h * r_h, a * a, mu * r_h ** (1 - n))
            if abs(rotating_delta(n, mu, a, got["r_h"])) > 1e-8 * scale:
                return [f"Delta(r_h) = {rotating_delta(n, mu, a, got['r_h'])} is not ~0"]
    elif kind == "entangle-boson":
        x = expect["x"]
        want = {"r": boson_r(x)}
        en = got.get("E_N", math.nan)
        if not close(en, boson_en(x), PRINT_RTOL, EN_BOSON_ATOL):
            return [f"E_N {en} != polylog reference {boson_en(x)}"]
        if not EN_BOSON_FLOOR <= en <= 1.0:
            return [f"E_N {en} outside [{EN_BOSON_FLOOR}, 1]"]
    elif kind == "entangle-fermion":
        x = expect["x"]
        want = {"E_N": fermion_en(x), "r": math.atan(math.exp(-x))}
    elif kind == "teleport-boson":
        want = {"F": boson_f_stated(expect["x"])}
    elif kind == "teleport-fermion":
        want = {"F": fermion_cos2(expect["x"])}
        if got.get("F", 0.0) < 0.5:
            return [f"fermion F {got.get('F')} < 1/2"]
    elif kind == "tev":
        want = tev_scales(expect["n"], expect["mstar"], expect["mbh"])
    elif kind == "estimate":
        want = {"rho_J_per_m3": 4.0 * SIGMA_SB / C_LIGHT * expect["temp"] ** 4}
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{kind}: missing {key}")
        elif not close(got[key], ref, PRINT_RTOL, 1e-300):
            problems.append(f"{kind}: {key} = {got[key]}, reference {ref}")
    return problems


def classify_fault_op(returncode: int, stderr: str, expected_codes: tuple[int, ...], csv_text: str | None) -> bool:
    """True when an op on bad input ends as documented.

    That is: one of the expected exit codes, exactly one `error:` line, no
    traceback, and no CSV made entirely of NA cells.
    """
    if returncode not in expected_codes:
        return False
    if "Traceback" in stderr:
        return False
    if sum(line.startswith("error:") for line in stderr.splitlines()) != 1:
        return False
    if csv_text:
        cells = [f for line in csv_text.splitlines()[1:] for f in line.split(",")[1:]]
        if cells and all(c.startswith("NA") for c in cells):
            return False
    return True
