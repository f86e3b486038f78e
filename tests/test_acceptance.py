"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -rA tests/test_acceptance.py` to see every verdict line in
the summary.  Frozen reference values come from the package's own oracle
constructions (recorded before the closed forms were wired up) and from
order-of-magnitude estimates; tolerances are pinned per criterion.
"""

import math
import time

import numpy as np

from bhent import channels, estimates, fock_oracle, geometry, kernels, modes, reports, sweep
from helpers import dense
from scipy.integrate import quad


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {tag}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_ac01_bell_baseline():
    start = time.monotonic()
    eps = 1e-12
    sq_b = modes.squeeze_boson(1.0, 1e-9)
    sq_f = modes.squeeze_fermion(1.0, 1e-9)
    ok = (
        abs(channels.log_negativity_boson(sq_b.r).value - 1.0) <= eps
        and abs(channels.fidelity_boson(modes.squeeze_boson(1.0, 1e-9)) - 1.0) <= eps
        and abs(channels.log_negativity_fermion(sq_f.r) - 1.0) <= eps
        and abs(channels.fidelity_fermion(sq_f) - 1.0) <= eps
    )
    elapsed = time.monotonic() - start
    verdict("AC1 Bell baseline (E_N = F = 1 as kappa -> 0)", ok and elapsed < 1.0)


def test_ac02_fermionic_saturation():
    start = time.monotonic()
    sq = modes.squeeze_fermion(1.0, 1e12)
    e_n = channels.log_negativity_fermion(sq.r)
    f = channels.fidelity_fermion(sq)
    ok = abs(e_n - math.log2(1.5)) <= 1e-9 and abs(f - 0.5) <= 1e-9
    elapsed = time.monotonic() - start
    verdict(
        "AC2 fermionic saturation (E_N -> log2(3/2), F -> 1/2)",
        ok and elapsed < 1.0,
        f"E_N={e_n:.12f}",
    )


def test_ac03_bosonic_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for tanh_r in (0.1, 0.3, 0.5, 0.7):
        r = math.atanh(tanh_r)
        series = channels.log_negativity_boson(r, 1e-12).value
        oracle = fock_oracle.blockwise_negativity_bosonic(r, 40).log_negativity
        worst = max(worst, abs(series - oracle))
    pinned = channels.log_negativity_boson(math.atanh(0.5), 1e-12).value
    ok = worst < 1e-8 and abs(pinned - 0.98373) <= 1e-4
    elapsed = time.monotonic() - start
    verdict(
        "AC3 bosonic negativity series vs Fock oracle",
        ok and elapsed < 10.0,
        f"max diff {worst:.2e}, E_N(0.5)={pinned:.5f}",
    )


def test_ac04_eigenvalue_formulas():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(0.05, 1.2))
        n = int(rng.integers(0, 8))
        diff_b = abs(
            channels.neg_eigenvalue_boson(r, n)
            - fock_oracle.blockwise_negative_eigenvalue(r, n)
        )
        rf = float(rng.uniform(0.0, math.pi / 4))
        pt = fock_oracle.partial_transpose(fock_oracle.bell_state_fermionic(rf))
        eig = kernels.jacobi_eigh(dense(pt))
        diff_f = abs(float(eig[0]) + math.cos(rf) ** 2 / 2.0)
        worst = max(worst, diff_b, diff_f)
    ok = worst < 1e-10
    elapsed = time.monotonic() - start
    verdict(
        "AC4 closed-form PPT eigenvalues vs oracle", ok and elapsed < 10.0,
        f"max diff {worst:.2e}",
    )


def test_ac05_fermionic_teleportation_identity():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(0.0, math.pi / 4))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
        outcome = (int(rng.integers(2)), int(rng.integers(2)))
        x, y = qubit.conditional(*outcome)
        fid = fock_oracle.fidelity_numeric(
            fock_oracle.bob_post_state_fermionic(r, qubit, outcome),
            fock_oracle.dual_rail_target(x, y),
        )
        worst = max(worst, abs(fid - math.cos(r) ** 2))
    ok = worst < 1e-12
    elapsed = time.monotonic() - start
    verdict(
        "AC5 fermionic fidelity = cos^2 r for 100 random qubits",
        ok and elapsed < 5.0,
        f"max diff {worst:.2e}",
    )


def test_ac06_monotonicity_suite():
    start = time.monotonic()
    slack = 1e-12
    violations = 0

    # E_N and F non-increasing in kappa at fixed omega, both statistics
    kappas = [10.0 ** (-2 + 4.0 * i / 49) for i in range(50)]
    for statistics in (modes.BOSON, modes.FERMION):
        prev_en = prev_f = math.inf
        for kappa in kappas:
            sq = modes.squeeze(1.0, kappa, statistics)
            if statistics == modes.BOSON:
                e_n = channels.log_negativity_boson(sq.r, 1e-12).value
                f = channels.fidelity_boson(modes.squeeze_boson(1.0, kappa))
            else:
                e_n = channels.log_negativity_fermion(sq.r)
                f = channels.fidelity_fermion(sq)
            if e_n > prev_en + slack or f > prev_f + slack:
                violations += 1
            prev_en, prev_f = e_n, f

    # E_N decreasing in extra dimensions at fixed mass and frequency
    for mass in [1.0 + 9.0 * i / 7 for i in range(8)]:
        prev = math.inf
        for n in range(1, 8):
            kappa = geometry.SchwarzschildBH.from_mass(4 + n, mass).kappa
            e_n = channels.log_negativity_boson(
                modes.squeeze_boson(1.0, kappa).r, 1e-12
            ).value
            if e_n > prev + slack:
                violations += 1
            prev = e_n

    # E_N non-decreasing in a_* for one extra dimension, m = 0
    prev = -math.inf
    for i in range(50):
        a_star = 0.9 * i / 49
        bh = geometry.RotatingBH.from_a_star(1, 2.0, a_star)
        e_n = channels.log_negativity_boson(
            modes.squeeze_boson(1.0, bh.kappa).r, 1e-12
        ).value
        if e_n < prev - slack:
            violations += 1
        prev = e_n

    elapsed = time.monotonic() - start
    verdict(
        "AC6 monotonicity suite (kappa, extra dimensions, spin)",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations",
    )


def test_ac07_estimates():
    start = time.monotonic()
    t_couple = estimates.coupling_time(
        None, estimates.CavitySpec(1.0, 1.0), t_bh=1e-8
    ).time_s
    t_sun = estimates.hawking_temperature_si(estimates.M_SUN)
    scales = geometry.tev_scales(2, 1.0, 5.0)
    ok = (
        1e18 <= t_couple <= 1e20
        and 1e-9 <= t_sun <= 1e-7
        and 2.6e-19 / 3.0 <= scales["r_h_4n"] <= 2.6e-19 * 3.0
        and 1e-32 <= scales["ratio_4_over_4n"] <= 1e-28
    )
    elapsed = time.monotonic() - start
    verdict(
        "AC7 SI and TeV estimates within stated decades",
        ok and elapsed < 1.0,
        f"t={t_couple:.2e} s, T_sun={t_sun:.2e} K, r_h={scales['r_h_4n']:.2e} m",
    )


def test_ac08_bosonic_fidelity_cross_check(tmp_path):
    start = time.monotonic()
    rows = reports.fidelity_boson_rows([math.log(2.0), 1.5, 3.0])
    reports.write_report_csv(rows, str(tmp_path / "fidelity_report.csv"))
    verdict_rows = [row for row in rows if row[0] == "F_boson_verdict"]
    named = len(verdict_rows) == 1 and "matches" in verdict_rows[0][5] and (
        "mixed" not in verdict_rows[0][5]
    )
    elapsed = time.monotonic() - start
    verdict(
        "AC8 bosonic fidelity report names the matching closed form",
        named and elapsed < 10.0,
        verdict_rows[0][5] if verdict_rows else "no verdict row",
    )


def test_ac09_geometry_invariants():
    start = time.monotonic()
    ok = (
        abs(geometry.horizon_from_mass(4, 1.0) - 2.0) < 1e-12
        and abs(geometry.surface_gravity_schw(4, 2.0) - 0.25) < 1e-15
    )
    for d in range(4, 9):
        closed = geometry.tortoise(d, 1.0, 5.0) - geometry.tortoise(d, 1.0, 1.5)
        numeric, _ = quad(
            lambda r: 1.0 / geometry.lapse(d, 1.0, r), 1.5, 5.0, epsabs=1e-12, epsrel=1e-12
        )
        ok = ok and abs(closed - numeric) < 1e-8
    for n, mu, a in [(0, 2.0, 0.5), (1, 2.0, 1.0), (3, 1.5, 0.8)]:
        r_h = geometry.rotating_horizon(n, mu, a)
        scale = max(r_h * r_h, a * a, mu * r_h ** (1 - n))
        ok = ok and abs(geometry._delta(n, mu, a, r_h)) <= 1e-12 * scale
    elapsed = time.monotonic() - start
    verdict("AC9 geometry invariants (reductions, tortoise, horizons)", ok and elapsed < 10.0)


def test_ac10_mini_black_hole_bounds():
    start = time.monotonic()
    boson = sweep.minibh_bounds(modes.BOSON)
    fermion = sweep.minibh_bounds(modes.FERMION)
    print(
        "[acceptance] AC10 report: "
        f"boson E_N max {boson.e_n_max:.4f} (quoted 0.77), "
        f"boson F max {boson.f_max:.4f} (quoted 0.25), "
        f"fermion E_N max {fermion.e_n_max:.4f} (quoted 0.73), "
        f"fermion F max {fermion.f_max:.4f} (quoted 0.65)"
    )
    ok = (
        math.log2(1.5) - 1e-12 <= fermion.e_n_max <= 1.0 + 1e-12
        and 0.5 - 1e-12 <= fermion.f_max <= 1.0 + 1e-12
    )
    elapsed = time.monotonic() - start
    verdict(
        "AC10 mini-black-hole extrema report and fermionic bounds",
        ok and elapsed < 30.0,
    )
