"""Tests of the benchmark's own references, checkers and input generator.

Run from the repository root:  python3 -m pytest perfbench/tests -q
Each reference is compared with an evaluation made another way.
"""

import itertools
import math
import os
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import inputs  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
# tanh^2 r = 0.9999, where bhent leaves the series for the polylog.
X_POLYLOG_SWITCH = -math.log(0.9999) / 2.0


def grid_cells(grid):
    """Parameters of every cell of a grid, in the sweep's row-major order."""
    values = []
    for _, lo, hi, count, scale in grid.axes:
        if scale == "log":
            lo, hi = math.log(lo), math.log(hi)
        points = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
        values.append([math.exp(p) for p in points] if scale == "log" else points)
    for coords in itertools.product(*values):
        yield dict(grid.fixed, **{ax[0]: v for ax, v in zip(grid.axes, coords)})


def direct_series(t: float, dps: int = 40) -> float:
    """sum_n t^n sqrt(n+1), summed term by term at high precision."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        total, n = mpmath.mpf(0), 0
        while True:
            term = t**n * mpmath.sqrt(n + 1)
            total += term
            if term < mpmath.mpf(10) ** (-dps):
                return total
            n += 1


@pytest.mark.parametrize("t", [0.5, 0.1, 0.9])
def test_polylog_reference_matches_direct_sum(t):
    with mpmath.workdps(30):
        via_polylog = mpmath.polylog(-0.5, t) / t
    assert abs(via_polylog - direct_series(t)) < 1e-25


@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 3.0])
def test_boson_en_matches_series_and_block_eigenvalues(x):
    t = math.exp(-2 * x)
    en_series = math.log2(1 + float(direct_series(t)) * (1 - t) ** 1.5)
    r = refs.boson_r(x)
    negativity = -sum(refs.lambda_n(r, n) for n in range(4000))
    assert refs.boson_en(x) == pytest.approx(en_series, abs=1e-14)
    assert refs.boson_en(x) == pytest.approx(math.log2(1 + 2 * negativity), abs=1e-12)
    assert refs.EN_BOSON_FLOOR < refs.boson_en(x) <= 1.0


def test_boson_en_falls_with_kappa_towards_floor():
    xs = [1e-6, 1e-4, 1e-2, 1.0, 10.0]
    values = [refs.boson_en(x) for x in xs]
    assert values == sorted(values)
    assert values[0] == pytest.approx(refs.EN_BOSON_FLOOR, abs=1e-3)


def test_boson_r_is_atanh():
    assert math.tanh(refs.boson_r(0.7)) == pytest.approx(math.exp(-0.7), rel=1e-15)


def test_static_geometry():
    assert refs.static_rh_from_mass(4, 3.5) == 7.0
    assert refs.sphere_volume(1) == pytest.approx(2 * math.pi)
    assert refs.sphere_volume(2) == pytest.approx(4 * math.pi)
    assert refs.sphere_volume(3) == pytest.approx(2 * math.pi**2)
    for d in range(5, 12):
        r_h = refs.static_rh_from_mass(d, 2.0)
        assert refs.static_mass_from_rh(d, r_h) == pytest.approx(2.0, rel=1e-14)
    # the general formula agrees with r_h = 2M at d = 4
    general = 16 * math.pi * 3.5 / (2 * refs.sphere_volume(2))
    assert general == pytest.approx(7.0, rel=1e-15)
    assert refs.static_kappa(4, 1.0) == 0.5


@pytest.mark.parametrize("n", range(1, 8))
def test_rotating_horizon_root(n):
    mu, a_star = 2.5, 0.6
    r_h = refs.rotating_rh(n, mu, a_star)
    a = a_star * r_h
    assert abs(refs.rotating_delta(n, mu, a, r_h)) < 1e-13 * max(r_h * r_h, mu * r_h ** (1 - n))
    kappa, omega = refs.rotating_kappa_omega(n, r_h, 0.0)
    assert kappa == pytest.approx((n + 1) / (2 * r_h)) and omega == 0.0


@pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 40.0])
def test_fermion_channel(x):
    r = math.atan(math.exp(-x))
    assert refs.fermion_cos2(x) == pytest.approx(math.cos(r) ** 2, rel=1e-15)
    assert refs.fermion_en(x) == pytest.approx(math.log2(1 + math.cos(r) ** 2), rel=1e-15)
    assert refs.fermion_cos2(x) >= 0.5


def test_bosonic_fidelities():
    x = math.log(2.0)
    assert refs.boson_f_stated(x) == pytest.approx(0.125)
    assert refs.boson_f_sech6(x) == pytest.approx(1 / math.cosh(math.atanh(0.5)) ** 6)


def test_tev_scales_hand_value():
    scales = refs.tev_scales(2, 1.0, 5.0)
    assert scales["R"] == pytest.approx(1.22e16 * 1.9733e-19)
    assert scales["ratio_direct"] == pytest.approx(scales["r_h_4"] / scales["r_h_4n"])


def test_radiation_constant():
    assert 4 * refs.SIGMA_SB / refs.C_LIGHT == pytest.approx(7.5657e-16, rel=1e-4)


# ------------------------------------------------------------- checkers


def sweep_csv(grid, perturb_row=None):
    lines = [",".join([a[0] for a in grid.axes] + list(grid.outputs))]
    for i, cell in enumerate(grid_cells(grid)):
        x, kappa = refs.cell_x(cell)
        values = {"kappa": kappa, "r": refs.boson_r(x), "E_N": refs.boson_en(x), "F": refs.boson_f_stated(x)}
        if i == perturb_row:
            values["E_N"] += 1e-9
        lines.append(",".join([format(cell[a[0]], ".17g") for a in grid.axes]
                              + [format(values[o], ".17g") for o in grid.outputs]))
    return "\n".join(lines) + "\n"


def test_sweep_checker_accepts_references_and_catches_a_wrong_cell():
    grid = inputs.nearhorizon_grids(5)[1]
    good = sweep_csv(grid)
    assert refs.check_sweep_csv(good, grid, 1) == []
    assert any("row 4" in p for p in refs.check_sweep_csv(sweep_csv(grid, perturb_row=4), grid, 1))
    na = good.replace(good.splitlines()[1], "1,1,NA:domain,NA:domain,NA:domain")
    assert any("NA" in p for p in refs.check_sweep_csv(na, grid, 1))
    assert any("data rows" in p for p in refs.check_sweep_csv(good + good.splitlines()[1] + "\n", grid, 1))


def test_oracle_checker_wants_the_cosh6_verdict():
    text = refs.REPORT_HEADER + "\nF_boson_verdict,all,nan,nan,nan,construction matches the stated exponent\n"
    assert any("cosh^-6 r" in p for p in refs.check_oracle_csv(text, [], 40))


def test_fault_classifier():
    traceback = "Traceback (most recent call last):\n  ...\nValueError: math domain error\n"
    assert not refs.classify_fault_op(1, traceback, (3,), None)
    assert refs.classify_fault_op(3, "error: kappa must be finite\n", (3,), None)
    assert not refs.classify_fault_op(0, "", (3,), None)  # prints r_h = nan and exits 0
    assert not refs.classify_fault_op(3, "error: a\nerror: b\n", (3,), None)
    all_na = "omega,E_N\n0.2,NA:domain\n0.6,NA:domain\n1,NA:domain\n"
    assert not refs.classify_fault_op(0, "", (2, 3), all_na)
    assert refs.classify_fault_op(2, "usage: ...\nerror: bad statistics\n", (2, 3), None)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:      1000 |       1300 |   scipy.optimize",
        "import time:        50 |         50 |   numpy",
        "import time:        20 |       1370 | bhent.geometry",
        "import time:        30 |       1400 | bhent.cli",
        "import time:        10 |         10 | json",
    ])
    got = tracing.parse_importtime(stderr)
    assert got == {"import.bhent_cli_ms": 1.4, "import.scipy_ms": 1.3}


# --------------------------------------------------------------- inputs


@pytest.mark.parametrize("seed", range(0, 200, 7))
def test_nearhorizon_cells_avoid_the_polylog_switch(seed):
    xs = [refs.cell_x(cell)[0] for grid in inputs.nearhorizon_grids(seed) for cell in grid_cells(grid)]
    assert min(abs(math.log(x / X_POLYLOG_SWITCH)) for x in xs) > 0.085
    assert max(math.exp(-2 * x) for x in xs) > 0.99999 and min(math.exp(-2 * x) for x in xs) < 0.99


@pytest.mark.parametrize("seed", range(0, 200, 7))
def test_bosonic_figure_cells_stay_off_the_horizon(seed):
    seeded = [g for g in inputs.figure_grids(seed, ROOT)[len(inputs.DOCS_RECIPES):]
              if g.fixed["statistics"] == "boson"]
    assert seeded
    for grid in seeded:
        for cell in grid_cells(grid):
            assert refs.cell_x(cell)[0] >= 0.3


def test_inputs_repeat_for_a_seed():
    assert inputs.cli_rounds(3, ROOT) == inputs.cli_rounds(3, ROOT)
    assert inputs.figure_grids(3, ROOT) == inputs.figure_grids(3, ROOT)
    assert inputs.oracle_points(3) == inputs.oracle_points(3) != inputs.oracle_points(4)
    points = inputs.oracle_points(3)
    assert all(0.1 <= p <= 0.7 for p in points) and len(set(points)) == inputs.ORACLE_POINTS
