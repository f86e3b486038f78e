"""Workload inputs, generated from the seed alone.

The seed moves parameter values inside bands chosen so that an op's cost
hardly depends on the seed: CLI ops are dominated by import, figure-grid
cells stay far from the horizon (a few dozen series terms), and near-horizon
cells are placed by omega*r_h, which fixes tanh^2 r whatever the mass.  No
near-horizon cell lies within 9% (in x) of the 0.9999 polylog switch, where
one cell's cost jumps between the 2e5-term series and the polylog branch.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import refs

WORKLOADS = ("cli-oneshot", "sweep-figures", "sweep-nearhorizon", "oracle")
DOCS_RECIPES = (
    "fig_fermion_fidelity_vs_kappa.cfg",
    "fig_negativity_vs_dims_mass.cfg",
    "fig_negativity_vs_kappa_omega.cfg",
    "fig_negativity_vs_spin.cfg",
)
# The one recipe the CLI mix runs: 19 rotating cells.
CLI_RECIPE = "fig_negativity_vs_spin.cfg"
CLI_ROUND_VARIANTS = 4
ORACLE_TRUNC = 40
ORACLE_POINTS = 4


@dataclass(frozen=True)
class Grid:
    """One sweep: axes (name, lo, hi, count, scale), fixed values, outputs."""

    name: str
    axes: tuple[tuple, ...]
    fixed: dict
    outputs: tuple[str, ...]

    @property
    def rows(self) -> int:
        return math.prod(ax[3] for ax in self.axes)


@dataclass(frozen=True)
class CliOp:
    """One `python -m bhent.cli` call.

    expect holds what the reference needs.  fault_codes is non-empty for an
    op on bad input: it passes only if it ends with one of those codes and
    one `error:` line.  csv marks an op that takes `--out <path>`.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    fault_codes: tuple[int, ...] = ()
    csv: bool = False


def read_recipe(path: str) -> Grid:
    """Parses a docs/*.cfg recipe: `key = value` lines, `#` comments."""
    axes, fixed, outputs = [], {}, ("E_N",)
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = (s.strip() for s in line.split("=", 1))
            if key == "axis":
                parts = value.split(":") + ["linear"]
                axes.append((parts[0], float(parts[1]), float(parts[2]), int(parts[3]), parts[4]))
            elif key == "fixed":
                name, val = (s.strip() for s in value.split("=", 1))
                fixed[name] = val if name == "statistics" else float(val)
            elif key == "output":
                outputs = tuple(value.replace(" ", "").split(","))
    return Grid(os.path.basename(path), tuple(axes), fixed, outputs)


def _f(value: float) -> str:
    return repr(float(value))


def _cli_round(rng: random.Random, root: str, x_boson: float) -> list[CliOp]:
    ops = []
    mass = rng.uniform(0.5, 20.0)
    ops.append(CliOp("geom-static", ("geom", "--d", "4", "--mass", _f(mass)),
                     {"d": 4, "r_h": refs.static_rh_from_mass(4, mass)}))
    d, r_h = rng.randint(5, 11), rng.uniform(0.2, 5.0)
    ops.append(CliOp("geom-static", ("geom", "--d", str(d), "--rh", _f(r_h)), {"d": d, "r_h": r_h}))

    n, mu, a_star = rng.randint(1, 7), rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.9)
    a = a_star * refs.rotating_rh(n, mu, a_star)
    ops.append(CliOp("geom-rotating", ("geom", "--n", str(n), "--mu", _f(mu), "--a", _f(a)),
                     {"n": n, "mu": mu, "a": a, "a_star": a_star}))

    d, r_h = rng.randint(4, 11), rng.uniform(0.2, 5.0)
    kappa = refs.static_kappa(d, r_h)
    omega = x_boson * kappa / math.pi
    ops.append(CliOp("entangle-boson",
                     ("entangle", "--d", str(d), "--rh", _f(r_h), "--omega", _f(omega)),
                     {"x": math.pi * omega / kappa}))

    kappa, omega = rng.uniform(0.1, 5.0), rng.uniform(0.05, 5.0)
    ops.append(CliOp("entangle-fermion",
                     ("entangle", "--kappa", _f(kappa), "--omega", _f(omega), "--statistics", "fermion"),
                     {"x": math.pi * omega / kappa}))

    n, mu, a_star = rng.randint(1, 7), rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.9)
    r_h = refs.rotating_rh(n, mu, a_star)
    kappa, _ = refs.rotating_kappa_omega(n, r_h, a_star)
    omega = rng.uniform(0.1, 3.0) * kappa / math.pi
    ops.append(CliOp("teleport-boson",
                     ("teleport", "--n", str(n), "--mu", _f(mu), "--a", _f(a_star * r_h),
                      "--omega", _f(omega), "--m", "0"),
                     {"x": math.pi * omega / kappa}))

    kappa, omega = rng.uniform(0.1, 5.0), rng.uniform(0.05, 5.0)
    ops.append(CliOp("teleport-fermion",
                     ("teleport", "--kappa", _f(kappa), "--omega", _f(omega), "--statistics", "fermion"),
                     {"x": math.pi * omega / kappa}))

    n, mstar = rng.randint(1, 7), rng.uniform(1.0, 10.0)
    mbh = mstar * rng.uniform(2.0, 50.0)
    ops.append(CliOp("tev", ("tev", "--n", str(n), "--mstar", _f(mstar), "--mbh", _f(mbh)),
                     {"n": n, "mstar": mstar, "mbh": mbh}))

    temp = 10.0 ** rng.uniform(0.0, 4.0)
    ops.append(CliOp("estimate", ("estimate", "radiation-density", "--temp", _f(temp)), {"temp": temp}))

    recipe = read_recipe(os.path.join(root, "docs", CLI_RECIPE))
    ops.append(CliOp("sweep", ("sweep", "--config", os.path.join("docs", CLI_RECIPE)),
                     {"grid": recipe}, csv=True))

    # Bad inputs whose documented outcome is exit 3 (2 or 3 for the sweep)
    # with one error line.  They do not depend on the seed.
    ops.append(CliOp("fault-kappa-inf", ("entangle", "--kappa", "inf", "--omega", "1"), fault_codes=(3,)))
    ops.append(CliOp("fault-rh-nan", ("geom", "--d", "4", "--rh", "nan"), fault_codes=(3,)))
    ops.append(CliOp("fault-statistics", ("sweep", "--axis", "omega:0.2:1.0:3", "--fixed", "d=4",
                                          "--fixed", "r_h=1", "--fixed", "statistics=bosn"),
                     fault_codes=(2, 3), csv=True))
    rng.shuffle(ops)
    return ops


def cli_rounds(seed: int, root: str) -> list[list[CliOp]]:
    """CLI_ROUND_VARIANTS rounds; each holds every op kind once, in seeded order.

    The rounds share one bosonic x, so each round sums the same number of
    series terms and per-op layer counts do not depend on how many rounds ran.
    """
    rng = random.Random(seed)
    x_boson = rng.uniform(0.05, 3.0)
    return [_cli_round(rng, root, x_boson) for _ in range(CLI_ROUND_VARIANTS)]


def figure_grids(seed: int, root: str) -> list[Grid]:
    """The four docs recipes plus seeded static and rotating figure grids."""
    rng = random.Random(seed)
    grids = [read_recipe(os.path.join(root, "docs", name)) for name in DOCS_RECIPES]
    # omega >= 0.5 keeps x = pi omega / kappa >= 0.3 on every static cell
    # (d = 11, smallest mass), so no cell needs more than ~60 series terms.
    m_lo, w_lo = rng.uniform(0.5, 1.0), rng.uniform(0.5, 0.7)
    w_hi = rng.uniform(2.0, 3.0)
    rh_lo = rng.uniform(0.2, 0.5)
    mu, a_hi = rng.uniform(1.0, 4.0), rng.uniform(0.6, 0.9)
    d_axis = ("d", 4.0, 11.0, 8, "linear")
    n_axis = ("n", 1.0, 7.0, 7, "linear")
    w_axis = ("omega", w_lo, w_hi, 6, "linear")
    for stats in ("boson", "fermion"):
        grids.append(Grid(f"static-mass-{stats}",
                          (d_axis, ("M", m_lo, m_lo * rng.uniform(8.0, 12.0), 6, "log"), w_axis),
                          {"statistics": stats}, ("E_N", "F")))
        grids.append(Grid(f"rotating-{stats}",
                          (n_axis, ("a_star", 0.0, a_hi, 6, "linear"), ("omega", w_lo, w_hi, 5, "linear")),
                          {"mu": mu, "m": 0.0, "statistics": stats}, ("E_N", "F")))
    grids.append(Grid("static-rh-fermion",
                      (d_axis, ("r_h", rh_lo, rh_lo * rng.uniform(10.0, 20.0), 6, "log"), w_axis),
                      {"statistics": "fermion"}, ("E_N", "F")))
    return grids


def nearhorizon_grids(seed: int) -> list[Grid]:
    """Bosonic cells with tanh^2 r from ~0.98 to 0.99999.

    x = 2 pi omega_rh / (d - 3) on the static grid and pi omega_rh / (kappa
    r_h) on the rotating one, so the seed, which sets the mass scale (M, mu)
    and through it kappa, leaves tanh^2 r, the series terms and the polylog
    calls the same for every seed.
    """
    rng = random.Random(seed)
    omega_rh = ("omega_rh", 10.0**-5.5, 10.0**-2.75)
    outputs = ("kappa", "r", "E_N")
    return [
        Grid("nearhorizon-static",
             (("d", 4.0, 11.0, 8, "linear"), omega_rh + (4, "log")),
             {"M": rng.uniform(0.5, 20.0), "statistics": "boson"}, outputs),
        Grid("nearhorizon-rotating",
             (("n", 1.0, 7.0, 7, "linear"), omega_rh + (3, "log")),
             {"mu": rng.uniform(0.5, 5.0), "a_star": 0.25, "m": 0.0, "statistics": "boson"}, outputs),
    ]


def oracle_points(seed: int) -> list[float]:
    """ORACLE_POINTS tanh r values in [0.1, 0.7], three decimals, distinct."""
    rng = random.Random(seed)
    return [k / 1000.0 for k in sorted(rng.sample(range(100, 701), ORACLE_POINTS))]


def to_spec(grid: Grid):
    """The bhent.sweep.SweepSpec of a grid."""
    from bhent import sweep

    axes = tuple(sweep.Axis(*ax) for ax in grid.axes)
    return sweep.SweepSpec(axes, dict(grid.fixed), grid.outputs)


def build(workload: str, seed: int, root: str):
    """Every input one run of the workload uses."""
    if workload == "cli-oneshot":
        return cli_rounds(seed, root)
    if workload == "sweep-figures":
        return [(g, to_spec(g)) for g in figure_grids(seed, root)]
    if workload == "sweep-nearhorizon":
        return [(g, to_spec(g)) for g in nearhorizon_grids(seed)]
    if workload == "oracle":
        return oracle_points(seed)
    raise ValueError(f"unknown workload {workload!r}")
