"""Parameter sweeps producing deterministic plot-ready CSV tables.

A sweep is a grid over up to three axes drawn from a fixed parameter
vocabulary, plus fixed parameters; each grid cell is resolved to a black hole
geometry and mode, and the requested outputs are evaluated independently per
cell.  Physics errors inside a cell become `NA:<reason>` tokens instead of
aborting the run, so superradiant or horizonless corners of a grid are data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from bhent import channels, geometry, modes
from bhent.errors import NakedSingularityError, PhysicsDomainError, SuperradiantModeError

PARAMETER_VOCABULARY = frozenset(
    {"d", "n", "M", "mu", "r_h", "a", "a_star", "omega", "omega_rh", "m", "statistics", "tol"}
)
OUTPUT_VOCABULARY = ("kappa", "Omega", "r", "N_occ", "E_N", "F")
INTEGER_PARAMETERS = frozenset({"d", "n", "m"})


def _check_value(name: str, value) -> None:
    """Check one sweep parameter value.

    statistics must come from the vocabulary; every other value must be
    finite, d, n and m integral (4.0 is accepted, 4.7 is not), and tol a
    series tolerance that channels accepts.
    """
    if name == "statistics":
        if value not in (modes.BOSON, modes.FERMION):
            raise PhysicsDomainError(
                f"statistics must be {modes.BOSON!r} or {modes.FERMION!r}, got {value!r}"
            )
        return
    if not math.isfinite(value):
        raise PhysicsDomainError(f"sweep parameter {name} must be finite, got {value}")
    if name in INTEGER_PARAMETERS and value != int(value):
        raise PhysicsDomainError(f"sweep parameter {name} must be an integer, got {value}")
    if name == "tol":
        channels.check_series_tol(value)


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in PARAMETER_VOCABULARY:
            raise PhysicsDomainError(f"unknown sweep parameter {self.name!r}")
        if self.count < 2:
            raise PhysicsDomainError(f"axis {self.name} needs at least 2 points")
        if self.scale not in ("linear", "log"):
            raise PhysicsDomainError(f"axis scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.lo <= 0 or self.hi <= 0):
            raise PhysicsDomainError(f"log axis {self.name} needs positive endpoints")

    def values(self) -> list[float]:
        if self.scale == "log":
            llo, lhi = math.log(self.lo), math.log(self.hi)
            return [math.exp(llo + (lhi - llo) * i / (self.count - 1)) for i in range(self.count)]
        return [self.lo + (self.hi - self.lo) * i / (self.count - 1) for i in range(self.count)]


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[Axis, ...]
    fixed: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ("E_N",)

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 3:
            raise PhysicsDomainError("a sweep needs between 1 and 3 axes")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise PhysicsDomainError("duplicate axis names")
        for key, value in self.fixed.items():
            if key not in PARAMETER_VOCABULARY:
                raise PhysicsDomainError(f"unknown fixed parameter {key!r}")
            _check_value(key, value)
        for ax in self.axes:
            if not (math.isfinite(ax.lo) and math.isfinite(ax.hi)):
                raise PhysicsDomainError(
                    f"axis {ax.name} needs finite endpoints, got {ax.lo}, {ax.hi}"
                )
            for value in ax.values():
                _check_value(ax.name, value)
        for out in self.outputs:
            if out not in OUTPUT_VOCABULARY:
                raise PhysicsDomainError(f"unknown output {out!r}")
        if not self.outputs:
            raise PhysicsDomainError("at least one output is required")
        names = set(self.fixed).union(names)
        gap = geometry_gap(names)
        if gap:
            raise PhysicsDomainError(gap)
        if not names & {"omega", "omega_rh"}:
            raise PhysicsDomainError("a sweep needs omega or omega_rh")

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + list(self.outputs)

    def grid(self):
        """Row-major cartesian product of axis values: the last axis varies fastest."""
        return itertools.product(*(ax.values() for ax in self.axes))


def _token_for(exc: PhysicsDomainError) -> str:
    """The NA token a cell outside the physical domain writes."""
    if isinstance(exc, SuperradiantModeError):
        return "NA:superradiant"
    if isinstance(exc, NakedSingularityError):
        return "NA:naked_singularity"
    return "NA:domain"


def geometry_gap(names) -> str:
    """Why `names` select no geometry route, or "" when they select one.

    Static route: d plus r_h or M.  Rotating route: n plus mu, and a or
    a_star (a = 0 without either).  d takes precedence over n.
    """
    if "d" in names:
        return "" if "r_h" in names or "M" in names else "static geometry needs r_h or M with d"
    if "n" in names:
        return "" if "mu" in names else "rotating geometry needs mu with n"
    return "geometry needs d (static) or n (rotating)"


def resolve_geometry(params: dict) -> geometry.SchwarzschildBH | geometry.RotatingBH:
    """Resolve cell parameters to the hole of the route geometry_gap names."""
    if "d" in params:
        d = int(params["d"])
        if "r_h" in params:
            return geometry.SchwarzschildBH(d, float(params["r_h"]))
        if "M" in params:
            return geometry.SchwarzschildBH.from_mass(d, float(params["M"]))
    elif "n" in params and "mu" in params:
        n, mu = int(params["n"]), float(params["mu"])
        if "a" in params:
            return geometry.RotatingBH(n, mu, float(params["a"]))
        if "a_star" in params:
            return geometry.RotatingBH.from_a_star(n, mu, float(params["a_star"]))
        return geometry.RotatingBH(n, mu, 0.0)
    raise PhysicsDomainError(geometry_gap(params))


def evaluate_cell(params: dict) -> dict[str, float | str]:
    """Evaluate every supported output for one grid cell.

    Returns finite floats, or NA tokens for cells outside the physical
    domain.  Pure function of `params`; cells are independent.
    """
    statistics = str(params.get("statistics", modes.BOSON))
    m = int(params.get("m", 0))
    tol = float(params.get("tol", channels.DEFAULT_SERIES_TOL))
    try:
        bh = resolve_geometry(params)
        if "omega" in params:
            omega = float(params["omega"])
        elif "omega_rh" in params:
            omega = float(params["omega_rh"]) / bh.r_h
        else:
            raise PhysicsDomainError("cell needs omega or omega_rh")
        kappa = bh.kappa
        r, n_occ, fid, neg = channels.mode_point(omega, m, statistics, kappa, bh.omega_h, tol)
    except PhysicsDomainError as exc:  # physics errors become data
        token = _token_for(exc)
        return {name: token for name in OUTPUT_VOCABULARY}
    return {"kappa": kappa, "Omega": bh.omega_h, "r": r, "N_occ": n_occ, "E_N": neg.value, "F": fid}


def format_value(value) -> str:
    """The CSV text of one value: floats to 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def run_sweep(spec: SweepSpec, path: str) -> int:
    """Evaluate the grid and write the CSV; returns the number of data rows."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(spec.header()) + "\n")
        for coords in spec.grid():
            params = dict(spec.fixed)
            for ax, value in zip(spec.axes, coords):
                params[ax.name] = value
            cell = evaluate_cell(params)
            out = [format_value(v) for v in coords] + [format_value(cell[o]) for o in spec.outputs]
            fh.write(",".join(out) + "\n")
            rows += 1
    return rows
