"""Parameter sweeps producing deterministic plot-ready CSV tables.

A sweep is a grid over up to three axes drawn from a fixed parameter
vocabulary, plus fixed parameters; each grid cell is resolved to a black hole
geometry and mode, and the requested outputs are evaluated independently per
cell.  Physics errors inside a cell become `NA:<reason>` tokens instead of
aborting the run, so superradiant or horizonless corners of a grid are data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from bhent import channels, geometry, modes
from bhent.errors import (
    NakedSingularityError,
    PhysicsDomainError,
    SuperradiantModeError,
)

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

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + list(self.outputs)

    def grid(self):
        """Row-major cartesian product of axis values."""
        values = [ax.values() for ax in self.axes]
        counts = [len(v) for v in values]
        total = math.prod(counts)
        for flat in range(total):
            coords = []
            rem = flat
            for c, vals in zip(reversed(counts), reversed(values)):
                coords.append(vals[rem % c])
                rem //= c
            yield tuple(reversed(coords))


def _na(reason: str) -> str:
    return f"NA:{reason}"


_ERROR_TOKENS = (
    (SuperradiantModeError, "superradiant"),
    (NakedSingularityError, "naked_singularity"),
    (PhysicsDomainError, "domain"),
)


def _token_for(exc: Exception) -> str:
    for cls, token in _ERROR_TOKENS:
        if isinstance(exc, cls):
            return _na(token)
    raise exc


def resolve_geometry(params: dict) -> tuple[float, float, float]:
    """Resolve cell parameters to (r_h, kappa, Omega).

    Schwarzschild route: `d` plus one of `r_h` / `M`.  Rotating route: `n`
    plus `mu` and one of `a` / `a_star`.
    """
    if "d" in params:
        d = int(params["d"])
        if "r_h" in params:
            r_h = float(params["r_h"])
        elif "M" in params:
            r_h = geometry.horizon_from_mass(d, float(params["M"]))
        else:
            raise PhysicsDomainError("Schwarzschild cell needs r_h or M")
        return r_h, geometry.surface_gravity_schw(d, r_h), 0.0
    if "n" in params:
        n = int(params["n"])
        if "mu" not in params:
            raise PhysicsDomainError("rotating cell needs mu")
        mu = float(params["mu"])
        if "a" in params:
            bh = geometry.RotatingBH(n, mu, float(params["a"]))
        elif "a_star" in params:
            bh = geometry.RotatingBH.from_a_star(n, mu, float(params["a_star"]))
        else:
            bh = geometry.RotatingBH(n, mu, 0.0)
        return bh.r_h, bh.kappa, bh.omega_h
    raise PhysicsDomainError("cell needs either d (static) or n (rotating)")


def evaluate_cell(params: dict) -> dict[str, float | str]:
    """Evaluate every supported output for one grid cell.

    Returns finite floats, or NA tokens for cells outside the physical
    domain.  Pure function of `params`; cells are independent.
    """
    statistics = str(params.get("statistics", modes.BOSON))
    m = int(params.get("m", 0))
    tol = float(params.get("tol", channels.DEFAULT_SERIES_TOL))
    try:
        r_h, kappa, omega_h = resolve_geometry(params)
        if "omega" in params:
            omega = float(params["omega"])
        elif "omega_rh" in params:
            omega = float(params["omega_rh"]) / r_h
        else:
            raise PhysicsDomainError("cell needs omega or omega_rh")
        mode = modes.ModeSpec(omega, m, statistics)
        omega_eff = modes.effective_frequency(mode, omega_h)
        sq = modes.squeeze(omega_eff, kappa, statistics)
        if statistics == modes.BOSON:
            e_n = channels.log_negativity_boson(sq.r, tol).value
            fid = channels.fidelity_boson(omega_eff, kappa)
        else:
            e_n = channels.log_negativity_fermion(sq.r)
            fid = channels.fidelity_fermion(sq)
        return {
            "kappa": kappa,
            "Omega": omega_h,
            "r": sq.r,
            "N_occ": modes.occupation(omega_eff, kappa, statistics),
            "E_N": e_n,
            "F": fid,
        }
    except Exception as exc:  # physics errors become data
        token = _token_for(exc)
        return {name: token for name in OUTPUT_VOCABULARY}


def _format(value) -> str:
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
            out = [_format(v) for v in coords] + [_format(cell[o]) for o in spec.outputs]
            fh.write(",".join(out) + "\n")
            rows += 1
    return rows
