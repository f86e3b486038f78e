"""Parameter sweeps producing deterministic plot-ready CSV tables.

A sweep is a grid over up to three axes drawn from a fixed parameter
vocabulary, plus fixed parameters; each grid cell is resolved to a black hole
geometry and mode, and the requested outputs are evaluated per cell.  Physics
errors inside a cell, and a hole outside the float range, become `NA:<reason>`
tokens instead of aborting the run, so superradiant or horizonless corners of
a grid are data.

cells() is the one grid walker: run_sweep writes what it yields, and
minibh_bounds takes its extrema over the paper's mini-black-hole grid.  It
walks the grid row-major, the last axis fastest.  A cell whose geometry
parameters (GEOMETRY_PARAMETERS) equal the previous cell's reuses that cell's
hole, or its NA token, instead of resolving it again; so a grid with its
frequency axis last solves each hole once.  The reuse changes no byte of
the CSV.

evaluate_cell computes only the outputs a sweep asks for, each as OUTPUTS
defines it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat

from bhent import channels, geometry, modes
from bhent.errors import NakedSingularityError, PhysicsDomainError, SuperradiantModeError
from bhent.errors import check_integer, check_positive

# The parameters resolve_geometry reads: cells that agree on these share a hole.
GEOMETRY_PARAMETERS = frozenset({"d", "n", "M", "mu", "r_h", "a", "a_star"})
# Each frequency parameter, and the frequency at infinity its value gives on a hole.
FREQUENCIES = {"omega": lambda omega, bh: omega, "omega_rh": lambda w_rh, bh: w_rh / bh.r_h}
PARAMETER_VOCABULARY = GEOMETRY_PARAMETERS.union(FREQUENCIES, ("m", "statistics", "tol"))
INTEGER_PARAMETERS = frozenset({"d", "n", "m"})


def _check_value(name: str, value) -> None:
    """A statistics name, or a finite value: d, n, m integral (4.0, not 4.7), tol a series tol."""
    if name == "statistics":
        if value not in (modes.BOSON, modes.FERMION):
            raise PhysicsDomainError(
                f"statistics must be {modes.BOSON!r} or {modes.FERMION!r}, got {value!r}"
            )
        return
    if not math.isfinite(value):
        raise PhysicsDomainError(f"sweep parameter {name} must be finite, got {value}")
    if name in INTEGER_PARAMETERS:
        check_integer(f"sweep parameter {name}", value, -math.inf)
    if name == "tol":
        channels.check_series_tol(value)


class Axis:
    __slots__ = ("name", "lo", "hi", "count", "scale")

    def __init__(self, name: str, lo: float, hi: float, count: int, scale: str = "linear") -> None:
        if name not in PARAMETER_VOCABULARY:
            raise PhysicsDomainError(f"unknown sweep parameter {name!r}")
        count = check_integer(f"axis {name} point count", count, 2)
        if scale == "log":
            check_positive(f"log axis {name} lo", lo)
            check_positive(f"log axis {name} hi", hi)
        elif scale != "linear":
            raise PhysicsDomainError(f"axis scale must be linear or log, got {scale!r}")
        elif not (math.isfinite(lo) and math.isfinite(hi)):
            raise PhysicsDomainError(f"axis {name} needs finite endpoints, got {lo}, {hi}")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.count = count
        self.scale = scale
        for value in self.values():  # each point, as a value of the parameter
            _check_value(name, value)

    def values(self) -> list[float]:
        if self.scale == "log":
            llo, lhi = math.log(self.lo), math.log(self.hi)
            return [math.exp(llo + (lhi - llo) * i / (self.count - 1)) for i in range(self.count)]
        return [self.lo + (self.hi - self.lo) * i / (self.count - 1) for i in range(self.count)]


class SweepSpec:
    __slots__ = ("axes", "fixed", "outputs")

    def __init__(
        self, axes: tuple[Axis, ...], fixed: dict | None = None, outputs: tuple[str, ...] = ("E_N",)
    ) -> None:
        if fixed is None:
            fixed = {}  # a fresh dict per spec, not one shared default
        if not 1 <= len(axes) <= 3:
            raise PhysicsDomainError("a sweep needs between 1 and 3 axes")
        for key, value in fixed.items():
            if key not in PARAMETER_VOCABULARY:
                raise PhysicsDomainError(f"unknown fixed parameter {key!r}")
            _check_value(key, value)
        for out in outputs:
            if out not in OUTPUT_VOCABULARY:
                raise PhysicsDomainError(f"unknown output {out!r}")
        if not outputs:
            raise PhysicsDomainError("at least one output is required")
        names = [ax.name for ax in axes] + list(fixed)
        # each parameter is either an axis or fixed, and each is named once
        for kind, given in (("sweep parameter", names), ("output", outputs)):
            for i, name in enumerate(given):
                if name in given[:i]:
                    raise PhysicsDomainError(f"{kind} {name!r} is given more than once")
        gap = geometry_gap(names)
        if gap:
            raise PhysicsDomainError(gap)
        frequencies = [name for name in FREQUENCIES if name in names]
        if len(frequencies) != 1:  # of two, a cell would read one and ignore the other
            needs = "a sweep needs " + " or ".join(FREQUENCIES)
            raise PhysicsDomainError(
                f"{needs}, not {' and '.join(frequencies)}" if frequencies else needs
            )
        if GEOMETRY_PARAMETERS.isdisjoint(ax.name for ax in axes):
            resolve_geometry(fixed)  # the hole of every cell: refused here, not as all-NA
        self.axes = axes
        self.fixed = fixed
        self.outputs = outputs

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + list(self.outputs)

    def grid(self):
        """Row-major cartesian product of axis values: the last axis varies fastest."""
        return itertools.product(*(ax.values() for ax in self.axes))


def _token_for(exc: ArithmeticError | PhysicsDomainError) -> str:
    """The NA token a cell outside the physical domain or the float range writes."""
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
        d = params["d"]
        if "r_h" in params:
            return geometry.SchwarzschildBH(d, params["r_h"])
        if "M" in params:
            return geometry.SchwarzschildBH.from_mass(d, params["M"])
    elif "n" in params and "mu" in params:
        n, mu = params["n"], params["mu"]
        if "a" in params:
            return geometry.RotatingBH(n, mu, params["a"])
        if "a_star" in params:
            return geometry.RotatingBH.from_a_star(n, mu, params["a_star"])
        return geometry.RotatingBH(n, mu, 0.0)
    raise PhysicsDomainError(geometry_gap(params))


def _log_negativity(bh, sq: modes.SqueezingParams, statistics: str, tol: float) -> float:
    if statistics == modes.BOSON:
        return channels.log_negativity_boson(sq.r, tol).value
    return channels.log_negativity_fermion(sq.r)


def _fidelity(bh, sq: modes.SqueezingParams, statistics: str, tol: float) -> float:
    if statistics == modes.BOSON:
        return channels.fidelity_boson(sq)
    return channels.fidelity_fermion(sq)


# Each output, in column order, as a function of one cell's hole, SqueezingParams,
# statistics and tol.  None raises once modes.squeeze has passed, so asking for
# fewer outputs changes no column's text.
OUTPUTS = {
    "kappa": lambda bh, sq, statistics, tol: bh.kappa,
    "Omega": lambda bh, sq, statistics, tol: bh.omega_h,
    "r": lambda bh, sq, statistics, tol: sq.r,
    "N_occ": lambda bh, sq, statistics, tol: sq.occupation,
    "E_N": _log_negativity,
    "F": _fidelity,
}
OUTPUT_VOCABULARY = tuple(OUTPUTS)


def evaluate_cell(
    params: dict, bh: geometry.SchwarzschildBH | geometry.RotatingBH | str, outputs: tuple
) -> dict[str, float | str]:
    """Evaluate the named outputs for one grid cell of a checked SweepSpec.

    `bh` is the hole resolve_geometry(params) returns, or the NA token of
    the PhysicsDomainError, OverflowError or ZeroDivisionError it raises.
    Every cell is squeezed, so an NA cell writes its token in each column.
    Returns finite floats, or NA tokens for cells outside the physical
    domain.  Pure function of its arguments; cells are independent.
    """
    if isinstance(bh, str):
        return dict.fromkeys(outputs, bh)
    statistics = params.get("statistics", modes.BOSON)
    tol = params.get("tol", channels.DEFAULT_SERIES_TOL)
    try:
        for name, to_omega in FREQUENCIES.items():
            if name in params:
                omega = to_omega(params[name], bh)
                break
        else:
            raise PhysicsDomainError("cell needs " + " or ".join(FREQUENCIES))
        mode = modes.ModeSpec(omega, params.get("m", 0), statistics)
        sq = modes.squeeze(modes.effective_frequency(mode, bh.omega_h), bh.kappa, statistics)
        cell = {}
        for name in outputs:  # a loop: on Python 3.11 a comprehension frame costs ~4% of a cell
            cell[name] = OUTPUTS[name](bh, sq, statistics, tol)
        return cell
    except PhysicsDomainError as exc:  # physics errors become data
        return dict.fromkeys(outputs, _token_for(exc))


def format_value(value) -> str:
    """The CSV text of one value: floats to 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def cells(spec: SweepSpec):
    """Yield (coords, coord_texts, cell) for each grid cell, row-major.

    coords are the axis values, coord_texts their CSV text and cell the
    evaluate_cell dict.  Holds one resolved hole (or NA token) at a time:
    the previous cell's, keyed by the text of its geometry axis values.
    """
    # each axis value's CSV text, formatted once per sweep, walked as grid() is
    texts = itertools.product(*([format_value(v) for v in ax.values()] for ax in spec.axes))
    geometric = [ax.name in GEOMETRY_PARAMETERS for ax in spec.axes]
    last_key, bh = None, None
    for coords, coord_texts in zip(spec.grid(), texts):
        params = dict(spec.fixed)
        for ax, value in zip(spec.axes, coords):
            params[ax.name] = value
        # .17g text round-trips a float, sign of zero included
        key = [text for text, geo in zip(coord_texts, geometric) if geo]
        if key != last_key:
            last_key = key
            try:
                bh = resolve_geometry(params)
            except (PhysicsDomainError, OverflowError, ZeroDivisionError) as exc:
                bh = _token_for(exc)  # a token, not the exception: no traceback grows
        yield coords, coord_texts, evaluate_cell(params, bh, spec.outputs)


def run_sweep(spec: SweepSpec, path: str) -> int:
    """Evaluate the grid and write the CSV; returns the number of data rows."""
    rows = 0
    with _rewritten(path) as fh:
        fh.write(",".join(spec.header()) + "\n")
        for _, coord_texts, cell in cells(spec):
            out = list(coord_texts) + [format_value(v) for v in cell.values()]
            fh.write(",".join(out) + "\n")
            rows += 1
    return rows


class MiniBHBounds:
    """Extrema of E_N and F over the mini-black-hole grid of minibh_bounds.

    Each arg-max is an (omega*r_h, n, a_star) triple.
    """

    __slots__ = ("statistics", "e_n_max", "e_n_argmax", "f_max", "f_argmax", "grid_size")

    def __init__(
        self,
        statistics: str,
        e_n_max: float,
        e_n_argmax: tuple[float, int, float],
        f_max: float,
        f_argmax: tuple[float, int, float],
        grid_size: int,
    ) -> None:
        self.statistics = statistics
        self.e_n_max = e_n_max
        self.e_n_argmax = e_n_argmax
        self.f_max = f_max
        self.f_argmax = f_argmax
        self.grid_size = grid_size


def minibh_bounds(statistics: str) -> MiniBHBounds:
    """Maximise E_N and F over the paper's mini-black-hole grid, m = 0 modes.

    The grid is n = 0..7 extra dimensions by 16 points of omega*r_h in
    [0.05, 0.5], for non-rotating holes with mu = 1.  The figures depend on
    omega/kappa only, so the frequency is given in units of r_h.  An
    extremum keeps the first cell that reaches it, n outer, frequency inner.
    """
    a_star = 0.0
    spec = SweepSpec(
        (Axis("n", 0, 7, 8), Axis("omega_rh", 0.05, 0.5, 16)),
        {"mu": 1.0, "a_star": a_star, "m": 0, "tol": 1e-8, "statistics": statistics},
        ("E_N", "F"),
    )
    e_n_max = f_max = -math.inf
    e_n_argmax = f_argmax = None
    count = 0
    for (n, omega_rh), _, cell in cells(spec):
        count += 1
        where = (omega_rh, int(n), a_star)
        if cell["E_N"] > e_n_max:
            e_n_max, e_n_argmax = cell["E_N"], where
        if cell["F"] > f_max:
            f_max, f_argmax = cell["F"], where
    return MiniBHBounds(statistics, e_n_max, e_n_argmax, f_max, f_argmax, count)


@contextlib.contextmanager
def _rewritten(path: str):
    """`path` open for text writing from its start, cut to what was written on exit.

    An existing file is not truncated to zero first: on ext4 that frees its
    blocks and forces a flush at close, which costs more than a small sweep
    and varies from run to run.  When an exception escapes, the file is cut
    to length 0, so an aborted write leaves no partial rows.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        end = 0
        try:
            yield fh
            end = None  # truncate(None) cuts at the current position
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null or a pipe cannot be cut
                fh.truncate(end)
