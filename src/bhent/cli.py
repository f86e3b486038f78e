"""Command-line front end.

Subcommands
-----------
geom          single-point geometry report (static or rotating)
entangle      logarithmic negativity for one mode
teleport      teleportation fidelity for one mode
sweep         grid sweep -> CSV (axes/fixed/outputs from flags or a config file)
oracle-check  closed forms vs Fock-space oracle -> comparison CSV
estimate      SI-unit estimators (coupling-time, hawking-temp, radiation-density)
tev           TeV-gravity length scales

Exit codes: 0 success; 2 invalid flags (teleport takes no --tol); 3 physics
domain error, which also covers a non-finite numeric flag, a result outside
the floating-point range (pi*omega_eff/kappa below the smallest normal float
included), a malformed or unknown config line, and a sweep spec with a
non-integer d/n/m, an unknown statistics, no complete geometry route or no
frequency; 4 unreadable config or unwritable output path; 5 oracle contract
mismatch or a truncation too small for the gate (the oracle's trace deficit
exceeds --tol); 6 internal contract violation (a numerical self-check
failed, e.g. Jacobi non-convergence or a horizon residual).  The environment
variable BHE_DEFAULT_TOL overrides the default series tolerance (1e-10) of
entangle and sweep.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from bhent import channels, estimates, geometry, modes, sweep
from bhent.errors import ContractViolationError, PhysicsDomainError, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_IO = 4
EXIT_MISMATCH = 5
EXIT_CONTRACT = 6


def default_tol() -> float:
    raw = os.environ.get("BHE_DEFAULT_TOL")
    if raw is None:
        return channels.DEFAULT_SERIES_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise PhysicsDomainError(f"BHE_DEFAULT_TOL is not a number: {raw!r}")
    if not math.isfinite(tol):
        raise PhysicsDomainError(f"BHE_DEFAULT_TOL must be finite, got {raw!r}")
    return tol


def _check_finite(args) -> None:
    """Reject every non-finite float flag once, before any command runs."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise PhysicsDomainError(f"--{name} must be finite, got {value}")


def _fmt(value: float) -> str:
    return format(value, ".10g")


# ---------------------------------------------------------------- geometry

# geometry flag -> sweep parameter
_GEOMETRY_FLAGS = (("d", "d"), ("rh", "r_h"), ("mass", "M"), ("n", "n"), ("mu", "mu"), ("a", "a"))


def _hole(args):
    """The hole the geometry flags describe, resolved as a sweep cell is."""
    params = {
        name: getattr(args, flag)
        for flag, name in _GEOMETRY_FLAGS
        if getattr(args, flag) is not None
    }
    return sweep.resolve_geometry(params)


def cmd_geom(args) -> int:
    if args.units == "si" and not (args.mstar is not None and args.mstar > 0):
        raise PhysicsDomainError(f"--units si needs a positive --mstar <TeV>, got {args.mstar}")
    bh = _hole(args)
    lines = {
        "r_h": bh.r_h,
        "kappa": bh.kappa,
        "Omega": bh.omega_h,
        "T": geometry.hawking_temperature(bh.kappa),
        "M": bh.mass,
        "J": bh.angular_momentum,
    }
    if isinstance(bh, geometry.RotatingBH):
        lines["a_star"] = bh.a_star
    if args.units == "si":
        scale = geometry.TEV_INV_TO_M / args.mstar  # treats lengths as multiples of 1/M_*
        lines["r_h_si_m"] = bh.r_h * scale
    for key, value in lines.items():  # all computed first: a failure prints nothing
        print(f"{key} = {_fmt(value)}")
    return EXIT_OK


# ------------------------------------------------------------- mode points


def _horizon(args) -> tuple[float, float]:
    """(kappa, Omega): --kappa/--Omega if given, else the hole's."""
    if args.kappa is not None:
        return args.kappa, args.Omega
    bh = _hole(args)
    return bh.kappa, bh.omega_h


def cmd_entangle(args) -> int:
    tol = default_tol() if args.tol is None else args.tol
    r, n_occ, _, e_n = channels.mode_point(
        args.omega, args.m, args.statistics, *_horizon(args), tol
    )
    print(f"E_N = {_fmt(e_n.value)}")
    if args.statistics == modes.BOSON:
        print(f"terms_used = {e_n.terms_used}")
        print(f"tail_bound = {_fmt(e_n.tail_bound)}")
    print(f"r = {_fmt(r)}")
    print(f"N_occ = {_fmt(n_occ)}")
    return EXIT_OK


def cmd_teleport(args) -> int:
    r, _, fid, _ = channels.mode_point(
        args.omega, args.m, args.statistics, *_horizon(args), channels.DEFAULT_SERIES_TOL
    )
    print(f"F = {_fmt(fid)}")
    print(f"r = {_fmt(r)}")
    return EXIT_OK


# ------------------------------------------------------------------ sweep


def _parse_axis(text: str) -> sweep.Axis:
    parts = text.split(":")
    if len(parts) == 4:
        parts.append("linear")
    try:
        name, lo, hi, count, scale = parts
        bounds = float(lo), float(hi), int(count)
    except ValueError:
        raise PhysicsDomainError(f"axis must be name:lo:hi:count[:scale], got {text!r}") from None
    return sweep.Axis(name, *bounds, scale)


def _parse_fixed(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise PhysicsDomainError(f"fixed parameter must be key=value, got {text!r}")
    key, value = (s.strip() for s in text.split("=", 1))
    if key == "statistics":
        return key, value
    try:
        return key, float(value)
    except ValueError:
        raise PhysicsDomainError(f"fixed parameter {key} must be a number, got {value!r}") from None




def read_config(path: str) -> dict[str, list[str]]:
    """Parse `key = value` lines; `#` starts a comment; repeated keys stack."""
    entries: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PhysicsDomainError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in ("axis", "fixed", "output"):
                raise PhysicsDomainError(
                    f"{path}:{lineno}: unknown key {key!r}, expected axis, fixed or output"
                )
            entries.setdefault(key, []).append(value)
    return entries


def _build_spec(args) -> sweep.SweepSpec:
    axes = list(args.axis or [])
    fixed = dict(args.fixed or [])
    outputs = args.output
    if args.config:
        cfg = read_config(args.config)
        if not axes:
            axes = [_parse_axis(v) for v in cfg.get("axis", [])]
        if not fixed:
            fixed = dict(_parse_fixed(v) for v in cfg.get("fixed", []))
        if outputs is None and "output" in cfg:
            outputs = cfg["output"][-1]
    out_list = tuple((outputs or "E_N").replace(" ", "").split(","))
    if "tol" not in fixed:
        fixed["tol"] = default_tol()
    return sweep.SweepSpec(tuple(axes), fixed, out_list)


def cmd_sweep(args) -> int:
    rows = sweep.run_sweep(_build_spec(args), args.out)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------ oracle check


def cmd_oracle_check(args) -> int:
    # Imported here so that no other command loads the oracle and its report.
    from bhent import fock_oracle, reports

    trunc = fock_oracle.DEFAULT_TRUNC if args.trunc is None else args.trunc
    try:
        tanh_values = [float(v) for v in args.tanhr.split(",")]
    except ValueError:
        raise PhysicsDomainError(f"--tanhr must be a comma list of numbers, got {args.tanhr!r}")
    for th in tanh_values:
        if not 0.0 <= th < 1.0:
            raise PhysicsDomainError(f"--tanhr values must lie in [0, 1), got {th}")
    tol = args.tol
    rows = reports.negativity_rows(tanh_values, trunc, tol)
    rng_points = [(0.1 + 0.05 * k, k % 6) for k in range(12)]
    rows += reports.eigenvalue_rows(rng_points)
    rows += reports.fermion_rows()
    rows += reports.fidelity_boson_rows([math.log(2.0), 1.5, 3.0], trunc)
    reports.write_report_csv(rows, args.out)

    failures = [
        row
        for row in rows
        if not row[5].startswith("informational")
        and row[0] != "F_boson_verdict"
        and not (row[4] < tol)
    ]
    for row in failures:
        print(f"MISMATCH {row[0]} {row[1]}: diff {row[4]}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_MISMATCH if failures else EXIT_OK


# -------------------------------------------------------------- estimators


def cmd_estimate(args) -> int:
    if args.what == "coupling-time":
        cavity = estimates.CavitySpec(args.dl, args.vc)
        mass = args.msun * estimates.SI.m_sun if args.msun is not None else None
        res = estimates.coupling_time(mass, cavity, args.tbh)
        print(f"t_s = {_fmt(res.time_s)}")
        print(f"kappa_si = {_fmt(res.kappa_si)}")
        print(f"redshift_ratio = {_fmt(res.redshift_ratio)}")
        print(f"delta_E_J = {_fmt(res.energy_change_j)}")
        print(f"T_bh_K = {_fmt(res.t_bh)}")
        print(f"universe_age_s = {_fmt(estimates.AGE_OF_UNIVERSE_S)}")
    elif args.what == "hawking-temp":
        if args.msun is None:
            raise PhysicsDomainError("hawking-temp needs --msun")
        print(f"T_bh_K = {_fmt(estimates.hawking_temperature_si(args.msun * estimates.SI.m_sun))}")
    elif args.what == "radiation-density":
        if args.temp is None:
            raise PhysicsDomainError("radiation-density needs --temp")
        print(f"rho_J_per_m3 = {_fmt(estimates.radiation_density(args.temp))}")
    return EXIT_OK


def cmd_tev(args) -> int:
    scales = geometry.tev_scales(args.n, args.mstar, args.mbh)
    for key, value in scales.items():
        print(f"{key} = {_fmt(value)}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="spacetime dimension (static hole)")
    p.add_argument("--rh", type=float, help="horizon radius")
    p.add_argument("--mass", type=float, help="black hole mass (natural units)")
    p.add_argument("--n", type=int, help="extra dimensions (rotating hole)")
    p.add_argument("--mu", type=float, help="rotating mass parameter")
    p.add_argument("--a", type=float, help="spin parameter")


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, required=True, help="mode frequency")
    p.add_argument("--m", type=int, default=0, help="azimuthal number")
    p.add_argument("--statistics", choices=(modes.BOSON, modes.FERMION), default=modes.BOSON)
    p.add_argument("--kappa", type=float, help="surface gravity (overrides geometry flags)")
    p.add_argument("--Omega", type=float, default=0.0, help="horizon angular velocity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bhent", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom", help="geometry report")
    _add_geometry_flags(p)
    p.add_argument("--units", choices=("natural", "si"), default="natural")
    p.add_argument("--mstar", type=float, help="fundamental scale in TeV (for --units si)")
    p.set_defaults(func=cmd_geom)

    for name, func in (("entangle", cmd_entangle), ("teleport", cmd_teleport)):
        p = sub.add_parser(name, help=f"{name} figure of merit for one mode")
        _add_geometry_flags(p)
        _add_mode_flags(p)
        p.set_defaults(func=func)
        if name == "entangle":
            p.add_argument("--tol", type=float, help="series tolerance")

    p = sub.add_parser("sweep", help="grid sweep to CSV")
    p.add_argument("--axis", action="append", type=_parse_axis, help="name:lo:hi:count[:scale]")
    p.add_argument("--fixed", action="append", type=_parse_fixed, help="key=value")
    p.add_argument("--output", help="comma-separated outputs (kappa,Omega,r,N_occ,E_N,F)")
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="closed forms vs Fock-space oracle")
    p.add_argument("--tanhr", default="0.1,0.3,0.5,0.7", help="comma list of tanh r points")
    p.add_argument("--trunc", type=int, help="Fock truncation (default fock_oracle.DEFAULT_TRUNC)")
    p.add_argument(
        "--tol", type=float, default=1e-8,
        help="gate on |closed form - oracle|, and the largest oracle trace deficit accepted",
    )
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("estimate", help="SI-unit estimators")
    p.add_argument("what", choices=("coupling-time", "hawking-temp", "radiation-density"))
    p.add_argument("--msun", type=float, help="black hole mass in solar masses")
    p.add_argument("--dl", type=float, default=1.0, help="cavity wall thickness (m)")
    p.add_argument("--vc", type=float, default=1.0, help="cavity volume (m^3)")
    p.add_argument("--tbh", type=float, help="black hole temperature override (K)")
    p.add_argument("--temp", type=float, help="radiation temperature (K)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tev", help="TeV-gravity length scales")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mstar", type=float, required=True, help="fundamental scale (TeV)")
    p.add_argument("--mbh", type=float, required=True, help="black hole mass (TeV)")
    p.set_defaults(func=cmd_tev)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        _check_finite(args)
        return args.func(args)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PhysicsDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (OverflowError, ZeroDivisionError) as exc:
        name = type(exc).__name__
        print(f"error: result outside the floating-point range ({name})", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractViolationError as exc:
        print(f"error: internal contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
