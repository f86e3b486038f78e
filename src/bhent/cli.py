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
the floating-point range (pi*omega_eff/kappa below the smallest normal float,
a teleport fidelity that underflows to 0 and a non-finite printed value
included), a coupling-time run given both --tbh and --msun or neither, an
estimate given a flag its estimator does not read (hawking-temp --tbh), a
malformed --axis/--fixed flag or a malformed or unknown config line (one
parser reads both), an oracle-check --tol outside ten times the series
range, and a sweep spec with a
non-integer d/n/m, an unknown statistics, a parameter given twice (each is
an axis or fixed), an output named twice, no complete geometry route, a
fixed geometry with no hole, or no frequency or two; 4 unreadable config
or unwritable output path; 5 oracle contract mismatch or a truncation too
small for the gate (the oracle's trace deficit exceeds --tol); 6 internal
contract violation (a numerical self-check failed, e.g. Jacobi
non-convergence or a horizon residual).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from bhent import channels, geometry, modes, sweep
from bhent.errors import ContractViolationError, PhysicsDomainError, TruncationError
from bhent.errors import check_positive

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_IO = 4
EXIT_MISMATCH = 5
EXIT_CONTRACT = 6


def _check_finite(args) -> None:
    """Reject every non-finite float flag once, before any command runs."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise PhysicsDomainError(f"--{name} must be finite, got {value}")


def _print_results(lines: dict) -> int:
    """Print `name = value` lines (a float to 10 digits) once every value is finite.

    A non-finite value is a result outside the floating-point range: nothing
    is printed and main exits 3."""
    for key, value in lines.items():
        if not math.isfinite(value):
            raise OverflowError(f"{key} = {value}")
    for key, value in lines.items():
        print(f"{key} = {value if isinstance(value, int) else format(value, '.10g')}")
    return EXIT_OK


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
        if lines["r_h_si_m"] == 0.0:  # r_h > 0 and --mstar is finite: an underflow
            raise PhysicsDomainError(
                f"r_h_si_m underflows to 0 for r_h={bh.r_h}, --mstar {args.mstar}"
            )
    return _print_results(lines)


# ------------------------------------------------------------- mode points


def _squeezed(args) -> modes.SqueezingParams:
    """The flags' mode, squeezed as a sweep cell's is, at --kappa/--Omega or else the hole's."""
    if args.kappa is not None:
        kappa, omega_h = args.kappa, args.Omega
    else:
        bh = _hole(args)
        kappa, omega_h = bh.kappa, bh.omega_h
    mode = modes.ModeSpec(args.omega, args.m, args.statistics)
    return modes.squeeze(modes.effective_frequency(mode, omega_h), kappa, args.statistics)


def cmd_entangle(args) -> int:
    channels.check_series_tol(args.tol)  # a flag, checked for both statistics
    sq = _squeezed(args)
    if args.statistics == modes.BOSON:  # the series, and what it did
        e_n = channels.log_negativity_boson(sq.r, args.tol)
        lines = {"E_N": e_n.value, "terms_used": e_n.terms_used, "tail_bound": e_n.tail_bound}
    else:
        lines = {"E_N": channels.log_negativity_fermion(sq.r)}
    return _print_results({**lines, "r": sq.r, "N_occ": sq.occupation})


def cmd_teleport(args) -> int:
    sq = _squeezed(args)
    fid = sweep.OUTPUTS["F"](None, sq, args.statistics, None)  # F reads no hole and no tol
    if fid == 0.0:  # (1 - e^-x)^3 underflowed: x > 0 here, so 0 is no result
        raise PhysicsDomainError(f"F underflows to 0 for x = pi*omega_eff/kappa = {sq.x}")
    return _print_results({"F": fid, "r": sq.r})


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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise OSError(f"{path}: config file is not UTF-8 text") from None
    entries: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, 1):
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
    """The spec of the --axis/--fixed/--output flags; each group given replaces the config's."""
    cfg = read_config(args.config) if args.config else {}
    axes = tuple(_parse_axis(v) for v in args.axis or cfg.get("axis", []))
    fixed = {}
    for key, value in (_parse_fixed(v) for v in args.fixed or cfg.get("fixed", [])):
        if key in fixed:  # a dict would keep the last silently
            raise PhysicsDomainError(f"sweep parameter {key!r} is given more than once")
        fixed[key] = value
    outputs = ",".join([args.output] if args.output is not None else cfg.get("output", []))
    return sweep.SweepSpec(axes, fixed, tuple((outputs or "E_N").replace(" ", "").split(",")))


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
    rows = reports.negativity_rows(tanh_values, trunc, args.tol)
    rng_points = [(0.1 + 0.05 * k, k % 6) for k in range(12)]
    rows += reports.eigenvalue_rows(rng_points)
    rows += reports.fermion_rows()
    rows += reports.fidelity_boson_rows([math.log(2.0), 1.5, 3.0])
    reports.write_report_csv(rows, args.out)

    failures = [
        row
        for row in rows
        if not row[5].startswith("informational")
        and row[0] != "F_boson_verdict"
        and not (row[4] < args.tol)
    ]
    for row in failures:
        print(f"MISMATCH {row[0]} {row[1]}: diff {row[4]}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_MISMATCH if failures else EXIT_OK


# -------------------------------------------------------------- estimators


_ESTIMATOR_FLAGS = {"coupling-time": ("msun", "dl", "vc", "tbh"), "hawking-temp": ("msun",),
                    "radiation-density": ("temp",)}


def cmd_estimate(args) -> int:
    from bhent import estimates  # imported here, as the oracle is in oracle-check

    for flag in ("msun", "dl", "vc", "tbh", "temp"):  # each flag is read by its estimators alone
        if getattr(args, flag) is not None and flag not in _ESTIMATOR_FLAGS[args.what]:
            raise PhysicsDomainError(f"{args.what} does not read --{flag}")
    mass = None
    if args.msun is not None:  # checked here, so that no error names a mass in kg
        check_positive("--msun", args.msun)
        mass = args.msun * estimates.M_SUN
        if mass == math.inf:
            raise PhysicsDomainError(f"--msun {args.msun} overflows as a mass in kg")
    if args.what == "coupling-time":
        if (args.tbh is None) == (mass is None):  # one temperature, read from one flag
            raise PhysicsDomainError("coupling-time needs exactly one of --tbh and --msun")
        t_bh = estimates.hawking_temperature_si(mass) if args.tbh is None else args.tbh
        dl = 1.0 if args.dl is None else args.dl
        vc = 1.0 if args.vc is None else args.vc
        lines = {**estimates.coupling_time(t_bh, dl, vc),
                 "universe_age_s": estimates.AGE_OF_UNIVERSE_S}
    elif args.what == "hawking-temp":
        if args.msun is None:
            raise PhysicsDomainError("hawking-temp needs --msun")
        lines = {"T_bh_K": estimates.hawking_temperature_si(mass)}
    else:  # radiation-density
        if args.temp is None:
            raise PhysicsDomainError("radiation-density needs --temp")
        lines = {"rho_J_per_m3": estimates.radiation_density(args.temp)}
    return _print_results(lines)


def cmd_tev(args) -> int:
    return _print_results(geometry.tev_scales(args.n, args.mstar, args.mbh))


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


@functools.cache  # built once per process: nothing changes a parser after it is built
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
            p.add_argument(
                "--tol", type=float, default=channels.DEFAULT_SERIES_TOL, help="series tolerance"
            )

    p = sub.add_parser("sweep", help="grid sweep to CSV")
    p.add_argument("--axis", action="append", help="name:lo:hi:count[:scale]")
    p.add_argument("--fixed", action="append", help="key=value")
    p.add_argument(
        "--output", help=f"comma-separated outputs ({','.join(sweep.OUTPUT_VOCABULARY)})"
    )
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="closed forms vs Fock-space oracle")
    p.add_argument("--tanhr", default="0.1,0.3,0.5,0.7", help="comma list of tanh r points")
    p.add_argument(
        "--trunc", type=int,
        help="Fock truncation of the bosonic Bell resource (default fock_oracle.DEFAULT_TRUNC)",
    )
    p.add_argument(
        "--tol", type=float, default=1e-8,
        help="gate on |closed form - oracle|, and the largest oracle trace deficit accepted",
    )
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("estimate", help="SI-unit estimators")
    p.add_argument("what", choices=("coupling-time", "hawking-temp", "radiation-density"))
    p.add_argument("--msun", type=float, help="black hole mass in solar masses")
    p.add_argument("--dl", type=float, help="cavity wall thickness (m), 1 when not given")
    p.add_argument("--vc", type=float, help="cavity volume (m^3), 1 when not given")
    p.add_argument("--tbh", type=float, help="black hole temperature (K), in place of --msun")
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
