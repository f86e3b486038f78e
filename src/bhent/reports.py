"""Machine-readable comparison reports: closed forms vs the Fock-space oracle.

Each report is a list of rows with the fixed header

    quantity, point, closed_form, oracle, abs_diff, note

Rows whose note starts with "informational" are never gated on; they exist to
document known discrepancies (the bosonic fidelity exponent, and the
full-spectrum vs blockwise negativity split) without reconciling them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from bhent import channels, fock_oracle, modes, sweep
from bhent.errors import PhysicsDomainError

REPORT_HEADER = ("quantity", "point", "closed_form", "oracle", "abs_diff", "note")


def _row(quantity: str, point: str, closed: float, oracle: float, note: str = "") -> tuple:
    return (quantity, point, closed, oracle, abs(closed - oracle), note)


def negativity_rows(
    tanh_r_values: Sequence[float],
    n_trunc: int = fock_oracle.DEFAULT_TRUNC,
    tol: float = 1e-8,
) -> list[tuple]:
    """Bosonic log-negativity: series vs blockwise oracle (gated), plus the
    full-spectrum value (informational).

    tol is the gate on |series - oracle|, in ten times the series range: the
    series is summed to tol/10, and the oracle raises TruncationError when
    its own trace deficit at n_trunc exceeds tol, so a truncation too small
    for the gate is reported as such, never as a mismatch of the closed form.
    """
    lo, hi = 10.0 * channels.MIN_SERIES_TOL, 10.0 * channels.MAX_SERIES_TOL
    if not lo <= tol <= hi:
        raise PhysicsDomainError(f"oracle gate tol must be in [{lo!r}, {hi!r}], got {tol}")
    rows = []
    for th in tanh_r_values:
        r = math.atanh(th)
        point = f"tanh_r={th:g}"
        series = channels.log_negativity_boson(r, tol / 10.0).value
        block = fock_oracle.blockwise_negativity_bosonic(r, n_trunc, tol).log_negativity
        rows.append(_row("E_N_boson", point, series, block, "series vs blockwise oracle"))
        full = fock_oracle.negativity_numeric(
            fock_oracle.bell_state_bosonic(r, n_trunc, tol)
        ).log_negativity
        rows.append(
            _row(
                "E_N_boson_fullspectrum",
                point,
                series,
                full,
                "informational: full PPT spectrum couples neighbouring sectors",
            )
        )
    return rows


def eigenvalue_rows(points: Iterable[tuple[float, int]]) -> list[tuple]:
    """lambda_n closed form vs the oracle's isolated-block eigenvalue."""
    note = "closed form vs block eigenvalue"
    rows = []
    for r, n in points:
        closed = channels.neg_eigenvalue_boson(r, n)
        oracle = fock_oracle.blockwise_negative_eigenvalue(r, n)
        rows.append(_row("lambda_n_boson", f"r={r:g},n={n}", closed, oracle, note))
    return rows


# Fermionic squeezing points of the report, each with the random dual-rail
# qubits it is checked on, as (phi, outcome): qubit (cos phi, sin phi),
# measurement outcome (i, j).  Drawn once, ten per point in this order, by
#   rng = numpy.random.default_rng(7)
#   phi = rng.uniform(0.0, 2.0 * math.pi)
#   outcome = (int(rng.integers(2)), int(rng.integers(2)))
FERMION_DRAWS = (
    (0.0, (
        (3.927590651355011, (1, 1)), (4.873776931938056, (1, 0)),
        (1.8860003910648933, (0, 1)), (0.033082884284244704, (0, 1)),
        (5.008134923536883, (0, 0)), (1.904008891790084, (0, 0)),
        (1.6013928483953153, (1, 0)), (3.1701702074476534, (1, 1)),
        (6.25491275416809, (1, 1)), (3.90926739285703, (0, 1)),
    )),
    (0.2, (
        (1.3528244492618786, (1, 0)), (3.848699841633905, (0, 0)),
        (0.22418580334633095, (0, 1)), (2.9292588484424504, (1, 1)),
        (3.95354515710956, (0, 1)), (3.1219478687923115, (0, 0)),
        (0.07410404800117357, (0, 0)), (4.3481660540211, (1, 0)),
        (2.321865117245137, (0, 0)), (5.215343700148099, (1, 0)),
    )),
    (0.4, (
        (1.681376018646652, (1, 1)), (3.2031101263004587, (1, 1)),
        (4.019461504083831, (0, 1)), (0.5748838414036347, (0, 1)),
        (3.1904270545160798, (1, 1)), (2.269889027609814, (1, 1)),
        (0.3722890486115281, (1, 0)), (2.0296972244945413, (0, 0)),
        (5.12920357960686, (0, 0)), (6.149654326765692, (0, 1)),
    )),
    (math.pi / 4, (
        (3.801680564080844, (0, 1)), (4.250262232962561, (1, 0)),
        (2.7665711075901207, (0, 0)), (2.5289713928117266, (1, 0)),
        (6.0810429902262095, (1, 0)), (4.220824999594331, (0, 0)),
        (5.491987928045793, (0, 1)), (0.8269665600792012, (1, 1)),
        (5.937284464984357, (1, 1)), (3.579650979048285, (0, 0)),
    )),
)


def fermion_rows() -> list[tuple]:
    """Fermionic E_N and fidelity: closed form vs explicit 4x4 constructions,
    at the points and on the qubits of FERMION_DRAWS."""
    rows = []
    for r, draws in FERMION_DRAWS:
        point = f"r={r:g}"
        rows.append(
            _row(
                "E_N_fermion",
                point,
                channels.log_negativity_fermion(r),
                fock_oracle.negativity_numeric(fock_oracle.bell_state_fermionic(r)).log_negativity,
                "closed form vs 4x4 PPT spectrum",
            )
        )
        fidelities = []
        for phi, outcome in draws:
            qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
            x, y = qubit.conditional(*outcome)
            fidelities.append(
                fock_oracle.fidelity_numeric(
                    fock_oracle.bob_post_state_fermionic(r, qubit, outcome),
                    fock_oracle.dual_rail_target(x, y),
                )
            )
        closed = channels.fidelity_fermion(r)
        # max returns the first of equal maxima: the earliest worst draw
        worst = max(fidelities, key=lambda f: abs(f - closed))
        rows.append(
            _row("F_fermion", point, closed, worst, f"worst case over {len(draws)} random qubits")
        )
    return rows


def fidelity_boson_rows(x_values: Sequence[float]) -> list[tuple]:
    """Bosonic fidelity cross-check for x = pi*omega_eff/kappa values.

    Three candidates per point: the stated closed form (1 - e^-x)^3, the
    alternative cosh^-6 r = (1 - e^-2x)^3, and the constructive oracle.  A
    final verdict row names the closed form the construction matches.  The
    teleported qubit is (0.6, 0.8).  The oracle builds only sector 1 of the
    receiver's post-state, where the target x|1,0> + y|0,1> lives; that
    block is exact, so these rows take no truncation.
    """
    qubit = fock_oracle.DualRailQubit(0.6, 0.8)
    rows = []
    verdicts = []
    for x in x_values:
        point = f"pi_omega_over_kappa={x:g}"
        sq = modes.squeeze_boson(1.0, math.pi / x)  # omega_eff = 1, kappa = pi/x
        outcome = (0, 0)
        xa, ya = qubit.conditional(*outcome)
        oracle = fock_oracle.fidelity_numeric(
            fock_oracle.bob_post_state_bosonic(sq.r, qubit, outcome),
            fock_oracle.dual_rail_target(xa, ya),
        )
        stated = (-math.expm1(-x)) ** 3
        sech6 = (-math.expm1(-2.0 * x)) ** 3
        rows.append(
            _row("F_boson_stated_exponent", point, stated, oracle, "informational: exponent -x")
        )
        rows.append(
            _row("F_boson_sech6", point, sech6, oracle, "informational: exponent -2x (cosh^-6 r)")
        )
        d_stated = abs(stated - oracle)
        d_sech6 = abs(sech6 - oracle)
        verdicts.append("sech6" if d_sech6 < d_stated else "stated")
    verdict = "construction matches (1-e^-2x)^3 = cosh^-6 r" if all(
        v == "sech6" for v in verdicts
    ) else "construction matches the stated exponent" if all(
        v == "stated" for v in verdicts
    ) else "mixed verdict"
    rows.append(("F_boson_verdict", "all", math.nan, math.nan, math.nan, verdict))
    return rows


def write_report_csv(rows: list[tuple], path: str) -> None:
    """Write rows under the standard header; deterministic byte-for-byte.

    Written in place as sweep CSVs are (sweep._rewritten), not truncated first.
    """
    with sweep._rewritten(path) as fh:
        fh.write(",".join(REPORT_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(sweep.format_value(v) for v in row) + "\n")
