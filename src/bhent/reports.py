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

import numpy as np

from bhent import channels, fock_oracle, modes

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

    tol is the gate on |series - oracle|.  The series is summed to tol/10,
    and the oracle raises TruncationError when its own trace deficit at
    n_trunc exceeds tol, so a truncation too small for the gate is reported
    as such, never as a mismatch of the closed form.
    """
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


def eigenvalue_rows(
    points: Iterable[tuple[float, int]], note: str = "closed form vs block eigenvalue"
) -> list[tuple]:
    """lambda_n closed form vs the oracle's isolated-block eigenvalue."""
    rows = []
    for r, n in points:
        closed = channels.neg_eigenvalue_boson(r, n)
        oracle = fock_oracle.blockwise_negative_eigenvalue(r, n)
        rows.append(_row("lambda_n_boson", f"r={r:g},n={n}", closed, oracle, note))
    return rows


def fermion_rows(r_values: Sequence[float], n_qubits: int = 10, seed: int = 7) -> list[tuple]:
    """Fermionic E_N and fidelity: closed form vs explicit 4x4 constructions."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in r_values:
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
        worst = None
        for _ in range(n_qubits):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
            outcome = (int(rng.integers(2)), int(rng.integers(2)))
            x, y = qubit.conditional(*outcome)
            f_num = fock_oracle.fidelity_numeric(
                fock_oracle.bob_post_state_fermionic(r, qubit, outcome),
                fock_oracle.dual_rail_target(x, y),
            )
            if worst is None or abs(f_num - channels.fidelity_fermion(r)) > abs(
                worst - channels.fidelity_fermion(r)
            ):
                worst = f_num
        rows.append(
            _row(
                "F_fermion",
                point,
                channels.fidelity_fermion(r),
                worst,
                f"worst case over {n_qubits} random qubits",
            )
        )
    return rows


def fidelity_boson_rows(
    x_values: Sequence[float],
    n_trunc: int = fock_oracle.DEFAULT_TRUNC,
    qubit: fock_oracle.DualRailQubit | None = None,
) -> list[tuple]:
    """Bosonic fidelity cross-check for x = pi*omega_eff/kappa values.

    Three candidates per point: the stated closed form (1 - e^-x)^3, the
    alternative cosh^-6 r = (1 - e^-2x)^3, and the constructive oracle.  A
    final verdict row names the closed form the construction matches.
    """
    if qubit is None:
        qubit = fock_oracle.DualRailQubit(0.6, 0.8)
    rows = []
    verdicts = []
    for x in x_values:
        point = f"pi_omega_over_kappa={x:g}"
        sq = modes.squeeze_boson(1.0, math.pi / x)  # omega_eff = 1, kappa = pi/x
        outcome = (0, 0)
        xa, ya = qubit.conditional(*outcome)
        oracle = fock_oracle.fidelity_numeric(
            fock_oracle.bob_post_state_bosonic(sq.r, qubit, outcome, n_trunc),
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


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_report_csv(rows: list[tuple], path: str) -> None:
    """Write rows under the standard header; deterministic byte-for-byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(REPORT_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
