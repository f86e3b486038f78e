import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bhent
from bhent import channels, cli, fock_oracle, geometry, reports, sweep
from bhent.errors import ContractViolationError, PhysicsDomainError

DOCS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


def spec_2d():
    return sweep.SweepSpec(
        axes=(
            sweep.Axis("r_h", 0.5, 2.0, 3),
            sweep.Axis("omega", 0.2, 1.0, 4),
        ),
        fixed={"d": 4, "statistics": "boson"},
        outputs=("kappa", "E_N", "F"),
    )


class TestAxis:
    def test_values_linear(self):
        assert sweep.Axis("omega", 0.0, 1.0, 3).values() == [0.0, 0.5, 1.0]

    def test_values_log(self):
        vals = sweep.Axis("omega", 0.1, 10.0, 3, "log").values()
        assert vals == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(PhysicsDomainError):
            sweep.Axis("bogus", 0.0, 1.0, 3)
        with pytest.raises(PhysicsDomainError):
            sweep.Axis("omega", 0.0, 1.0, 1)
        with pytest.raises(PhysicsDomainError):
            sweep.Axis("omega", 0.0, 1.0, 3, "cubic")
        with pytest.raises(PhysicsDomainError):
            sweep.Axis("omega", 0.0, 1.0, 3, "log")
        # once a bare TypeError from range, and a log axis of nan points
        with pytest.raises(PhysicsDomainError, match="point count must be a finite integer"):
            sweep.Axis("omega", 0.1, 1.0, 2.5)
        with pytest.raises(PhysicsDomainError, match="log axis omega lo must be finite"):
            sweep.Axis("omega", math.nan, 1.0, 3, "log")


class TestSweepSpec:
    def test_validation(self):
        ax = sweep.Axis("omega", 0.1, 1.0, 2)
        with pytest.raises(PhysicsDomainError):
            sweep.SweepSpec(axes=(), outputs=("E_N",))
        with pytest.raises(PhysicsDomainError):
            sweep.SweepSpec(axes=(ax, ax), outputs=("E_N",))
        with pytest.raises(PhysicsDomainError):
            sweep.SweepSpec(axes=(ax,), fixed={"bogus": 1}, outputs=("E_N",))
        with pytest.raises(PhysicsDomainError):
            sweep.SweepSpec(axes=(ax,), outputs=("bogus",))
        # each parameter is an axis or fixed, and each output is named once
        with pytest.raises(PhysicsDomainError, match="'omega' is given more than once"):
            sweep.SweepSpec(axes=(ax,), fixed={"d": 4, "r_h": 1.0, "omega": 3.0})
        with pytest.raises(PhysicsDomainError, match="'E_N' is given more than once"):
            sweep.SweepSpec(axes=(ax,), fixed={"d": 4, "r_h": 1.0}, outputs=("E_N", "E_N"))

    @pytest.mark.parametrize(
        "axis, fixed",
        [
            (("omega", 0.2, 1.0, 3), {"d": 4, "r_h": 1.0, "statistics": "bosn"}),
            (("statistics", 0.0, 1.0, 2), {"d": 4, "r_h": 1.0, "omega": 1.0}),
            (("omega", 0.2, math.inf, 3), {"d": 4, "r_h": 1.0}),
            (("omega", math.nan, 1.0, 3), {"d": 4, "r_h": 1.0}),
            (("r_h", 0.1, math.nan, 3, "log"), {"d": 4, "omega": 1.0}),
            (("omega", 0.2, 1.0, 3), {"d": 4, "r_h": math.inf}),
            (("omega", 0.2, 1.0, 3), {"d": 4, "r_h": 1.0, "tol": math.nan}),
            (("d", 5.0, 10.0, 4), {"r_h": 1.0, "omega": 1.0}),
            (("omega", 0.2, 1.0, 3), {"d": 4.7, "r_h": 1.0}),
            (("omega", 0.2, 1.0, 3), {"n": 1.5, "mu": 2.0}),
            (("omega", 0.2, 1.0, 3), {"d": 4, "r_h": 1.0, "m": 0.5}),
            (("m", 0.0, 1.0, 3), {"d": 4, "r_h": 1.0, "omega": 1.0}),
        ],
        ids=["statistics-typo", "statistics-axis", "inf-endpoint", "nan-endpoint",
             "nan-log-endpoint", "inf-fixed", "nan-tol", "non-integer-d-axis",
             "non-integer-d-fixed", "non-integer-n-fixed", "non-integer-m-fixed",
             "non-integer-m-axis"],
    )
    def test_rejects_bad_values(self, axis, fixed):
        with pytest.raises(PhysicsDomainError):
            sweep.SweepSpec(axes=(sweep.Axis(*axis),), fixed=fixed, outputs=("E_N",))

    @pytest.mark.parametrize(
        "axis, fixed, message",
        [
            (("omega", 0.1, 1.0, 3), {"d": 4}, "static geometry needs r_h or M with d"),
            (("omega", 0.1, 1.0, 3), {"n": 2, "a": 0.1}, "rotating geometry needs mu with n"),
            (("omega", 0.1, 1.0, 3), {"mu": 2.0}, "geometry needs d (static) or n (rotating)"),
            (("r_h", 0.5, 2.0, 3), {"d": 4}, "a sweep needs omega or omega_rh"),
        ],
        ids=["static", "rotating", "no-route", "no-frequency"],
    )
    def test_rejects_incomplete_names(self, axis, fixed, message):
        # every cell of such a grid would be NA:domain
        with pytest.raises(PhysicsDomainError, match=re.escape(message)):
            sweep.SweepSpec(axes=(sweep.Axis(*axis),), fixed=fixed, outputs=("E_N",))

    @pytest.mark.parametrize(
        "axis, fixed",
        [(("omega_rh", 0.2, 1.0, 3), {"omega": 5.0}), (("omega", 0.2, 1.0, 3), {"omega_rh": 5.0})],
        ids=["axis-omega-rh", "axis-omega"],
    )
    def test_rejects_two_frequencies(self, axis, fixed):
        # once omega won without a word, and omega_rh changed no value
        with pytest.raises(
            PhysicsDomainError, match="^a sweep needs omega or omega_rh, not omega and omega_rh$"
        ):
            sweep.SweepSpec((sweep.Axis(*axis),), {"d": 4, "r_h": 1.0, **fixed}, ("E_N",))

    def test_integral_floats_accepted(self):
        spec = sweep.SweepSpec(
            axes=(sweep.Axis("d", 5.0, 11.0, 7), sweep.Axis("m", 0.0, 2.0, 3)),
            fixed={"r_h": 1.0, "omega": 1.0, "statistics": "fermion"},
            outputs=("E_N",),
        )
        assert [c[0] for c in spec.grid()][::3] == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
        sweep.SweepSpec(axes=(sweep.Axis("omega", 0.2, 1.0, 2),),
                        fixed={"n": 2.0, "mu": 1.0, "m": 1.0}, outputs=("E_N",))

    def test_grid_row_major(self):
        spec = spec_2d()
        grid = list(spec.grid())
        assert len(grid) == 12
        assert grid[0] == (0.5, 0.2)
        assert grid[1][0] == 0.5  # last axis varies fastest
        assert grid[4][0] == 1.25


class TestRunSweep:
    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert sweep.run_sweep(spec_2d(), str(p1)) == 12
        assert sweep.run_sweep(spec_2d(), str(p2)) == 12
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("r_h,omega,kappa,E_N,F\n")
        assert text.count("\n") == 13
        assert "\r" not in text

    @pytest.mark.parametrize("old", [b"", b"x\n", b"junk," * 4000])
    def test_overwrite_matches_fresh_file(self, old, tmp_path):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        sweep.run_sweep(spec_2d(), str(fresh))
        reused.write_bytes(old)
        assert sweep.run_sweep(spec_2d(), str(reused)) == 12
        assert reused.read_bytes() == fresh.read_bytes()

    def test_abort_leaves_only_rows_written(self, tmp_path, monkeypatch):
        path = tmp_path / "abort.csv"
        path.write_bytes(b"junk," * 4000)
        calls = []

        def failing(params, bh, outputs):
            calls.append(params)
            if len(calls) == 3:
                raise OverflowError("injected")
            return real(params, bh, outputs)

        real = sweep.evaluate_cell
        monkeypatch.setattr(sweep, "evaluate_cell", failing)
        with pytest.raises(OverflowError):
            sweep.run_sweep(spec_2d(), str(path))
        assert path.read_bytes() == b""  # no header, no rows and no junk
        assert "junk" not in path.read_text()

    def test_non_regular_output(self):
        assert sweep.run_sweep(spec_2d(), os.devnull) == 12

    def test_superradiant_cells_are_na(self, tmp_path):
        spec = sweep.SweepSpec(
            axes=(sweep.Axis("omega", 0.1, 1.0, 10),),
            fixed={"n": 1, "mu": 2.0, "a": 1.0, "m": 1, "statistics": "fermion"},
            outputs=("E_N", "F"),
        )
        path = tmp_path / "sr.csv"
        sweep.run_sweep(spec, str(path))
        body = path.read_text().splitlines()[1:]
        na_rows = [row for row in body if "NA:superradiant" in row]
        ok_rows = [row for row in body if "NA:" not in row]
        # Omega = 0.5 here, so omega <= 0.5 cells are superradiant for m = 1
        assert len(na_rows) == 5
        assert len(na_rows) + len(ok_rows) == 10

    def test_naked_singularity_cells_are_na(self, tmp_path):
        spec = sweep.SweepSpec(
            axes=(sweep.Axis("a", 0.5, 1.5, 3),),
            fixed={"n": 1, "mu": 1.0, "omega": 1.0},
            outputs=("E_N",),
        )
        path = tmp_path / "ns.csv"
        sweep.run_sweep(spec, str(path))
        body = path.read_text().splitlines()[1:]
        assert "NA:naked_singularity" not in body[0]
        assert "NA:naked_singularity" in body[1]  # a = 1, a^2 >= mu
        assert "NA:naked_singularity" in body[2]

    def test_underflowing_cells_are_na(self, tmp_path):
        # kappa = 5e299, so x = pi omega / kappa is 0: a domain error per cell
        out = tmp_path / "u.csv"
        argv = ["sweep", "--axis", "omega:1e-300:1e-299:2", "--fixed", "d=4",
                "--fixed", "r_h=1e-300", "--output", "r,N_occ,E_N,F", "--out", str(out)]
        assert cli.main(argv) == 0
        body = out.read_text().splitlines()[1:]
        assert body == [
            "1e-300,NA:domain,NA:domain,NA:domain,NA:domain",
            "9.9999999999999999e-300,NA:domain,NA:domain,NA:domain,NA:domain",
        ]

    def test_underflowing_naked_singularity_cells_are_na(self, tmp_path):
        # 2a > mu at every row; a^2 and mu^2 underflow, so Delta(mu/2) would read 0
        out = tmp_path / "ns.csv"
        argv = ["sweep", "--axis", "a:1e-199:2e-199:2", "--fixed", "n=0",
                "--fixed", "mu=2e-200", "--fixed", "omega=1", "--out", str(out)]
        assert cli.main(argv) == 0
        body = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in body] == ["NA:naked_singularity"] * 2

    def test_overflowing_hole_cells_are_na(self, tmp_path):
        # d = 1000 needs an overflowing Gamma(999/2), as `geom --d 1000 --mass 1` does
        out = tmp_path / "ov.csv"
        argv = ["sweep", "--axis", "d:4:1000:2", "--fixed", "M=1", "--fixed", "omega=1",
                "--output", ",".join(sweep.OUTPUT_VOCABULARY), "--out", str(out)]
        assert cli.main(argv) == 0
        body = out.read_text().splitlines()[1:]
        assert len(body) == 2 and "NA" not in body[0]
        assert body[1] == "1000" + ",NA:domain" * len(sweep.OUTPUT_VOCABULARY)

    @pytest.mark.parametrize(
        "params",
        [{"d": 4.7, "r_h": 1.0}, {"n": 1.9, "mu": 2.0, "a": 0.5}],
        ids=["d-4.7", "n-1.9"],
    )
    def test_resolve_geometry_refuses_non_integral(self, params):
        # once truncated by int() to a d = 4 or n = 1 hole
        with pytest.raises(PhysicsDomainError, match="integer"):
            sweep.resolve_geometry(params)

    def test_evaluate_cell_refuses_non_integral_m(self):
        # once truncated by int() to the m = 1 values
        bh = sweep.resolve_geometry({"d": 4, "r_h": 1.0})
        cell = sweep.evaluate_cell({"omega": 1.0, "m": 1.5}, bh, sweep.OUTPUT_VOCABULARY)
        assert set(cell.values()) == {"NA:domain"}

    def test_evaluate_cell_consistency(self):
        bh = sweep.resolve_geometry({"d": 4, "r_h": 1.0})
        everything = sweep.OUTPUT_VOCABULARY
        cell = sweep.evaluate_cell({"d": 4, "r_h": 1.0, "omega": 0.5}, bh, everything)
        assert cell["kappa"] == pytest.approx(0.5, rel=1e-14)
        assert cell["Omega"] == 0.0
        assert 0.0 < cell["F"] < 1.0
        # omega_rh route gives the same numbers
        cell2 = sweep.evaluate_cell({"d": 4, "r_h": 1.0, "omega_rh": 0.5}, bh, everything)
        assert cell2["E_N"] == cell["E_N"]
        # a geometry token fills every output
        na = sweep.evaluate_cell({"n": 1, "mu": 1.0, "a": 1.0}, "NA:naked_singularity", everything)
        assert set(na.values()) == {"NA:naked_singularity"}


# Geometry parameters: a run of cells that agree on these shares one hole.
GEOMETRY_NAMES = {"d", "n", "M", "mu", "r_h", "a", "a_star"}
# n = 1, mu = 1: a >= 1 is a naked singularity, and at a = 0.5 the horizon
# turns with Omega = 0.5, so m = 1 modes with omega <= 0.5 are superradiant.
ROTATING = {"n": 1, "mu": 1.0, "m": 1}
NA_BOTH = {"NA:naked_singularity", "NA:superradiant"}
A_AXIS = sweep.Axis("a", 0.0, 1.5, 4)
OMEGA_AXIS = sweep.Axis("omega", 0.1, 1.0, 4)


def _per_cell_csv(spec) -> bytes:
    """The sweep's CSV with each cell's hole resolved afresh."""
    lines = [",".join(spec.header())]
    for coords in spec.grid():
        params = dict(spec.fixed)
        params.update(zip((ax.name for ax in spec.axes), coords))
        try:
            bh = sweep.resolve_geometry(params)
        except PhysicsDomainError as exc:
            bh = sweep._token_for(exc)
        cell = sweep.evaluate_cell(params, bh, sweep.OUTPUT_VOCABULARY)
        values = list(coords) + [cell[o] for o in spec.outputs]
        lines.append(",".join(sweep.format_value(v) for v in values))
    return ("\n".join(lines) + "\n").encode()


def _geometry_runs(spec) -> int:
    """Runs of consecutive cells (row-major) with equal geometry values."""
    geo = [i for i, ax in enumerate(spec.axes) if ax.name in GEOMETRY_NAMES]
    keys = [tuple(coords[i] for i in geo) for coords in spec.grid()]
    return sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])


class TestHoleReuse:
    @pytest.mark.parametrize(
        "axes, fixed, tokens",
        [
            ((OMEGA_AXIS, A_AXIS), {**ROTATING, "statistics": "fermion"}, NA_BOTH),
            ((A_AXIS, OMEGA_AXIS), {**ROTATING, "statistics": "fermion"}, NA_BOTH),
            ((A_AXIS, sweep.Axis("omega", 0.1, 1.0, 3), sweep.Axis("mu", 1.0, 2.0, 2)),
             {"n": 1, "m": 1}, NA_BOTH),
            ((sweep.Axis("mu", 1.0, 2.0, 2), A_AXIS, OMEGA_AXIS), {"n": 1, "m": 1}, NA_BOTH),
            ((sweep.Axis("a_star", 0.0, 0.9, 3), OMEGA_AXIS), {"n": 2, "mu": 2.0, "m": 2},
             {"NA:superradiant"}),
            ((sweep.Axis("d", 4, 6, 3), sweep.Axis("M", 1, 10, 2),
              sweep.Axis("omega_rh", 0.2, 1.0, 3)), {}, set()),
            ((OMEGA_AXIS,), {**ROTATING, "a": 0.5}, {"NA:superradiant"}),
        ],
        ids=["geometry-innermost", "geometry-outermost", "geometry-mixed",
             "geometry-outer-two", "a-star-outer", "static-d-and-mass", "no-geometry-axis"],
    )
    def test_same_bytes_one_resolve_per_geometry_run(
        self, axes, fixed, tokens, tmp_path, monkeypatch
    ):
        spec = sweep.SweepSpec(axes, fixed, sweep.OUTPUT_VOCABULARY)
        expected = _per_cell_csv(spec)
        assert tokens <= set(re.findall(r"NA:\w+", expected.decode()))

        calls = []
        resolve = sweep.resolve_geometry
        monkeypatch.setattr(
            sweep, "resolve_geometry", lambda params: calls.append(params) or resolve(params)
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep.run_sweep(spec, str(first))
        assert len(calls) == _geometry_runs(spec)
        sweep.run_sweep(spec, str(second))
        assert first.read_bytes() == expected
        assert second.read_bytes() == expected


class TestLazyOutputs:
    """The bosonic series is summed once for each cell whose E_N is written, and only then."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        calls = []
        real = channels.log_negativity_boson

        def counted(*args):
            calls.append(args)
            return real(*args)

        # replaced on the module, as the benchmark's tracer replaces it
        monkeypatch.setattr(channels, "log_negativity_boson", counted)
        return calls

    def test_fidelity_sweep_sums_no_series(self, series_calls, tmp_path):
        out = tmp_path / "f.csv"
        cfg = os.path.join(DOCS_DIR, "fig_fidelity_vs_dims_mass_boson.cfg")
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 71
        assert series_calls == []

    def test_point_commands(self, series_calls, capsys):
        assert cli.main(["teleport", "--kappa", "1", "--omega", "1"]) == 0
        assert series_calls == []
        assert cli.main(["entangle", "--kappa", "1", "--omega", "1"]) == 0
        assert len(series_calls) == 1

    def test_negativity_sweep_sums_once_per_cell_in_domain(self, series_calls, tmp_path):
        # n = 1, mu = 1: a >= 1 is naked, and m = 1 modes with omega <= Omega are superradiant
        out = tmp_path / "e.csv"
        argv = ["sweep", "--axis", "a:0:1.5:4", "--axis", "omega:0.1:1:4", "--fixed", "n=1",
                "--fixed", "mu=1", "--fixed", "m=1", "--output", "kappa,E_N", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        in_domain = [row for row in rows if "NA:" not in row]
        assert 0 < len(in_domain) < len(rows) == 16
        assert len(series_calls) == len(in_domain)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# comment line\n"
            "axis = omega:0.2:1.0:4\n"
            "fixed = d = 4\n"
            "fixed = r_h = 1.0\n"
            "output = E_N,F\n"
        )
        out = tmp_path / "out.csv"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,E_N,F"
        assert len(lines) == 5

    def test_output_lines_stack(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = omega:0.2:1.0:4\nfixed = d = 4\nfixed = r_h = 1.0\n"
                       "output = F\noutput = E_N\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "omega,F,E_N"
        # --output replaces the config's whole group
        argv = ["sweep", "--config", str(cfg), "--output", "kappa", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_text().splitlines()[0] == "omega,kappa"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = omega:0.2:1.0:4\nfixed = d = 4\nfixed = r_h = 1.0\n")
        out = tmp_path / "out.csv"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--axis", "omega:0.5:1.0:2",
             "--fixed", "d=4", "--fixed", "r_h=2.0", "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 3

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("axis omega:0.2:1.0:4\n")
        with pytest.raises(PhysicsDomainError):
            cli.read_config(str(cfg))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("axis = omega:0.1:1:abc", "axis must be name:lo:hi:count[:scale]"),
            ("fixed = d=abc", "fixed parameter d must be a number"),
            ("outptu = E_N,F", "unknown key 'outptu'"),
            ("axis = omega:0.1:1:1", "axis omega point count must be an integer >= 2, got 1"),
            ("fixed = omega = 3", "sweep parameter 'omega' is given more than once"),
            ("fixed = d = 5", "sweep parameter 'd' is given more than once"),
            ("output = E_N,E_N", "output 'E_N' is given more than once"),
            ("output = F\noutput = F", "output 'F' is given more than once"),
        ],
        ids=["axis-count", "fixed-value", "misspelt-key", "one-point", "axis-and-fixed",
             "fixed-twice", "output-twice", "output-on-two-lines"],
    )
    def test_bad_line_exits_3_before_any_csv(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"axis = omega:0.2:1.0:4\nfixed = d = 4\nfixed = r_h = 1\n{line}\n")
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    def test_missing_config_exits_4(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)])
        assert rc == cli.EXIT_IO == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "missing.cfg" in err
        assert not out.exists()

    def test_non_utf8_config_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"axis = omega:0.2:1.0:4\n\xff\n")
        out = tmp_path / "x.csv"
        argv = ["sweep", "--config", str(cfg), "--fixed", "d=4", "--fixed", "r_h=1",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: config file is not UTF-8 text\n"
        assert not out.exists()


class TestExitCodes:
    def test_success(self, capsys):
        assert cli.main(["geom", "--d", "4", "--mass", "1"]) == 0
        out = capsys.readouterr().out
        assert "r_h = 2" in out
        assert "kappa = 0.25" in out

    def test_invalid_flag(self, capsys):
        assert cli.main(["geom", "--bogus", "1"]) == 2
        assert cli.main(["nonsense"]) == 2

    def test_physics_error(self, capsys):
        assert cli.main(["geom", "--n", "1", "--mu", "1", "--a", "1"]) == 3
        assert "no horizon" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path):
        rc = cli.main(
            ["sweep", "--axis", "omega:0.2:1.0:2", "--fixed", "d=4",
             "--fixed", "r_h=1.0", "--out", str(tmp_path / "missing" / "x.csv")]
        )
        assert rc == 4

    def test_unwritable_report_path(self, tmp_path, capsys):
        rc = cli.main(["oracle-check", "--tanhr", "0.2", "--trunc", "10",
                       "--out", str(tmp_path / "missing" / "oc.csv")])
        assert rc == 4
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["geom", "--d", "4", "--mass", "1", "--units", "si", "--mstar", "0"],
            ["geom", "--d", "1000", "--mass", "1"],
            ["geom", "--d", "10000000", "--rh", "1"],
            ["tev", "--n", "1", "--mstar", "1e-300", "--mbh", "1"],
            ["estimate", "radiation-density", "--temp", "1e200"],
            ["estimate", "coupling-time", "--tbh", "1e-300"],
            ["geom", "--d", "1000", "--rh", "1"],
            ["entangle", "--kappa", "1e300", "--omega", "1e-300"],
            ["geom", "--d", "5", "--rh", "1e-300"],
            ["geom", "--d", "5", "--rh", "1.3e154"],
            ["geom", "--n", "2", "--mu", "1e308"],
            ["geom", "--n", "2", "--mu", "1e300", "--a", "1e10"],
            ["estimate", "hawking-temp", "--msun", "1e-320"],
            ["tev", "--n", "1", "--mstar", "1e-100", "--mbh", "1"],
            ["geom", "--n", "9", "--mu", "1e300", "--units", "si", "--mstar", "1e-300"],
        ],
        ids=["mstar-zero", "d-1000", "d-1e7", "tev-overflow", "radiation-overflow",
             "coupling-underflow", "d-1000-rh", "ratio-underflow", "mass-underflow",
             "mass-overflow-static", "mass-overflow-rotating", "angmom-overflow-rotating",
             "hawking-temp-inf", "tev-size-inf", "geom-si-inf"],
    )
    def test_float_range_exits_3(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["geom", "--n", "9", "--mu", "1e-300", "--units", "si", "--mstar", "1e300"],
             "r_h_si_m underflows to 0"),
            (["estimate", "radiation-density", "--temp", "1e-300"],
             "radiation density underflows to 0"),
            (["tev", "--n", "1", "--mstar", "1e300", "--mbh", "1"],
             "M_*^-(n+2) M_bh underflows to 0 for n=1, --mstar 1e+300, --mbh 1.0"),
            (["tev", "--n", "1", "--mstar", "1e-100", "--mbh", "1e300"],
             "M_*^-(n+2) M_bh overflows for n=1, --mstar 1e-100, --mbh 1e+300"),
            # once exit 0, printing r_h_4 = 0 and ratio_direct = 0
            (["tev", "--n", "7", "--mstar", "1e-3", "--mbh", "1e-300"],
             "r_h_4 underflows to 0 for n=7, --mstar 0.001, --mbh 1e-300"),
            (["tev", "--n", "1", "--mstar", "1e-100", "--mbh", "1"],
             "R overflows for n=1, --mstar 1e-100, --mbh 1.0"),
            # once "mass must be finite and positive, got inf": a mass in kg
            (["estimate", "hawking-temp", "--msun", "1e300"], "--msun 1e+300 overflows"),
            (["estimate", "coupling-time", "--msun", "1e300"], "--msun 1e+300 overflows"),
            (["estimate", "coupling-time", "--msun", "-1"],
             "--msun must be finite and positive, got -1.0"),
            # once exit 0, printing F = 0: (1 - e^-x)^3 underflows below x of about 1e-108
            (["teleport", "--kappa", "1e300", "--omega", "1e-2"], "F underflows to 0"),
        ],
        ids=["geom-si-underflow", "radiation-underflow", "tev-mass-underflow",
             "tev-mass-overflow", "tev-horizon-underflow", "tev-size-overflow",
             "hawking-temp-msun-overflow", "coupling-time-msun-overflow",
             "coupling-time-msun-negative", "teleport-fidelity-underflow"],
    )
    def test_vanishing_point_result_exits_3(self, argv, message, capsys):
        # a product of nonzero finite factors that rounds to 0 is no result
        assert cli.main(argv) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags", [[], ["--msun", "1", "--tbh", "1e-8"]], ids=["neither", "both"]
    )
    def test_coupling_time_reads_one_temperature(self, flags, capsys):
        # once exit 0 with both, printing the --tbh lines and dropping the mass
        assert cli.main(["estimate", "coupling-time", *flags]) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coupling-time needs exactly one of --tbh and --msun\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "hawking-temp", "--msun", "1", "--tbh", "5", "--temp", "3"],
             "hawking-temp does not read --tbh"),
            (["estimate", "radiation-density", "--temp", "3", "--dl", "5"],
             "radiation-density does not read --dl"),
            (["estimate", "coupling-time", "--tbh", "1e-8", "--temp", "3"],
             "coupling-time does not read --temp"),
            # named before --msun is checked, which would refuse -1
            (["estimate", "radiation-density", "--temp", "3", "--msun", "-1"],
             "radiation-density does not read --msun"),
        ],
        ids=["hawking-temp-tbh", "radiation-density-dl", "coupling-time-temp",
             "radiation-density-msun"],
    )
    def test_estimate_refuses_flags_it_does_not_read(self, argv, message, capsys):
        # once exit 0, the flag dropped without a word
        assert cli.main(argv) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_sweep_cell_writes_underflowed_fidelity(self, tmp_path):
        # teleport refuses F = 0 there; a cell writes the closed form's float
        path = tmp_path / "f.csv"
        spec = sweep.SweepSpec(
            axes=(sweep.Axis("omega", 1e-2, 2e-2, 2),),
            fixed={"d": 4, "r_h": 1e-300}, outputs=("F",),
        )
        assert sweep.run_sweep(spec, str(path)) == 2
        assert path.read_text().splitlines() == ["omega,F", "0.01,0", "0.02,0"]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["estimate", "radiation-density", "--temp", "0"], "rho_J_per_m3 = 0"),
            (["geom", "--d", "4", "--mass", "1", "--units", "si", "--mstar", "1"], "J = 0"),
            (["geom", "--n", "9", "--mu", "1e-300"], "Omega = 0"),
        ],
        ids=["radiation-at-zero", "static-J", "static-Omega"],
    )
    def test_exact_zeros_still_print(self, argv, line, capsys):
        assert cli.main(argv) == cli.EXIT_OK
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["geom", "--n", "0", "--mu", "2e-200", "--a", "1e-199"], "no horizon"),
            (["geom", "--n", "0", "--mu", "1e300", "--a", "1e300"], "no horizon"),
            (["geom", "--n", "0", "--mu", "2e-200"], "horizon underflows"),
            (["geom", "--n", "0", "--mu", "2e-200", "--a", "5e-201"], "horizon underflows"),
        ],
        ids=["naked-underflow", "naked-overflow", "horizon-underflow",
             "horizon-underflow-spinning"],
    )
    def test_extreme_kerr_exits_3(self, argv, message, capsys):
        # Delta under- or overflows at these scales; the hole must not be misread
        assert cli.main(argv) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_overflowing_spin_prints_finite_values(self, capsys):
        # a_* = 1.8e196: a_*^2 once overflowed to kappa = nan, T = nan, Omega = 0
        argv = ["geom", "--n", "3", "--mu", "1.7710468985753346e-78",
                "--a", "4.9240704937596464e+78"]
        assert cli.main(argv) == cli.EXIT_OK
        values = [float(line.split(" = ")[1]) for line in capsys.readouterr().out.splitlines()]
        assert len(values) == 7
        assert all(math.isfinite(v) for v in values)
        assert all(v > 0 for v in values)

    def test_vanishing_spin_exits_3_with_no_output(self, tmp_path, capsys):
        # a_*^2 overflows, r_h = [mu/(1+a_*^2)]^(1/3) reads 0, and a = a_* r_h = 0
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--axis", "omega:0.1:1:2", "--fixed", "n=2", "--fixed", "mu=1",
                       "--fixed", "a_star=1e200", "--output", "kappa,Omega", "--out", str(out)])
        assert rc == cli.EXIT_PHYSICS
        err = capsys.readouterr().err
        assert err.startswith("error: spin underflows to 0") and err.count("\n") == 1
        assert not out.exists()

    def test_vanishing_spin_cell_is_na(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--axis", "a_star:0:1e200:2", "--fixed", "n=2", "--fixed", "mu=1",
                       "--fixed", "omega=0.5", "--output", "kappa,Omega", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert out.read_text().splitlines()[1:] == [
            "0,1.5,0", "9.9999999999999997e+199,NA:domain,NA:domain"
        ]

    def test_teleport_takes_no_tol(self, capsys):
        assert cli.main(["teleport", "--kappa", "1", "--omega", "1", "--tol", "1e-6"]) == 2

    def test_oracle_mismatch_truncation(self, tmp_path, capsys):
        rc = cli.main(
            ["oracle-check", "--tanhr", "0.95", "--trunc", "3",
             "--out", str(tmp_path / "oc.csv")]
        )
        assert rc == 5
        assert "trace deficit" in capsys.readouterr().err

    def test_oracle_closed_form_mismatch_exits_5(self, tmp_path, monkeypatch, capsys):
        real = channels.log_negativity_fermion
        monkeypatch.setattr(channels, "log_negativity_fermion", lambda r: real(r) + 1e-6)
        out = tmp_path / "oc.csv"
        assert cli.main(["oracle-check", "--trunc", "40", "--out", str(out)]) == 5
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 4
        assert all(line.startswith("MISMATCH E_N_fermion r=") for line in err)
        assert out.exists()
        assert captured.out.splitlines()[-1] == f"wrote 35 rows to {out}"

    def test_oracle_truncation_is_not_a_mismatch(self, tmp_path, capsys):
        # the oracle's own trace deficit at trunc 40 (8.7e-4) is above the gate
        rc = cli.main(
            ["oracle-check", "--tanhr", "0.9", "--trunc", "40",
             "--out", str(tmp_path / "oc.csv")]
        )
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("error: truncation 40 too small") and "trace deficit" in err
        assert "MISMATCH" not in err

    @pytest.mark.parametrize("trunc", ["0", "1", "100000"])
    def test_oracle_trunc_out_of_range_exits_3(self, trunc, monkeypatch, capsys):
        # refused before the blockwise negativity builds any block
        built = []
        block = fock_oracle.bell_block_bosonic
        monkeypatch.setattr(
            fock_oracle, "bell_block_bosonic", lambda r, n: built.append(n) or block(r, n)
        )
        rc = cli.main(["oracle-check", "--trunc", trunc, "--out", os.devnull])
        assert rc == cli.EXIT_PHYSICS
        assert built == []
        err = capsys.readouterr().err
        assert err == f"error: truncation must be in [2, {fock_oracle.MAX_TRUNC}], got {trunc}\n"

    def test_oracle_check_certified_at_high_squeezing(self, tmp_path):
        rc = cli.main(
            ["oracle-check", "--tanhr", "0.9", "--trunc", "140",
             "--out", str(tmp_path / "oc.csv")]
        )
        assert rc == 0

    def test_oracle_cross_checks_expansion_branch(self, tmp_path, capsys):
        # tanh^2 r = 0.9025 is evaluated by the Li_{-1/2} expansion about t = 1
        argv = ["oracle-check", "--tanhr", "0.95", "--trunc", "200",
                "--out", str(tmp_path / "oc.csv")]
        assert cli.main(argv + ["--tol", "1e-6"]) == 0
        # at a tighter gate trunc 200 itself is too small (deficit 1.2e-8)
        assert cli.main(argv + ["--tol", "1e-8"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: truncation 200 too small") and "trace deficit" in err
        assert "MISMATCH" not in err

    def test_oracle_check_passes(self, tmp_path):
        rc = cli.main(
            ["oracle-check", "--tanhr", "0.2,0.5", "--trunc", "40",
             "--out", str(tmp_path / "oc.csv")]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (fock_oracle, "jacobi_eigh",
             ["oracle-check", "--tanhr", "0.2", "--trunc", "10", "--out", os.devnull]),
            (geometry, "surface_gravity_schw", ["geom", "--d", "4", "--mass", "1"]),
        ],
        ids=["oracle-check", "geom"],
    )
    def test_contract_violation(self, module, name, argv, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ContractViolationError("injected failure")

        monkeypatch.setattr(module, name, broken)
        assert cli.main(argv) == cli.EXIT_CONTRACT == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "injected failure" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["entangle", "--kappa", "inf", "--omega", "1"], "kappa", "inf"),
            (["entangle", "--kappa", "1", "--omega", "nan"], "omega", "nan"),
            (["teleport", "--kappa", "nan", "--omega", "1"], "kappa", "nan"),
            (["geom", "--d", "4", "--rh", "nan"], "rh", "nan"),
            (["geom", "--n", "2", "--mu", "nan"], "mu", "nan"),
            (["geom", "--n", "0", "--mu", "1", "--a", "nan"], "a", "nan"),
            (["tev", "--n", "2", "--mstar", "inf", "--mbh", "5"], "mstar", "inf"),
            (["estimate", "radiation-density", "--temp", "nan"], "temp", "nan"),
        ],
        ids=lambda v: "-".join(v[:1]) if isinstance(v, list) else v,
    )
    def test_non_finite_flag(self, argv, flag, value, capsys):
        assert cli.main(argv) == cli.EXIT_PHYSICS == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{flag} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--axis", "omega:0.2:1.0:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--fixed", "statistics=bosn"],
            ["--axis", "d:5:10:4", "--fixed", "r_h=1", "--fixed", "omega=1"],
            ["--axis", "omega:0.2:1.0:3", "--fixed", "d=4.7", "--fixed", "r_h=1"],
            ["--axis", "omega:0.2:1.0:3", "--fixed", "d=4", "--fixed", "r_h=nan"],
            ["--axis", "omega:0.1:1:3", "--fixed", "d=4"],
            # malformed flags: once exit 2, "invalid _parse_axis value"
            ["--axis", "omega:0.1:1:1", "--fixed", "d=4", "--fixed", "r_h=1"],
            ["--axis", "omega:0.1:1:3", "--fixed", "d"],
            ["--axis", "bogus:0.1:1:3", "--fixed", "d=4", "--fixed", "r_h=1"],
            # once exit 0: the fixed omega or the first d dropped, a column written twice
            ["--axis", "omega:0.1:2:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--fixed", "omega=3"],
            ["--axis", "omega:0.1:2:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--fixed", "d=5"],
            ["--axis", "omega:0.1:2:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--output", "E_N,E_N"],
            # a fixed geometry with no hole: once exit 0 and an all-NA CSV
            ["--axis", "omega:0.1:1:3", "--fixed", "d=3", "--fixed", "r_h=1"],
            ["--axis", "omega:0.1:1:3", "--fixed", "d=4", "--fixed", "r_h=-1"],
            ["--axis", "omega:0.1:1:3", "--fixed", "d=4", "--fixed", "M=0"],
            ["--axis", "omega:0.1:1:3", "--fixed", "n=1", "--fixed", "mu=1",
             "--fixed", "a=2"],
            # once exit 0: the fixed omega won, and three rows read E_N = 1
            ["--axis", "omega_rh:0.2:1.0:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--fixed", "omega=5"],
            ["--axis", "omega:0.2:1.0:3", "--fixed", "d=4", "--fixed", "r_h=1",
             "--fixed", "omega_rh=5"],
        ],
        ids=["statistics-typo", "non-integer-d-axis", "non-integer-d-fixed", "nan-fixed",
             "no-geometry-route", "one-point-flag", "fixed-no-value-flag", "unknown-axis-flag",
             "axis-and-fixed", "fixed-twice", "output-twice", "fixed-d-3", "fixed-negative-rh",
             "fixed-zero-mass", "fixed-naked-singularity", "axis-omega-rh-fixed-omega",
             "axis-omega-fixed-omega-rh"],
    )
    def test_bad_sweep_spec_writes_no_csv(self, args, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", *args, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0.1", "5e-31"])
    def test_oracle_gate_tol_out_of_range_exits_3(self, tol, capsys):
        # once refused as the derived series tolerance tol/10, a value never typed
        assert cli.main(["oracle-check", "--tol", tol, "--out", os.devnull]) == 3
        lo, hi = 10.0 * channels.MIN_SERIES_TOL, 10.0 * channels.MAX_SERIES_TOL
        expected = f"error: oracle gate tol must be in [{lo!r}, {hi!r}], got {float(tol)}\n"
        assert capsys.readouterr().err == expected
        for edge in (lo, hi):  # every gate accepted derives a series tolerance accepted
            channels.check_series_tol(edge / 10.0)
            assert len(reports.negativity_rows([0.0], 2, edge)) == 2

    @pytest.mark.parametrize("tanhr", ["nan", "1", "-0.2", "0.3,abc"])
    def test_oracle_check_bad_tanhr(self, tanhr, capsys):
        assert cli.main(["oracle-check", "--tanhr", tanhr, "--out", os.devnull]) == 3
        assert capsys.readouterr().err.startswith("error: --tanhr")

    def test_oracle_check_default_trunc(self, monkeypatch, tmp_path, capsys):
        # --trunc falls back to fock_oracle.DEFAULT_TRUNC, read when the command runs.
        monkeypatch.setattr(fock_oracle, "DEFAULT_TRUNC", 3)
        rc = cli.main(["oracle-check", "--tanhr", "0.95", "--out", str(tmp_path / "oc.csv")])
        assert rc == 5
        assert "trace deficit" in capsys.readouterr().err


def test_cli_import_loads_neither_scipy_nor_numpy(tmp_path):
    # none of them loads, near the horizon and in oracle-check included; and
    # against what a bare interpreter has loaded, the import and the geom,
    # entangle and sweep commands add no dataclass machinery, no fractions,
    # and neither the estimators nor the oracle
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import bhent.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in ('scipy', 'numpy', 'mpmath') if m in sys.modules)\n"
        "def added(*names):\n"
        "    return sorted(m for m in names if m in sys.modules and m not in bare)\n"
        "STARTUP = ('dataclasses', 'inspect', 'fractions')\n"
        "OTHERS = ('bhent.estimates', 'bhent.fock_oracle')\n"
        "print('import', loaded(), added(*STARTUP, *OTHERS))\n"
        "rcs = [bhent.cli.main(['geom', '--n', '2', '--mu', '1', '--a', '0.5']),\n"
        "       bhent.cli.main(['entangle', '--kappa', '1', '--omega', '1e-4']),\n"
        "       bhent.cli.main(['sweep', '--axis', 'omega:1e-6:1e-2:9:log', '--fixed', 'd=4',\n"
        "                       '--fixed', 'r_h=1', '--out', sys.argv[2]])]\n"
        "print('near-horizon', rcs, loaded(), added(*STARTUP, *OTHERS))\n"
        "rc = bhent.cli.main(['oracle-check', '--tanhr', '0.2,0.5', '--out', sys.argv[1]])\n"
        "print('oracle-check', rc, loaded(), added(*STARTUP))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bhent.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "oc.csv"), str(tmp_path / "nh.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import [] []"
    assert "near-horizon [0, 0, 0] [] []" in lines
    assert lines[-1] == "oracle-check 0 [] []"
    # the first cell, omega = 1e-6, has tanh^2 r = 1 - 1.3e-5 and gets a value
    with open(tmp_path / "nh.csv", encoding="utf-8") as fh:
        first = fh.read().splitlines()[1]
    assert not first.split(",")[1].startswith("NA")


def test_runtime_source_names_numpy_only_in_draws_comment():
    hits = [
        (path.name, line.strip())
        for path in sorted(Path(bhent.__file__).parent.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "numpy" in line
    ]
    assert hits == [("reports.py", "#   rng = numpy.random.default_rng(7)")]


class TestSeriesTolerance:
    """A tol outside the series range is refused: a sweep's before any CSV opens."""

    @pytest.mark.parametrize(
        "extra",
        [["--fixed", "tol=0.5"], ["--fixed", "tol=1e-40"], ["--axis", "tol:1e-6:0.5:2"]],
        ids=["fixed-above", "fixed-below", "axis"],
    )
    def test_rejected_with_no_output(self, extra, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--axis", "omega:0.2:1.0:2", "--fixed", "d=4",
                       "--fixed", "r_h=1", *extra, "--out", str(out)])
        assert rc == cli.EXIT_PHYSICS == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: series tolerance must be in")
        assert not out.exists()

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    def test_entangle_rejects_for_both_statistics(self, statistics, capsys):
        # the fermionic closed form reads no tol, but the flag is still checked
        argv = ["entangle", "--kappa", "1", "--omega", "1", "--statistics", statistics]
        assert cli.main(argv + ["--tol", "5"]) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: series tolerance must be in [1e-30, 0.001], got 5.0\n"


class TestPointCommands:
    def test_entangle_fermion(self, capsys):
        rc = cli.main(["entangle", "--kappa", "1", "--omega", "1",
                       "--statistics", "fermion"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.split("E_N = ")[1].splitlines()[0])
        assert 0.99 < value <= 1.0

    def test_teleport_matches_closed_form(self, capsys):
        rc = cli.main(["teleport", "--kappa", str(math.pi), "--omega", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.split("F = ")[1].splitlines()[0])
        assert value == pytest.approx((1.0 - math.exp(-1.0)) ** 3, rel=1e-9)

    def test_estimate_subcommands(self, capsys):
        assert cli.main(["estimate", "hawking-temp", "--msun", "1"]) == 0
        assert cli.main(["estimate", "radiation-density", "--temp", "2.7"]) == 0
        assert cli.main(["estimate", "coupling-time", "--tbh", "1e-8"]) == 0
        assert cli.main(["estimate", "hawking-temp"]) == 3  # missing mass
        assert cli.main(["estimate", "radiation-density"]) == 3  # missing temperature
        assert capsys.readouterr().err.endswith("error: radiation-density needs --temp\n")

    def test_tev(self, capsys):
        assert cli.main(["tev", "--n", "2", "--mstar", "1", "--mbh", "5"]) == 0
        out = capsys.readouterr().out
        assert "r_h_4n" in out


def _readme_cli_examples() -> list[str]:
    """The commands of the shell block under README's `## CLI`, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "bhent"
    argv = argv[1:]
    for i, flag in enumerate(argv[:-1]):
        if flag == "--out":
            argv[i + 1] = str(tmp_path / argv[i + 1])
    monkeypatch.chdir(Path(__file__).parent.parent)  # the examples name docs/ from the root
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err


class TestFigureRecipes:
    @pytest.mark.parametrize(
        "name", sorted(f for f in os.listdir(DOCS_DIR) if f.endswith(".cfg"))
    )
    def test_recipe_runs_quickly(self, name, tmp_path):
        out = tmp_path / "fig.csv"
        start = time.monotonic()
        rc = cli.main(["sweep", "--config", os.path.join(DOCS_DIR, name), "--out", str(out)])
        elapsed = time.monotonic() - start
        assert rc == 0
        assert elapsed < 10.0
        lines = out.read_text().splitlines()
        assert len(lines) > 2

    def test_fermion_fidelity_recipe_hits_asymptote(self, tmp_path):
        out = tmp_path / "fig.csv"
        cfg = os.path.join(DOCS_DIR, "fig_fermion_fidelity_vs_kappa.cfg")
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        fids = [float(row[1]) for row in rows]
        # kappa shrinks down the file (r_h axis is log-increasing, kappa = 1/(2 r_h))
        assert fids[0] == pytest.approx(0.5, abs=1e-3)
        assert fids[-1] > 0.999
        for lo, hi in zip(fids, fids[1:]):
            assert lo <= hi + 1e-12
