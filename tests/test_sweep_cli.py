import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bhent
from bhent import cli, fock_oracle, geometry, sweep
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

        def failing(params, bh):
            calls.append(params)
            if len(calls) == 3:
                raise OverflowError("injected")
            return real(params, bh)

        real = sweep.evaluate_cell
        monkeypatch.setattr(sweep, "evaluate_cell", failing)
        with pytest.raises(OverflowError):
            sweep.run_sweep(spec_2d(), str(path))
        assert path.read_text().count("\n") == 3  # header and two rows, no junk
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

    def test_evaluate_cell_consistency(self):
        bh = sweep.resolve_geometry({"d": 4, "r_h": 1.0})
        cell = sweep.evaluate_cell({"d": 4, "r_h": 1.0, "omega": 0.5}, bh)
        assert cell["kappa"] == pytest.approx(0.5, rel=1e-14)
        assert cell["Omega"] == 0.0
        assert 0.0 < cell["F"] < 1.0
        # omega_rh route gives the same numbers
        cell2 = sweep.evaluate_cell({"d": 4, "r_h": 1.0, "omega_rh": 0.5}, bh)
        assert cell2["E_N"] == cell["E_N"]
        # a geometry token fills every output
        na = sweep.evaluate_cell({"n": 1, "mu": 1.0, "a": 1.0}, "NA:naked_singularity")
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
        cell = sweep.evaluate_cell(params, bh)
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
        ],
        ids=["axis-count", "fixed-value", "misspelt-key"],
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
        ],
        ids=["mstar-zero", "d-1000", "d-1e7", "tev-overflow", "radiation-overflow",
             "coupling-underflow", "d-1000-rh", "ratio-underflow"],
    )
    def test_float_range_exits_3(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_PHYSICS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_teleport_takes_no_tol(self, capsys):
        assert cli.main(["teleport", "--kappa", "1", "--omega", "1", "--tol", "1e-6"]) == 2

    def test_oracle_mismatch_truncation(self, tmp_path, capsys):
        rc = cli.main(
            ["oracle-check", "--tanhr", "0.95", "--trunc", "3",
             "--out", str(tmp_path / "oc.csv")]
        )
        assert rc == 5
        assert "trace deficit" in capsys.readouterr().err

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
        ],
        ids=["statistics-typo", "non-integer-d-axis", "non-integer-d-fixed", "nan-fixed",
             "no-geometry-route"],
    )
    def test_bad_sweep_spec_writes_no_csv(self, args, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", *args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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
    # none of them loads, near the horizon and in oracle-check included
    code = (
        "import sys\n"
        "import bhent.cli\n"
        "from bhent import sweep\n"
        "def loaded():\n"
        "    return sorted(m for m in ('scipy', 'numpy', 'mpmath') if m in sys.modules)\n"
        "print('import', loaded())\n"
        "rc = bhent.cli.main(['entangle', '--kappa', '1', '--omega', '1e-4'])\n"
        "spec = sweep.SweepSpec(axes=(sweep.Axis('omega', 1e-6, 1e-2, 9, 'log'),),\n"
        "                       fixed={'d': 4, 'r_h': 1.0, 'statistics': 'boson'},\n"
        "                       outputs=('E_N',))\n"
        "sweep.run_sweep(spec, sys.argv[2])\n"
        "print('near-horizon', rc, loaded())\n"
        "rc = bhent.cli.main(['oracle-check', '--tanhr', '0.2,0.5', '--out', sys.argv[1]])\n"
        "print('oracle-check', rc, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bhent.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "oc.csv"), str(tmp_path / "nh.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import []"
    assert "near-horizon 0 []" in lines
    assert lines[-1] == "oracle-check 0 []"
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
    """A sweep tol outside the series range is refused before any CSV opens."""

    @pytest.mark.parametrize(
        "extra, env",
        [
            (["--fixed", "tol=0.5"], None),
            (["--fixed", "tol=1e-40"], None),
            (["--axis", "tol:1e-6:0.5:2"], None),
            ([], "0.5"),
        ],
        ids=["fixed-above", "fixed-below", "axis", "env"],
    )
    def test_rejected_with_no_output(self, extra, env, tmp_path, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("BHE_DEFAULT_TOL", raising=False)
        else:
            monkeypatch.setenv("BHE_DEFAULT_TOL", env)
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--axis", "omega:0.2:1.0:2", "--fixed", "d=4",
                       "--fixed", "r_h=1", *extra, "--out", str(out)])
        assert rc == cli.EXIT_PHYSICS == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: series tolerance must be in")
        assert not out.exists()


class TestEnvTolerance:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("BHE_DEFAULT_TOL", "1e-4")
        assert cli.default_tol() == 1e-4
        monkeypatch.delenv("BHE_DEFAULT_TOL")
        assert cli.default_tol() == 1e-10

    def test_invalid_env_is_domain_error(self, monkeypatch, capsys):
        monkeypatch.setenv("BHE_DEFAULT_TOL", "not-a-number")
        rc = cli.main(["entangle", "--kappa", "1", "--omega", "1"])
        assert rc == 3

    def test_non_finite_env_is_domain_error(self, monkeypatch, capsys):
        monkeypatch.setenv("BHE_DEFAULT_TOL", "nan")
        rc = cli.main(["sweep", "--axis", "omega:0.2:1.0:2", "--fixed", "d=4",
                       "--fixed", "r_h=1", "--out", os.devnull])
        assert rc == 3
        assert "BHE_DEFAULT_TOL" in capsys.readouterr().err


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

    def test_tev(self, capsys):
        assert cli.main(["tev", "--n", "2", "--mstar", "1", "--mbh", "5"]) == 0
        out = capsys.readouterr().out
        assert "r_h_4n" in out


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
