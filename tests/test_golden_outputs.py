"""Point commands and docs/ sweeps against checked-in goldens, byte for byte.

tests/golden/point_commands.txt holds the stdout and exit code of every
command in CORPUS; tests/golden/fig_*.csv hold the CSV of each docs/*.cfg
recipe.  Rebuild them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from bhent import cli

GOLDEN = Path(__file__).parent / "golden"
DOCS = Path(__file__).parent.parent / "docs"
RECIPES = sorted(p.name for p in DOCS.glob("*.cfg"))

_STATIC = [
    "--d 4 --mass 1", "--d 5 --mass 2.5", "--d 7 --mass 0.3", "--d 11 --mass 10",
    "--d 4 --rh 1", "--d 6 --rh 0.5", "--d 10 --rh 3.7", "--d 5 --rh 1 --mass 3",
]
_ROTATING = [
    "--n 0 --mu 2", "--n 1 --mu 2 --a 0.5", "--n 2 --mu 1.5 --a 0.3", "--n 3 --mu 1",
    "--n 7 --mu 4 --a 2", "--d 4 --rh 1 --n 2 --mu 1",
]
CORPUS = (
    [f"geom {g}" for g in _STATIC + _ROTATING]
    + [
        "geom --d 4 --mass 1 --units si --mstar 1",
        "geom --d 6 --rh 2 --units si --mstar 3.5",
        "geom --n 2 --mu 1 --a 0.4 --units si --mstar 2",
        "geom --d 4",
        "geom --n 2",
        "geom --n 1 --mu 1 --a 1",
    ]
    + [
        f"{cmd} {geo} --omega {w}{extra}"
        for cmd in ("entangle", "teleport")
        for geo, w, extra in (
            ("--d 4 --mass 1", 0.3, ""),
            ("--d 7 --rh 0.8", 2.0, " --statistics fermion"),
            ("--d 5 --rh 1.5", 0.05, " --m 2"),
            ("--n 1 --mu 2 --a 0.5", 1.0, " --m 1"),
            ("--n 2 --mu 1.5 --a 0.3", 0.7, " --m 2 --statistics fermion"),
            ("--n 3 --mu 1", 0.4, ""),
            ("--n 0 --mu 2 --a 0.9", 0.6, " --m 1 --statistics fermion"),
            ("--kappa 1", 1.0, ""),
            ("--kappa 0.5", 0.1, " --statistics fermion"),
            ("--kappa 2 --Omega 0.5", 3.0, " --m 2"),
            ("--kappa 1 --Omega 0.2", 1e-4, " --statistics fermion"),
            ("--kappa 3 --d 4 --rh 1", 0.9, ""),
            ("--n 1 --mu 2 --a 1", 0.5, " --m 1"),
            ("--d 8 --mass 5", 1.5, " --m 1 --statistics fermion"),
            ("--n 4 --mu 3 --a 1.2", 2.0, " --m 2"),
        )
    ]
    + [
        "entangle --kappa 1 --omega 1e-4",
        "entangle --kappa 1 --omega 0.02 --tol 1e-6",
        "entangle --d 4 --rh 1 --omega 0.001 --tol 1e-20",
        "entangle --n 1 --mu 2 --a 1 --omega 0.1 --m 1",
        "teleport --kappa 1 --Omega 0.5 --omega 0.1 --m 1",
        "entangle --d 4 --mass 1 --omega 800",
        "teleport --d 4 --mass 1 --omega 800 --statistics fermion",
        "entangle --n 2 --mu 1 --omega 0.5 --statistics fermion --tol 1e-12",
        "geom --n 5 --mu 0.7 --a 0.1 --units natural",
        "tev --n 2 --mstar 1 --mbh 5",
        "tev --n 7 --mstar 3.3 --mbh 80",
        "estimate coupling-time --tbh 1e-8",
        "estimate coupling-time --msun 1 --dl 2 --vc 3",
        "estimate hawking-temp --msun 1",
        "estimate radiation-density --temp 300",
        "estimate coupling-time --msun 1 --tbh 1e-8",
        "teleport --kappa 1e300 --omega 1e-2",
        "estimate hawking-temp --msun 1 --tbh 5 --temp 3",
        "estimate radiation-density --temp 3 --dl 5",
    ]
)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def transcript() -> str:
    parts = []
    for command in CORPUS:
        rc, out = run(command.split())
        parts.append(f"$ bhent {command}\n{out}[exit {rc}]\n")
    return "".join(parts)


def sweep_csv(recipe: str, path: Path) -> bytes:
    assert run(["sweep", "--config", str(DOCS / recipe), "--out", str(path)])[0] == 0
    return path.read_bytes()


def test_point_commands_match_golden():
    golden = (GOLDEN / "point_commands.txt").read_text(encoding="utf-8")
    assert transcript() == golden


def test_one_parser_serves_every_call():
    # main builds its parser once; calls refused by it leave nothing behind for the next
    assert cli.build_parser() is cli.build_parser()
    assert run(["teleport", "--kappa", "1", "--omega", "1", "--tol", "1e-6"])[0] == 2
    assert run(["sweep", "--axis", "omega:0.1:1:2"])[0] == 2  # no --out
    assert run(["geom", "--bogus", "1"])[0] == 2
    golden = (GOLDEN / "point_commands.txt").read_text(encoding="utf-8")
    assert transcript() == golden


@pytest.mark.parametrize("recipe", RECIPES)
def test_docs_sweep_matches_golden(recipe, tmp_path):
    golden = (GOLDEN / recipe.replace(".cfg", ".csv")).read_bytes()
    assert sweep_csv(recipe, tmp_path / "fig.csv") == golden


def test_environment_sets_no_tolerance(tmp_path, monkeypatch):
    # the environment variable that once set the default series tolerance moves no byte
    monkeypatch.delenv("BHE_DEFAULT_TOL", raising=False)
    unset = run(["entangle", "--kappa", "1", "--omega", "1.0"])
    monkeypatch.setenv("BHE_DEFAULT_TOL", "1e-4")
    assert run(["entangle", "--kappa", "1", "--omega", "1.0"]) == unset
    recipe = "fig_negativity_vs_kappa_omega.cfg"
    golden = (GOLDEN / recipe.replace(".cfg", ".csv")).read_bytes()
    assert sweep_csv(recipe, tmp_path / "fig.csv") == golden


if __name__ == "__main__":
    (GOLDEN / "point_commands.txt").write_text(transcript(), encoding="utf-8")
    for name in RECIPES:
        sweep_csv(name, GOLDEN / name.replace(".cfg", ".csv"))
