"""oracle-check reports against checked-in goldens, byte for byte.

tests/golden/oracle_check_trunc{40,80}.csv hold `bhent oracle-check --trunc N`
with the default --tanhr.  oracle_check_trunc200.csv holds the top of the
truncation range, `--tanhr 0.1,0.5,0.9 --trunc 200 --tol 1e-3`.  Every row,
gated or informational, must match the golden exactly, as the entry-point
`cmp` check requires.
"""

from pathlib import Path

import pytest

from bhent import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, args",
    [
        ("oracle_check_trunc40.csv", ["--trunc", "40"]),
        ("oracle_check_trunc80.csv", ["--trunc", "80"]),
        ("oracle_check_trunc200.csv",
         ["--tanhr", "0.1,0.5,0.9", "--trunc", "200", "--tol", "1e-3"]),
    ],
    ids=["40", "80", "200"],
)
def test_report_matches_golden(name, args, tmp_path):
    out = tmp_path / "oc.csv"
    assert cli.main(["oracle-check", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("trunc", ["2", "3", "200"])
def test_fidelity_rows_take_no_truncation(trunc, tmp_path):
    # the post-state's sector-1 block is exact: trunc 2, where the whole
    # post-state would lose 0.066 of its trace, gives the trunc-40 rows
    out = tmp_path / "oc.csv"
    argv = ["oracle-check", "--tanhr", "0.1", "--tol", "1e-3", "--trunc", trunc]
    assert cli.main([*argv, "--out", str(out)]) == 0

    def fidelity_rows(text):
        return [line for line in text.splitlines() if line.startswith("F_boson_")]

    golden = (GOLDEN / "oracle_check_trunc40.csv").read_text()
    assert fidelity_rows(out.read_text()) == fidelity_rows(golden)
    assert len(fidelity_rows(golden)) == 7
