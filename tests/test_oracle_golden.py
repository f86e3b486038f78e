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
