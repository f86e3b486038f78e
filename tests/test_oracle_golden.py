"""oracle-check reports against checked-in goldens.

tests/golden/oracle_check_trunc{40,80}.csv hold `bhent oracle-check --trunc N`
with the default --tanhr, as written by the dense-matrix oracle that the
sparse one replaced.  oracle_check_trunc200.csv holds the top of the
truncation range, `--tanhr 0.1,0.5,0.9 --trunc 200 --tol 1e-3`, as written by
the sparse oracle before its post-state assembly was rewritten.  Gated rows
must match byte for byte.  Informational rows may move by a few ulp, since
blocks may be summed in another order.
"""

import math
from pathlib import Path

import pytest

from bhent import cli

GOLDEN = Path(__file__).parent / "golden"
GATED = {"E_N_boson", "lambda_n_boson", "E_N_fermion", "F_fermion"}
MAX_ULPS = 4


def _close(new: str, old: str) -> bool:
    a, b = float(new), float(old)
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= MAX_ULPS * math.ulp(b)


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
    fresh = out.read_text(encoding="utf-8").splitlines()
    golden = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert len(fresh) == len(golden)
    assert fresh[0] == golden[0]
    for new, old in zip(fresh[1:], golden[1:]):
        if old.split(",", 1)[0] in GATED:
            assert new == old
            continue
        new_f, old_f = new.split(",", 5), old.split(",", 5)
        assert new_f[:2] == old_f[:2] and new_f[5] == old_f[5]
        assert all(_close(a, b) for a, b in zip(new_f[2:5], old_f[2:5])), (new, old)
