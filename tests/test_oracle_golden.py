"""oracle-check reports against checked-in goldens.

tests/golden/oracle_check_trunc{40,80}.csv hold `bhent oracle-check --trunc N`
with the default --tanhr, as written by the dense-matrix oracle that the
sparse one replaced.  Gated rows must match byte for byte.  Informational
rows may move by a few ulp, since blocks may be summed in another order.
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


@pytest.mark.parametrize("trunc", [40, 80])
def test_report_matches_golden(trunc, tmp_path):
    out = tmp_path / "oc.csv"
    assert cli.main(["oracle-check", "--trunc", str(trunc), "--out", str(out)]) == 0
    fresh = out.read_text(encoding="utf-8").splitlines()
    golden = (GOLDEN / f"oracle_check_trunc{trunc}.csv").read_text(encoding="utf-8").splitlines()
    assert len(fresh) == len(golden)
    assert fresh[0] == golden[0]
    for new, old in zip(fresh[1:], golden[1:]):
        if old.split(",", 1)[0] in GATED:
            assert new == old
            continue
        new_f, old_f = new.split(",", 5), old.split(",", 5)
        assert new_f[:2] == old_f[:2] and new_f[5] == old_f[5]
        assert all(_close(a, b) for a, b in zip(new_f[2:5], old_f[2:5])), (new, old)
