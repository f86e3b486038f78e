import numpy as np
import pytest

from bhent import kernels
from bhent.errors import ContractViolationError


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


class TestJacobiEigh:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    def test_matches_lapack(self, n):
        a = random_symmetric(n, seed=n)
        w = kernels.jacobi_eigh(a.tolist())
        assert isinstance(w, list) and all(type(x) is float for x in w)
        assert np.max(np.abs(np.array(w) - np.linalg.eigvalsh(a))) < 1e-9

    def test_ascending_order_and_trace(self):
        a = random_symmetric(30, seed=9)
        w = kernels.jacobi_eigh(a.tolist())
        assert np.all(np.diff(w) >= 0)
        assert np.sum(w) == pytest.approx(np.trace(a), abs=1e-10)

    def test_diagonal_passthrough(self):
        a = [[3.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]]
        assert kernels.jacobi_eigh(a) == [-1.0, 2.0, 3.0]

    @pytest.mark.parametrize("a, eigenvalues", [([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]), ([], [])])
    def test_zero_and_empty_matrix(self, a, eigenvalues):
        # the first stopping test, 0 <= tol * 0, ends the iteration before any sweep
        assert kernels.jacobi_eigh(a) == eigenvalues
        assert kernels._jacobi_sweeps([row[:] for row in a], kernels.JACOBI_TOL, 1) == 0

    def test_input_not_mutated(self):
        a = random_symmetric(10, seed=5).tolist()
        before = [row[:] for row in a]
        kernels.jacobi_eigh(a)
        assert a == before

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolationError):
            kernels.jacobi_eigh([[1.0, 2.0], [0.0, 1.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ContractViolationError):
            kernels.jacobi_eigh([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            kernels.jacobi_eigh([1.0, 2.0])

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "MAX_SWEEPS", 0)
        with pytest.raises(ContractViolationError, match="did not converge in 0 sweeps"):
            kernels.jacobi_eigh([[1.0, 0.5], [0.5, 2.0]])


class TestTinyBlocks:
    """Blocks whose squares underflow: the solver scales them by a power of two."""

    @pytest.mark.parametrize(
        "block",
        [
            [[0.0, 1e-200], [1e-200, 0.0]],
            [[1e-310, 3e-310], [3e-310, 2e-310]],
            [[2e-300, 1e-301, 0.0], [1e-301, -1e-300, 3e-301], [0.0, 3e-301, 5e-301]],
        ],
        ids=["1e-200", "subnormal", "3x3-below-1e-154"],
    )
    def test_matches_lapack(self, block):
        w = kernels.jacobi_eigh(block)
        ref = np.linalg.eigvalsh(np.array(block))
        assert 0.0 not in w
        assert np.max(np.abs(np.array(w) - ref)) <= 1e-15 * np.max(np.abs(ref))


# Seeded matrices on which an off-diagonal norm formed as
# sum(a*a) - sum(diag(a)**2) misjudges convergence through cancellation:
# the first group never stops although already converged, the second stops
# with an off-diagonal part still far above the threshold.
NEVER_STOPPED = [(5, 0), (20, 2), (20, 3), (20, 4), (20, 6),
                 (50, 2), (50, 3), (50, 5), (50, 6), (50, 9)]
STOPPED_EARLY = [(5, 8), (50, 8)]


class TestPythonStoppingRule:
    """The sweep loop called directly, so the true off-diagonal norm of the
    matrix it leaves behind can be checked against the stopping threshold."""

    @pytest.mark.parametrize("n, seed", NEVER_STOPPED + STOPPED_EARLY)
    def test_off_diagonal_norm_below_threshold(self, n, seed):
        a = random_symmetric(n, seed)
        work = a.tolist()
        sweeps = kernels._jacobi_sweeps(work, kernels.JACOBI_TOL, kernels.MAX_SWEEPS)
        assert sweeps >= 0
        work = np.array(work)
        off = np.sqrt(np.sum(work[~np.eye(n, dtype=bool)] ** 2))
        assert off <= kernels.JACOBI_TOL * np.sqrt(np.sum(a * a))
