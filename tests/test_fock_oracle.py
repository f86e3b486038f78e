import math

import numpy as np
import pytest

from bhent import channels, fock_oracle, kernels
from bhent.errors import ContractViolationError, PhysicsDomainError, TruncationError
from helpers import dense, reference_post_state, sector_items, traced_blockwise


def _entries(basis, matrix):
    """{(label_i, label_j): value} map of a dense matrix in basis order."""
    return {
        (li, lj): float(matrix[i, j])
        for i, li in enumerate(basis)
        for j, lj in enumerate(basis)
        if matrix[i, j] != 0.0
    }


class TestBellStateBosonic:
    @pytest.mark.parametrize("tanh_r", [0.0, 0.3, 0.7])
    def test_trace_plus_deficit_is_one(self, tanh_r):
        r = math.atanh(tanh_r)
        rho = fock_oracle.bell_state_bosonic(r, 40)
        deficit = fock_oracle._bosonic_trace_deficit(r, 40)
        assert np.trace(dense(rho)) + deficit == pytest.approx(1.0, abs=1e-10)

    def test_zero_squeezing_is_bell_projector(self):
        rho = fock_oracle.bell_state_bosonic(0.0, 4)
        # only |0,0> and |1,1> carry weight, each 1/2, with coherence 1/2
        entries = rho.entries
        assert entries[((0, 0), (0, 0))] == pytest.approx(0.5, abs=1e-15)
        assert entries[((1, 1), (1, 1))] == pytest.approx(0.5, abs=1e-15)
        assert entries[((0, 0), (1, 1))] == pytest.approx(0.5, abs=1e-15)
        assert np.trace(dense(rho)) == pytest.approx(1.0, abs=1e-15)

    def test_truncation_error_surfaces(self):
        with pytest.raises(TruncationError):
            fock_oracle.bell_state_bosonic(math.atanh(0.9), 3)
        with pytest.raises(TruncationError):  # a nan gate once passed every state
            fock_oracle.bell_state_bosonic(0.5, 40, max_deficit=math.nan)

    def test_domain(self):
        for r in (-0.1, math.nan, math.inf):
            with pytest.raises(PhysicsDomainError, match="finite and >= 0"):
                fock_oracle.bell_state_bosonic(r, 40)
        with pytest.raises(PhysicsDomainError):
            fock_oracle.bell_state_bosonic(0.1, 1)
        with pytest.raises(PhysicsDomainError, match="integer"):
            fock_oracle.bell_state_bosonic(0.5, 40.5)  # once a bare TypeError from range

    def test_integral_float_truncation(self):
        by_float = fock_oracle.bell_state_bosonic(0.5, 40.0)
        by_int = fock_oracle.bell_state_bosonic(0.5, 40)
        assert by_float.basis == by_int.basis
        assert {k: v.hex() for k, v in by_float.entries.items()} == {
            k: v.hex() for k, v in by_int.entries.items()
        }
        deficit = fock_oracle._bosonic_trace_deficit
        assert deficit(0.5, 40.0).hex() == deficit(0.5, 40).hex()


class TestPartialTranspose:
    def test_involution_and_norm(self):
        rho = fock_oracle.bell_state_bosonic(0.4, 10)
        pt = fock_oracle.partial_transpose(rho)
        back = fock_oracle.partial_transpose(pt)
        assert np.max(np.abs(dense(back) - dense(rho))) < 1e-15
        assert np.trace(dense(pt)) == pytest.approx(np.trace(dense(rho)), abs=1e-14)
        assert np.linalg.norm(dense(pt)) == pytest.approx(
            np.linalg.norm(dense(rho)), rel=1e-14
        )

    def test_bell_projector_spectrum(self):
        # PPT eigenvalues of a maximally entangled 2-qubit pair: {-1/2, 1/2 x3}
        basis = ((0, 0), (0, 1), (1, 0), (1, 1))
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho = fock_oracle.TruncatedDensityMatrix(basis, _entries(basis, np.outer(vec, vec)))
        eig = kernels.jacobi_eigh(dense(fock_oracle.partial_transpose(rho)))
        assert np.allclose(np.sort(eig), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_open_basis_rejected(self):
        basis = ((0, 0), (1, 1))  # (1, 0) and (0, 1) missing
        rho = fock_oracle.TruncatedDensityMatrix(basis, _entries(basis, np.eye(2) / 2.0))
        with pytest.raises(ContractViolationError):
            fock_oracle.partial_transpose(rho)


class TestBlockwiseOracle:
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_negative_eigenvalue_matches_closed_form(self, n):
        for r in (0.1, 0.45, 0.9):
            numeric = fock_oracle.blockwise_negative_eigenvalue(r, n)
            assert numeric == pytest.approx(channels.neg_eigenvalue_boson(r, n), abs=1e-10)

    @pytest.mark.parametrize("tanh_r", [0.1, 0.3, 0.5, 0.7])
    def test_blockwise_negativity_matches_series(self, tanh_r):
        r = math.atanh(tanh_r)
        numeric = fock_oracle.blockwise_negativity_bosonic(r, 40).log_negativity
        series = channels.log_negativity_boson(r, 1e-12).value
        assert numeric == pytest.approx(series, abs=1e-8)

    @pytest.mark.parametrize(
        "r, n, n_blocks, message",
        [
            (-0.1, 0, 40, "finite and >= 0"),
            (math.nan, 0, 40, "finite and >= 0"),
            (math.inf, 0, 40, "finite and >= 0"),
            # once labels (0, 1.5), (1, 2.5) and a bare TypeError from range
            (0.5, 1.5, 40.5, "finite integer"),
        ],
        ids=["-0.1", "nan", "inf", "non-integral"],
    )
    def test_domain(self, r, n, n_blocks, message):
        with pytest.raises(PhysicsDomainError, match=message):
            fock_oracle.bell_block_bosonic(r, n)
        with pytest.raises(PhysicsDomainError, match=message):
            fock_oracle.blockwise_negative_eigenvalue(r, n)
        with pytest.raises(PhysicsDomainError, match=message):
            fock_oracle.blockwise_negativity_bosonic(r, n_blocks)

    def test_block_weight(self):
        # trace of block n is the sector weight t^{2n}(1 + (n+1)/cosh^2 r)/(2 cosh^2 r)
        r, n = 0.6, 2
        t, c = math.tanh(r), math.cosh(r)
        block = fock_oracle.bell_block_bosonic(r, n)
        expected = t ** (2 * n) / (2 * c * c) * (1.0 + (n + 1) / (c * c))
        assert np.trace(dense(block)) == pytest.approx(expected, rel=1e-13)

    def test_full_spectrum_differs_from_blockwise(self):
        # the assembled matrix couples neighbouring sectors; at tanh r = 0.5
        # the full PPT negativity is well below the blockwise value
        r = math.atanh(0.5)
        full = fock_oracle.negativity_numeric(fock_oracle.bell_state_bosonic(r, 40))
        block = fock_oracle.blockwise_negativity_bosonic(r, 40)
        assert full.log_negativity < block.log_negativity - 0.1

    def test_truncation_convergence(self):
        r = math.atanh(0.5)
        coarse = fock_oracle.blockwise_negativity_bosonic(r, 40).log_negativity
        fine = fock_oracle.blockwise_negativity_bosonic(r, 80).log_negativity
        assert abs(fine - coarse) < 1e-10

    @pytest.mark.parametrize("n_blocks", [2, 40, 200])
    def test_one_state_and_one_partial_transpose(self, n_blocks):
        # Counted through the module globals the benchmark's tracer wraps: the
        # direct sum of the sector blocks, and its partial transpose, which
        # partial_transpose builds through TruncatedDensityMatrix too.
        r = math.atanh(0.3)
        result, built, transposed = traced_blockwise(r, n_blocks, max_deficit=1.0)
        assert len(built) == 2 and len(transposed) == 1
        assert built[1] is transposed[0]
        assert built[0].dim == 4 * (n_blocks + 1)
        plain = fock_oracle.blockwise_negativity_bosonic(r, n_blocks, max_deficit=1.0)
        assert result.negativity == plain.negativity


class TestFermionicOracle:
    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, math.pi / 4])
    def test_negativity_matches_closed_form(self, r):
        res = fock_oracle.negativity_numeric(fock_oracle.bell_state_fermionic(r))
        assert res.log_negativity == pytest.approx(
            channels.log_negativity_fermion(r), abs=1e-12
        )

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, math.pi / 4])
    def test_negative_eigenvalue_is_minus_half_cos_squared(self, r):
        pt = fock_oracle.partial_transpose(fock_oracle.bell_state_fermionic(r))
        eig = kernels.jacobi_eigh(dense(pt))
        assert eig[0] == pytest.approx(-math.cos(r) ** 2 / 2.0, abs=1e-12)

    def test_fidelity_amplitude_independent(self):
        rng = np.random.default_rng(21)
        r = 0.35
        for _ in range(25):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            qubit = fock_oracle.DualRailQubit(math.cos(phi), math.sin(phi))
            outcome = (int(rng.integers(2)), int(rng.integers(2)))
            x, y = qubit.conditional(*outcome)
            fid = fock_oracle.fidelity_numeric(
                fock_oracle.bob_post_state_fermionic(r, qubit, outcome),
                fock_oracle.dual_rail_target(x, y),
            )
            assert fid == pytest.approx(math.cos(r) ** 2, abs=1e-12)


class TestBosonicTeleportation:
    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
    def test_domain(self, r):
        qubit = fock_oracle.DualRailQubit(0.6, 0.8)
        with pytest.raises(PhysicsDomainError, match="finite and >= 0"):
            fock_oracle.bob_post_state_bosonic(r, qubit, (0, 0))

    def test_fidelity_independent_of_outcome(self):
        qubit = fock_oracle.DualRailQubit(0.6, 0.8)
        r = 0.4
        fids = []
        for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
            x, y = qubit.conditional(*outcome)
            fids.append(
                fock_oracle.fidelity_numeric(
                    fock_oracle.bob_post_state_bosonic(r, qubit, outcome),
                    fock_oracle.dual_rail_target(x, y),
                )
            )
        assert max(fids) - min(fids) < 1e-12

    def test_zero_squeezing_is_perfect(self):
        qubit = fock_oracle.DualRailQubit(1.0, 0.0)
        fid = fock_oracle.fidelity_numeric(
            fock_oracle.bob_post_state_bosonic(0.0, qubit, (0, 0)),
            fock_oracle.dual_rail_target(1.0, 0.0),
        )
        assert fid == pytest.approx(1.0, abs=1e-14)


class TestSparseAssembly:
    """The map representation against dense numpy references."""

    def test_partial_transpose_matches_dense_loop(self):
        rho = fock_oracle.bell_state_bosonic(math.atanh(0.3), 12)
        full = dense(rho)
        idx = {lbl: k for k, lbl in enumerate(rho.basis)}
        ref = np.empty_like(full)
        for (a, b), i in idx.items():
            for (a2, b2), j in idx.items():
                ref[i, j] = full[idx[(a2, b)], idx[(a, b2)]]
        assert np.array_equal(dense(fock_oracle.partial_transpose(rho)), ref)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: [
                fock_oracle.partial_transpose(fock_oracle.bell_state_bosonic(math.atanh(0.5), 20))
            ],
            lambda: [
                fock_oracle.bob_post_state_bosonic(
                    math.atanh(0.3), fock_oracle.DualRailQubit(0.6, 0.8), (1, 0)
                )
            ],
        ],
        ids=["bell-ppt", "post-state"],
    )
    def test_blockwise_spectrum_matches_lapack(self, build):
        for rho in build():
            ref = np.linalg.eigvalsh(dense(rho))
            assert np.allclose(fock_oracle.spectrum(rho), ref, rtol=0.0, atol=1e-14)

    def test_negativity_matches_dense_spectrum(self):
        rho = fock_oracle.bell_state_bosonic(math.atanh(0.7), 40)
        eig = np.linalg.eigvalsh(dense(fock_oracle.partial_transpose(rho)))
        ref = float(np.sum((np.abs(eig) - eig) / 2.0))
        assert fock_oracle.negativity_numeric(rho).negativity == pytest.approx(ref, abs=1e-14)

    def test_blocks_are_connected_components(self):
        # a-b and b-c chain into one block; d stands alone; e has no entry
        basis = ("a", "b", "c", "d", "e")
        entries = {("a", "a"): 1.0, ("c", "c"): 1.0, ("d", "d"): 1.0}
        for i, j in (("a", "b"), ("c", "b")):
            entries[(i, j)] = entries[(j, i)] = 0.25
        rho = fock_oracle.TruncatedDensityMatrix(basis, entries)
        assert fock_oracle.connected_blocks(rho) == [["a", "b", "c"], ["d"]]
        assert len(fock_oracle.spectrum(rho)) == 5

    def test_blocks_of_the_oracle_states(self):
        r = math.atanh(0.5)
        ppt = fock_oracle.partial_transpose(fock_oracle.bell_state_bosonic(r, 40))
        widths = [len(b) for b in fock_oracle.connected_blocks(ppt)]
        assert (len(widths), max(widths)) == (43, 2)
        # the post-state's sector k1 + k2 = 1, found as one block
        post = fock_oracle.bob_post_state_bosonic(r, fock_oracle.DualRailQubit(0.6, 0.8), (0, 0))
        assert fock_oracle.connected_blocks(post) == [[(0, 1), (1, 0)]]

    def test_zero_entries_are_not_stored(self):
        rho = fock_oracle.bell_state_bosonic(0.0, 10)
        assert set(rho.entries) == {
            ((0, 0), (0, 0)), ((0, 0), (1, 1)), ((1, 1), (0, 0)), ((1, 1), (1, 1))
        }

    def test_repeated_basis_label_rejected(self):
        with pytest.raises(ContractViolationError):
            fock_oracle.TruncatedDensityMatrix(((0, 0), (0, 0)), {((0, 0), (0, 0)): 1.0})


def _hex_items(items):
    return [(k, v.hex()) for k, v in items]


class TestPostStateAssembly:
    """The sector-1 block against the pair-by-pair reference, to the bit."""

    # r = 0 makes c0[n] = 0 for n >= 1, so the assembly writes zeros and,
    # with the negative amplitude, negative zeros, which must be dropped.
    QUBITS = ((0.6, 0.8), (0.28, -0.96))
    OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("n_trunc", [2, 7, 40])
    @pytest.mark.parametrize("r", [0.0, 0.05, 0.55, 1.3])
    def test_matches_reference_bits_and_order(self, r, n_trunc):
        for alpha, beta in self.QUBITS:
            qubit = fock_oracle.DualRailQubit(alpha, beta)
            for outcome in self.OUTCOMES:
                items = reference_post_state(r, qubit, outcome, n_trunc)
                post = fock_oracle.bob_post_state_bosonic(r, qubit, outcome)
                assert post.basis == ((0, 1), (1, 0))
                assert _hex_items(post.entries.items()) == _hex_items(sector_items(items, 1))

    def test_density_matrix_copies_its_entries(self):
        basis = ((0, 0), (0, 1))
        given = {((0, 0), (0, 0)): 0.75, ((0, 0), (0, 1)): 0.25,
                 ((0, 1), (0, 0)): 0.25, ((0, 1), (0, 1)): 0.25}
        rho = fock_oracle.TruncatedDensityMatrix(basis, given)
        assert list(rho.entries.items()) == list(given.items())
        assert rho.entries is not given
        given[(0, 0), (0, 0)] = 0.5
        del given[(0, 1), (0, 1)]
        assert rho.entries[(0, 0), (0, 0)] == 0.75
        assert ((0, 1), (0, 1)) in rho.entries

    def test_density_matrix_drops_signed_zeros(self):
        basis = ((0, 0), (0, 1))
        given = {((0, 0), (0, 0)): 1.0, ((0, 0), (0, 1)): -0.0,
                 ((0, 1), (0, 0)): 0.0, ((0, 1), (0, 1)): 0.0}
        rho = fock_oracle.TruncatedDensityMatrix(basis, given)
        assert list(rho.entries.items()) == [(((0, 0), (0, 0)), 1.0)]
        assert len(given) == 4


class TestTruncationCertificate:
    """The oracle refuses a truncation whose trace deficit exceeds the gate."""

    R = math.atanh(0.9)  # trace deficit 8.7e-4 at truncation 40

    # tanh r rounds to 1 from r ~ 19.1 on; the deficit there reads 1
    FAR = 20.0

    def test_bell_state_refuses_deficit_above_tolerance(self):
        for r in (self.R, self.FAR):
            with pytest.raises(TruncationError, match="trace deficit"):
                fock_oracle.bell_state_bosonic(r, 40)
        fock_oracle.bell_state_bosonic(self.R, 40, max_deficit=1e-3)
        assert fock_oracle._bosonic_trace_deficit(self.R, 40) == pytest.approx(8.66e-4, rel=1e-3)

    def test_blockwise_refuses_deficit_above_tolerance(self):
        for r in (self.R, self.FAR):
            with pytest.raises(TruncationError, match="trace deficit"):
                fock_oracle.blockwise_negativity_bosonic(r, 40)
        fock_oracle.blockwise_negativity_bosonic(self.R, 40, max_deficit=1e-3)


class TestMaxTrunc:
    def test_oracle_runs_at_max_trunc(self):
        n = fock_oracle.MAX_TRUNC
        r = math.atanh(0.9)
        qubit = fock_oracle.DualRailQubit(0.6, 0.8)
        post = fock_oracle.bob_post_state_bosonic(r, qubit, (0, 0))
        # the memory proxy: the sector-1 block is 2 x 2, whatever the truncation
        assert post.basis == ((0, 1), (1, 0))
        assert len(post.entries) <= 4
        x, y = qubit.conditional(0, 0)
        fid = fock_oracle.fidelity_numeric(post, fock_oracle.dual_rail_target(x, y))
        assert fid == pytest.approx((1.0 - math.tanh(r) ** 2) ** 3, abs=1e-14)  # cosh^-6 r
        full = fock_oracle.negativity_numeric(fock_oracle.bell_state_bosonic(r, n))
        block = fock_oracle.blockwise_negativity_bosonic(r, n)
        assert 0.0 < full.log_negativity < block.log_negativity


class TestHelpers:
    def test_qubit_normalisation(self):
        with pytest.raises(PhysicsDomainError):
            fock_oracle.DualRailQubit(1.0, 1.0)
        with pytest.raises(PhysicsDomainError):
            fock_oracle.DualRailQubit(0.6, 0.8).conditional(2, 0)
        with pytest.raises(PhysicsDomainError):
            fock_oracle.DualRailQubit(math.nan, math.nan)
        with pytest.raises(PhysicsDomainError):  # alpha**2 once raised OverflowError
            fock_oracle.DualRailQubit(1e200, 0.0)

    def test_fidelity_target_validation(self):
        rho = fock_oracle.bell_state_fermionic(0.2)
        with pytest.raises(PhysicsDomainError):
            fock_oracle.fidelity_numeric(rho, {(0, 0): 0.5})  # not normalised
        with pytest.raises(PhysicsDomainError):
            fock_oracle.fidelity_numeric(rho, {(9, 9): 1.0})  # unknown label
        with pytest.raises(PhysicsDomainError):
            fock_oracle.fidelity_numeric(rho, {(0, 1): math.nan, (1, 0): 1.0})

    def test_density_matrix_contracts(self):
        with pytest.raises(ContractViolationError):
            # a stored label outside the basis
            fock_oracle.TruncatedDensityMatrix(((0, 0),), {((1, 1), (1, 1)): 1.0})
        with pytest.raises(ContractViolationError, match="nan diagonal entry nan"):
            fock_oracle.TruncatedDensityMatrix(((0, 0),), {((0, 0), (0, 0)): math.nan})
        with pytest.raises(ContractViolationError, match="asymmetry nan"):
            basis = ((0, 0), (1, 1))
            fock_oracle.TruncatedDensityMatrix(
                basis, _entries(basis, np.array([[1.0, math.nan], [math.nan, 1.0]]))
            )
        with pytest.raises(ContractViolationError):
            basis = ((0, 0), (1, 1))
            fock_oracle.TruncatedDensityMatrix(
                basis, _entries(basis, np.array([[1.0, 1.0], [0.0, 1.0]]))
            )
