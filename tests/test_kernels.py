import math
import random

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


def pinned_matrix(seed):
    """A seeded symmetric matrix, n = 2..8, each entry below 2^e in magnitude
    for an e from -74 to 17 (about 5e-23 to 1.3e5).

    Built from random.Random and ldexp alone, so every platform draws the
    same floats.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    e = rng.randint(-66, 17)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = math.ldexp(2.0 * rng.random() - 1.0, e - rng.randint(0, 8))
    return m


# float.hex of jacobi_eigh(pinned_matrix(seed)), recorded with the kernel
# whose norms and scans were generator expressions; the loops that replaced
# them perform the same float operations in the same order.
PINNED_EIGENVALUES = {
    0: (
        "-0x1.b8cc830a968a9p-19", "-0x1.24be2fe7dde46p-19", "-0x1.5ce7bf10c31a2p-21",
        "-0x1.96a252dd82591p-24", "0x1.1a3097e73d867p-22", "0x1.cb4f3a619996bp-20",
        "0x1.64432073102f9p-19", "0x1.aa418922755b1p-18",
    ),
    1: (
        "-0x1.9bf58da2efe2cp+5", "0x1.62661cef57d91p+4", "0x1.a506cf28bb40ep+5",
    ),
    2: (
        "-0x1.4036956d18030p-60", "-0x1.8de01bd45fb96p-61", "-0x1.6eb7f4ba6200ep-62",
        "-0x1.063f2d25d9f2fp-62", "-0x1.baa6f983b03f0p-64", "0x1.1c781e3f2e729p-62",
        "0x1.8534772c3efdap-62", "0x1.02dddebb7c65fp-60",
    ),
    3: (
        "-0x1.d7d688d6a6109p+3", "0x1.8f45ee7c36750p+0", "0x1.3203711fa861bp+6",
    ),
    4: (
        "-0x1.3805afca77dd0p-29", "-0x1.87be352b7e7dcp-35", "0x1.2fbeed5263da4p-29",
    ),
    5: (
        "-0x1.41f5905c0ae4fp-34", "-0x1.038a94f290b7bp-36", "-0x1.29b00df828327p-38",
        "0x1.0788dbdf53f48p-37", "0x1.d6c0607e5be7dp-37", "0x1.4339aac7631f9p-34",
    ),
    6: (
        "-0x1.4038d2a6b2076p+7", "-0x1.69f0c65ebcbc3p+6", "-0x1.191817e0e95b6p+5",
        "-0x1.5e39eb5690e1dp+3", "-0x1.7a6199ad8dcadp+2", "0x1.f8079cc13e54ap+4",
        "0x1.5a21f6ded18f4p+6", "0x1.3baf0bc7f5ac2p+7",
    ),
    7: (
        "-0x1.2fc1a5d16437cp-47", "-0x1.352bb5b30a9a0p-48", "-0x1.99d98e7831844p-50",
        "0x1.e6981c044a0d7p-48",
    ),
    8: (
        "-0x1.b29ddd3e70169p-20", "0x1.a4933c46e8e1ep-23", "0x1.bef815864349bp-20",
    ),
    9: (
        "-0x1.570586e2edaf8p+11", "-0x1.bfea3613ae009p+10", "-0x1.595f9aaad23ddp+9",
        "0x1.3a8412e5205d5p+9", "0x1.e7507ae85ee2ap+11",
    ),
    10: (
        "-0x1.ebd019c91cf82p-63", "-0x1.7ca2b5eb18f83p-65", "0x1.070eb9e5be5fcp-68",
        "0x1.5872d617ce2acp-65", "0x1.815b76215e10cp-65", "0x1.d847ac9c7a194p-63",
    ),
    11: (
        "-0x1.0f5fb86172748p+5", "-0x1.ae271b9113553p+2", "-0x1.68fd955417993p-1",
        "0x1.899329be087f0p+2", "0x1.1a86747a43f12p+5",
    ),
    12: (
        "-0x1.ff2dd487948b5p-33", "-0x1.e5009d2cedc72p-36", "-0x1.5d490f458fee5p-39",
        "0x1.fbf6abd4d6912p-36", "0x1.7863d011d69f1p-32",
    ),
    13: (
        "-0x1.4cdfbba232fefp-30", "-0x1.e5990f01661d4p-32", "0x1.08e25850eb0cbp-32",
        "0x1.9ee590fd57b39p-30",
    ),
    14: (
        "-0x1.5236f01eac348p+7", "0x1.27fa3fc2ba0f2p+8",
    ),
    15: (
        "-0x1.100885a160cd1p-67", "-0x1.56601f52b26d9p-72", "0x1.338297e63be74p-69",
    ),
    16: (
        "-0x1.2309ba6e8b2b6p-7", "-0x1.0dacb673e3a41p-8", "0x1.6b2941943e9d0p-9",
        "0x1.1ed086c02537ep-7",
    ),
    17: (
        "-0x1.b41690ce19639p-15", "-0x1.0e64384249c9fp-16", "-0x1.fdfab9832e86ap-19",
        "0x1.1583c0249c8cbp-17", "0x1.50d4645ccf8e0p-16", "0x1.0d32ba5a3c624p-14",
    ),
    18: (
        "-0x1.1873183ac12acp-53", "0x1.44483abcdcccfp-58", "0x1.78afbc0ca73eep-55",
    ),
    19: (
        "-0x1.04d40c652c229p-62", "-0x1.aff87153a3fc9p-63", "-0x1.5d0cd16f4b381p-65",
        "0x1.6f9a6937af171p-68", "0x1.a5b5e54acde0ap-65", "0x1.89702879a116dp-63",
        "0x1.3baa2df92103ap-62",
    ),
    20: (
        "-0x1.a65fffd603425p-48", "-0x1.26a08c698e9bfp-48", "-0x1.dd448be34abeep-51",
        "-0x1.2c8262356ad1fp-52", "0x1.4f6cf80f11c91p-51", "0x1.aa76b2d9e3138p-49",
        "0x1.3b5bbe21f536ep-48",
    ),
    21: (
        "-0x1.0e4a1557f65c3p-14", "0x1.9046d04406cefp-21", "0x1.9e4c27ef7815ep-19",
    ),
    22: (
        "-0x1.2751cce11ae66p-36", "-0x1.0309adf4721a2p-37", "0x1.7e79599ac8366p-36",
    ),
    23: (
        "-0x1.a7ec3f6cfbd58p-30", "-0x1.daf1dc79e5c9ep-31", "-0x1.ac35ef7ce8d04p-32",
        "-0x1.bfec40c9b430dp-34", "0x1.9baf28a2d4334p-33", "0x1.262dbf5c33da0p-30",
        "0x1.6b5b9fc6445c2p-30", "0x1.cb42c1cc87dd0p-30",
    ),
    24: (
        "-0x1.22fa950d6f0f5p-18", "-0x1.5409cdd690e56p-19", "-0x1.42961ac229444p-19",
        "-0x1.43b52cbe2a984p-21", "0x1.1e18f11774ec8p-20", "0x1.3d8f820085df5p-18",
        "0x1.a6b7757f12bacp-18",
    ),
    25: (
        "-0x1.206cd95e423e7p-66", "-0x1.2975691efbed8p-67", "-0x1.7b4bef1b3a2f1p-71",
        "0x1.0eef472a265f6p-67", "0x1.315ba9854db7ep-66",
    ),
    26: (
        "-0x1.d6ac7437700e2p-42", "-0x1.0c504054bd4dbp-42", "-0x1.acbc3da05cb62p-43",
        "-0x1.68c15d4471b22p-46", "-0x1.21ef3e3e6b5abp-46", "0x1.3fbab90b38937p-43",
        "0x1.3bcac8ab162bfp-42",
    ),
    27: (
        "-0x1.8e53e2dc8a7aap-6", "-0x1.b2679faa8c64dp-7", "-0x1.50bfc6a1d0465p-9",
        "0x1.6fdc337fdb002p-13", "0x1.92351d5c42edfp-7", "0x1.33389ff0b3218p-6",
        "0x1.a352666f1cce8p-6",
    ),
    28: (
        "0x1.6f20c289c6f21p-56", "0x1.0fb4a6abe7382p-54",
    ),
    29: (
        "-0x1.91d316d4bd1efp-59", "-0x1.8309107beaa5fp-60", "-0x1.88ad29a5a2264p-61",
        "0x1.b2d9ea0393ec2p-65", "0x1.eb82781794e44p-61", "0x1.4af1563a3d7e5p-58",
    ),
    30: (
        "-0x1.00b90137efa7ap-29", "-0x1.84e65abfb3c25p-30", "-0x1.259a55a00a538p-34",
        "0x1.19362123a9d84p-34", "0x1.1d0e1d9a897c3p-30", "0x1.f2ba61214aaa3p-30",
    ),
    31: (
        "-0x1.da11ab2ebdef1p-7", "0x1.1ae08d6b1645cp-7",
    ),
    32: (
        "-0x1.6e8c30ff1dcc8p-43", "-0x1.441b019918e8ep-48",
    ),
    33: (
        "-0x1.e91720cd019b9p-46", "-0x1.bf494806bc781p-47", "-0x1.37d8063aeb57bp-53",
        "0x1.47a4094c24b06p-48", "0x1.0e8c5523ac79ep-46", "0x1.d393564222cdfp-46",
    ),
    34: (
        "-0x1.d0b5e8b031261p-22", "-0x1.63b15dcf0f41cp-23", "-0x1.a8e3091a9c647p-25",
        "0x1.3bfbe240c05dfp-26", "0x1.b876c565eb170p-23", "0x1.21d2f670b0146p-21",
    ),
    35: (
        "-0x1.c37d000631a2ap-26", "-0x1.97ed8cd5f7fecp-27", "-0x1.db7ca2d012ca6p-28",
        "0x1.96d04d9000148p-27", "0x1.5169f19705752p-26", "0x1.72e4375bdc77cp-25",
    ),
    36: (
        "-0x1.70b10e172acbcp-60", "-0x1.b0622c8fdfa41p-66", "0x1.80d562a382870p-66",
        "0x1.905c2ceb4edb3p-60",
    ),
    37: (
        "-0x1.54c34557f3497p+10", "-0x1.05117121d0b91p+10", "-0x1.9b3d94b5e3569p+7",
        "0x1.9c42dbf5709c5p+3", "0x1.5b12ca3ae7703p+7", "0x1.e5e250b67c858p+9",
        "0x1.4120831e66ae8p+10",
    ),
    38: (
        "-0x1.219b6db0b7caep-14", "-0x1.e85dffbae13eap-15", "-0x1.0e6728ce38242p-17",
        "-0x1.9428bfdd740efp-18", "0x1.3eb2e29157f62p-17", "0x1.ec384b87c286ep-15",
        "0x1.1ed9eae25484ep-14",
    ),
    39: (
        "-0x1.3122e07104c74p-33", "0x1.f053656f43820p-43", "0x1.f27f0e1150338p-34",
    ),
    40: (
        "-0x1.8d42e2760b71bp+7", "-0x1.8f03c598e5680p+4", "-0x1.c738a477e8c52p+2",
        "0x1.7004c16eb476fp+7", "0x1.d0a02bc359aaap+7",
    ),
    41: (
        "-0x1.22be39b583d99p-24", "-0x1.2d71c27036ac9p-26", "-0x1.1347d9a1f03d8p-27",
        "0x1.41b6dbe245365p-27", "0x1.31ef758201fe8p-24",
    ),
    42: (
        "-0x1.22bbffbd19d18p-53", "-0x1.57cb88c23dcc6p-54", "-0x1.60eab64d65f92p-55",
        "-0x1.f6c21561e9c54p-61", "0x1.2db3d7d47a158p-55", "0x1.678bfa218251fp-54",
        "0x1.5fd61f817811ep-53",
    ),
    43: (
        "0x1.6962d21345b3cp-34", "0x1.73c5f50ac9a86p-33",
    ),
    44: (
        "-0x1.7d48ac6f264acp-1", "-0x1.555e641bfa9a9p-2", "-0x1.8c4ae8d381434p-5",
        "0x1.68eb9aaa90e95p-3", "0x1.1e914dd25e71fp+0",
    ),
    45: (
        "-0x1.5c2ccf3f44a88p-13", "-0x1.89c99bce34c1cp-14", "-0x1.6f215cf9a0befp-16",
        "0x1.2039288da39d0p-13",
    ),
    46: (
        "-0x1.0aaaeb77e3d56p-18", "0x1.76168f3107f44p-18",
    ),
    47: (
        "-0x1.cc79f9a36c060p-60", "-0x1.4cb4197f4be61p-61", "0x1.38c99ce3c3c80p-61",
        "0x1.cba0aac5e4683p-60",
    ),
    48: (
        "-0x1.9ecb8e73adceap-27", "-0x1.ff2233c7140dfp-29", "-0x1.b4046f9df4ca6p-30",
        "-0x1.bd223fc92e091p-36", "0x1.cc5ed71d82813p-29", "0x1.f6aba51f9106fp-28",
    ),
    49: (
        "-0x1.636dbc2d03cf8p-26", "0x1.72134d1801f20p-28",
    ),
}


class TestPinnedBits:
    @pytest.mark.parametrize("seed", sorted(PINNED_EIGENVALUES))
    def test_eigenvalues_keep_their_bits(self, seed):
        got = tuple(x.hex() for x in kernels.jacobi_eigh(pinned_matrix(seed)))
        assert got == PINNED_EIGENVALUES[seed]
