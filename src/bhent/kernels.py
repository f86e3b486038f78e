"""Eigenvalues of small real symmetric matrices by cyclic Jacobi rotations.

Pure Python on lists of lists: the oracle hands the solver only the
connected blocks of its sparse matrices, a few rows each.  The norms and
the entry scans are plain loops in row-major order, one rounded addition or
comparison per entry: the float operations, their order and the stopping
tests are those of the sum() and max() generator expressions they replaced
(up to Python 3.11; from 3.12 on sum() compensates float sums), so the
eigenvalues keep their bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from bhent.errors import ContractViolationError

JACOBI_TOL = 1e-12
MAX_SWEEPS = 60


def _off_diagonal_norm(a: list[list[float]]) -> float:
    """Frobenius norm of the off-diagonal part, summed entry by entry.

    Forming sum(a*a) - sum(diag(a)**2) instead cancels down to about
    sqrt(eps) * ||A||_F, far above the stopping threshold, so the stopping
    test would then fire or fail by chance.
    """
    total = 0.0
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if i != j:
                total += x * x
    return math.sqrt(total)


def _jacobi_sweeps(a: list[list[float]], tol: float, max_sweeps: int) -> int:
    """Diagonalise the symmetric list-of-lists `a` in place.

    Returns the number of sweeps used, or -1 if the off-diagonal Frobenius
    norm did not drop below tol * ||A||_F within max_sweeps.
    """
    n = len(a)
    total = 0.0
    for row in a:
        for x in row:
            total += x * x
    thresh = tol * math.sqrt(total)
    skip = thresh / max(n, 1)

    for sweep in range(max_sweeps):
        if _off_diagonal_norm(a) <= thresh:
            return sweep
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                row_q = a[q]
                theta = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    xp, xq = row[p], row[q]
                    row[p] = c * xp - s * xq
                    row[q] = s * xp + c * xq
                for k in range(n):
                    xp, xq = row_p[k], row_q[k]
                    row_p[k] = c * xp - s * xq
                    row_q[k] = s * xp + c * xq
    return max_sweeps if _off_diagonal_norm(a) <= thresh else -1


def jacobi_eigh(matrix: Sequence[Sequence[float]]) -> list[float]:
    """Ascending eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Convergence requires the off-diagonal Frobenius norm to drop below
    JACOBI_TOL * ||A||_F within MAX_SWEEPS sweeps.  The input is not modified.
    """
    try:
        a = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ContractViolationError("expected a square matrix, got a non-nested sequence")
    n = len(a)
    if any(len(row) != n for row in a):
        raise ContractViolationError(
            f"expected a square matrix, got {n} rows of lengths {[len(row) for row in a]}"
        )
    # One row-major pass for the largest magnitude and the largest asymmetry
    # |a[i][j] - a[j][i]| over j < i.  Each starts from its scan's first
    # value and is replaced only by a strictly larger one, as max() does, so
    # a nan first value is kept as max() keeps it.
    largest = abs(a[0][0]) if n else 0.0
    asym = abs(a[1][0] - a[0][1]) if n > 1 else 0.0
    for i, row in enumerate(a):
        for x in row:
            if abs(x) > largest:
                largest = abs(x)
        for j in range(i):
            d = abs(row[j] - a[j][i])
            if d > asym:
                asym = d
    scale = max(largest, 1.0)
    if asym > 1e-10 * scale:
        raise ContractViolationError(f"matrix asymmetry {asym} exceeds contract (scale {scale})")

    # Scale by a power of two so the largest entry lies in [1/2, 1): exact, and
    # the squares in the norms can no longer underflow (entries below ~1e-154).
    exp = math.frexp(largest)[1]
    a = [[math.ldexp(x, -exp) for x in row] for row in a]
    if _jacobi_sweeps(a, JACOBI_TOL, MAX_SWEEPS) < 0:
        raise ContractViolationError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
    return sorted(math.ldexp(a[i][i], exp) for i in range(n))
