"""Eigenvalues of small real symmetric matrices by cyclic Jacobi rotations.

Pure Python on lists of lists: the oracle hands the solver only the
connected blocks of its sparse matrices, a few rows each.  The norms and
the entry scans are plain loops in row-major order, one rounded addition or
comparison per entry: the float operations, their order and the stopping
tests are those of the sum() and max() generator expressions they replaced
(up to Python 3.11; from 3.12 on sum() compensates float sums), so the
eigenvalues keep their bits.

Every block of the oracle's partial transposes is 2x2, and one rotation
diagonalises it.  jacobi_eigh therefore solves n = 2 in straight-line code:
the same checks, scaling, threshold, rotation and stopping test as the sweep
loop, in the same float operations and order, so it returns the loop's bits.
A 2x2 block that misses the stopping test after that rotation (one with a
nan entry, say), and every 2x2 block when MAX_SWEEPS is 0, goes to the sweep
loop, which is the only path for n >= 3.  Both paths diagonalise the
symmetric part (A + A^T)/2 of the input, formed once after the scaling: a
finite symmetric pair keeps its value there, bit for bit.
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

    The input may be asymmetric by up to 1e-10 * max(max|a_ij|, 1); the
    eigenvalues returned are those of its symmetric part (A + A^T)/2.
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
    if n == 2:  # the oracle's blocks: the steps below, unrolled
        (a00, a01), (a10, a11) = a
        largest = max(abs(a00), abs(a01), abs(a10), abs(a11))
        asym = abs(a10 - a01)
    else:
        # One row-major pass for the largest magnitude and the largest
        # asymmetry |a[i][j] - a[j][i]| over j < i.  Each starts from its
        # scan's first value and is replaced only by a strictly larger one, as
        # max() does, so a nan first value is kept as max() keeps it.
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
    # Then replace each mirrored pair by its mean, which leaves a symmetric
    # pair as it is: a rotation zeroes a[p][q] alone, so an asymmetry the
    # contract accepts would otherwise outlast every sweep.
    exp = math.frexp(largest)[1]
    if n == 2:
        a00, a11 = math.ldexp(a00, -exp), math.ldexp(a11, -exp)
        m = (math.ldexp(a01, -exp) + math.ldexp(a10, -exp)) / 2
        if MAX_SWEEPS > 0:
            # _jacobi_sweeps' first sweep: its norms, one rotation, its stopping test
            thresh = JACOBI_TOL * math.sqrt(a00 * a00 + m * m + m * m + a11 * a11)
            if math.sqrt(m * m + m * m) <= thresh:
                return sorted((math.ldexp(a00, exp), math.ldexp(a11, exp)))
            if not abs(m) <= thresh / 2:
                theta = (a11 - a00) / (2.0 * m)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                b00, b01 = c * a00 - s * m, s * a00 + c * m
                b10, b11 = c * m - s * a11, s * m + c * a11
                d00, d10 = c * b00 - s * b10, s * b00 + c * b10
                d01, d11 = c * b01 - s * b11, s * b01 + c * b11
                if math.sqrt(d01 * d01 + d10 * d10) <= thresh:
                    return sorted((math.ldexp(d00, exp), math.ldexp(d11, exp)))
        a = [[a00, m], [m, a11]]
    else:
        a = [[math.ldexp(x, -exp) for x in row] for row in a]
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i] = (a[i][j] + a[j][i]) / 2
    if _jacobi_sweeps(a, JACOBI_TOL, MAX_SWEEPS) < 0:
        raise ContractViolationError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
    return sorted(math.ldexp(a[i][i], exp) for i in range(n))
