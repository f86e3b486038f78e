"""Shared test helpers (not collected: the file name does not start with test_)."""

import numpy as np


def dense(rho):
    """The full matrix of a fock_oracle.TruncatedDensityMatrix, in basis order."""
    idx = {lbl: k for k, lbl in enumerate(rho.basis)}
    out = np.zeros((rho.dim, rho.dim))
    for (i, j), v in rho.entries.items():
        out[idx[i], idx[j]] = v
    return out
