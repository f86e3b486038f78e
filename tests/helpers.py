"""Shared test helpers (not collected: the file name does not start with test_)."""

import math
from unittest import mock

import numpy as np

from bhent import fock_oracle


class Horizon:
    """A stand-in hole with a chosen kappa and Omega, for sweep.evaluate_cell.

    A cell that gives omega reads nothing else of its hole; one that gives
    omega_rh also reads r_h.
    """

    __slots__ = ("kappa", "omega_h")

    def __init__(self, kappa, omega_h=0.0):
        self.kappa = kappa
        self.omega_h = omega_h


def dense(rho):
    """The full matrix of a fock_oracle.TruncatedDensityMatrix, in basis order."""
    idx = {lbl: k for k, lbl in enumerate(rho.basis)}
    out = np.zeros((rho.dim, rho.dim))
    for (i, j), v in rho.entries.items():
        out[idx[i], idx[j]] = v
    return out


def reference_post_state(r, qubit, outcome, n_trunc):
    """The whole bosonic post-state's entries, one projector per (n1, n2).

    The pair-by-pair loop the one-pass assembly replaced: a two-item vector
    per pair, added as weight * (a_i * a_j) onto entries.get(key, 0.0).
    Returns the stored (key, value) items, zeros dropped.  Its sector-1 items
    are the same at every n_trunc, which is why the oracle builds that block
    with no truncation.
    """
    x, y = qubit.conditional(*outcome)
    # c0[n] = tanh^n r / cosh r and c1[n] = tanh^n r sqrt(n+1) / cosh^2 r
    t, c = math.tanh(r), math.cosh(r)
    c0 = [t**n / c for n in range(n_trunc + 1)]
    c1 = [t**n * math.sqrt(n + 1) / (c * c) for n in range(n_trunc + 1)]
    entries = {}
    for n1 in range(n_trunc + 1):
        for n2 in range(n_trunc + 1):
            vec = [((n1 + 1, n2), x * c1[n1] * c0[n2]), ((n1, n2 + 1), y * c0[n1] * c1[n2])]
            for li, ai in vec:
                for lj, aj in vec:
                    entries[li, lj] = entries.get((li, lj), 0.0) + 1.0 * (ai * aj)
    return [(k, v) for k, v in entries.items() if v != 0.0]


def sector_items(items, sector):
    """The reference items whose labels lie in the excitation sector, in order."""
    return [(k, v) for k, v in items if sum(k[0]) == sector]


def traced_blockwise(r, n_blocks, max_deficit=fock_oracle.DEFAULT_MAX_DEFICIT):
    """blockwise_negativity_bosonic with two fock_oracle globals wrapped.

    TruncatedDensityMatrix and partial_transpose are replaced on the module,
    as the benchmark's tracer replaces them, by functions that record what
    they return.  Returns (result, states built, partial transposes formed);
    partial_transpose builds its result through TruncatedDensityMatrix, so
    that state is recorded in both lists.
    """
    built, transposed = [], []
    build, transpose = fock_oracle.TruncatedDensityMatrix, fock_oracle.partial_transpose

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    def recording_transpose(rho):
        transposed.append(transpose(rho))
        return transposed[-1]

    with (
        mock.patch.object(fock_oracle, "TruncatedDensityMatrix", recording_build),
        mock.patch.object(fock_oracle, "partial_transpose", recording_transpose),
    ):
        result = fock_oracle.blockwise_negativity_bosonic(r, n_blocks, max_deficit)
    return result, built, transposed
