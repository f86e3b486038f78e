"""Entanglement degradation and teleportation fidelity near black holes.

The package computes closed-form logarithmic negativities and teleportation
fidelities for Hawking-Unruh squeezed channels (static d-dimensional and
rotating (4+n)-dimensional horizons), and verifies them against a brute-force
truncated-Fock-space density-matrix oracle.
"""

from bhent.channels import (
    fidelity_boson,
    fidelity_fermion,
    log_negativity_boson,
    log_negativity_fermion,
)
from bhent.errors import (
    ContractViolationError,
    NakedSingularityError,
    PhysicsDomainError,
    SuperradiantModeError,
    TruncationError,
)
from bhent.geometry import RotatingBH, SchwarzschildBH, tev_scales
from bhent.modes import BOSON, FERMION, ModeSpec, SqueezingParams, squeeze
from bhent.sweep import minibh_bounds

__version__ = "1.0.0"

__all__ = [
    "BOSON",
    "FERMION",
    "ContractViolationError",
    "ModeSpec",
    "NakedSingularityError",
    "PhysicsDomainError",
    "RotatingBH",
    "SchwarzschildBH",
    "SqueezingParams",
    "SuperradiantModeError",
    "TruncationError",
    "fidelity_boson",
    "fidelity_fermion",
    "log_negativity_boson",
    "log_negativity_fermion",
    "minibh_bounds",
    "squeeze",
    "tev_scales",
]
