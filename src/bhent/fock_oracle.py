"""Brute-force ground truth in a truncated two-party Fock basis.

Shared Bell resources and post-measurement states are assembled explicitly as
real symmetric density matrices that store only their non-zero entries;
partial transposes, eigenvalues (via the Jacobi kernel), negativities and
fidelities are then computed numerically with no reference to any closed
form.  The eigensolver never sees the whole matrix: block_spectra splits the
non-zero pattern of a state, such as a partial transpose, into connected
components, found generically by union-find over the labels, and
diagonalises each component on its own with kernels.jacobi_eigh.
Everything is plain Python on floats, lists and dicts.  The bosonic Bell
resource is refused with TruncationError when its analytic trace deficit,
the probability mass beyond the truncation, exceeds the caller's tolerance.

The bosonic post-measurement state of the fidelity oracle is block diagonal
in the excitation sectors k1 + k2 of the receiver's two modes, and
bob_post_state_bosonic assembles only sector 1, the one the fidelity reads,
where the dual-rail target lives.  That block takes no truncation, so the
one certificate, in closed form, is the Bell resource's.

Two negativity pathways exist for the bosonic resource and they do NOT agree.
Both read the same block entries, written by one formula, _bell_block_entries;
they differ only in whether the partial transpose acts on each sector block
alone or on the direct sum of the blocks:

- negativity_numeric(bell_state_bosonic(...)) diagonalises the partial
  transpose of the direct sum.  Neighbouring excitation sectors couple
  through shared basis states, and the resulting negativity decays to zero
  for large squeezing.
- blockwise_negativity_bosonic(...) diagonalises each excitation sector as an
  isolated 4x4 block.  This is the decomposition whose negative eigenvalues
  are the closed-form family lambda_n, and whose sum reproduces the
  closed-form series in channels.log_negativity_boson.  The isolated blocks
  are assembled as one direct sum whose party-B labels are tagged by their
  sector, so they share no label: its one partial transpose has no block
  that mixes sectors, and each sector's blocks are diagonalised as
  components of that sum, with the entries and bits of the separate blocks.

Both are reported side by side by reports.negativity_rows; the package never
silently picks one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from bhent.errors import ContractViolationError, PhysicsDomainError, TruncationError, check_integer
from bhent.kernels import jacobi_eigh
from bhent.modes import check_boson_r, check_fermion_r

DEFAULT_TRUNC = 40
MAX_TRUNC = 200
# Largest analytic trace deficit the bosonic Bell constructions accept by
# default; oracle-check passes its own gate (--tol, default 1e-8) instead.
DEFAULT_MAX_DEFICIT = 1e-8

Label = tuple


class TruncatedDensityMatrix:
    """Sparse real symmetric matrix with labelled basis states.

    basis entries are hashable labels; for two-party states they are
    (party_a, party_b) pairs so the partial transpose can act on party A.
    entries maps (label_i, label_j) to the matrix element; absent pairs are
    zero, and zeros passed in are dropped.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis: tuple[Label, ...], entries: dict[tuple[Label, Label], float]) -> None:
        labels = set(basis)
        if len(labels) != len(basis):
            raise ContractViolationError("basis repeats a label")
        if 0.0 in entries.values():  # also true for -0.0
            entries = {key: v for key, v in entries.items() if v != 0.0}
        else:
            # Copying a dict reuses its stored hashes; the comprehension above
            # rehashes every nested-tuple key, since tuples cache no hash.
            entries = dict(entries)
        scale = max(max(map(abs, entries.values()), default=0.0), 1.0)
        asym_tol = 1e-14 * scale
        get = entries.get
        for (i, j), v in entries.items():
            if i not in labels or j not in labels:
                raise ContractViolationError(f"entry {(i, j)} has a label outside the basis")
            if i == j:
                if not v >= -1e-14:  # nan fails this test too
                    raise ContractViolationError(f"negative or nan diagonal entry {v} at {i}")
            else:
                asym = abs(v - get((j, i), 0.0))
                if not asym <= asym_tol:
                    raise ContractViolationError(f"density matrix asymmetry {asym} at {(i, j)}")
        self.basis = basis
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.basis)


class DualRailQubit:
    """Logical qubit alpha|0> + beta|1> in dual-rail encoding (real amplitudes)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        if not abs(alpha * alpha + beta * beta - 1.0) <= 1e-12:  # overflow gives inf
            raise PhysicsDomainError(f"qubit amplitudes not normalised: {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta

    def conditional(self, i: int, j: int) -> tuple[float, float]:
        """Amplitudes (x_ij, y_ij) of the state conditioned on measurement (i, j)."""
        table = {
            (0, 0): (self.alpha, self.beta),
            (0, 1): (self.beta, self.alpha),
            (1, 0): (self.alpha, -self.beta),
            (1, 1): (-self.beta, self.alpha),
        }
        try:
            return table[(i, j)]
        except KeyError:
            raise PhysicsDomainError(f"measurement outcome must be two bits, got {(i, j)}")


def _bosonic_trace_deficit(r: float, n_trunc: int) -> float:
    """Analytic probability mass of the Bell resource beyond truncation, (A + B)/2.

    A, B are the tails of sum c0[n]^2 and sum c1[n]^2 past n_trunc, where
    c0[n] = tanh^n r / cosh r and c1[n] = tanh^n r sqrt(n+1) / cosh^2 r are
    the amplitudes of the logical 0/1 states over hidden-region occupation n;
    both full sums are 1.  With s = tanh^2 r = 1 - cosh^-2 r the tails are
    A = s^(n_trunc+1) and B = A ((n_trunc+2) - (n_trunc+1) s).
    """
    s = math.tanh(r) ** 2
    a = s ** (n_trunc + 1)
    b = a * ((n_trunc + 2) - (n_trunc + 1) * s)
    return (a + b) / 2.0


def _check_truncation(r: float, n_trunc: int, deficit: float, max_deficit: float) -> None:
    if not deficit <= max_deficit:
        raise TruncationError(
            f"truncation {n_trunc} too small for r={r}: trace deficit {deficit:.3g}"
            f" exceeds {max_deficit:.3g}"
        )


def _check_bosonic_args(r: float, n_trunc: int) -> int:
    """int(n_trunc), once r is a bosonic squeezing and n_trunc a truncation in [2, MAX_TRUNC]."""
    check_boson_r(r)
    return check_integer("truncation", n_trunc, 2, MAX_TRUNC)


def _bell_block_entries(r: float, n: int, b0: Label, b1: Label) -> dict:
    """Entries of the excitation-sector-n block of the bosonic Bell resource.

    Hidden-region occupation n contributes the rank-one projector on the
    labels (0, b0) and (1, b1), with entries {1, sqrt(n+1)/cosh r,
    (n+1)/cosh^2 r} times tanh^(2n) r / (2 cosh^2 r); b0 and b1 are the
    party-B labels of occupations n and n+1.  The only formula for the
    resource's entries: the blocks and the assembled states all read it.
    """
    t = math.tanh(r)
    c = math.cosh(r)
    pref = t ** (2 * n) / (2.0 * c * c)
    off = pref * (math.sqrt(n + 1) / c)
    return {
        ((0, b0), (0, b0)): pref,
        ((0, b0), (1, b1)): off,
        ((1, b1), (0, b0)): off,
        ((1, b1), (1, b1)): pref * ((n + 1) / (c * c)),
    }


def bell_state_bosonic(
    r: float, n_trunc: int = DEFAULT_TRUNC, max_deficit: float = DEFAULT_MAX_DEFICIT
) -> TruncatedDensityMatrix:
    """Bosonic Bell resource after tracing the causally hidden region.

    Party A is a qubit, party B a Fock mode truncated at occupation
    n_trunc + 1.  The state is the direct sum of the sector blocks of
    bell_block_bosonic for n = 0 .. n_trunc, with the same entry bits; no
    two blocks share an entry.  Raises TruncationError when the trace
    deficit exceeds max_deficit.
    """
    n_trunc = _check_bosonic_args(r, n_trunc)
    _check_truncation(r, n_trunc, _bosonic_trace_deficit(r, n_trunc), max_deficit)

    basis = tuple((a, k) for a in (0, 1) for k in range(n_trunc + 2))
    entries: dict = {}
    for n in range(n_trunc + 1):
        entries.update(_bell_block_entries(r, n, n, n + 1))
    return TruncatedDensityMatrix(basis, entries)


def bell_block_bosonic(r: float, n: int) -> TruncatedDensityMatrix:
    """Single excitation-sector block of the bosonic Bell resource.

    Lives on its own four-state basis {(0,n), (0,n+1), (1,n), (1,n+1)}; the
    diagonal entries belonging to neighbouring sectors are absent by
    construction.  Unnormalised (its trace is the sector weight).
    """
    check_boson_r(r)
    n = check_integer("block index", n, 0)
    basis = ((0, n), (0, n + 1), (1, n), (1, n + 1))
    return TruncatedDensityMatrix(basis, _bell_block_entries(r, n, n, n + 1))


def bell_state_fermionic(r: float) -> TruncatedDensityMatrix:
    """Fermionic Bell resource: exact 4x4 matrix in the basis {00, 01, 10, 11}."""
    check_fermion_r(r)
    cr = math.cos(r)
    basis = ((0, 0), (0, 1), (1, 0), (1, 1))
    entries = {
        ((0, 0), (0, 0)): 0.5 * (cr * cr),
        ((0, 1), (0, 1)): 0.5 * math.sin(r) ** 2,
        ((0, 0), (1, 1)): 0.5 * cr,
        ((1, 1), (0, 0)): 0.5 * cr,
        ((1, 1), (1, 1)): 0.5,
    }
    return TruncatedDensityMatrix(basis, entries)


def partial_transpose(rho: TruncatedDensityMatrix) -> TruncatedDensityMatrix:
    """Transpose party A's indices: <a,b|rho^T|a',b'> = <a',b|rho|a,b'>.

    An involution that preserves trace and Frobenius norm.  Requires the
    label set to be closed under swapping the party-A components, that is,
    to be the product of its party-A and party-B labels.
    """
    party_a = dict.fromkeys(a for a, _ in rho.basis)
    party_b = dict.fromkeys(b for _, b in rho.basis)
    if len(party_a) * len(party_b) != rho.dim:
        labels = set(rho.basis)
        missing = next((a, b) for a in party_a for b in party_b if (a, b) not in labels)
        raise ContractViolationError(
            f"basis not closed under partial transpose: missing {missing}"
        )
    entries = {((a2, b), (a, b2)): v for ((a, b), (a2, b2)), v in rho.entries.items()}
    return TruncatedDensityMatrix(rho.basis, entries)


def connected_blocks(rho: TruncatedDensityMatrix) -> list[list[Label]]:
    """Connected components of the non-zero pattern, each in basis order.

    Union-find over the labels of the stored entries; labels with no entry
    (zero rows) belong to no block.
    """
    parent: dict[Label, Label] = {}

    def find(x: Label) -> Label:
        root = parent.setdefault(x, x)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    for i, j in rho.entries:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    blocks: dict[Label, list[Label]] = {}
    for lbl in rho.basis:
        if lbl in parent:
            blocks.setdefault(find(lbl), []).append(lbl)
    return list(blocks.values())


def block_spectra(rho: TruncatedDensityMatrix) -> Iterator[list[float]]:
    """Eigenvalues of each connected block in turn, one Jacobi solve per block.

    A single-label block is its own eigenvalue.
    """
    for block in connected_blocks(rho):
        if len(block) == 1:
            yield [rho.entries[(block[0], block[0])]]
        else:
            yield jacobi_eigh([[rho.entries.get((i, j), 0.0) for j in block] for i in block])


def spectrum(rho: TruncatedDensityMatrix) -> list[float]:
    """All eigenvalues in ascending order: the block spectra, and a zero per zero row."""
    eig = [e for eigenvalues in block_spectra(rho) for e in eigenvalues]
    return sorted(eig + [0.0] * (rho.dim - len(eig)))


class NumericNegativity:
    __slots__ = ("negativity", "log_negativity")

    def __init__(self, negativity: float, log_negativity: float) -> None:
        self.negativity = negativity
        self.log_negativity = log_negativity


def negativity_numeric(rho: TruncatedDensityMatrix) -> NumericNegativity:
    """Full-spectrum negativity: N = sum (|lambda| - lambda)/2 over the PPT spectrum."""
    n_val = math.fsum((abs(e) - e) / 2.0 for e in spectrum(partial_transpose(rho)))
    return NumericNegativity(n_val, math.log2(2.0 * n_val + 1.0))


def blockwise_negativity_bosonic(
    r: float, n_blocks: int = DEFAULT_TRUNC, max_deficit: float = DEFAULT_MAX_DEFICIT
) -> NumericNegativity:
    """Negativity from the isolated excitation-sector blocks.

    The blocks bell_block_bosonic(r, n), n = 0 .. n_blocks, are assembled as
    one state: their direct sum, with party-B label k of block n tagged
    (n, k) so that no two blocks share a label.  Its one partial transpose
    then has no block that mixes sectors, and the negative eigenvalues are
    summed block by block in basis order, with the entries, blocks and bits
    of the separately transposed sector blocks.  This matrix construction is
    what the closed-form eigenvalue family and series describe; it differs
    from the full-spectrum value of negativity_numeric (see module
    docstring).  The omitted blocks' negativity is bounded by the Bell
    resource's trace deficit at truncation n_blocks, so TruncationError is
    raised when that deficit exceeds max_deficit.  r and n_blocks are checked
    as in bell_state_bosonic, before any block is built.
    """
    n_blocks = _check_bosonic_args(r, n_blocks)
    _check_truncation(r, n_blocks, _bosonic_trace_deficit(r, n_blocks), max_deficit)
    basis = []
    entries = {}
    for n in range(n_blocks + 1):
        b0, b1 = (n, n), (n, n + 1)
        basis += [(0, b0), (0, b1), (1, b0), (1, b1)]
        entries.update(_bell_block_entries(r, n, b0, b1))
    ppt = partial_transpose(TruncatedDensityMatrix(tuple(basis), entries))
    total = 0.0
    for eigenvalues in block_spectra(ppt):
        total += math.fsum((abs(e) - e) / 2.0 for e in eigenvalues)
    return NumericNegativity(total, math.log2(2.0 * total + 1.0))


def blockwise_negative_eigenvalue(r: float, n: int) -> float:
    """Most negative eigenvalue of the isolated n-th PPT sector block."""
    return spectrum(partial_transpose(bell_block_bosonic(r, n)))[0]


def bob_post_state_bosonic(
    r: float, qubit: DualRailQubit, outcome: tuple[int, int]
) -> TruncatedDensityMatrix:
    """Sector-1 block of the receiver's bosonic dual-rail post-state.

    The conditioned logical state x|0> + y|1> is written in dual-rail form,
    each of the receiver's two cavity modes is expanded through the two-mode
    squeezing relation, and the hidden region is traced out.  Basis labels
    are (k1, k2) occupation pairs of the two observable modes.  Each
    hidden-region pair (n1, n2) adds a rank-one projector that lies entirely
    in the sector k1 + k2 = n1 + n2 + 1.  Only sector 1, where the dual-rail
    target x|1,0> + y|0,1> lives, is assembled: the pair (0, 0) on the basis
    ((0, 1), (1, 0)).  Its entries equal that sector's at every truncation,
    in the same order and to the bit, so it takes none.  Unnormalised, as
    bell_block_bosonic is.
    """
    check_boson_r(r)
    x, y = qubit.conditional(*outcome)
    c = math.cosh(r)
    c0, c1 = 1.0 / c, 1.0 / (c * c)  # c0[0], c1[0] as _bosonic_trace_deficit defines them

    # The pair (0, 0) projects onto x c1[0] c0[0] |1, 0> + y c0[0] c1[0] |0, 1>;
    # its four entries are written in the whole state's order, |1, 0> first.
    lx, ly = (1, 0), (0, 1)
    amp_x = x * c1 * c0
    amp_y = y * c0 * c1
    coherence = amp_x * amp_y
    entries = {
        (lx, lx): amp_x * amp_x,
        (lx, ly): coherence,
        (ly, lx): coherence,
        (ly, ly): amp_y * amp_y,
    }
    return TruncatedDensityMatrix((ly, lx), entries)


def bob_post_state_fermionic(
    r: float, qubit: DualRailQubit, outcome: tuple[int, int]
) -> TruncatedDensityMatrix:
    """Receiver's post-measurement state for the fermionic protocol (exact 4x4).

    rho = cos^2 r |phi_ij><phi_ij| + sin^2 r |11><11| on the two dual-rail
    modes; Pauli blocking caps each occupation at 1.
    """
    check_fermion_r(r)
    x, y = qubit.conditional(*outcome)
    basis = ((0, 0), (0, 1), (1, 0), (1, 1))
    w = math.cos(r) ** 2
    coherence = w * (y * x)
    entries = {
        ((0, 1), (0, 1)): w * (y * y),
        ((0, 1), (1, 0)): coherence,
        ((1, 0), (0, 1)): coherence,
        ((1, 0), (1, 0)): w * (x * x),
        ((1, 1), (1, 1)): math.sin(r) ** 2,
    }
    return TruncatedDensityMatrix(basis, entries)


def _fused_dot(x: list[float], y: list[float]) -> float:
    """sum x[k] y[k] from 0.0, each multiply-add rounded once (a fused multiply-add).

    Each step writes acc + a*b exactly as one ratio of integers; int / int
    true division rounds that ratio correctly, as float(Fraction) does.
    """
    acc = 0.0
    for a, b in zip(x, y):
        na, da = a.as_integer_ratio()
        nb, db = b.as_integer_ratio()
        nc, dc = acc.as_integer_ratio()
        acc = (na * nb * dc + nc * da * db) / (da * db * dc)
    return acc


def fidelity_numeric(rho: TruncatedDensityMatrix, target: dict[Label, float]) -> float:
    """<psi|rho|psi> for a normalised target state given as {label: amplitude}.

    Only the entries between the target's own labels are read, in basis order.
    The form is evaluated as (psi^T rho) psi, each product a fused dot in that
    order: the rounding of a BLAS gemv followed by a dot on a machine with
    fused multiply-add, which wrote the reference reports in tests/golden.
    Plain multiply-then-add moves F_fermion there by an ulp.
    """
    for lbl in target:
        if lbl not in rho.basis:
            raise PhysicsDomainError(f"target label {lbl} not in the state's basis")
    labels = sorted(target, key=rho.basis.index)
    vec = [float(target[lbl]) for lbl in labels]
    norm = math.fsum(v * v for v in vec)
    if not abs(norm - 1.0) <= 1e-12:
        raise PhysicsDomainError(f"target state not normalised: |psi|^2 = {norm}")
    columns = [[rho.entries.get((i, j), 0.0) for i in labels] for j in labels]
    return _fused_dot([_fused_dot(vec, col) for col in columns], vec)


def dual_rail_target(x: float, y: float) -> dict[Label, float]:
    """Dual-rail target state x|1,0> + y|0,1> as a label->amplitude map."""
    return {(1, 0): x, (0, 1): y}
