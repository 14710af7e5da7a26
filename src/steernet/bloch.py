"""Two-qubit Bloch representation and local diagonalization of the
correlation tensor.

A two-qubit state is carried as (u, v, W): the two local Bloch vectors and
the 3x3 correlation tensor W_jk = Tr[rho sigma_j x sigma_k]. Local unitaries
act as proper rotations on this data and can always make W diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericIntegrityError
from .qmat import DensityMatrix

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)

IMAG_RESIDUE_TOL = 1e-8

# stacked observables sigma_j x I, I x sigma_k, sigma_j x sigma_k, so one
# einsum evaluates all 15 expectations of decompose at once
_OBS = np.stack(
    [np.kron(s, I2) for s in PAULI]
    + [np.kron(I2, s) for s in PAULI]
    + [np.kron(a, b) for a in PAULI for b in PAULI]
)


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Local Bloch vectors u, v and correlation tensor W of a two-qubit state."""

    u: np.ndarray
    v: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        W = np.asarray(self.W, dtype=float)
        if u.shape != (3,) or v.shape != (3,) or W.shape != (3, 3):
            raise ArgumentError("BlochForm needs two 3-vectors and a 3x3 tensor")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "W", W)


@dataclass(frozen=True, eq=False)
class DiagonalizedForm:
    """BlochForm with diagonal W plus the proper rotations that produced it."""

    base: BlochForm
    rot1: np.ndarray
    rot2: np.ndarray


def decompose(rho: DensityMatrix) -> BlochForm:
    """Bloch decomposition of a two-qubit density matrix.

    Parameters
    ----------
    rho : DensityMatrix
        Two-qubit state.

    Returns
    -------
    BlochForm
        u_j = Tr[rho sigma_j x I], v_k = Tr[rho I x sigma_k],
        W_jk = Tr[rho sigma_j x sigma_k].

    Raises
    ------
    NumericIntegrityError
        If any expectation has imaginary part above 1e-8.
    """
    if rho.qubits != 2:
        raise ArgumentError(f"expected a two-qubit state, got {rho.qubits} qubits")
    vals = np.einsum("oij,ji->o", _OBS, rho.mat)
    resid = float(np.max(np.abs(vals.imag)))
    if resid > IMAG_RESIDUE_TOL:
        raise NumericIntegrityError(f"imaginary residue {resid:.3e} in Bloch data")
    r = vals.real
    return BlochForm(r[0:3], r[3:6], r[6:15].reshape(3, 3))


def reconstruct(b: BlochForm) -> np.ndarray:
    """Exact linear inverse of decompose.

    Positivity is not enforced; callers validate when they need a state.
    """
    coeff = np.concatenate([b.u, b.v, b.W.reshape(9)])
    return (np.eye(4, dtype=complex) + np.tensordot(coeff, _OBS, axes=1)) / 4


def diagonalize_correlation(b: BlochForm) -> DiagonalizedForm:
    """Diagonalize W by proper rotations, signs carried by the diagonal.

    Returns a DiagonalizedForm with rot1 @ W @ rot2.T diagonal and both
    rotations of determinant +1; u and v are rotated along. An already
    diagonal W is returned unchanged with identity rotations, so repeated
    application is stable.
    """
    W = b.W
    if np.max(np.abs(W - np.diag(np.diag(W)))) <= 1e-12:
        eye = np.eye(3)
        return DiagonalizedForm(b, eye, eye)
    U, sv, Vt = np.linalg.svd(W)
    d = sv.copy()
    # keep rotations proper; a flipped sign moves into the diagonal, which is
    # harmless downstream (criteria use magnitudes or squares)
    if np.linalg.det(U) < 0:
        U = U.copy()
        U[:, 2] *= -1
        d[2] *= -1
    if np.linalg.det(Vt) < 0:
        Vt = Vt.copy()
        Vt[2, :] *= -1
        d[2] *= -1
    rot1, rot2 = U.T, Vt
    base = BlochForm(rot1 @ b.u, rot2 @ b.v, np.diag(d))
    return DiagonalizedForm(base, rot1, rot2)
