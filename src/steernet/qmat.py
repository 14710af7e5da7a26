"""Dense complex linear algebra for Hilbert-space dimensions up to 16.

Qubit index 0 is the leftmost tensor factor: the basis ket |b0 b1 .. b_{n-1}>
maps to row sum(b_i * 2**(n-1-i)), which is what numpy's kron produces.
All values are immutable after construction and every operation is a pure
function, so concurrent use needs no coordination.

States are validated once, where they enter: the public `DensityMatrix(...)`
constructor checks Hermiticity, unit trace and positivity. Code whose result
is a density matrix by construction (`normalized`, which clamps and
rescales, `partial_trace` of a valid state, the swaps' null placeholders, a
raw state spec that has just been validated) wraps it with the private
trusted constructor `_trusted` instead, which skips that check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SizeError, StateError

MAX_DIM = 16

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def _check_square_pow2(m: np.ndarray) -> int:
    """Return the qubit count of a well-formed square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or dim != 2**n:
        raise ArgumentError(f"dimension {dim} is not a power of 2 >= 2")
    if dim > MAX_DIM:
        raise SizeError(f"dimension {dim} exceeds the supported maximum {MAX_DIM}")
    if not np.isfinite(m).all():
        raise ArgumentError("matrix entries must be finite")
    return n


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of density-matrix validation; ok iff all three checks pass."""

    hermitian: bool
    trace_dev: float
    min_eig: float
    ok: bool


def validate_density(m: np.ndarray, tol: float = HERMITIAN_TOL) -> ValidationReport:
    """Check Hermiticity, unit trace, and positivity of a square matrix.

    Parameters
    ----------
    m : ndarray
        Square complex matrix.
    tol : float
        Tolerance applied to all three checks.

    Returns
    -------
    ValidationReport
        Field values are always populated; failures never raise.
    """
    _check_square_pow2(m)
    m = np.asarray(m, dtype=complex)
    hermitian = bool(np.max(np.abs(m - m.conj().T)) <= tol)
    trace_dev = float(abs(np.trace(m) - 1.0))
    # eigvalsh needs a Hermitian input; symmetrize so the report is still
    # meaningful when the hermitian flag is false
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    ok = hermitian and trace_dev <= tol and min_eig >= -tol
    return ValidationReport(hermitian, trace_dev, min_eig, ok)


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Validated n-qubit density matrix (n <= 4)."""

    mat: np.ndarray
    qubits: int

    def __init__(self, mat: np.ndarray):
        m = np.asarray(mat, dtype=complex)
        n = _check_square_pow2(m)
        rep = validate_density(m)
        if not rep.ok:
            raise StateError(
                f"not a density matrix: hermitian={rep.hermitian} "
                f"trace_dev={rep.trace_dev:.3e} min_eig={rep.min_eig:.3e}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "qubits", n)

    @staticmethod
    def normalized(mat: np.ndarray) -> "DensityMatrix":
        """Build a DensityMatrix from nearly-valid arithmetic output.

        Symmetrizes, clamps eigenvalues in [-1e-10, 0) to zero, and rescales
        to unit trace. Conditioning arithmetic routinely leaves rounding
        residue at that scale; anything worse still raises. The result is a
        density matrix by construction and is not validated again.
        """
        m = np.asarray(mat, dtype=complex)
        _check_square_pow2(m)
        m = (m + m.conj().T) / 2
        vals, vecs = np.linalg.eigh(m)  # ascending, so vals[0] is the minimum
        if vals[0] < -PSD_TOL:
            raise StateError(f"matrix is not PSD (min eigenvalue {vals[0]:.3e})")
        vals = np.maximum(vals, 0.0)
        m = (vecs * vals) @ vecs.conj().T
        tr = m.trace().real
        if tr <= 0:
            raise StateError("matrix has non-positive trace")
        return _trusted(m / tr)


def _trusted(m: np.ndarray) -> DensityMatrix:
    """Wrap a complex matrix that is a density matrix by construction.

    Skips validation, so only package arithmetic whose output is Hermitian,
    PSD and of unit trace whenever its input is may call it; `m` must not be
    shared with anything that could modify it.
    """
    rho = object.__new__(DensityMatrix)
    m.flags.writeable = False
    object.__setattr__(rho, "mat", m)
    object.__setattr__(rho, "qubits", m.shape[0].bit_length() - 1)
    return rho


def basis_ket(bits) -> np.ndarray:
    """State vector |b0 b1 ...> for a tuple of bits."""
    idx = 0
    for b in bits:
        idx = 2 * idx + int(b)
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[idx] = 1.0
    return v


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not listed in `keep`.

    Parameters
    ----------
    rho : DensityMatrix
    keep : iterable of int
        Qubit indices to retain, a non-empty proper subset of range(n).
        The kept qubits appear in ascending original order.

    Returns
    -------
    DensityMatrix
        State on the kept qubits. The partial trace of a valid state is a
        valid state, so the result is only symmetrized and rescaled to unit
        trace, not re-validated.
    """
    n = rho.qubits
    kept = sorted(set(int(q) for q in keep))
    if not kept or len(kept) >= n:
        raise ArgumentError("keep must be a non-empty proper subset of the qubits")
    if kept[0] < 0 or kept[-1] >= n:
        raise ArgumentError(f"keep indices out of range for {n} qubits")
    t = rho.mat.reshape([2] * (2 * n))
    m = n
    for q in sorted(set(range(n)) - set(kept), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + m)
        m -= 1
    d = 2 ** len(kept)
    t = t.reshape(d, d)
    t = (t + t.conj().T) / 2
    return _trusted(t / t.trace().real)
