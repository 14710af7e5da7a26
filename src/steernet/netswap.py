"""Entanglement-swapping engine for the linear and star networks.

Linear chain: rho_AB x rho_BC with the middle party measuring its two qubits
in the Bell basis. The joint order is (A, B1, B2, C): the outer party A holds
the first qubit of rho_ab, the centre holds the FIRST qubit of rho_bc (B2)
and C its second, so the measured pair B1, B2 is adjacent. The closed-form
branch values in `families` hold for this order.

Star: three edge parties each share a pair with the centre, which measures
its three qubits in a fixed 8-element orthonormal basis. In every star input
pair the EDGE party holds the first qubit and the centre the second; the
alternative ordering reproduces none of the reference activation ranges, so
this one is load-bearing.

Neither joint state (16- or 64-dimensional) is ever built. One einsum on a
path fixed at import contracts the input pairs with every outcome's
projector, straight to the stack of unnormalized conditionals on the outer
parties: four 4x4 (A, C) matrices for the chain, eight 8x8 ones for the
star. Each is divided by its trace (the outcome probability) and passed
through `DensityMatrix.normalized`, which clamps rounding residue and
returns a trusted state without validating it again.

Outcomes with probability below 1e-12 carry a degenerate flag and a
maximally mixed placeholder; conditioning on null events is undefined.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalError
from .qmat import DensityMatrix, _trusted, basis_ket, partial_trace

DEGENERATE_PROB = 1e-12


@dataclass(frozen=True, eq=False)
class SwapOutcome:
    """One branch of a joint measurement: label, probability, conditional state."""

    label: str
    probability: float
    conditional: DensityMatrix
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal, complete set of state vectors defining a joint measurement."""

    vectors: tuple

    def __post_init__(self):
        vs = np.stack(self.vectors)
        gram = vs.conj() @ vs.T
        if np.max(np.abs(gram - np.eye(len(vs)))) > 1e-12:
            raise InternalError("basis vectors are not orthonormal")
        comp = vs.T @ vs.conj()
        if vs.shape[0] == vs.shape[1] and np.max(np.abs(comp - np.eye(vs.shape[1]))) > 1e-12:
            raise InternalError("basis is not complete")


def bell_basis() -> MeasurementBasis:
    """The four Bell vectors, ordered phi+, phi-, psi+, psi- (labels 00,01,10,11)."""
    r = 1 / math.sqrt(2)
    return MeasurementBasis(
        (
            r * (basis_ket((0, 0)) + basis_ket((1, 1))),
            r * (basis_ket((0, 0)) - basis_ket((1, 1))),
            r * (basis_ket((0, 1)) + basis_ket((1, 0))),
            r * (basis_ket((0, 1)) - basis_ket((1, 0))),
        )
    )


def star_basis() -> MeasurementBasis:
    """The eight three-qubit vectors measured by the star centre."""
    r = 1 / math.sqrt(3)
    k = basis_ket
    return MeasurementBasis(
        (
            r * (k((0, 0, 1)) + k((1, 0, 0)) + k((0, 1, 0))),
            r * (k((0, 1, 0)) - k((1, 0, 0)) + k((0, 0, 0))),
            r * (-k((0, 1, 0)) + k((0, 0, 1)) + k((0, 0, 0))),
            r * (k((1, 0, 0)) + k((0, 0, 0)) - k((0, 0, 1))),
            r * (k((1, 0, 1)) + k((1, 1, 0)) + k((0, 1, 1))),
            r * (k((1, 1, 0)) - k((1, 0, 1)) + k((1, 1, 1))),
            r * (-k((1, 1, 0)) + k((1, 1, 1)) + k((0, 1, 1))),
            r * (k((1, 1, 1)) + k((1, 0, 1)) - k((0, 1, 1))),
        )
    )


_BELL = bell_basis()
_STAR = star_basis()
_BELL_LABELS = ("00", "01", "10", "11")
_STAR_LABELS = tuple(str(j + 1) for j in range(8))

# Einsum axes. Chain: rho_ab (a, b1, a', b1'), rho_bc (b2, c, b2', c'),
# kernel (outcome, b1, b2, b1', b2'). Star: each pair (edge, centre, edge',
# centre'), kernel (outcome, three centre qubits, three centre' qubits).
# Kernel entries are conj(v[x]) v[y] for the outcome vector v, so the
# contraction takes <v| . |v> over the centre qubits.
_CHAIN_EIN = "ijkl,mnop,qjmlo->qinkp"
_STAR_EIN = "ibjq,kcls,mdnt,obcdqst->oikmjln"


def _kernel(vectors, centre_qubits: int) -> np.ndarray:
    vs = np.stack(vectors)
    k = np.einsum("ox,oy->oxy", vs.conj(), vs)
    return k.reshape((len(vs),) + (2,) * (2 * centre_qubits))


_CHAIN_KER = _kernel(_BELL.vectors, 2)
_STAR_KER = _kernel(_STAR.vectors, 3)
_PAIR = np.zeros((2, 2, 2, 2), dtype=complex)
_CHAIN_PATH = np.einsum_path(_CHAIN_EIN, _PAIR, _PAIR, _CHAIN_KER, optimize="optimal")[0]
_STAR_PATH = np.einsum_path(_STAR_EIN, _PAIR, _PAIR, _PAIR, _STAR_KER, optimize="optimal")[0]


def _require_two_qubit(rho: DensityMatrix, name: str):
    if not isinstance(rho, DensityMatrix) or rho.qubits != 2:
        raise ArgumentError(f"{name} must be a two-qubit DensityMatrix")


def _outcomes(labels, conds) -> list:
    """SwapOutcomes from the stacked unnormalized conditionals of one swap."""
    d = conds.shape[-1]
    out = []
    for label, m in zip(labels, conds):
        p = float(m.trace().real)
        if p < DEGENERATE_PROB:
            placeholder = _trusted(np.eye(d, dtype=complex) / d)
            out.append(SwapOutcome(label, max(p, 0.0), placeholder, True))
            continue
        out.append(SwapOutcome(label, p, DensityMatrix.normalized(m / p)))
    return out


def bsm_swap(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> list:
    """Bell-basis measurement on the middle party of a two-link chain.

    Each outcome's 4x4 conditional on (A, C) is contracted directly from the
    two input pairs; the 16-dimensional joint state is never materialized.

    Parameters
    ----------
    rho_ab, rho_bc : DensityMatrix
        The two shared pairs, on (A, B1) and (B2, C): the centre holds the
        second qubit of rho_ab and the first qubit of rho_bc.

    Returns
    -------
    list of SwapOutcome
        Four outcomes labelled 00, 01, 10, 11 with conditionals on (A, C).
        Probabilities sum to 1.
    """
    _require_two_qubit(rho_ab, "rho_ab")
    _require_two_qubit(rho_bc, "rho_bc")
    conds = np.einsum(
        _CHAIN_EIN,
        rho_ab.mat.reshape(2, 2, 2, 2),
        rho_bc.mat.reshape(2, 2, 2, 2),
        _CHAIN_KER,
        optimize=_CHAIN_PATH,
    ).reshape(4, 4, 4)
    return _outcomes(_BELL_LABELS, conds)


def star_swap(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix) -> list:
    """Three-qubit joint measurement at the centre of a three-pair star.

    The 64-dimensional joint state is never materialized; each outcome's
    8x8 conditional on the edge parties is contracted directly from the
    three input pairs.

    Returns
    -------
    list of SwapOutcome
        Eight outcomes labelled "1".."8".
    """
    for i, r in enumerate((rho1, rho2, rho3)):
        _require_two_qubit(r, f"rho{i + 1}")
    conds = np.einsum(
        _STAR_EIN,
        rho1.mat.reshape(2, 2, 2, 2),
        rho2.mat.reshape(2, 2, 2, 2),
        rho3.mat.reshape(2, 2, 2, 2),
        _STAR_KER,
        optimize=_STAR_PATH,
    ).reshape(8, 8, 8)
    return _outcomes(_STAR_LABELS, conds)


def reduced_pairs(rho3: DensityMatrix) -> tuple:
    """The three bipartite reductions of a three-qubit state.

    Returns the pairs in the order (1,2), (1,3), (2,3).
    """
    if rho3.qubits != 3:
        raise ArgumentError("expected a three-qubit state")
    return (
        partial_trace(rho3, (0, 1)),
        partial_trace(rho3, (0, 2)),
        partial_trace(rho3, (1, 2)),
    )
