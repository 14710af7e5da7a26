"""Parametric input-state families and their closed-form steering conditions.

Two asymmetric noisy-singlet families (gamma1, gamma2) drive the linear and
star networks; the omega family drives the genuine-activation pipeline; the
werner family is kept for calibration. `make_state` parses the CLI's JSON
state object: a family name with its parameters, or a raw matrix.
"""

import math
import sys

import numpy as np

from .errors import ArgumentError, SingularMarginalError
from .qmat import DensityMatrix, _trusted, basis_ket, validate_density


def _is_number(x) -> bool:
    """A finite JSON number: true/false and quoted numbers would otherwise
    pass float(), and an integer beyond the float range overflows it."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _require(params: dict, names) -> list:
    missing = [n for n in names if n not in params]
    if missing:
        raise ArgumentError(f"missing parameter(s) {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise ArgumentError(f"unexpected parameter(s) {extra}")
    return [params[n] for n in names]


def _check_range(name: str, x: float, lo: float, hi: float, open_ends: bool = False):
    x = float(x)
    bad = not (lo < x < hi) if open_ends else not (lo <= x <= hi)
    if bad:
        interval = f"open range ({lo}, {hi})" if open_ends else f"closed range [{lo}, {hi}]"
        raise ArgumentError(f"{name}={x} outside the {interval}")
    return x


def _gamma(p: float, alpha: float, noise: tuple) -> DensityMatrix:
    p = _check_range("p", p, 0.0, 1.0)
    alpha = _check_range("alpha", alpha, 0.0, math.pi / 4)
    phi = math.sin(alpha) * basis_ket((0, 1)) + math.cos(alpha) * basis_ket((1, 0))
    k = basis_ket(noise)
    return DensityMatrix((1 - p) * np.outer(phi, phi.conj()) + p * np.outer(k, k.conj()))


def gamma1(p: float, alpha: float) -> DensityMatrix:
    """(1-p)|phi><phi| + p|00><00| with |phi> = sin(alpha)|01> + cos(alpha)|10>."""
    return _gamma(p, alpha, (0, 0))


def gamma2(p: float, alpha: float) -> DensityMatrix:
    """(1-p)|phi><phi| + p|11><11| with the same |phi> as gamma1."""
    return _gamma(p, alpha, (1, 1))


def omega(beta: float, s: float) -> DensityMatrix:
    """s|chi><chi| + (1-s) omega1 x I/2, |chi> = cos(beta)|00> + sin(beta)|11>.

    beta is restricted to the open interval (0, pi/2): at the endpoints the
    second-party marginal is singular and the canonical map is undefined.
    """
    beta = _check_range("beta", beta, 0.0, math.pi / 2, open_ends=True)
    s = _check_range("s", s, 0.0, 1.0)
    chi = math.cos(beta) * basis_ket((0, 0)) + math.sin(beta) * basis_ket((1, 1))
    om1 = np.diag([math.cos(beta) ** 2, math.sin(beta) ** 2]).astype(complex)
    return DensityMatrix(s * np.outer(chi, chi.conj()) + (1 - s) * np.kron(om1, np.eye(2) / 2))


def werner(p: float) -> DensityMatrix:
    """p|phi+><phi+| + (1-p) I/4."""
    p = _check_range("p", p, 0.0, 1.0)
    phip = (basis_ket((0, 0)) + basis_ket((1, 1))) / math.sqrt(2)
    return DensityMatrix(p * np.outer(phip, phip.conj()) + (1 - p) * np.eye(4) / 4)


def _raw(rows) -> DensityMatrix:
    entries = np.array(rows, dtype=object)
    if entries.shape != (4, 4, 2) or not all(map(_is_number, entries.flat)):
        raise ArgumentError("raw matrix must be 4 rows of 4 [re, im] pairs of finite numbers")
    m = np.array([[complex(*c) for c in row] for row in entries])
    rep = validate_density(m)
    if not rep.ok:
        raise ArgumentError(
            f"raw matrix failed validation: hermitian={rep.hermitian} "
            f"trace_dev={rep.trace_dev:.3e} min_eig={rep.min_eig:.3e}"
        )
    return _trusted(m)


# family name -> (constructor, parameter names in call order)
_BUILDERS = {
    "gamma1": (gamma1, ("p", "alpha")),
    "gamma2": (gamma2, ("p", "alpha")),
    "omega": (omega, ("beta", "s")),
    "werner": (werner, ("p",)),
    "raw": (_raw, ("matrix",)),
}
FAMILIES = tuple(_BUILDERS)


def make_state(obj) -> DensityMatrix:
    """Build the state named by a parsed CLI JSON object.

    A named family takes finite JSON numbers, e.g.
    {"family": "gamma1", "p": 0.6, "alpha": 0.6}; family "raw" takes
    "matrix" as four rows of four [re, im] pairs, which must form a valid
    density matrix. Any missing or extra key is an ArgumentError.
    """
    if not isinstance(obj, dict):
        raise ArgumentError("state JSON must be an object")
    if "family" not in obj:
        raise ArgumentError("state spec must be an object with a 'family' key")
    fam = obj["family"]
    params = {k: v for k, v in obj.items() if k != "family"}
    if fam != "raw":
        bad = sorted(k for k, v in params.items() if not _is_number(v))
        if bad:
            raise ArgumentError(f"parameter(s) {bad} must be finite JSON numbers")
    # tuple membership, not a dict lookup: a JSON list or object is unhashable
    if fam not in FAMILIES:
        raise ArgumentError(f"unknown family {fam!r}, expected one of {FAMILIES}")
    build, names = _BUILDERS[fam]
    return build(*_require(params, names))


def gamma_f3(p: float, alpha: float) -> float:
    """Correlation-tensor weight 2((1-p)sin2a)^2 + (2p-1)^2 shared by both gamma families."""
    return 2 * ((1 - p) * math.sin(2 * alpha)) ** 2 + (2 * p - 1) ** 2


def phi_branch_f3(p: float, alpha: float) -> float:
    """Closed-form conditional correlation weight for the two phi-branch outcomes.

    Equals f3 of the 00/01 swap conditionals of (gamma1, gamma2) at equal
    (p, alpha); the pair is steerable there iff the value exceeds 1. Those
    conditionals are w|phi+-><phi+-| + (1-w)|01><01| with
    w = (1-p)cos^2(alpha) / ((1-p)cos^2(alpha) + p), whose correlation tensor
    is diag(w, -w, 2w-1). On alpha in [0, pi/4] the denominator is at least
    1/2.
    """
    p = _check_range("p", p, 0.0, 1.0)
    alpha = _check_range("alpha", alpha, 0.0, math.pi / 4)
    c = (1 - p) * math.cos(alpha) ** 2
    w = c / (c + p)
    return 2 * w * w + (2 * w - 1) ** 2


def psi_branch_f3(p: float, alpha: float) -> float:
    """Closed-form conditional correlation weight for the two psi-branch outcomes.

    Equals f3 of the 10/11 swap conditionals of (gamma1, gamma2) at equal
    (p, alpha). With a = (1-p)cos^2(alpha), b = (1-p)sin^2(alpha) and
    d = (a+p)^2 + b^2, those conditionals have correlation tensors
    diag(x, x, -z) (10) and diag(-x, -x, -z) (11), x = 2ab/d and
    z = ((a-p)^2 + b^2)/d, so f3 = 2x^2 + z^2.
    On alpha in [0, pi/4], a + p >= 1/2, so d >= 1/4.
    """
    p = _check_range("p", p, 0.0, 1.0)
    alpha = _check_range("alpha", alpha, 0.0, math.pi / 4)
    a = (1 - p) * math.cos(alpha) ** 2
    b = (1 - p) * math.sin(alpha) ** 2
    d = (a + p) ** 2 + b * b
    x = 2 * a * b / d
    z = ((a - p) ** 2 + b * b) / d
    return 2 * x * x + z * z


def omega_canonical(beta: float, s: float) -> tuple:
    """Closed-form canonical form (a_z, x, z) of omega(beta, s).

    The canonical form has a = (0, 0, a_z) and w = (x, -x, z), equal to
    `criteria.canonical_form(omega(beta, s))`. The second-party marginal is
    diag(b0, b1) with b0 = s cos^2(beta) + (1-s)/2 and b1 = s sin^2(beta) +
    (1-s)/2, and the sandwich by its inverse square root keeps the X-state
    shape: diagonal d00 = (1+s)cos^2/(2 b0), d01 = (1-s)cos^2/(2 b1),
    d10 = (1-s)sin^2/(2 b0), d11 = (1+s)sin^2/(2 b1) and coherence
    k = s cos sin / sqrt(b0 b1), normalized by their sum t. Raises
    SingularMarginalError where min(b0, b1) < 1e-12, the threshold of
    `criteria.canonical_map`.
    """
    beta = _check_range("beta", beta, 0.0, math.pi / 2, open_ends=True)
    s = _check_range("s", s, 0.0, 1.0)
    cos2, sin2 = math.cos(beta) ** 2, math.sin(beta) ** 2
    b0, b1 = s * cos2 + (1 - s) / 2, s * sin2 + (1 - s) / 2
    if min(b0, b1) < 1e-12:
        raise SingularMarginalError(f"second-party marginal has eigenvalue {min(b0, b1):.3e}")
    d00, d01 = (1 + s) * cos2 / (2 * b0), (1 - s) * cos2 / (2 * b1)
    d10, d11 = (1 - s) * sin2 / (2 * b0), (1 + s) * sin2 / (2 * b1)
    k = s * math.cos(beta) * math.sin(beta) / math.sqrt(b0 * b1)
    t = d00 + d01 + d10 + d11
    return (d00 + d01 - d10 - d11) / t, 2 * k / t, (d00 - d01 - d10 + d11) / t


def omega_unsteerable(beta: float, s: float) -> bool:
    """Closed-form sufficient unsteerability gate for the omega family.

    For s <= 1/2 the right-hand side is not positive, so the gate holds
    (s = 0 leaves a product with I/2); this also keeps s^3 from underflowing
    to 0 in the denominator.
    """
    beta = _check_range("beta", beta, 0.0, math.pi / 2, open_ends=True)
    s = _check_range("s", s, 0.0, 1.0)
    if 2 * s - 1 <= 0:
        return True
    return math.cos(2 * beta) ** 2 >= (2 * s - 1) / ((2 - s) * s**3)
