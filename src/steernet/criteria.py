"""Steering and Bell-locality verdicts for two-qubit and reduced states.

Every check returns a CriterionReport whose verdict is mechanical: the
criterion inequality `value <= threshold` is satisfied, violated, or on the
boundary within the shared decision margin DELTA. What a verdict certifies
differs per criterion and is documented on each function; in particular the
canonical-form criterion is sufficient only, so `violated` there means
undecided, never steerable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochForm, decompose, diagonalize_correlation, reconstruct
from .errors import ArgumentError, InternalError, SingularMarginalError
from .netswap import reduced_pairs
from .optimize import OptConfig, _best_of, max_unit_sphere
from .qmat import DensityMatrix, partial_trace

DELTA = 1e-6


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Numeric outcome of one criterion with its mechanical verdict."""

    criterion: str
    value: float
    threshold: float
    verdict: str
    witness: object
    margin: float


def _report(criterion: str, value: float, threshold: float, witness) -> CriterionReport:
    margin = value - threshold
    if abs(margin) <= DELTA:
        verdict = "boundary"
    elif margin > 0:
        verdict = "violated"
    else:
        verdict = "satisfied"
    return CriterionReport(criterion, float(value), float(threshold), verdict, witness, margin)


@dataclass(frozen=True, eq=False)
class MeasurementTriad:
    """Three mutually orthogonal unit vectors, stored as rows."""

    vectors: np.ndarray

    def __init__(self, vectors):
        vs = np.asarray(vectors, dtype=float)
        if vs.shape != (3, 3):
            raise ArgumentError("a triad is three 3-vectors")
        if not np.all(np.isfinite(vs)):
            raise ArgumentError("triad vectors must be finite")
        norms = np.linalg.norm(vs, axis=1)
        if np.max(np.abs(norms - 1)) > 1e-12:
            raise ArgumentError("triad vectors must be unit length")
        dots = vs @ vs.T - np.eye(3)
        if np.max(np.abs(dots)) > 1e-10:
            raise ArgumentError("triad vectors must be pairwise orthogonal")
        vs.flags.writeable = False
        object.__setattr__(self, "vectors", vs)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """First-party Bloch vector and diagonal correlation triple after the
    marginal-flattening map plus local rotations; the second party's
    marginal is I/2 by construction."""

    a: np.ndarray
    w: np.ndarray

    def __init__(self, a, w):
        a = np.asarray(a, dtype=float)
        w = np.asarray(w, dtype=float)
        if a.shape != (3,) or w.shape != (3,):
            raise ArgumentError("CanonicalForm needs two 3-vectors")
        a.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)

    def state(self) -> DensityMatrix:
        """Reconstruct the density matrix (null second-party Bloch vector)."""
        return DensityMatrix.normalized(
            reconstruct(BlochForm(self.a, np.zeros(3), np.diag(self.w)))
        )


def f3_value(b: BlochForm) -> float:
    """Three-settings steering weight Tr(W^T W); above 1 certifies steering."""
    return float(np.sum(b.W * b.W))


def cjwr_value(rho: DensityMatrix, ta: MeasurementTriad, tc: MeasurementTriad) -> float:
    """Three-settings correlator sum |sum_i a_i.W.c_i| / sqrt(3)."""
    W = decompose(rho).W
    total = sum(float(ta.vectors[i] @ W @ tc.vectors[i]) for i in range(3))
    return abs(total) / math.sqrt(3)


def _balanced_rotation(M: np.ndarray) -> np.ndarray:
    """Rotation R equalizing the diagonal of R M R^T (M symmetric PSD).

    The equal diagonal is where the correlator sum over an orthonormal triad
    is maximal. A Givens rotation by theta in the plane of the current
    extreme diagonal entries i (largest) and j (smallest) maps d_i to
    a + b cos(2 theta) - m sin(2 theta) = a + r cos(2 theta + phi), with
    a = (d_i + d_j)/2, b = (d_i - d_j)/2, m = M'_ij, r = hypot(b, m) and
    phi = atan2(m, b). So theta = (acos((t - a)/r) - phi)/2 sets d_i to the
    target t = tr M / 3; d_i >= t >= d_j gives a - r <= t <= a + r. One step
    leaves the other two entries summing to 2t, so a second step balances
    the diagonal exactly (Schur-Horn; Horn, Amer. J. Math. 76, 620, 1954).
    """
    t = np.trace(M) / 3
    R = np.eye(3)
    for _ in range(2):
        Mp = R @ M @ R.T
        d = np.diag(Mp)
        i, j = int(np.argmax(d)), int(np.argmin(d))
        if d[i] - d[j] < 1e-13:
            break
        a, b, m = (d[i] + d[j]) / 2, (d[i] - d[j]) / 2, Mp[i, j]
        cos2 = max(-1.0, min(1.0, (t - a) / math.hypot(b, m)))
        th = (math.acos(cos2) - math.atan2(m, b)) / 2
        c, s = math.cos(th), math.sin(th)
        R[[i, j]] = np.array([[c, -s], [s, c]]) @ R[[i, j]]
    return R


def cjwr_max(rho: DensityMatrix) -> CriterionReport:
    """Maximum of the three-settings correlator sum, equal to sqrt(f3).

    The first party's directions must form an orthonormal triad; the second
    party's are free unit vectors. Under that constraint the maximum has a
    closed form: balance diag(R W W^T R^T) to pick the triad, then point
    each second-party direction along W^T a_i. The returned witness carries
    both direction sets (the second party's need not be orthogonal).
    """
    W = decompose(rho).W
    R = _balanced_rotation(W @ W.T)
    norms = np.linalg.norm(W.T @ R.T, axis=0)
    charlie = []
    for i in range(3):
        wa = W.T @ R[i]
        charlie.append(wa / norms[i] if norms[i] > 1e-15 else np.array([0.0, 0.0, 1.0]))
    value = float(np.sum(norms)) / math.sqrt(3)
    closed = math.sqrt(float(np.sum(W * W)))
    if abs(value - closed) > 1e-6:
        raise InternalError(f"triad balancing missed the closed form: {value} vs {closed}")
    witness = {"alice": R, "charlie": np.array(charlie)}
    return _report("cjwr", value, 1.0, witness)


# Collins-Gisin tables of the probability-form Bell expressions: entry (i, j)
# weighs P(a_i, b_j), row 0 the second party's marginals P(b_j) and column 0
# the first party's P(a_i)
_CHSH = np.array([[0, -1, 0], [-1, 1, 1], [0, 1, -1]])
_I3322 = np.array([[0, -2, -1, 0], [-1, 1, 1, 1], [0, 1, 1, -1], [0, 1, -1, 0]])
_E0 = np.array([[2.0, 0.0, 0.0, 0.0]])


def _rows(x) -> np.ndarray:
    """Rows (1, n) for the unit vectors n at interleaved polar angles
    (theta_0, phi_0, theta_1, phi_1, ...)."""
    th, ph = x[0::2], x[1::2]
    s = np.sin(th)
    return np.array([np.ones(len(th)), s * np.cos(ph), s * np.sin(ph), np.cos(th)]).T


def _bell_max(table, form: BlochForm, cfg: OptConfig, first=()):
    """Maximize a Bell expression over measurement directions, from the
    given start angles followed by seeded uniform ones.

    With T = [[1, v], [u, W]] and each party's rows (2, 0, 0, 0) and then
    (1, n) per direction, rows_a @ T @ rows_b.T is 4 times the +1-outcome
    probabilities in Collins-Gisin layout: P(a_i) = (1 + a.u)/2 in column 0,
    P(b_j) = (1 + b.v)/2 in row 0 and P(a_i, b_j) = (1 + a.u + b.v + a.W.b)/4.
    """
    T = np.block([[np.ones((1, 1)), form.v[None]], [form.u[:, None], form.W]])
    m, n = table.shape[0] - 1, table.shape[1] - 1

    def value(x):
        h = _rows(x)
        a, b = np.concatenate([_E0, h[:m]]), np.concatenate([_E0, h[m:]])
        return float(np.sum(table * (a @ T @ b.T))) / 4

    scale = np.tile([1, 2], m + n)
    starts = list(first) + [
        np.random.default_rng([cfg.seed, i]).uniform(0.0, math.pi, 2 * (m + n)) * scale
        for i in range(cfg.restarts - len(first))
    ]
    best, x, converged = _best_of(value, starts)
    return best, _rows(x)[:, 1:], converged


def chsh_max(rho: DensityMatrix, cfg: OptConfig = OptConfig()) -> CriterionReport:
    """Maximum of the probability-form CHSH expression over four directions.

    Local states satisfy value <= 0. The local Bloch vectors cancel exactly
    in this combination, so the maximum equals (2 sqrt(M) - 2)/4 with M the
    sum of the two largest eigenvalues of W^T W; that closed form seeds the
    first restart and is carried in the witness as a cross-check.
    """
    form = decompose(rho)
    # analytic optimum from the top singular pair of W
    U, sv, Vt = np.linalg.svd(form.W)
    chi = math.atan2(sv[1], sv[0])
    b1v = math.cos(chi) * Vt[0] + math.sin(chi) * Vt[1]
    b2v = math.cos(chi) * Vt[0] - math.sin(chi) * Vt[1]
    d = np.array([U[:, 0], U[:, 1], b1v, b2v])
    start = np.column_stack([np.arccos(np.clip(d[:, 2], -1.0, 1.0)), np.arctan2(d[:, 1], d[:, 0])])
    value, dirs, converged = _bell_max(_CHSH, form, cfg, [start.ravel()])
    horodecki = (2 * math.sqrt(sv[0] ** 2 + sv[1] ** 2) - 2) / 4
    witness = {"directions": dirs, "horodecki": horodecki, "converged_restarts": converged}
    return _report("chsh", value, 0.0, witness)


def i3322_max(rho: DensityMatrix, cfg: OptConfig = OptConfig()) -> CriterionReport:
    """Maximum of the three-settings facet Bell expression over six directions.

    Local states satisfy value <= 0; the maximally entangled value is 0.25.
    """
    value, dirs, converged = _bell_max(_I3322, decompose(rho), cfg)
    return _report("i3322", value, 0.0, {"directions": dirs, "converged_restarts": converged})


def bell_local_3322(rho: DensityMatrix, cfg: OptConfig = OptConfig()) -> CriterionReport:
    """Bell-locality in the (3,3,2,2) scenario: local iff both maxima <= 0."""
    chsh = chsh_max(rho, cfg)
    i3322 = i3322_max(rho, cfg)
    value = max(chsh.value, i3322.value)
    witness = {"chsh": chsh, "i3322": i3322}
    return _report("bell_local_3322", value, 0.0, witness)


def canonical_map(rho: DensityMatrix) -> DensityMatrix:
    """Flatten the second-party marginal by a sandwich map and renormalize.

    Sandwiching with the inverse square root of that marginal nulls the
    second party's Bloch vector exactly.
    """
    if rho.qubits != 2:
        raise ArgumentError("canonical map is defined for two-qubit states")
    rb = partial_trace(rho, (1,)).mat
    vals, vecs = np.linalg.eigh(rb)
    if vals.min() < 1e-12:
        raise SingularMarginalError(
            f"second-party marginal has eigenvalue {vals.min():.3e}"
        )
    X = (vecs * vals**-0.5) @ vecs.conj().T
    sx = np.kron(np.eye(2), X)
    m = sx @ rho.mat @ sx
    return DensityMatrix.normalized(m)


def canonical_form(rho: DensityMatrix) -> CanonicalForm:
    """Canonical form (a, w) of a two-qubit state.

    Applies the marginal-flattening map, then local rotations diagonalizing
    the correlation tensor. Raises SingularMarginalError when the
    second-party marginal is not invertible.
    """
    flat = canonical_map(rho)
    diag = diagonalize_correlation(decompose(flat))
    if np.linalg.norm(diag.base.v) > 1e-9:
        raise InternalError("canonical map left a non-null second-party Bloch vector")
    return CanonicalForm(diag.base.u, np.diag(diag.base.W))


def bowles_unsteerable(c: CanonicalForm, cfg: OptConfig = OptConfig()) -> CriterionReport:
    """Sufficient unsteerability check on a canonical form.

    Maximizes (a.x)^2 + 2|diag(w) x| over unit x. A satisfied verdict
    certifies unsteerability (one way, first party steering); violated means
    undecided, since the criterion is sufficient only.
    """
    res = max_unit_sphere(lambda x: float((c.a @ x) ** 2 + 2 * np.linalg.norm(c.w * x)), cfg)
    witness = {"x": res.argmax, "converged_restarts": res.converged_restarts}
    return _report("bowles", res.value, 1.0, witness)


def closed_form_unsteerable(c: CanonicalForm) -> CriterionReport:
    """Closed form of the bowles_unsteerable maximum for a local Bloch vector
    on a coordinate axis k (Bowles, Hirsch, Quintino, Brunner, PRA 93,
    022121, 2016).

    With c = x_k^2 for a unit direction x, the rest of x goes to the larger
    off-axis |w_j| =: w_m, so the maximum is that of
    f(c) = a_k^2 c + 2 sqrt(w_m^2 (1 - c) + w_k^2 c) over c in [0, 1]. f is
    concave, so it peaks at c = 0, at c = 1, or where f' = 0: when a_k != 0
    and w_k^2 < w_m^2, at c = (q - w_m^2) / (w_k^2 - w_m^2) with
    q = (w_k^2 - w_m^2)^2 / a_k^4. With a = 0 the value is 2 max_j |w_j|.
    The witness is the maximizing direction. An off-axis a is an
    ArgumentError.
    """
    k = int(np.argmax(np.abs(c.a)))
    off = [j for j in range(3) if j != k]
    if math.hypot(*c.a[off]) > 1e-10:
        raise ArgumentError("closed form needs a local Bloch vector on a coordinate axis")
    m = off[int(np.argmax(np.abs(c.w[off])))]
    a2, wk, wm = float(c.a[k]) ** 2, abs(float(c.w[k])), abs(float(c.w[m]))
    value, ck = max((2 * wm, 0.0), (a2 + 2 * wk, 1.0))
    d = wk * wk - wm * wm
    if a2 > 0 and d < 0:
        root = ((d / a2) ** 2 - wm * wm) / d
        if 0 < root < 1:
            value, ck = max((value, ck), (a2 * root + 2 * math.sqrt(wm * wm + d * root), root))
    x = np.zeros(3)
    x[k], x[m] = math.sqrt(ck), math.sqrt(1 - ck)
    return _report("closed_form", value, 1.0, {"x": x})


_PAIR_NAMES = ("(1,2)", "(1,3)", "(2,3)")


def reduced_steering(rho3: DensityMatrix) -> CriterionReport:
    """Steering of a tripartite state via its bipartite reductions.

    Value is the largest f3 over the three pairs; violated means at least
    one reduced pair is three-settings steerable, and the witness names it.
    """
    vals = [f3_value(decompose(pair)) for pair in reduced_pairs(rho3)]
    k = int(np.argmax(vals))
    witness = {"pair": _PAIR_NAMES[k], "values": tuple(float(t) for t in vals)}
    return _report("reduced_steering", vals[k], 1.0, witness)
