"""Deterministic multi-start maximization used by the steering criteria.

Every search is seeded: restart k draws its start point from a stream keyed
by (seed, k), so results are reproducible and adding restarts can only raise
the returned maximum (the first k starts are identical regardless of how
many run in total).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EvaluationError, InternalError

_GOLDEN = (1 + 5**0.5) / 2
_LATTICE = 256  # fixed base grid so start points do not depend on restart count
_MAX_ITER = 2000
_TOL = 1e-10


@dataclass(frozen=True)
class OptConfig:
    """Multi-start search budget and seed."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.seed < 0:
            raise ArgumentError("OptConfig needs restarts >= 1 and seed >= 0")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best value over all restarts plus the point achieving it."""

    value: float
    argmax: object
    converged_restarts: int


def _nm(neg, x0):
    # imported on first use: only the numeric searches need scipy, and the
    # import would otherwise dominate the start-up of every chain or star scan
    from scipy.optimize import minimize

    return minimize(
        neg,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": _TOL,
            "fatol": _TOL,
            "maxiter": _MAX_ITER,
            "maxfev": 4 * _MAX_ITER,
        },
    )


def _finite(value, point):
    v = float(value)
    if not math.isfinite(v):
        raise EvaluationError(f"objective returned {value!r} at {point}")
    return v


def _best_of(f, starts):
    """Maximize f by Nelder-Mead from each start in order.

    Returns (maximum, point, converged restarts). A later start replaces
    the best point only with a strictly larger value, so ties go to the
    earlier start.
    """

    def neg(x):
        return -_finite(f(x), x)

    best, best_x, converged = -math.inf, None, 0
    for x0 in starts:
        res = _nm(neg, x0)
        converged += bool(res.success)
        if -res.fun > best:
            best, best_x = -res.fun, res.x
    return best, best_x, converged


def unit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _sphere_start(i: int, seed: int):
    """Fibonacci-lattice point number i with a small seeded jitter."""
    z = 1 - 2 * ((i + 0.5) % _LATTICE) / _LATTICE
    theta = math.acos(z)
    phi = (2 * math.pi * i / _GOLDEN) % (2 * math.pi)
    jitter = np.random.default_rng([seed, i]).uniform(-0.05, 0.05, 2)
    return np.array([theta + jitter[0], phi + jitter[1]])


_AXES = [np.array(v, dtype=float) for s in (1.0, -1.0) for v in ((s, 0, 0), (0, s, 0), (0, 0, s))]


def max_unit_sphere(f, cfg: OptConfig = OptConfig()) -> OptResult:
    """Maximize a function of a unit 3-vector.

    Runs Nelder-Mead on the polar parametrization from cfg.restarts seeded
    Fibonacci-lattice starts, and also evaluates the six coordinate axes
    (closed-form optima in this package sit on axes; this keeps the
    agreement with them exact).
    """
    best_val, angles, converged = _best_of(
        lambda t: f(unit_vector(t[0], t[1])),
        [_sphere_start(i, cfg.seed) for i in range(cfg.restarts)],
    )
    best_x = unit_vector(angles[0], angles[1])
    for ax in _AXES:
        v = _finite(f(ax), ax)
        if v > best_val:
            best_val, best_x = v, ax
    return OptResult(best_val, best_x, converged)


def swap_criterion_value(x, u2, w1, w2) -> float:
    """Unsteerability-criterion value of the first swap branch of two
    canonical inputs, as a function of the free problem data.

    x is the measured direction, u2 the second input's local Bloch vector,
    w1 and w2 the diagonal correlation triples of the two inputs.
    """
    t1 = (x[0] * u2[0] * w1[0] - x[1] * u2[1] * w1[1] + x[2] * u2[2] * w1[2]) ** 2
    t2 = math.sqrt(sum((x[j] * w1[j] * w2[j]) ** 2 for j in range(3)))
    return t1 + t2


def swap_criterion_ceiling(cfg: OptConfig = OptConfig()) -> OptResult:
    """Worst-case criterion value over all admissible unsteerable input pairs.

    Maximizes swap_criterion_value over unit x, |u2| <= 1, |w1_j| <= 1/2 and
    |w2| <= 1. The constraint set is mapped to free parameters (sine and
    squared-sine envelopes), which keeps the surface smooth at the optimum;
    a penalty formulation stalls below the true maximum because the optimum
    sits on a constraint corner.
    """

    def unpack(x):
        xh = unit_vector(x[0], x[1])
        u2 = math.sin(x[2]) ** 2 * unit_vector(x[3], x[4])
        w1 = 0.5 * np.sin(x[5:8])
        w2 = math.sin(x[8]) ** 2 * unit_vector(x[9], x[10])
        return xh, u2, w1, w2

    best_val, best_x, converged = _best_of(
        lambda x: swap_criterion_value(*unpack(x)),
        [np.random.default_rng([cfg.seed, i]).uniform(-math.pi, math.pi, 11)
         for i in range(cfg.restarts)],
    )
    xh, u2, w1, w2 = unpack(best_x)
    if (
        abs(np.linalg.norm(xh) - 1) > 1e-9
        or np.linalg.norm(u2) > 1 + 1e-9
        or np.max(np.abs(w1)) > 0.5 + 1e-9
        or np.linalg.norm(w2) > 1 + 1e-9
    ):
        raise InternalError("maximizer left the constraint set")
    return OptResult(
        best_val,
        {"params": best_x, "x": xh, "u2": u2, "w1": np.asarray(w1), "w2": w2},
        converged,
    )
