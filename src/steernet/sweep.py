"""Grid scans for activation regions over the state-family parameters.

Each scan walks a rectangular grid, builds the input states at every cell,
gates on the inputs being certified non-steerable, performs the swap, and
records the steering value of every conditional outcome; the genuine scan
does each of these steps in closed form, on canonical forms (README). A
cell's activation flag for an outcome is set only when the gate holds, the
outcome probability is at least netswap.DEGENERATE_PROB (1e-12), and the
value clears the threshold 1 by more than DELTA.
Values and probabilities are recorded for every cell regardless of the gate,
so consumers can study the conditional quantities on their own.

Scans are deterministic: cells are evaluated one after another in row-major
grid order, and rerunning with the same seed reproduces output files byte for
byte.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .criteria import DELTA, CanonicalForm, closed_form_unsteerable, f3_value, reduced_steering
from .bloch import decompose
from .errors import ArgumentError, SingularMarginalError
from .families import gamma1, gamma2, gamma_f3, omega_canonical, omega_unsteerable
from .netswap import DEGENERATE_PROB, bsm_swap, star_swap
from .optimize import OptConfig


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Rectangular grid: swept axes (name, lo, hi, points) plus fixed values.

    `points` counts grid points, so a 0:1 axis with 501 points steps by 0.002.
    """

    axes: tuple
    fixed: dict = field(default_factory=dict)

    def __init__(self, axes, fixed=None):
        fixed = dict(fixed or {})
        norm = []
        seen = set(fixed)
        for ax in axes:
            name, lo, hi, steps = ax
            if not float(lo) < float(hi):
                raise ArgumentError(f"axis {name}: need lo < hi")
            if int(steps) < 2:
                raise ArgumentError(f"axis {name}: need at least 2 points")
            if name in seen:
                raise ArgumentError(f"duplicate parameter {name}")
            seen.add(name)
            norm.append((str(name), float(lo), float(hi), int(steps)))
        object.__setattr__(self, "axes", tuple(norm))
        object.__setattr__(self, "fixed", fixed)

    @property
    def shape(self):
        return tuple(ax[3] for ax in self.axes)

    def points(self, name: str) -> np.ndarray:
        for ax in self.axes:
            if ax[0] == name:
                return np.linspace(ax[1], ax[2], ax[3])
        raise ArgumentError(f"no axis named {name}")

    def cells(self):
        """Yield parameter dicts (axes merged with fixed) in row-major order."""
        pts = [self.points(ax[0]) for ax in self.axes]
        for idx in np.ndindex(self.shape):
            coords = {ax[0]: float(pts[k][idx[k]]) for k, ax in enumerate(self.axes)}
            yield coords

    def to_dict(self):
        return {"axes": [list(ax) for ax in self.axes], "fixed": dict(self.fixed)}


@dataclass(frozen=True, eq=False)
class SweepCell:
    coords: dict
    values: tuple
    probs: tuple
    activated: tuple
    boundary: tuple
    inputs_ok: bool
    audit: object = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    grid: GridSpec
    labels: tuple
    cells: tuple
    metadata: dict


def _flags(values, probs, inputs_ok):
    """Activation and boundary flags against the common threshold 1."""
    activated = tuple(
        bool(inputs_ok and p >= DEGENERATE_PROB and v > 1.0 + DELTA)
        for v, p in zip(values, probs)
    )
    boundary = tuple(bool(abs(v - 1.0) <= DELTA) for v in values)
    return activated, boundary


def _params(grid: GridSpec, coords: dict, names):
    merged = dict(grid.fixed)
    merged.update(coords)
    missing = [n for n in names if n not in merged]
    if missing:
        raise ArgumentError(f"scan needs parameters {missing} as axes or fixed values")
    return [merged[n] for n in names]


def _scan(grid: GridSpec, labels, one, criteria, seed, **extra) -> SweepResult:
    """Evaluate `one` on every cell in row-major order and attach the metadata."""
    cells = tuple(one(coords) for coords in grid.cells())
    meta = {"criteria": criteria, "delta": DELTA, "seed": seed, "version": __version__, **extra}
    return SweepResult(grid, labels, cells, meta)


def scan_linear(grid: GridSpec, audit_bell: bool = False,
                cfg: OptConfig = OptConfig(restarts=8)) -> SweepResult:
    """Two-state chain scan over (p, alpha).

    Inputs are the two partially-mixed partially-entangled families at the
    same (p, alpha); the gate is their shared closed-form f3 staying at or
    below 1. Values are the f3 of the four swap conditionals. With
    audit_bell, activated cells also get chsh/i3322 maxima (slow).
    """
    labels = ("00", "01", "10", "11")

    def one(coords):
        p, alpha = _params(grid, coords, ("p", "alpha"))
        inputs_ok = gamma_f3(p, alpha) <= 1.0 - DELTA
        outs = bsm_swap(gamma1(p, alpha), gamma2(p, alpha))
        values = tuple(f3_value(decompose(o.conditional)) for o in outs)
        probs = tuple(o.probability for o in outs)
        activated, boundary = _flags(values, probs, inputs_ok)
        audit = None
        if audit_bell and any(activated):
            from .criteria import bell_local_3322

            audit = {}
            for o, act in zip(outs, activated):
                if act:
                    rep = bell_local_3322(o.conditional, cfg)
                    audit[o.label] = {
                        "chsh": rep.witness["chsh"].value,
                        "i3322": rep.witness["i3322"].value,
                    }
        return SweepCell(coords, values, probs, activated, boundary, inputs_ok, audit)

    return _scan(grid, labels, one, ["f3"], cfg.seed)


def scan_star(alpha: float, grid: GridSpec) -> SweepResult:
    """Three-branch star scan over (p1, p2, p3) at a common alpha.

    All three sources are the first partially-mixed family; the gate
    requires each input's f3 to stay at or below 1. Values are the largest
    reduced-pair f3 of each of the eight conditionals.
    """
    labels = tuple(str(k) for k in range(1, 9))

    def one(coords):
        p1, p2, p3 = _params(grid, coords, ("p1", "p2", "p3"))
        inputs_ok = all(gamma_f3(p, alpha) <= 1.0 - DELTA for p in (p1, p2, p3))
        outs = star_swap(gamma1(p1, alpha), gamma1(p2, alpha), gamma1(p3, alpha))
        values = tuple(reduced_steering(o.conditional).value for o in outs)
        probs = tuple(o.probability for o in outs)
        activated, boundary = _flags(values, probs, inputs_ok)
        return SweepCell(coords, values, probs, activated, boundary, inputs_ok)

    return _scan(grid, labels, one, ["reduced_steering"], 0, alpha=float(alpha))


def scan_genuine(grid: GridSpec, identical: bool = False) -> SweepResult:
    """Canonical-form chain scan over (beta1, s1, beta2, s2).

    Inputs are two pure-plus-product mixtures, each taken in its closed
    canonical form a = (0, 0, a_z), w = (x, -x, z) (omega_canonical). The gate
    is the closed-form unsteerability window for both, confirmed on each
    canonical form by the sufficient criterion in closed form. Both canonical
    inputs have a null second-party Bloch vector, so every swap outcome has
    probability 1/4 and the conditional correlation diag(w1) diag(w2) up to
    signs: each value is f3 = 2 x1^2 x2^2 + z1^2 z2^2 (README). With
    identical=True the second input reuses (beta1, s1) and only those two
    parameters are read.
    """
    labels = ("00", "01", "10", "11")
    nan4 = (math.nan,) * 4
    quarter4 = (0.25,) * 4

    def form(beta, s):
        az, x, z = omega_canonical(beta, s)
        return CanonicalForm((0.0, 0.0, az), (x, -x, z))

    def one(coords):
        if identical:
            b1, s1 = _params(grid, coords, ("beta1", "s1"))
            b2, s2 = b1, s1
        else:
            b1, s1, b2, s2 = _params(grid, coords, ("beta1", "s1", "beta2", "s2"))
        same = (b1, s1) == (b2, s2)
        gate = omega_unsteerable(b1, s1) and (same or omega_unsteerable(b2, s2))
        try:
            c1 = form(b1, s1)
            c2 = c1 if same else form(b2, s2)
        except SingularMarginalError:
            return SweepCell(coords, nan4, nan4, (False,) * 4, (False,) * 4, False)
        inputs_ok = gate
        if gate:
            forms = (c1,) if same else (c1, c2)
            inputs_ok = all(closed_form_unsteerable(c).value <= 1.0 - DELTA for c in forms)
        xx, zz = c1.w[0] * c2.w[0], c1.w[2] * c2.w[2]
        values = (float(2 * xx * xx + zz * zz),) * 4
        activated, boundary = _flags(values, quarter4, inputs_ok)
        return SweepCell(coords, values, quarter4, activated, boundary, inputs_ok)

    return _scan(grid, labels, one, ["f3", "bowles"], 0, identical=bool(identical))


# serialization: floats printed with 17 significant digits so files
# round-trip doubles exactly and reruns are byte-identical


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _json_token(v) -> str:
    import json as _json

    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return format_float(f)
    if isinstance(v, str):
        return _json.dumps(v)
    if isinstance(v, np.ndarray):
        return _json_token(v.tolist())
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_token(t) for t in v) + "]"
    if isinstance(v, dict):
        items = ",".join(_json_token(str(k)) + ":" + _json_token(t) for k, t in v.items())
        return "{" + items + "}"
    raise ArgumentError(f"cannot serialize {type(v).__name__}")


def dumps(value) -> str:
    """JSON text with 17-significant-digit floats (lossless round-trip)."""
    return _json_token(value)


def result_to_dict(result: SweepResult) -> dict:
    return {
        "grid": result.grid.to_dict(),
        "labels": list(result.labels),
        "metadata": result.metadata,
        "cells": [
            {
                "coords": c.coords,
                "values": list(c.values),
                "probs": list(c.probs),
                "activated": list(c.activated),
                "boundary": list(c.boundary),
                "inputs_ok": c.inputs_ok,
                **({"audit": c.audit} if c.audit is not None else {}),
            }
            for c in result.cells
        ],
    }


def csv_lines(result: SweepResult):
    """CSV rows: axis columns, then s_/act_/b_ per outcome, then inputs_ok."""
    names = [ax[0] for ax in result.grid.axes]
    header = list(names)
    for lab in result.labels:
        header += [f"s_{lab}", f"act_{lab}", f"b_{lab}"]
    header.append("inputs_ok")
    yield ",".join(header)
    for c in result.cells:
        row = [format_float(c.coords[n]) for n in names]
        for k in range(len(result.labels)):
            row += [
                format_float(c.values[k]),
                str(int(c.activated[k])),
                str(int(c.boundary[k])),
            ]
        row.append(str(int(c.inputs_ok)))
        yield ",".join(row)
