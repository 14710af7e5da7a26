"""The packaged reference configurations, each re-run as a list of `Row`s.

`TARGETS` maps the `steernet reproduce` target names to them. A measured
window edge passes when it lies within one grid step of the reference edge.
"""

from dataclasses import dataclass

import numpy as np

from .bloch import decompose
from .criteria import DELTA, bowles_unsteerable, canonical_form
from .families import omega, omega_unsteerable
from .netswap import bsm_swap
from .optimize import OptConfig, swap_criterion_ceiling, swap_criterion_value
from .sweep import GridSpec, format_float, scan_genuine, scan_linear, scan_star

_STEPS = 500  # reference scans use 500 intervals, i.e. step 0.002 on [0, 1]


@dataclass(frozen=True)
class Row:
    """One checked table row: its name, whether it matched, and the evidence."""

    name: str
    ok: bool
    detail: str


def _window_row(name: str, points, mask, expected) -> Row:
    """Compare the first and last points where `mask` holds with the `expected`
    (lo, hi) window to one grid step; None means the mask must hold nowhere."""
    idx = np.flatnonzero(mask)
    win = (float(points[idx[0]]), float(points[idx[-1]])) if idx.size else None
    if expected is None:
        return Row(name, win is None, f"unexpected window {win}" if win else "no activation anywhere")
    if win is None:
        return Row(name, False, f"expected window {expected}, found none")
    tol = points[1] - points[0]
    ok = abs(win[0] - expected[0]) <= tol and abs(win[1] - expected[1]) <= tol
    detail = (
        f"measured ({format_float(win[0])}, {format_float(win[1])}] "
        f"vs reference ({format_float(expected[0])}, {format_float(expected[1])}] "
        f"at tolerance {tol:g}"
    )
    return Row(name, ok, detail)


def linear_region() -> list:
    grid = GridSpec([("p", 0.0, 1.0, _STEPS + 1)], {"alpha": 0.1})
    result = scan_linear(grid)
    ps = grid.points("p")
    values = np.array([c.values for c in result.cells])
    activated = np.array([c.activated for c in result.cells])
    rows = []
    for k, lab in enumerate(result.labels):
        if lab in ("00", "01"):
            rows.append(_window_row(f"outcome {lab} window", ps, values[:, k] > 1 + DELTA,
                                    (0.001, 0.331)))
        else:
            rows.append(_window_row(f"outcome {lab} never activated", ps, activated[:, k], None))
    return rows


_STAR_WINDOWS = {
    "1": (0.2, 1.0),
    "6": (0.071, 0.467),
    "7": (0.071, 0.465),
    "8": (0.2, 1.0),
}


def star_table() -> list:
    grid = GridSpec([("p3", 0.0, 1.0, _STEPS + 1)], {"p1": 0.08, "p2": 0.075})
    result = scan_star(0.2, grid)
    ps = grid.points("p3")
    activated = np.array([c.activated for c in result.cells])
    rows = []
    for k, lab in enumerate(result.labels):
        expected = _STAR_WINDOWS.get(lab)
        name = f"outcome {lab} activation range" if expected else f"outcome {lab} never activated"
        rows.append(_window_row(name, ps, activated[:, k], expected))
    return rows


_GENUINE_ROWS = (
    ((0.75, 0.76, 0.99), (0.58, 1.0)),
    ((0.65, 0.60, 0.97), (0.78, 1.0)),
    ((0.55, 0.55, 0.90), (0.88, 1.0)),
    ((0.60, 0.55, 0.80), (0.98, 1.0)),
)


def genuine_table() -> list:
    rows = []
    for (b1, b2, s1), expected in _GENUINE_ROWS:
        grid = GridSpec([("s2", 0.0, 1.0, _STEPS + 1)], {"beta1": b1, "s1": s1, "beta2": b2})
        values = np.array([c.values for c in scan_genuine(grid).cells])
        rows.append(_window_row(f"row ({b1}, {b2}, {s1}) outcome 00 s2-range",
                                grid.points("s2"), values[:, 0] > 1 + DELTA, expected))
    return rows


def certificate_bound() -> list:
    res = swap_criterion_ceiling(OptConfig(restarts=64, seed=0))
    listed = swap_criterion_value((1, 0, 0), (1, 0, 0), (0.5, 0.454199, 0.46353), (-1, 0, 0))
    return [
        Row("certificate ceiling", abs(res.value - 0.75) <= 1e-3,
            f"optimum {format_float(res.value)} vs 0.75 (tol 1e-3)"),
        Row("listed maximizer", abs(listed - 0.75) <= 1e-12,
            f"evaluates to {format_float(listed)}"),
    ]


_CONTROL_EXPECTED = {
    "00": ((0.0, 0.0, 0.98107), (0.0729052, -0.0729052, 0.0128697)),
    "01": ((0.0, 0.0, 0.98107), (-0.0729052, 0.0729052, 0.0128697)),
    "10": ((0.0, 0.0, 0.907448), (0.0729052, 0.0729052, -0.0128697)),
    "11": ((0.0, 0.0, 0.907448), (-0.0729052, -0.0729052, -0.0128697)),
}


def control_pair() -> list:
    pair = ((0.1, 0.7), (0.3, 0.59))
    rows = [
        Row(f"input {k} certified unsteerable", omega_unsteerable(beta, s), f"beta={beta}, s={s}")
        for k, (beta, s) in enumerate(pair, start=1)
    ]
    for out in bsm_swap(*(canonical_form(omega(beta, s)).state() for beta, s in pair)):
        b = decompose(out.conditional)
        eu, ew = _CONTROL_EXPECTED[out.label]
        dev = float(max(np.max(np.abs(b.u - eu)), np.max(np.abs(b.W - np.diag(ew))),
                        np.max(np.abs(b.v))))
        rows.append(Row(f"outcome {out.label} Bloch values", dev <= 1e-5,
                        f"max deviation {format_float(dev)} (tol 1e-5)"))
        rep = bowles_unsteerable(canonical_form(out.conditional))
        rows.append(Row(f"outcome {out.label} unsteerability", rep.verdict == "satisfied",
                        f"criterion value {format_float(rep.value)} <= 1"))
    return rows


TARGETS = {
    "linear-region": linear_region,
    "star-table": star_table,
    "genuine-table": genuine_table,
    "certificate-bound": certificate_bound,
    "control-pair": control_pair,
}
