"""The closed-form genuine scan against the numeric pipeline it replaced.

`scan_genuine` evaluates each cell from `omega_canonical`, the closed-form
Bowles gate and f3 = 2 x1^2 x2^2 + z1^2 z2^2. The numeric pipeline, kept as
the oracle, builds the omega states, maps them to canonical form, runs the
Nelder-Mead Bowles search and swaps the rebuilt canonical states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steernet import (
    CanonicalForm,
    GridSpec,
    OptConfig,
    SingularMarginalError,
    bowles_unsteerable,
    bsm_swap,
    canonical_form,
    closed_form_unsteerable,
    decompose,
    f3_value,
    omega,
    omega_canonical,
    omega_unsteerable,
    scan_genuine,
)
from steernet.criteria import DELTA
from steernet.sweep import csv_lines

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_EDGE = 1e-7  # with s = 1 this leaves a marginal eigenvalue near 1e-14: singular
_BETA = st.sampled_from([_EDGE, 1e-3, math.pi / 2 - 1e-3, math.pi / 2 - _EDGE]) | st.floats(
    1e-3, math.pi / 2 - 1e-3)
_S = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def _cell(b1, s1, b2, s2, identical):
    if identical:
        grid = GridSpec([], {"beta1": b1, "s1": s1})
    else:
        grid = GridSpec([], {"beta1": b1, "s1": s1, "beta2": b2, "s2": s2})
    (cell,) = scan_genuine(grid, identical=identical).cells
    return cell


def _oracle(b1, s1, b2, s2):
    """(closed-form gate, Bowles search values, values, probabilities), or None
    where a marginal is singular."""
    try:
        forms = [canonical_form(omega(b, s)) for b, s in ((b1, s1), (b2, s2))]
    except SingularMarginalError:
        return None
    gate = omega_unsteerable(b1, s1) and omega_unsteerable(b2, s2)
    bowles = [bowles_unsteerable(c, OptConfig(restarts=8)).value for c in forms]
    outs = bsm_swap(*(c.state() for c in forms))
    return gate, bowles, [f3_value(decompose(o.conditional)) for o in outs], [
        o.probability for o in outs]


@_PROPERTY
@given(_BETA, _S, _BETA, _S, st.booleans())
def test_closed_form_cell_matches_numeric_pipeline(b1, s1, b2, s2, identical):
    if identical:
        b2, s2 = b1, s1
    cell = _cell(b1, s1, b2, s2, identical)
    ref = _oracle(b1, s1, b2, s2)
    if ref is None:
        assert all(math.isnan(v) for v in cell.values + cell.probs)
        assert not cell.inputs_ok and not any(cell.activated)
        return
    gate, bowles, values, probs = ref
    assert cell.values == pytest.approx(values, abs=1e-12, rel=0)
    assert cell.probs == pytest.approx(probs, abs=1e-12, rel=0)
    if not any(abs(v - (1 - DELTA)) <= DELTA for v in bowles):
        assert cell.inputs_ok == (gate and all(v <= 1 - DELTA for v in bowles))


def test_omega_canonical_matches_canonical_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        beta, s = rng.uniform(0, math.pi / 2), rng.uniform(0, 1)
        az, x, z = omega_canonical(beta, s)
        c = canonical_form(omega(beta, s))
        assert np.max(np.abs(c.a - [0, 0, az])) <= 1e-12
        assert np.max(np.abs(c.w - [x, -x, z])) <= 1e-12


def test_omega_canonical_singular_marginal():
    with pytest.raises(SingularMarginalError):
        omega_canonical(_EDGE, 1.0)


@_PROPERTY
@given(_BETA, _S, _BETA, _S)
def test_gated_pairs_stay_below_three_sixteenths(b1, s1, b2, s2):
    # the Bowles value is at least 2 max_j |w_j|, so a gated input has every
    # |w_j| < 1/2 and a gated pair's conditionals f3 = sum_j (w1_j w2_j)^2 < 3/16
    cell = _cell(b1, s1, b2, s2, False)
    for b, s in ((b1, s1), (b2, s2)):
        if not math.isnan(cell.values[0]):
            az, x, z = omega_canonical(b, s)
            c = CanonicalForm((0, 0, az), (x, -x, z))
            assert closed_form_unsteerable(c).value >= 2 * max(abs(x), abs(z))
    if cell.inputs_ok:
        assert max(cell.values) < 3 / 16
        assert not any(cell.activated)


def test_gated_genuine_scan_activates_nothing():
    grid = GridSpec([("s1", 0.0, 1.0, 21), ("s2", 0.0, 1.0, 21)], {"beta1": 0.3, "beta2": 0.9})
    result = scan_genuine(grid)
    lines = list(csv_lines(result))
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    gated = [r for r in rows if r["inputs_ok"] == "1"]
    assert len(gated) > 100
    assert all(r[col] == "0" for r in rows for col in header if col.startswith("act_"))
    assert max(float(r["s_00"]) for r in gated) < 3 / 16
