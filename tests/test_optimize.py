import math

import numpy as np
import pytest

from steernet import (
    ArgumentError,
    EvaluationError,
    OptConfig,
    max_unit_sphere,
    swap_criterion_ceiling,
    swap_criterion_value,
    unit_vector,
)


def test_opt_config_validation():
    with pytest.raises(ArgumentError):
        OptConfig(restarts=0)
    with pytest.raises(ArgumentError):
        OptConfig(seed=-1)
    OptConfig(restarts=1, seed=0)


def test_non_finite_objective_raises_evaluation_error():
    # the message names the polar angles of the first start point
    with pytest.raises(EvaluationError, match=r"returned nan at \[ *\S+ +\S+\]$"):
        max_unit_sphere(lambda x: math.nan, OptConfig(restarts=2, seed=0))


def test_unit_vector_parametrization():
    v = unit_vector(0.0, 0.3)
    assert np.allclose(v, [0, 0, 1], atol=1e-15)
    v = unit_vector(math.pi / 2, 0.0)
    assert np.allclose(v, [1, 0, 0], atol=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = unit_vector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_max_unit_sphere_linear_functional():
    d = np.array([0.3, -0.5, 0.81])
    d /= np.linalg.norm(d)
    res = max_unit_sphere(lambda x: float(x @ d), OptConfig(restarts=8, seed=3))
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(res.argmax, d, atol=1e-4)


def test_max_unit_sphere_axis_candidates_exact():
    # axis-aligned maxima are hit exactly through the candidate directions
    w = np.array([0.2, -0.7, 0.4])
    res = max_unit_sphere(lambda x: 2 * np.linalg.norm(w * x), OptConfig(restarts=4, seed=5))
    assert res.value == pytest.approx(1.4, abs=1e-12)


def test_max_unit_sphere_restart_monotonicity():
    rng = np.random.default_rng(9)
    a = rng.normal(size=3)
    w = rng.normal(size=3)

    def f(x):
        return float((a @ x) ** 2 + 2 * np.linalg.norm(w * x))

    v8 = max_unit_sphere(f, OptConfig(restarts=8, seed=11)).value
    v16 = max_unit_sphere(f, OptConfig(restarts=16, seed=11)).value
    assert v16 >= v8 - 1e-12


def test_max_unit_sphere_deterministic():
    f = lambda x: float(x[0] ** 2 - x[1] * x[2])
    r1 = max_unit_sphere(f, OptConfig(restarts=6, seed=21))
    r2 = max_unit_sphere(f, OptConfig(restarts=6, seed=21))
    assert r1.value == r2.value
    assert np.array_equal(r1.argmax, r2.argmax)


def test_swap_criterion_value_spot_checks():
    x = np.array([1.0, 0.0, 0.0])
    u2 = np.array([1.0, 0.0, 0.0])
    w1 = np.array([0.5, 0.454199, 0.46353])
    w2 = np.array([-1.0, 0.0, 0.0])
    assert swap_criterion_value(x, u2, w1, w2) == pytest.approx(0.75, abs=1e-12)
    # zero configuration gives zero
    z = np.zeros(3)
    assert swap_criterion_value(np.array([0.0, 0.0, 1.0]), z, z, z) == 0.0


def test_swap_criterion_ceiling_reaches_three_quarters():
    res = swap_criterion_ceiling(OptConfig(restarts=24, seed=0))
    assert res.value == pytest.approx(0.75, abs=1e-6)
    # feasibility of the reported maximizer
    arg = res.argmax
    assert np.max(np.abs(arg["w1"])) <= 0.5 + 1e-9
    assert np.linalg.norm(arg["w2"]) <= 1 + 1e-9
    assert np.linalg.norm(arg["u2"]) <= 1 + 1e-9
    assert np.linalg.norm(arg["x"]) == pytest.approx(1.0, abs=1e-9)
