import math

import numpy as np
import pytest

from steernet import (
    ArgumentError,
    bsm_swap,
    decompose,
    f3_value,
    gamma1,
    gamma2,
    gamma_f3,
    make_state,
    omega,
    omega_unsteerable,
    phi_branch_f3,
    psi_branch_f3,
    werner,
)


def test_gamma1_dense_matrix():
    p, a = 0.3, 0.25
    s, c = math.sin(a), math.cos(a)
    want = np.zeros((4, 4))
    want[0, 0] = p
    want[1, 1] = (1 - p) * s * s
    want[2, 2] = (1 - p) * c * c
    want[1, 2] = want[2, 1] = (1 - p) * s * c
    assert np.allclose(gamma1(p, a).mat, want, atol=1e-15)


def test_gamma2_moves_noise_to_last_level():
    p, a = 0.3, 0.25
    m = gamma2(p, a).mat
    assert m[3, 3].real == pytest.approx(p)
    assert m[0, 0].real == pytest.approx(0.0, abs=1e-15)


def test_omega_dense_matrix():
    b, s = 0.4, 0.6
    cb, sb = math.cos(b), math.sin(b)
    chi = np.array([cb, 0, 0, sb])
    want = s * np.outer(chi, chi) + (1 - s) * np.kron(
        np.diag([cb * cb, sb * sb]), np.eye(2) / 2
    )
    assert np.allclose(omega(b, s).mat, want, atol=1e-15)


def test_parameter_ranges_rejected():
    with pytest.raises(ArgumentError):
        gamma1(-0.1, 0.2)
    with pytest.raises(ArgumentError):
        gamma1(0.5, 1.0)  # alpha beyond pi/4
    with pytest.raises(ArgumentError):
        omega(0.0, 0.5)  # beta endpoint excluded
    with pytest.raises(ArgumentError):
        werner(1.5)


def test_gamma_f3_matches_bloch_pipeline():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.uniform(0, 1)
        a = rng.uniform(0.01, math.pi / 4)
        direct = f3_value(decompose(gamma1(p, a)))
        assert gamma_f3(p, a) == pytest.approx(direct, abs=1e-12)
        direct2 = f3_value(decompose(gamma2(p, a)))
        assert gamma_f3(p, a) == pytest.approx(direct2, abs=1e-12)


def test_gamma_f3_unsteerable_threshold():
    # closed-form boundary p* = sin^2(2a) / (2 + sin^2(2a))
    a = 0.1
    pstar = math.sin(2 * a) ** 2 / (2 + math.sin(2 * a) ** 2)
    assert pstar == pytest.approx(0.019352828243093, abs=1e-12)
    assert gamma_f3(pstar, a) == pytest.approx(1.0, abs=1e-12)
    assert gamma_f3(pstar - 1e-6, a) > 1
    assert gamma_f3(pstar + 1e-6, a) <= 1
    a = 0.2
    pstar = math.sin(2 * a) ** 2 / (2 + math.sin(2 * a) ** 2)
    assert pstar == pytest.approx(0.070479344578167, abs=1e-12)
    assert gamma_f3(pstar, a) == pytest.approx(1.0, abs=1e-12)


def test_branch_formulas_match_swap_conditionals():
    rng = np.random.default_rng(19)
    for _ in range(40):
        p = rng.uniform(0.02, 0.98)
        a = rng.uniform(0.03, math.pi / 4 - 0.02)
        outs = bsm_swap(gamma1(p, a), gamma2(p, a))
        vals = [f3_value(decompose(o.conditional)) for o in outs]
        assert vals[0] == pytest.approx(phi_branch_f3(p, a), abs=1e-9)
        assert vals[1] == pytest.approx(phi_branch_f3(p, a), abs=1e-9)
        assert vals[2] == pytest.approx(psi_branch_f3(p, a), abs=1e-9)
        assert vals[3] == pytest.approx(psi_branch_f3(p, a), abs=1e-9)


def test_branch_formula_pinned_values():
    # phi-branch crossing at alpha = 0.1 sits at p = 0.331111
    assert phi_branch_f3(0.331111, 0.1) == pytest.approx(1.0, abs=1e-4)
    assert phi_branch_f3(0.35, 0.1) < 1.0
    assert phi_branch_f3(0.30, 0.1) > 1.0
    # psi branch barely exceeds 1 only at the pure-state end
    assert psi_branch_f3(0.0, 0.1) == pytest.approx(1.000811, abs=1e-6)
    assert psi_branch_f3(0.05, 0.1) < 1.0


def test_omega_unsteerable_gate():
    assert omega_unsteerable(0.1, 0.7)
    assert omega_unsteerable(0.3, 0.59)
    # beta = 0.7: the window closes slightly above s = 0.5
    assert omega_unsteerable(0.7, 0.50)
    assert not omega_unsteerable(0.7, 0.51)
    # s = 0 side is vacuously unsteerable
    assert omega_unsteerable(1.0, 0.0)


def test_werner_f3_threshold():
    # f3 = 3 p^2 crosses 1 at p = 1/sqrt(3)
    pc = 1 / math.sqrt(3)
    assert f3_value(decompose(werner(pc - 1e-4))) < 1
    assert f3_value(decompose(werner(pc + 1e-4))) > 1


def test_family_spec_named_family():
    rho = make_state({"family": "gamma1", "p": 0.4, "alpha": 0.3})
    assert rho.qubits == 2
    assert np.array_equal(rho.mat, gamma1(0.4, 0.3).mat)


def test_family_spec_raw_matrix():
    rows = [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]
    rho = make_state({"family": "raw", "matrix": rows})
    b = decompose(rho)
    assert np.allclose(b.W, np.diag([1, -1, 1]), atol=1e-12)


def test_family_spec_unknown_family():
    # a JSON list or object as the family name is unhashable
    for family in ("nope", ["gamma1"], {"a": 1}, None):
        with pytest.raises(ArgumentError):
            make_state({"family": family})


def test_range_errors_print_the_interval_kind():
    with pytest.raises(ArgumentError, match=r"outside the open range \(0\.0, 1\.5707963267948966\)"):
        omega(0.0, 0.5)
    with pytest.raises(ArgumentError, match=r"outside the closed range \[0\.0, 1\.0\]"):
        omega(0.3, 1.5)
