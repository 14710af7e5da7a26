import numpy as np
import pytest

from steernet import (
    BlochForm,
    DensityMatrix,
    decompose,
    diagonalize_correlation,
    reconstruct,
    werner,
)

from util import rand_state


def test_decompose_phi_plus():
    phip = np.zeros(4)
    phip[0] = phip[3] = 1 / np.sqrt(2)
    b = decompose(DensityMatrix(np.outer(phip, phip)))
    assert np.allclose(b.u, 0, atol=1e-14)
    assert np.allclose(b.v, 0, atol=1e-14)
    assert np.allclose(b.W, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_decompose_werner_correlation():
    b = decompose(werner(0.4))
    assert np.allclose(b.W, np.diag([0.4, -0.4, 0.4]), atol=1e-14)


def test_decompose_product_state_rank_one_tensor():
    # |0><0| x |+><+|: u = z, v = x, W = uv^T
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.ones((2, 2), dtype=complex) / 2
    b = decompose(DensityMatrix(np.kron(zero, plus)))
    assert np.allclose(b.u, [0, 0, 1], atol=1e-14)
    assert np.allclose(b.v, [1, 0, 0], atol=1e-14)
    assert np.allclose(b.W, np.outer(b.u, b.v), atol=1e-14)


def test_reconstruct_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = rand_state(rng)
        m = reconstruct(decompose(rho))
        assert np.allclose(m, rho.mat, atol=1e-12)


def test_diagonalize_rotations_are_proper():
    rng = np.random.default_rng(23)
    for _ in range(25):
        b = decompose(rand_state(rng))
        d = diagonalize_correlation(b)
        for r in (d.rot1, d.rot2):
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        rotated = d.rot1 @ b.W @ d.rot2.T
        assert np.allclose(rotated, d.base.W, atol=1e-10)
        assert np.allclose(d.base.W, np.diag(np.diag(d.base.W)), atol=1e-10)
        assert np.allclose(d.base.u, d.rot1 @ b.u, atol=1e-12)
        assert np.allclose(d.base.v, d.rot2 @ b.v, atol=1e-12)


def test_diagonalize_preserves_f3():
    rng = np.random.default_rng(29)
    for _ in range(25):
        b = decompose(rand_state(rng))
        d = diagonalize_correlation(b)
        assert np.sum(d.base.W**2) == pytest.approx(np.sum(b.W**2), abs=1e-10)


def test_diagonalize_short_circuits_on_diagonal_input():
    # an already-diagonal W must come back unchanged, signs included
    b = BlochForm(np.zeros(3), np.zeros(3), np.diag([0.3, 0.3, -0.2]))
    d = diagonalize_correlation(b)
    assert np.allclose(d.rot1, np.eye(3))
    assert np.allclose(d.rot2, np.eye(3))
    assert np.allclose(np.diag(d.base.W), [0.3, 0.3, -0.2])


def test_bloch_form_shape_validation():
    with pytest.raises(Exception):
        BlochForm(np.zeros(2), np.zeros(3), np.zeros((3, 3)))
