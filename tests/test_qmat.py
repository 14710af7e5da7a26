import numpy as np
import pytest

from steernet import (
    ArgumentError,
    DensityMatrix,
    StateError,
    basis_ket,
    partial_trace,
    validate_density,
)

from util import rand_state


def test_validate_density_accepts_maximally_mixed():
    rep = validate_density(np.eye(4) / 4)
    assert rep.ok
    assert rep.hermitian
    assert rep.trace_dev <= 1e-15
    assert rep.min_eig == pytest.approx(0.25)


def test_validate_density_flags_bad_trace_and_nonhermitian():
    assert not validate_density(np.eye(4)).ok
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.5
    assert not validate_density(m).ok


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateError):
        DensityMatrix(m)


def test_density_matrix_rejects_non_power_of_two():
    with pytest.raises(ArgumentError):
        DensityMatrix(np.eye(3) / 3)


def test_density_matrix_is_immutable():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_normalized_clips_tiny_negative_eigenvalues():
    m = np.diag([0.7, 0.3, -5e-11, 0.0]).astype(complex)
    rho = DensityMatrix.normalized(m)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho.mat).min() >= 0.0


def test_normalized_rejects_genuinely_negative():
    with pytest.raises(StateError):
        DensityMatrix.normalized(np.diag([1.0, -0.1, 0.05, 0.05]).astype(complex))


def test_basis_ket_ordering():
    # qubit 0 is the leftmost bit: |01> occupies row 1, |10> row 2
    assert np.argmax(basis_ket((0, 1))) == 1
    assert np.argmax(basis_ket((1, 0))) == 2
    assert np.argmax(basis_ket((1, 1, 0))) == 6


def test_partial_trace_against_index_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = rand_state(rng, qubits=2)
        t = rho.mat.reshape(2, 2, 2, 2)
        first = np.einsum("ajbj->ab", t)
        second = np.einsum("jajb->ab", t)
        got_first = partial_trace(rho, (0,)).mat
        got_second = partial_trace(rho, (1,)).mat
        assert np.allclose(got_first, first, atol=1e-12)
        assert np.allclose(got_second, second, atol=1e-12)


def test_partial_trace_three_qubits_keep_pair():
    rng = np.random.default_rng(11)
    rho = rand_state(rng, qubits=3)
    t = rho.mat.reshape(2, 2, 2, 2, 2, 2)
    want = np.einsum("abjcdj->abcd", t).reshape(4, 4)
    got = partial_trace(rho, (0, 1)).mat
    assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_keeps_ascending_order():
    rng = np.random.default_rng(13)
    rho = rand_state(rng, qubits=3)
    a = partial_trace(rho, (2, 0)).mat
    b = partial_trace(rho, (0, 2)).mat
    assert np.allclose(a, b, atol=1e-14)
