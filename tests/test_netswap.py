import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steernet import (
    DensityMatrix,
    bell_basis,
    bsm_swap,
    decompose,
    gamma1,
    gamma2,
    partial_trace,
    reduced_pairs,
    star_basis,
    star_swap,
    validate_density,
)

from util import chain_swap_oracle, rand_state, star_swap_oracle


def test_bell_basis_orthonormal_complete():
    vs = np.stack(bell_basis().vectors)
    g = vs.conj() @ vs.T
    assert np.max(np.abs(g - np.eye(4))) <= 1e-12
    s = sum(np.outer(v, v.conj()) for v in vs)
    assert np.max(np.abs(s - np.eye(4))) <= 1e-12


def test_star_basis_orthonormal_complete():
    vs = np.stack(star_basis().vectors)
    assert vs.shape == (8, 8)
    g = vs.conj() @ vs.T
    assert np.max(np.abs(g - np.eye(8))) <= 1e-12
    s = sum(np.outer(v, v.conj()) for v in vs)
    assert np.max(np.abs(s - np.eye(8))) <= 1e-12


def test_bell_labels_and_order():
    labels = [v for v in ("00", "01", "10", "11")]
    basis = bell_basis()
    # phi+- have support on |00>,|11>; psi+- on |01>,|10>
    assert abs(basis.vectors[0][0]) > 0.5 and abs(basis.vectors[0][3]) > 0.5
    assert abs(basis.vectors[1][0]) > 0.5 and abs(basis.vectors[1][3]) > 0.5
    assert abs(basis.vectors[2][1]) > 0.5 and abs(basis.vectors[2][2]) > 0.5
    assert abs(basis.vectors[3][1]) > 0.5 and abs(basis.vectors[3][2]) > 0.5
    assert [o.label for o in bsm_swap(gamma1(0.3, 0.2), gamma2(0.3, 0.2))] == labels


def test_chain_swap_of_two_phi_plus():
    phip = np.zeros(4)
    phip[0] = phip[3] = 1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(phip, phip))
    outs = bsm_swap(rho, rho)
    for o in outs:
        assert o.probability == pytest.approx(0.25, abs=1e-12)
    # the phi+ branch teleports phi+ itself
    b = decompose(outs[0].conditional)
    assert np.allclose(b.W, np.diag([1, -1, 1]), atol=1e-10)


def test_chain_swap_matches_dense_projector_oracle():
    rng = np.random.default_rng(41)
    basis = bell_basis()
    for _ in range(15):
        ra, rb = rand_state(rng), rand_state(rng)
        outs = bsm_swap(ra, rb)
        total = 0.0
        for out, vec in zip(outs, basis.vectors):
            p, cond = chain_swap_oracle(ra, rb, vec)
            total += p
            assert out.probability == pytest.approx(p, abs=1e-12)
            assert not out.degenerate
            assert np.allclose(out.conditional.mat, cond, atol=1e-10)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_chain_swap_degenerate_branch_flagged():
    # |00><00| x |00><00|: psi branches have zero probability
    k = np.zeros(4)
    k[0] = 1.0
    rho = DensityMatrix(np.outer(k, k))
    outs = bsm_swap(rho, rho)
    assert outs[2].degenerate and outs[3].degenerate
    assert outs[2].probability == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(outs[2].conditional.mat, np.eye(4) / 4)


def test_star_swap_matches_dense_oracle():
    rng = np.random.default_rng(43)
    basis = star_basis()
    r1, r2, r3 = (rand_state(rng) for _ in range(3))
    outs = star_swap(r1, r2, r3)
    total = 0.0
    for out, vec in zip(outs, basis.vectors):
        p, cond = star_swap_oracle(r1, r2, r3, vec)
        total += p
        assert out.probability == pytest.approx(p, abs=1e-12)
        assert np.allclose(out.conditional.mat, cond, atol=1e-10)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert [o.label for o in outs] == [str(k) for k in range(1, 9)]


def test_star_swap_gamma_probabilities_sum():
    outs = star_swap(gamma1(0.08, 0.2), gamma1(0.075, 0.2), gamma1(0.3, 0.2))
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    assert all(o.conditional.qubits == 3 for o in outs)


def test_star_first_outcome_invariant_under_leg_swap():
    # the first projector weighs all legs alike; swapping two sources
    # permutes the conditional's parties accordingly
    a, b, c = gamma1(0.1, 0.2), gamma1(0.2, 0.2), gamma1(0.3, 0.2)
    o1 = star_swap(a, b, c)[0]
    o2 = star_swap(b, a, c)[0]
    assert o1.probability == pytest.approx(o2.probability, abs=1e-12)
    m = o2.conditional.mat.reshape(2, 2, 2, 2, 2, 2).transpose(1, 0, 2, 4, 3, 5)
    assert np.allclose(o1.conditional.mat, m.reshape(8, 8), atol=1e-12)


def test_reduced_pairs_order_and_content():
    rng = np.random.default_rng(47)
    rho = rand_state(rng, qubits=3)
    pairs = reduced_pairs(rho)
    assert len(pairs) == 3
    assert np.allclose(pairs[0].mat, partial_trace(rho, (0, 1)).mat, atol=1e-13)
    assert np.allclose(pairs[1].mat, partial_trace(rho, (0, 2)).mat, atol=1e-13)
    assert np.allclose(pairs[2].mat, partial_trace(rho, (1, 2)).mat, atol=1e-13)


# Property checks of both swap kernels against the dense projector oracles.
# Besides random states they draw eps-mixtures (1-eps)|psi><psi| + eps rho:
# with psi = phi+ the conditionals are nearly pure, so `normalized` clamps
# eigenvalues at rounding level; with psi = |00> the centre marginals are
# nearly pure and several outcome probabilities are of order eps, down to
# 1e-10, just above the 1e-12 null floor.
_PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2
_ZERO = np.outer([1, 0, 0, 0], [1, 0, 0, 0])
_PURE = {"random": None, "phi+": _PHI_PLUS, "00": _ZERO}
_KINDS = st.sampled_from(sorted(_PURE))
_EPS = st.sampled_from([1e-10, 1e-8, 1e-6, 1e-3, 0.1])
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _drawn_state(kind, seed, eps):
    rho = rand_state(np.random.default_rng(seed))
    if _PURE[kind] is None:
        return rho
    return DensityMatrix((1 - eps) * _PURE[kind] + eps * rho.mat)


def _check_against_oracle(outs, oracle, vectors):
    for out, vec in zip(outs, vectors):
        p, cond = oracle(vec)
        assert out.probability == pytest.approx(p, abs=1e-14)
        assert out.degenerate == (out.probability < 1e-12)
        assert validate_density(out.conditional.mat).ok
        if not out.degenerate:
            assert np.max(np.abs(out.conditional.mat - cond)) <= 1e-12


@_PROPERTY
@given(_KINDS, _KINDS, st.integers(0, 2**32 - 1), _EPS)
def test_chain_swap_kernel_matches_dense_oracle_property(kind_ab, kind_bc, seed, eps):
    ra = _drawn_state(kind_ab, seed, eps)
    rb = _drawn_state(kind_bc, seed + 1, eps)
    outs = bsm_swap(ra, rb)
    _check_against_oracle(outs, lambda v: chain_swap_oracle(ra, rb, v), bell_basis().vectors)


@_PROPERTY
@given(st.tuples(_KINDS, _KINDS, _KINDS), st.integers(0, 2**32 - 1), _EPS)
def test_star_swap_kernel_matches_dense_oracle_property(kinds, seed, eps):
    r1, r2, r3 = (_drawn_state(k, seed + i, eps) for i, k in enumerate(kinds))
    outs = star_swap(r1, r2, r3)
    _check_against_oracle(outs, lambda v: star_swap_oracle(r1, r2, r3, v), star_basis().vectors)
    for out in outs:
        for pair in reduced_pairs(out.conditional):
            assert validate_density(pair.mat).ok
