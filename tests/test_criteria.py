import math

import numpy as np
import pytest

from steernet import (
    ArgumentError,
    CanonicalForm,
    DensityMatrix,
    MeasurementTriad,
    OptConfig,
    SingularMarginalError,
    bell_local_3322,
    bowles_unsteerable,
    bsm_swap,
    canonical_form,
    canonical_map,
    chsh_max,
    cjwr_max,
    cjwr_value,
    closed_form_unsteerable,
    decompose,
    f3_value,
    gamma1,
    gamma2,
    i3322_max,
    omega,
    reduced_steering,
    werner,
)

from util import rand_state

LIGHT = OptConfig(restarts=8, seed=0)


def _phi_plus():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v))


def test_f3_value_known_states():
    assert f3_value(decompose(_phi_plus())) == pytest.approx(3.0, abs=1e-12)
    assert f3_value(decompose(werner(0.5))) == pytest.approx(0.75, abs=1e-12)


def test_measurement_triad_validation():
    MeasurementTriad(np.eye(3))
    with pytest.raises(ArgumentError):
        MeasurementTriad(np.ones((3, 3)))
    skew = np.eye(3)
    skew[0] = [1, 0.1, 0]
    with pytest.raises(ArgumentError):
        MeasurementTriad(skew)
    # NaN fails every comparison, so the tolerance checks alone would let it through
    nan = np.eye(3)
    nan[0, 0] = np.nan
    with pytest.raises(ArgumentError):
        MeasurementTriad(nan)


def test_cjwr_value_sign_insensitive():
    rho = _phi_plus()
    ta = MeasurementTriad(np.eye(3))
    tc = MeasurementTriad(np.diag([1.0, -1.0, 1.0]))
    # aligned with the correlation signs: (1 + 1 + 1)/sqrt(3)
    assert cjwr_value(rho, ta, tc) == pytest.approx(math.sqrt(3), abs=1e-12)
    # absolute value keeps the flipped choice equivalent
    tc2 = MeasurementTriad(np.diag([-1.0, 1.0, -1.0]))
    assert cjwr_value(rho, ta, tc2) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_cjwr_max_equals_sqrt_f3():
    rng = np.random.default_rng(61)
    # already-balanced (werner, phi+) and rank-1 (product) correlation tensors
    product = DensityMatrix(np.kron(np.diag([0.9, 0.1]), [[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]]))
    for rho in [rand_state(rng) for _ in range(25)] + [werner(0.5), _phi_plus(), product]:
        rep = cjwr_max(rho)
        assert rep.value == pytest.approx(
            math.sqrt(f3_value(decompose(rho))), abs=1e-9
        )


def test_cjwr_max_witness_triads():
    rep = cjwr_max(gamma1(0.214, 0.267))
    alice = rep.witness["alice"]
    assert np.allclose(alice @ alice.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(alice) == pytest.approx(1.0, abs=1e-12)
    charlie = rep.witness["charlie"]
    assert np.allclose(np.linalg.norm(charlie, axis=1), 1.0, atol=1e-10)
    W = decompose(gamma1(0.214, 0.267)).W
    attained = sum(alice[i] @ W @ charlie[i] for i in range(3)) / math.sqrt(3)
    assert attained == pytest.approx(rep.value, abs=1e-12)


def test_chsh_matches_closed_form_on_random_states():
    rng = np.random.default_rng(67)
    for _ in range(12):
        rho = rand_state(rng)
        rep = chsh_max(rho, LIGHT)
        assert rep.value == pytest.approx(rep.witness["horodecki"], abs=1e-7)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _projector(n):
    """(I + n.sigma)/2, the +1 outcome of a spin measurement along n."""
    return (np.eye(2) + sum(c * s for c, s in zip(n, _PAULI))) / 2


def _probabilities(rho, alice, bob):
    """Dense-matrix P(a_i), P(b_j) and P(a_i, b_j) = Tr[rho Pi_a x Pi_b]."""
    pa = [np.trace(rho.mat @ np.kron(_projector(a), np.eye(2))).real for a in alice]
    pb = [np.trace(rho.mat @ np.kron(np.eye(2), _projector(b))).real for b in bob]
    pab = [[np.trace(rho.mat @ np.kron(_projector(a), _projector(b))).real for b in bob]
           for a in alice]
    return pa, pb, pab


def test_bell_witnesses_attain_their_values():
    rng = np.random.default_rng(71)
    product = DensityMatrix(np.kron(np.diag([0.9, 0.1]), [[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]]))
    # a witness attains its value whether or not the search found the maximum
    cfg = OptConfig(restarts=2, seed=0)
    for rho in [rand_state(rng) for _ in range(3)] + [werner(1.0), product]:
        rep = chsh_max(rho, cfg)
        d = rep.witness["directions"]
        pa, pb, p = _probabilities(rho, d[:2], d[2:])
        chsh = p[0][0] + p[0][1] + p[1][0] - p[1][1] - pa[0] - pb[0]
        assert chsh == pytest.approx(rep.value, abs=1e-12)
        rep = i3322_max(rho, cfg)
        d = rep.witness["directions"]
        pa, pb, p = _probabilities(rho, d[:3], d[3:])
        i3322 = (p[0][0] + p[0][1] + p[0][2] + p[1][0] + p[1][1] - p[1][2] + p[2][0] - p[2][1]
                 - pa[0] - 2 * pb[0] - pb[1])
        assert i3322 == pytest.approx(rep.value, abs=1e-12)


def test_chsh_werner_values():
    # closed form (sqrt(2) p - 1)/2
    rep = chsh_max(werner(1.0), LIGHT)
    assert rep.value == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-9)
    assert rep.verdict == "violated"
    rep = chsh_max(werner(0.5), LIGHT)
    assert rep.value == pytest.approx((math.sqrt(2) * 0.5 - 1) / 2, abs=1e-9)
    assert rep.verdict == "satisfied"


def test_i3322_phi_plus_quarter():
    rep = i3322_max(_phi_plus(), OptConfig(restarts=16, seed=2))
    assert rep.value == pytest.approx(0.25, abs=1e-6)
    assert rep.verdict == "violated"


def test_i3322_product_state_local():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    rep = i3322_max(DensityMatrix(zero), LIGHT)
    assert rep.value <= 1e-9


def test_bell_local_composition():
    rep = bell_local_3322(_phi_plus(), LIGHT)
    assert rep.value == pytest.approx(0.25, abs=1e-5)
    assert rep.witness["chsh"].criterion == "chsh"
    assert rep.witness["i3322"].criterion == "i3322"
    assert rep.value == max(rep.witness["chsh"].value, rep.witness["i3322"].value)


def test_canonical_map_nulls_second_party():
    rho = gamma1(0.3, 0.2)
    flat = canonical_map(rho)
    b = decompose(flat)
    assert np.linalg.norm(b.v) <= 1e-12


def test_canonical_map_singular_marginal():
    k = np.zeros((4, 4), dtype=complex)
    k[0, 0] = 1.0
    with pytest.raises(SingularMarginalError):
        canonical_map(DensityMatrix(k))


def test_canonical_form_werner():
    c = canonical_form(werner(0.4))
    assert np.linalg.norm(c.a) <= 1e-12
    assert sorted(np.abs(c.w)) == pytest.approx([0.4, 0.4, 0.4], abs=1e-12)
    rep = closed_form_unsteerable(c)
    assert rep.value == pytest.approx(0.8, abs=1e-12)


def test_canonical_form_omega_pinned_values():
    c3 = canonical_form(omega(0.1, 0.7))
    assert c3.a[2] == pytest.approx(0.944260, abs=1e-5)
    assert np.abs(c3.w) == pytest.approx([0.191143, 0.191143, 0.0521946], abs=1e-5)
    c4 = canonical_form(omega(0.3, 0.59))
    assert c4.a[2] == pytest.approx(0.705274, abs=1e-5)
    assert np.abs(c4.w) == pytest.approx([0.381417, 0.381417, 0.246572], abs=1e-5)


def test_canonical_state_reconstruction():
    c = canonical_form(omega(0.2, 0.5))
    rho = c.state()
    b = decompose(rho)
    assert np.allclose(b.v, 0, atol=1e-12)
    assert np.allclose(b.W, np.diag(c.w), atol=1e-12)
    assert np.allclose(b.u, c.a, atol=1e-12)


def test_bowles_axis_exact_for_null_a():
    c = CanonicalForm(np.zeros(3), np.array([0.45, -0.2, 0.3]))
    rep = bowles_unsteerable(c, LIGHT)
    assert rep.value == pytest.approx(0.9, abs=1e-12)
    assert rep.verdict == "satisfied"


def test_bowles_flags_undecided_above_one():
    c = CanonicalForm(np.array([0.0, 0.0, 0.9]), np.array([0.6, 0.6, 0.6]))
    rep = bowles_unsteerable(c, LIGHT)
    assert rep.verdict == "violated"
    assert rep.value > 1


def test_closed_form_requires_an_axis_bloch_vector():
    with pytest.raises(ArgumentError):
        closed_form_unsteerable(CanonicalForm(np.array([0.1, 0.1, 0]), np.zeros(3)))


def test_closed_form_matches_search_with_a_on_each_axis():
    rng = np.random.default_rng(16)
    interior = 0
    for i in range(60):
        k = i % 3
        a = np.zeros(3)
        a[k] = rng.uniform(-1, 1)
        w = rng.uniform(-1, 1, 3)
        if i % 2:
            w[k] *= 0.2  # a weak on-axis correlation puts the maximum off the axes
        c = CanonicalForm(a, w)
        rep = closed_form_unsteerable(c)
        assert rep.value == pytest.approx(bowles_unsteerable(c, LIGHT).value, abs=1e-10)
        x = rep.witness["x"]
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert rep.value == pytest.approx((a @ x) ** 2 + 2 * np.linalg.norm(w * x), abs=1e-12)
        interior += 1e-9 < x[k] ** 2 < 1 - 1e-9
    assert interior >= 10


def test_boundary_verdict():
    rep = closed_form_unsteerable(CanonicalForm(np.zeros(3), np.array([0.5, 0.1, 0.1])))
    assert rep.verdict == "boundary"
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_reduced_steering_names_best_pair():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    m = np.kron(np.outer(phi, phi), np.eye(2) / 2)
    rep = reduced_steering(DensityMatrix(m))
    assert rep.value == pytest.approx(3.0, abs=1e-10)
    assert rep.witness["pair"] == "(1,2)"
    assert rep.verdict == "violated"


def test_conditional_cjwr_settings_from_reference_point():
    outs = bsm_swap(gamma1(0.214, 0.267), gamma2(0.214, 0.267))
    ta = MeasurementTriad(np.array([[0, 0, 1], [0, -1, 0], [-1, 0, 0]], dtype=float))
    tc = MeasurementTriad(np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=float))
    val = cjwr_value(outs[0].conditional, ta, tc)
    assert val > 1.0
