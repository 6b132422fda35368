"""Gamma matrices, spinor generators, generalized Dirac operator."""

import numpy as np
import pytest

from dfra.clifford import (
    GammaSet,
    SpinorGenerator,
    anticommutator_residual,
    build_gammas,
    conjugate_dirac_operator,
    dirac_operator,
    dirac_square_residual,
    extended_metric_diagonal,
    intertwining_residual,
    lorentz_closure_residual,
    pair_covariance_residual,
    quadratic_form,
    spinor_boost,
    spinor_generator,
    vector_covariance_residual,
    vector_matrix,
)
from dfra.reps import ETA, vec_to_mat

GS = build_gammas()
SG = spinor_generator(GS)


def test_extended_metric_signature():
    eta = extended_metric_diagonal()
    assert list(eta[:4]) == [-1, 1, 1, 1]
    # mixed time-space pairs are negative, purely spatial pairs positive
    assert list(eta[4:]) == [-1, -1, -1, 1, 1, 1]


def test_all_anticommutators():
    assert anticommutator_residual(GS) < 1e-12


def test_gamma0_anticommutator_sign():
    anti = GS.vector(0) @ GS.vector(0) * 2.0
    assert np.allclose(anti, 2.0 * np.eye(32), atol=1e-12)


def test_mixed_vector_pair_anticommutators_vanish():
    for mu in range(4):
        for s in range(6):
            g1, g2 = GS.gamma[mu], GS.gamma[4 + s]
            assert np.abs(g1 @ g2 + g2 @ g1).max() < 1e-12


def test_pair_block_example_01_01():
    # {G^{01}, G^{01}} = -2 eta^{01,01} = -2 eta^00 eta^11 = +2
    g = GS.pair(0, 1)
    assert np.allclose(g @ g + g @ g, 2.0 * np.eye(32), atol=1e-12)


def test_traceless():
    for A in range(10):
        assert abs(np.trace(GS.gamma[A])) < 1e-12


def test_gamma0_hermitian_spatial_antihermitian():
    assert np.allclose(GS.vector(0), GS.vector(0).conj().T, atol=1e-12)
    for mu in (1, 2, 3):
        assert np.allclose(GS.vector(mu), -GS.vector(mu).conj().T, atol=1e-12)


def test_pair_antisymmetry_and_zero_diagonal():
    assert np.allclose(GS.pair(1, 0), -GS.pair(0, 1))
    assert not GS.pair(2, 2).any()


# -- spinor generator ----------------------------------------------------------


def test_spinor_generator_antisymmetric():
    for mu in range(4):
        assert not SG.m[mu, mu].any()
        for nu in range(4):
            assert np.allclose(SG.m[mu, nu], -SG.m[nu, mu])


def test_m01_selfcommutator_vanishes():
    c = SG.m[0, 1] @ SG.m[0, 1] - SG.m[0, 1] @ SG.m[0, 1]
    assert not c.any()


def test_lorentz_algebra_closure():
    assert lorentz_closure_residual(SG) < 1e-12


def test_vector_covariance_commutators():
    assert vector_covariance_residual(GS, SG) < 1e-12


def test_pair_covariance_commutators():
    assert pair_covariance_residual(GS, SG) < 1e-12


def test_residuals_keep_a_nan():
    # a NaN after a finite residual must not be folded away into a pass
    gamma = GS.gamma.copy()
    gamma[7, 0, 0] = np.nan  # Gamma^{12}
    gs_nan = GammaSet(gamma, GS.eta)
    m = SG.m.copy()
    m[2, 3, 0, 0] = m[3, 2, 0, 0] = np.nan
    sg_nan = SpinorGenerator(m)
    assert np.isnan(anticommutator_residual(gs_nan))
    assert np.isnan(pair_covariance_residual(gs_nan, SG))
    assert np.isnan(lorentz_closure_residual(sg_nan))
    assert np.isnan(vector_covariance_residual(GS, sg_nan))
    assert np.isnan(pair_covariance_residual(GS, sg_nan))
    # Gamma^0 is the first of the four vector residuals; a (1,2) rotation's S stays finite
    gamma = GS.gamma.copy()
    gamma[0, 0, 0] = np.nan
    assert np.isnan(intertwining_residual(GammaSet(gamma, GS.eta), vec_to_mat([0, 0, 0, 0.7, 0, 0])))


def test_gamma0_m01_commutator_is_delta_selected_gamma():
    lhs = SG.lower(0, 1) @ GS.vector(0) * 0 + (
        GS.vector(0) @ SG.lower(0, 1) - SG.lower(0, 1) @ GS.vector(0)
    )
    assert np.allclose(lhs, -1j * ETA[1, 1] * GS.vector(1), atol=1e-12)


# -- Dirac operator ------------------------------------------------------------


def _random_kK(rng):
    k = rng.normal(0, 1, 4)
    K = vec_to_mat(rng.normal(0, 1, 6))
    return k, K


def test_squared_dirac_operator_is_scalar():
    rng = np.random.default_rng(204)
    for _ in range(100):
        k, K = _random_kK(rng)
        lam = rng.uniform(0.1, 2.0)
        m = rng.uniform(0.1, 2.0)
        assert dirac_square_residual(GS, k, K, lam, m) < 1e-12
        # off-diagonal entries of the product specifically
        prod = conjugate_dirac_operator(GS, k, K, lam, m) @ dirac_operator(
            GS, k, K, lam, m
        )
        off = prod - np.diag(np.diag(prod))
        assert np.abs(off).max() < 1e-12


def test_k_zero_reduces_to_ordinary_dirac():
    k = np.array([0.7, 0.1, -0.3, 0.2])
    D = dirac_operator(GS, k, np.zeros((4, 4)), lam=5.0, m=0.9)
    expect = sum(GS.vector(mu) * k[mu] for mu in range(4)) - 0.9 * np.eye(32)
    assert np.allclose(D, expect)


def _smallest_singular_value(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def test_determinant_vanishes_exactly_on_shell():
    rng = np.random.default_rng(77)
    lam, m = 0.8, 1.1
    for _ in range(10):
        kvec = rng.normal(0, 1, 3)
        K = vec_to_mat(rng.normal(0, 0.5, 6))
        K_up = np.diag([-1.0, 1, 1, 1]) @ K @ np.diag([-1.0, 1, 1, 1])
        ksq_pair = 0.5 * lam**2 * float(np.einsum("ab,ab->", K, K_up))
        w2 = kvec @ kvec + ksq_pair + m**2
        if w2 <= 0:
            continue
        w = np.sqrt(w2)
        k_on = np.array([-w, *kvec])  # lower components: k_0 = -omega
        assert abs(quadratic_form(k_on, K, lam, m)) < 1e-10
        assert _smallest_singular_value(dirac_operator(GS, k_on, K, lam, m)) < 1e-10
        k_off = np.array([-w * 1.21, *kvec])
        assert _smallest_singular_value(dirac_operator(GS, k_off, K, lam, m)) > 1e-3


# -- finite transformations ------------------------------------------------------


def test_boost_identity_at_zero():
    S = spinor_boost(GS, np.zeros((4, 4)))
    assert np.allclose(S, np.eye(32), atol=1e-14)


def test_rotation_by_two_pi_gives_minus_identity():
    omega = np.zeros((4, 4))
    omega[1, 2] = 2.0 * np.pi
    omega = omega - omega.T
    S = spinor_boost(GS, omega)
    assert np.allclose(S, -np.eye(32), atol=1e-10)
    # while the vector matrix returns to the identity
    assert np.allclose(vector_matrix(omega), np.eye(4), atol=1e-10)


def test_intertwining_small_random_omegas():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        omega = vec_to_mat(rng.normal(0, 0.2, 6))
        assert intertwining_residual(GS, omega) < 1e-10


def test_spinor_boost_builds_the_generator_once_per_gamma_set(monkeypatch):
    from dfra import clifford

    built = []
    original = clifford.spinor_generator
    monkeypatch.setattr(clifford, "spinor_generator",
                        lambda gs: built.append(gs) or original(gs))
    gs = build_gammas()
    omega = vec_to_mat([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    boosts = [spinor_boost(gs, omega) for _ in range(3)]
    intertwining_residual(gs, omega)
    assert built == [gs]
    # the kept generator gives the bits of a first call on a fresh set
    fresh = build_gammas()
    assert all(np.array_equal(S, spinor_boost(fresh, omega)) for S in boosts)
    assert built == [gs, fresh]


def test_spinor_boost_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        spinor_boost(GS, np.eye(4))
