"""DFRA algebra: Jacobi closure, derived operators, rotation covariance."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dfra import algebra
from dfra.symcore import Expression, I, bracket, normal_form

GOLDEN = Path(__file__).parent / "goldens"

ALG3 = algebra.build(3)
REL3 = algebra.build(3, relativistic=True)


def test_build_rejects_d1():
    with pytest.raises(ValueError):
        algebra.build(1)


def test_theta_component_count_d2():
    alg = algebra.build(2)
    thetas = [g for g in alg.table.universe if g.name == "theta"]
    assert len(thetas) == 1


def test_x_pi_mismatched_pair_commutes():
    assert bracket(ALG3.x(1), ALG3.pi(2, 3), ALG3.table).is_zero()


def test_jacobi_exhaustive_d2_with_hand_checks():
    alg = algebra.build(2)
    for a, b, c, residual in algebra.jacobi_suite(alg):
        assert residual.is_zero(), f"Jacobi fails on ({a}, {b}, {c})"
    # hand expansion of the nontrivial triple (x1, x2, pi12):
    # [[x1,x2],pi12] = [i th12, pi12] = i*i = -1
    # [[x2,pi12],x1] = [(i/2)p1, x1] = (i/2)(-i) = 1/2
    # [[pi12,x1],x2] = [(i/2)p2, x2] = 1/2          -> sum 0
    t = alg.table
    assert bracket(bracket(alg.x(1), alg.x(2), t), alg.pi(1, 2), t) == Expression.scalar(-1)
    assert bracket(bracket(alg.x(2), alg.pi(1, 2), t), alg.x(1), t) == Expression.scalar(
        Fraction(1, 2)
    )


def test_jacobi_exhaustive_d3():
    count = 0
    for *_, residual in algebra.jacobi_suite(ALG3):
        assert residual.is_zero()
        count += 1
    assert count == math.comb(12, 3)


def test_triple_coordinate_commutator_vanishes():
    # [[x^mu, x^nu], x^rho] = i [theta^{mu nu}, x^rho] = 0, every index choice
    for alg in (ALG3, REL3):
        for mu in alg.indices:
            for nu in alg.indices:
                for rho in alg.indices:
                    inner = bracket(alg.x(mu), alg.x(nu), alg.table)
                    assert bracket(inner, alg.x(rho), alg.table).is_zero()


def test_shifted_coordinate_relations():
    X1 = algebra.shifted_coordinate(ALG3, 1)
    t = ALG3.table
    assert bracket(X1, ALG3.p(1), t) == Expression.scalar(I)
    assert bracket(X1, ALG3.p(2), t).is_zero()
    assert bracket(X1, ALG3.pi(2, 3), t).is_zero()
    assert bracket(X1, ALG3.theta(2, 3), t).is_zero()
    for j in (2, 3):
        assert bracket(X1, algebra.shifted_coordinate(ALG3, j), t).is_zero()


def test_angular_momentum_variants():
    with pytest.raises(ValueError):
        algebra.angular_momentum(ALG3, 2, 2)
    little = algebra.angular_momentum(ALG3, 1, 2, "little-l")
    assert little == normal_form(
        ALG3.x(1) * ALG3.p(2) - ALG3.x(2) * ALG3.p(1), ALG3.table
    )


def test_j_reduces_to_L_at_d2():
    alg = algebra.build(2)
    assert algebra.angular_momentum(alg, 1, 2, "J") == algebra.angular_momentum(
        alg, 1, 2, "L"
    )


def test_j_closure_all_indices_d3():
    idx = [1, 2, 3]
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    if i == j or k == l:
                        continue
                    assert algebra.so_closure_residual(ALG3, i, j, k, l).is_zero()


def test_j12_j23_matches_so3_pattern():
    J = lambda a, b: algebra.angular_momentum(ALG3, a, b, "J")
    got = bracket(J(1, 2), J(2, 3), ALG3.table)
    assert got == normal_form(-I * J(1, 3), ALG3.table)


def test_little_l_residual_is_theta_pp():
    idx = [1, 2, 3]
    seen_nonzero = False
    for i, j, k, l in [(1, 2, 2, 3), (1, 2, 1, 3), (1, 3, 3, 2), (2, 3, 3, 1)]:
        res = algebra.little_l_residual(ALG3, i, j, k, l)
        expect = algebra.little_l_theta_terms(ALG3, i, j, k, l)
        assert res == expect
        seen_nonzero = seen_nonzero or not res.is_zero()
    assert seen_nonzero


def test_rotation_transforms():
    # eps with eps^{12} = 1: delta x^i = eps^{ik} x_k
    eps = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    t = ALG3.table
    assert algebra.rotate(ALG3, eps, ALG3.x(1)) == normal_form(ALG3.x(2), t)
    assert algebra.rotate(ALG3, eps, ALG3.x(2)) == normal_form(-ALG3.x(1), t)
    assert algebra.rotate(ALG3, eps, ALG3.p(1)) == normal_form(ALG3.p(2), t)
    assert algebra.rotate(ALG3, eps, Expression.scalar(1)).is_zero()
    # delta theta^{ij} = eps^{ik} theta_k^j + eps^{jk} theta^i_k
    assert algebra.rotate(ALG3, eps, ALG3.theta(1, 3)) == normal_form(ALG3.theta(2, 3), t)
    assert algebra.rotate(ALG3, eps, ALG3.pi(1, 3)) == normal_form(ALG3.pi(2, 3), t)
    # X transforms as a vector
    X1 = algebra.shifted_coordinate(ALG3, 1)
    X2 = algebra.shifted_coordinate(ALG3, 2)
    assert algebra.rotate(ALG3, eps, X1) == X2


def test_rotate_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        algebra.rotate(ALG3, [[0, 1], [-1, 0]], ALG3.x(1))
    with pytest.raises(ValueError):
        algebra.rotate(ALG3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], ALG3.x(1))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_rotate_rejects_a_non_finite_epsilon(value):
    eps = [[0, value, 0], [-value, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="^epsilon must be finite"):
        algebra.rotate(ALG3, eps, ALG3.x(1))


def test_rotation_full_multiplet_d3():
    """Every line of the infinitesimal rotation table, for generic eps."""
    eps = [
        [0, Fraction(1, 2), Fraction(-2, 3)],
        [Fraction(-1, 2), 0, Fraction(1, 5)],
        [Fraction(2, 3), Fraction(-1, 5), 0],
    ]
    t = ALG3.table
    idx = [1, 2, 3]
    for i in idx:
        expect = Expression.zero()
        for k in idx:
            expect = expect + eps[i - 1][k - 1] * ALG3.x(k)
        assert algebra.rotate(ALG3, eps, ALG3.x(i)) == normal_form(expect, t)
        expect_p = Expression.zero()
        for k in idx:
            expect_p = expect_p + eps[i - 1][k - 1] * ALG3.p(k)
        assert algebra.rotate(ALG3, eps, ALG3.p(i)) == normal_form(expect_p, t)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            expect = Expression.zero()
            expect_pi = Expression.zero()
            for k in idx:
                expect = (
                    expect
                    + eps[i - 1][k - 1] * ALG3.theta(k, j)
                    + eps[j - 1][k - 1] * ALG3.theta(i, k)
                )
                expect_pi = (
                    expect_pi
                    + eps[i - 1][k - 1] * ALG3.pi(k, j)
                    + eps[j - 1][k - 1] * ALG3.pi(i, k)
                )
            assert algebra.rotate(ALG3, eps, ALG3.theta(i, j)) == normal_form(expect, t)
            assert algebra.rotate(ALG3, eps, ALG3.pi(i, j)) == normal_form(expect_pi, t)
    for i in idx:
        X = algebra.shifted_coordinate(ALG3, i)
        expect_X = Expression.zero()
        for k in idx:
            expect_X = expect_X + eps[i - 1][k - 1] * algebra.shifted_coordinate(
                ALG3, k
            )
        assert algebra.rotate(ALG3, eps, X) == normal_form(expect_X, t)


# -- relativistic variant ----------------------------------------------------


def test_jacobi_exhaustive_relativistic_4d():
    for *_, residual in algebra.jacobi_suite(REL3):
        assert residual.is_zero()


def test_lorentz_generator_antisymmetry():
    M01 = algebra.lorentz_generator(REL3, 0, 1)
    M10 = algebra.lorentz_generator(REL3, 1, 0)
    assert (M01 + M10).is_zero()


def test_lorentz_generator_requires_relativistic():
    with pytest.raises(ValueError):
        algebra.lorentz_generator(ALG3, 0, 1)


def _m_closure_residual(alg, m, n, r, s):
    M = lambda a, b: algebra.lorentz_generator(alg, a, b)
    eta = alg.metric
    lhs = bracket(M(m, n), M(r, s), alg.table)
    rhs = (
        eta(m, s) * M(r, n)
        - eta(n, s) * M(r, m)
        - eta(m, r) * M(s, n)
        + eta(n, r) * M(s, m)
    ) * I
    return normal_form(lhs - rhs, alg.table)


def test_lorentz_algebra_closure():
    import itertools

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (m, n), (r, s) in itertools.combinations_with_replacement(pairs, 2):
        assert _m_closure_residual(REL3, m, n, r, s).is_zero(), (m, n, r, s)


def test_m01_m12_closure_example():
    assert _m_closure_residual(REL3, 0, 1, 1, 2).is_zero()


def test_lorentz_transform_full_multiplet():
    """delta A = (i/2) w_{mu nu} [A, M^{mu nu}] reproduces the tensor patterns."""
    w = [
        [0, Fraction(1, 2), Fraction(-1, 3), 0],
        [Fraction(-1, 2), 0, Fraction(2, 5), Fraction(1)],
        [Fraction(1, 3), Fraction(-2, 5), 0, Fraction(-3, 7)],
        [0, Fraction(-1), Fraction(3, 7), 0],
    ]
    t = REL3.table
    eta = REL3.metric
    idx = list(REL3.indices)
    mixed = lambda m, n: eta(m, m) * w[m][n]  # w^mu_nu
    mixed_low = lambda m, n: w[m][n] * eta(n, n)  # w_mu^nu

    for mu in idx:
        expect = Expression.zero()
        expect_p = Expression.zero()
        expect_X = Expression.zero()
        for nu in idx:
            expect = expect + mixed(mu, nu) * REL3.x(nu)
            expect_p = expect_p + mixed_low(mu, nu) * REL3.p(nu)
            expect_X = expect_X + mixed(mu, nu) * algebra.shifted_coordinate(REL3, nu)
        assert algebra.lorentz_transform(REL3, w, REL3.x(mu)) == normal_form(expect, t)
        assert algebra.lorentz_transform(REL3, w, REL3.p(mu)) == normal_form(expect_p, t)
        X = algebra.shifted_coordinate(REL3, mu)
        assert algebra.lorentz_transform(REL3, w, X) == normal_form(expect_X, t)

    for mu in idx:
        for nu in idx:
            if mu == nu:
                continue
            expect_th = Expression.zero()
            expect_pi = Expression.zero()
            expect_M = Expression.zero()
            for rho in idx:
                expect_th = (
                    expect_th
                    + mixed(mu, rho) * REL3.theta(rho, nu)
                    + mixed(nu, rho) * REL3.theta(mu, rho)
                )
                expect_pi = (
                    expect_pi
                    + mixed_low(mu, rho) * REL3.pi(rho, nu)
                    + mixed_low(nu, rho) * REL3.pi(mu, rho)
                )
                expect_M = (
                    expect_M
                    + mixed(mu, rho) * algebra.lorentz_generator(REL3, rho, nu)
                    + mixed(nu, rho) * algebra.lorentz_generator(REL3, mu, rho)
                )
            assert algebra.lorentz_transform(REL3, w, REL3.theta(mu, nu)) == \
                normal_form(expect_th, t)
            assert algebra.lorentz_transform(REL3, w, REL3.pi(mu, nu)) == \
                normal_form(expect_pi, t)
            M = algebra.lorentz_generator(REL3, mu, nu)
            assert algebra.lorentz_transform(REL3, w, M) == normal_form(expect_M, t)


def test_lorentz_transform_requires_relativistic():
    with pytest.raises(ValueError):
        algebra.lorentz_transform(ALG3, [[0]], ALG3.x(1))


def test_m_generates_translations():
    # [M^{mu nu}, p_rho] = i (delta^mu_rho p^nu - delta^nu_rho p^mu)
    t = REL3.table
    for mu, nu in [(0, 1), (1, 2), (0, 3)]:
        M = algebra.lorentz_generator(REL3, mu, nu)
        for rho in REL3.indices:
            got = bracket(M, REL3.p(rho), t)
            expect = Expression.zero()
            if rho == mu:
                expect = expect + REL3.metric(nu, nu) * REL3.p(nu)
            if rho == nu:
                expect = expect - REL3.metric(mu, mu) * REL3.p(mu)
            assert got == normal_form(I * expect, t), (mu, nu, rho)


# -- quantum conditions ------------------------------------------------------


def _theta_matrix(t01=0.0, t02=0.0, t03=0.0, t12=0.0, t13=0.0, t23=0.0):
    m = np.zeros((4, 4))
    m[0, 1], m[0, 2], m[0, 3] = t01, t02, t03
    m[1, 2], m[1, 3], m[2, 3] = t12, t13, t23
    return m - m.T


def test_quantum_conditions_zero_matrix():
    lp = 0.7
    r1, r2 = algebra.quantum_conditions(np.zeros((4, 4)), lp)
    assert r1 == 0.0
    assert r2 == pytest.approx(-(lp**8))


def test_quantum_conditions_selfdual_example():
    lp = 1.3
    theta = _theta_matrix(t01=lp**2, t23=lp**2)
    r1, r2 = algebra.quantum_conditions(theta, lp)
    # direct contraction with eta = diag(-1,1,1,1):
    # th_{01}th^{01}*2 = -2 lp^4, th_{23}th^{23}*2 = +2 lp^4 -> 0
    assert r1 == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(0.0, abs=1e-9)


def test_quantum_conditions_scaling():
    theta = _theta_matrix(t01=0.3, t02=-0.2, t12=0.5, t23=0.1)
    r1a, _ = algebra.quantum_conditions(theta, 1.0)
    r1b, _ = algebra.quantum_conditions(2.0 * theta, 1.0)
    assert r1b == pytest.approx(4.0 * r1a)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_quantum_conditions_rejects_a_planck_length_not_finite_and_positive(bad):
    # NaN and inf passed a bare "<= 0" test and came back as (0.0, nan) and (0.0, -inf)
    with pytest.raises(ValueError, match="planck_length"):
        algebra.quantum_conditions(np.zeros((4, 4)), bad)


def test_quantum_conditions_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        algebra.quantum_conditions(np.eye(4), 1.0)


# -- external interface ------------------------------------------------------


def test_algebra_dump_golden_d2():
    got = algebra.build(2).table.dump()
    expected = (GOLDEN / "algebra_d2.txt").read_text()
    assert got == expected
