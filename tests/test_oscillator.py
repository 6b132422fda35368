"""Oscillator spectrum and theta-sector moments against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dfra.oscillator import (
    MomentEstimate,
    Occupation,
    OscillatorConfig,
    QuadratureUnsupportedError,
    energy,
    ground_wavefunction,
    level_degeneracy,
    moment,
    moment_oracle,
    monomial,
    vacuum_shift,
    vacuum_shift_oracle,
    weight_function,
    x2_expectation,
)

CFG2 = OscillatorConfig(D=2)
CFG3 = OscillatorConfig(D=3)


# -- spectrum ----------------------------------------------------------------


def test_ground_state_energy_d3():
    occ = Occupation((0, 0, 0), (0, 0, 0))
    assert energy(CFG3, occ) == pytest.approx(1.5 * CFG3.omega + 1.5 * CFG3.Omega)
    assert vacuum_shift(CFG3) == pytest.approx(1.5 * CFG3.Omega)


@given(D=st.integers(2, 4), Lambda=st.floats(1e-2, 1e2), Omega=st.floats(1e-2, 1e2))
@settings(deadline=None)
def test_vacuum_shift_oracle_brackets_the_exact_shift(D, Lambda, Omega):
    # each theta mode is an oscillator of frequency Omega: ground energy Omega/2
    cfg = OscillatorConfig(D=D, Lambda=Lambda, Omega=Omega)
    exact = cfg.n_modes * Omega / 2.0
    value, error = vacuum_shift_oracle(cfg)
    assert abs(value - exact) <= error
    # the error is the gap between the 41- and 81-point DVR values plus the
    # eigvalsh rounding bound; the rounding bound dominates, near 5e-12 of the shift
    assert 0 < error <= 1e-10 * exact


@pytest.mark.parametrize("D", [2, 3])
@pytest.mark.parametrize("Lambda, Omega", [(1, 1), (2, 0.7), (0.3, 3)])
def test_vacuum_shift_oracle_error_is_positive_and_brackets_the_shift(D, Lambda, Omega):
    cfg = OscillatorConfig(D=D, Lambda=Lambda, Omega=Omega)
    value, error = vacuum_shift_oracle(cfg)
    assert error > 0
    assert value - error <= vacuum_shift(cfg) <= value + error


def test_omega_zero_limit_is_ordinary_ladder():
    # Omega -> 0 leaves the ordinary D-dimensional oscillator ladder
    cfg = OscillatorConfig(D=3, Omega=1e-12)
    occ = lambda n: Occupation((n, 0, 0), (0, 0, 0))
    for n in range(4):
        assert energy(cfg, occ(n)) == pytest.approx(cfg.omega * (n + 1.5), abs=1e-9)


def test_degeneracy_enumeration():
    # x-sector degeneracy at level 2, D = 3: enumerate occupations
    states = [
        nx
        for nx in itertools.product(range(3), repeat=3)
        if sum(nx) == 2
    ]
    assert len(states) == 6
    assert level_degeneracy(3, 2) == 6


def test_energy_monotone_and_theta_gap():
    base = Occupation((0, 0, 0), (0, 0, 0))
    for slot in range(3):
        nx = [0, 0, 0]
        nx[slot] = 1
        assert energy(CFG3, Occupation(tuple(nx), (0, 0, 0))) > energy(CFG3, base)
    one_theta = Occupation((0, 0, 0), (1, 0, 0))
    assert energy(CFG3, one_theta) - energy(CFG3, base) == pytest.approx(CFG3.Omega)


@pytest.mark.parametrize("name", ["m", "omega", "Lambda", "Omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_nonfinite_or_nonpositive_parameters(name, value):
    with pytest.raises(ValueError, match=name):
        OscillatorConfig(D=3, **{name: value})


def test_occupation_validation():
    with pytest.raises(ValueError):
        Occupation((0, -1, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        energy(CFG3, Occupation((0, 0), (0, 0, 0)))


# -- wave function and weight -------------------------------------------------


def test_wavefunction_unit_value_example():
    cfg = OscillatorConfig(D=2, Lambda=math.pi, Omega=1.0)
    assert ground_wavefunction(cfg, [0.0], 0.0) == pytest.approx(1.0)


def test_wavefunction_time_dependence_is_pure_phase():
    theta = [0.3, -0.2, 0.7]
    psi0 = ground_wavefunction(CFG3, theta, 0.0)
    psi1 = ground_wavefunction(CFG3, theta, 1.37)
    assert abs(psi1) == pytest.approx(abs(psi0))
    assert np.angle(psi1) == pytest.approx(-vacuum_shift(CFG3) * 1.37)


def test_weight_equals_wavefunction_squared():
    rng = np.random.default_rng(5)
    for cfg in (CFG2, CFG3, OscillatorConfig(D=3, Lambda=0.7, Omega=2.5)):
        for _ in range(10):
            theta = rng.normal(0, 1, cfg.n_modes)
            assert weight_function(cfg, theta) == pytest.approx(
                abs(ground_wavefunction(cfg, theta, 0.0)) ** 2, rel=1e-14
            )


def test_weight_symmetric_and_peak_value():
    theta = np.array([0.4, -0.1, 0.2])
    assert weight_function(CFG3, theta) == pytest.approx(
        weight_function(CFG3, -theta)
    )
    lo = CFG3.Lambda * CFG3.Omega
    assert weight_function(CFG3, [0, 0, 0]) == pytest.approx(
        (lo / math.pi) ** (CFG3.D * (CFG3.D - 1) / 4)
    )


def test_wavefunction_normalization_adaptive_quadrature():
    # independent oracle: adaptive quadrature of |psi|^2 over theta space
    cfg2 = OscillatorConfig(D=2, Lambda=0.8, Omega=1.3)
    val, err = integrate.quad(
        lambda t: abs(ground_wavefunction(cfg2, [t], 0.0)) ** 2, -np.inf, np.inf
    )
    assert val == pytest.approx(1.0, abs=1e-8)

    cfg3 = OscillatorConfig(D=3, Lambda=1.1, Omega=0.9)
    # |psi|^2 is a product of exp(-Lambda Omega theta_c^2) over the three
    # components, so the weight outside the box |theta_c| <= 8/sqrt(Lambda Omega)
    # is below 3 erfc(8) ~ 3.4e-29, far inside the tolerance
    half = 8.0 / math.sqrt(cfg3.Lambda * cfg3.Omega)
    val3, err3 = integrate.nquad(
        lambda a, b, c: abs(ground_wavefunction(cfg3, [a, b, c], 0.0)) ** 2,
        [(-half, half)] * 3,
    )
    assert val3 == pytest.approx(1.0, abs=1e-8)


# -- moments -------------------------------------------------------------------


def test_moment_values_d2():
    cfg = OscillatorConfig(D=2, Lambda=1, Omega=1)
    assert moment(cfg, "one") == 1.0
    assert moment(cfg, "theta_ij") == 0.0
    assert moment(cfg, "theta2") == pytest.approx(0.5)
    assert moment(cfg, "theta_ij_theta_kl") == pytest.approx(0.5)


def test_moment_values_d3():
    cfg = OscillatorConfig(D=3, Lambda=1, Omega=1)
    # per-component variance 1/(2 L W); theta2 sums the three components
    assert moment(cfg, "theta2") == pytest.approx(1.5)
    assert moment(cfg, "theta_ij_theta_kl") == pytest.approx(0.5)
    assert moment(cfg, "theta_ij_theta_kl", (1, 2, 1, 3)) == 0.0
    assert moment(cfg, "theta_ij_theta_kl", (1, 2, 2, 1)) == pytest.approx(-0.5)
    # trace identity: sum over components recovers theta2
    total = sum(
        moment(cfg, "theta_ij_theta_kl", (i, j, i, j)) for i, j in cfg.mode_pairs
    )
    assert total == pytest.approx(moment(cfg, "theta2"))


def test_pair_moment_matches_isotropic_decomposition():
    for cfg in (CFG2, CFG3, OscillatorConfig(D=3, Lambda=2.0, Omega=0.25)):
        c = 2.0 / (cfg.D * (cfg.D - 1)) * moment(cfg, "theta2")
        assert moment(cfg, "theta_ij_theta_kl") == pytest.approx(c)


def test_moments_against_quadrature_oracle():
    for cfg in (
        OscillatorConfig(D=2, Lambda=1, Omega=1),
        OscillatorConfig(D=3, Lambda=1, Omega=1),
        OscillatorConfig(D=3, Lambda=0.6, Omega=2.2),
    ):
        M = cfg.n_modes
        est = moment_oracle(cfg, monomial((0,) * M), "quadrature")
        assert est.value == pytest.approx(1.0, abs=1e-10)
        for c in range(M):
            exps = [0] * M
            exps[c] = 1
            est = moment_oracle(cfg, monomial(tuple(exps)), "quadrature")
            assert est.value == pytest.approx(0.0, abs=1e-10)
            exps[c] = 2
            est = moment_oracle(cfg, monomial(tuple(exps)), "quadrature")
            assert est.value == pytest.approx(
                moment(cfg, "theta_ij_theta_kl"), abs=1e-8
            )
        if M >= 2:
            est = moment_oracle(cfg, monomial((1, 1) + (0,) * (M - 2)), "quadrature")
            assert est.value == pytest.approx(0.0, abs=1e-10)
        theta2 = moment_oracle(
            cfg, lambda th: (th * th).sum(axis=-1), "quadrature"
        )
        assert theta2.value == pytest.approx(moment(cfg, "theta2"), abs=1e-8)


def test_quartic_moment_wick_value():
    # degree-4: <theta_c^4> = 3 sigma^4 with sigma^2 = 1/(2 L W)
    for cfg in (CFG2, OscillatorConfig(D=3, Lambda=1.7, Omega=0.4)):
        sigma2 = 1.0 / (2.0 * cfg.Lambda * cfg.Omega)
        exps = (4,) + (0,) * (cfg.n_modes - 1)
        est = moment_oracle(cfg, monomial(exps), "quadrature")
        assert est.value == pytest.approx(3.0 * sigma2**2, rel=1e-10)
        mc = moment_oracle(cfg, monomial(exps), "monte-carlo", samples=400_000, seed=3)
        assert abs(mc.value - 3.0 * sigma2**2) < 3.0 * mc.error
        if cfg.n_modes >= 2:
            mixed = moment_oracle(cfg, monomial((2, 2) + (0,) * (cfg.n_modes - 2)))
            assert mixed.value == pytest.approx(sigma2**2, rel=1e-10)


def test_quadrature_error_estimate_reported():
    est = moment_oracle(CFG2, monomial((2,)), "quadrature")
    assert isinstance(est, MomentEstimate)
    assert est.error < 1e-10


def test_quadrature_unsupported_above_three_dims():
    cfg = OscillatorConfig(D=4)
    with pytest.raises(QuadratureUnsupportedError):
        moment_oracle(cfg, monomial((0,) * cfg.n_modes), "quadrature")


def test_monte_carlo_oracle_three_sigma():
    cfg = OscillatorConfig(D=3, Lambda=1, Omega=1)
    est = moment_oracle(cfg, monomial((2, 0, 0)), "monte-carlo", samples=200_000, seed=42)
    assert abs(est.value - 0.5) < 3 * est.error
    odd = moment_oracle(cfg, monomial((1, 0, 0)), "monte-carlo", samples=200_000, seed=43)
    assert abs(odd.value) < 3 * odd.error


def test_monte_carlo_deterministic_given_seed():
    a = moment_oracle(CFG2, monomial((2,)), "monte-carlo", samples=100_000, seed=9)
    b = moment_oracle(CFG2, monomial((2,)), "monte-carlo", samples=100_000, seed=9)
    assert a == b


def test_monte_carlo_works_for_d4():
    cfg = OscillatorConfig(D=4)
    est = moment_oracle(
        cfg, monomial((0,) * cfg.n_modes), "monte-carlo", samples=10_000, seed=1
    )
    assert est.value == pytest.approx(1.0)


@pytest.mark.parametrize("samples", [0, 1])
def test_monte_carlo_needs_two_samples(samples):
    # one sample has no standard error, zero samples no mean
    with pytest.raises(ValueError, match="samples >= 2"):
        moment_oracle(CFG2, monomial((2,)), "monte-carlo", samples=samples)


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
@pytest.mark.parametrize("f", [lambda th: th**2, lambda th: th[..., :1], lambda th: 1.0,
                               lambda th: th.sum()],
                         ids=["per-component", "trailing-axis", "scalar", "total"])
def test_moment_oracle_rejects_values_of_the_wrong_shape(method, f):
    # th**2 keeps the component axis; broadcast against the weights it would
    # give 276 +- 220 for <theta^2> = 0.5 at D = 2
    with pytest.raises(ValueError, match="shape"):
        moment_oracle(CFG2, f, method, samples=1000)


@pytest.mark.parametrize("exponents", [(-1,), (0.5,), (2.0,), (1, -2), ("2",)])
def test_monomial_rejects_exponents_that_are_not_non_negative_ints(exponents):
    with pytest.raises(ValueError, match="non-negative ints"):
        monomial(exponents)


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_moment_oracle_rejects_a_monomial_of_more_components_than_modes(method):
    cfg = OscillatorConfig(D=3)
    with pytest.raises(ValueError, match="reads 4 theta components"):
        moment_oracle(cfg, monomial((0, 0, 0, 2)), method, samples=1000)
    # trailing zero exponents read nothing
    assert monomial((0, 2, 0, 0, 0)).components == 2
    assert moment_oracle(cfg, monomial((0, 2, 0, 0, 0)), method, samples=1000).value > 0


# -- x^2 shift -----------------------------------------------------------------


def test_x2_expectation_reduces_when_theta2_vanishes():
    cfg = OscillatorConfig(D=3, Lambda=1e9, Omega=1e9)
    assert x2_expectation(cfg, 1.5, 1.5) == pytest.approx(1.5, abs=1e-12)


def test_x2_expectation_ground_state():
    # Ladder-operator values for the isotropic oscillator ground state,
    # m = omega = 1: <X^2> = D/2, <p^2> = D/2.
    cfg2 = OscillatorConfig(D=2, Lambda=1, Omega=1)
    # theta2 = 1/2, so the shift is (1/2)(1)/(2*2) = 1/8
    assert x2_expectation(cfg2, 1.0, 1.0) == pytest.approx(1.125)
    cfg3 = OscillatorConfig(D=3, Lambda=1, Omega=1)
    # theta2 = 3/2, so the shift is (3/2)(3/2)/(2*3) = 3/8
    assert x2_expectation(cfg3, 1.5, 1.5) == pytest.approx(1.875)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_x2_expectation_matches_sampled_x_equals_X_minus_half_theta_p(D):
    # x_i = X_i - (1/2) theta^{ij} p_j with X, p from the ground state of an
    # oscillator with m omega = 0.8 and theta from W (Lambda Omega = 0.6)
    cfg = OscillatorConfig(D=D, m=2.0, omega=0.4, Lambda=1.5, Omega=0.4)
    mw, n = 0.8, 200_000
    rng = np.random.default_rng(2024)
    X = rng.normal(0.0, math.sqrt(1 / (2 * mw)), (n, D))
    p = rng.normal(0.0, math.sqrt(mw / 2), (n, D))
    theta = np.zeros((n, D, D))
    comps = rng.normal(0.0, math.sqrt(1 / (2 * cfg.Lambda * cfg.Omega)), (n, cfg.n_modes))
    for c, (i, j) in enumerate(cfg.mode_pairs):
        theta[:, i - 1, j - 1] = comps[:, c]
        theta[:, j - 1, i - 1] = -comps[:, c]
    x = X - 0.5 * np.einsum("nij,nj->ni", theta, p)
    x2 = (x * x).sum(axis=1)
    want = x2_expectation(cfg, D / (2 * mw), D * mw / 2)
    assert abs(x2.mean() - want) <= 4 * x2.std() / math.sqrt(n)


def test_x2_expectation_never_below_X2():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X2, p2 = rng.uniform(0, 5, 2)
        cfg = OscillatorConfig(D=3, Lambda=rng.uniform(0.1, 3), Omega=rng.uniform(0.1, 3))
        assert x2_expectation(cfg, X2, p2) >= X2
