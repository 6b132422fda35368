"""Lattice scalar field, Green's functions, charges, Moyal product."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dfra.field import (
    Charges,
    ExtendedMomentum,
    IllConditionedWarning,
    LatticeField,
    PoleError,
    SourceTerm,
    TachyonicModeError,
    discrete_mode_initial,
    dispersion,
    evolve_leapfrog,
    greens_solve,
    kg_apply,
    kg_symbol,
    max_stable_dt,
    moyal_star,
    noether_charges,
    plane_wave_mode,
    propagator,
    scalar_action_density,
    star_commutator,
    supplementary_residual,
)
from dfra.symcore import Expression, GaussRat, Generator, UnknownGeneratorError


def _k2_spatial(kappa: float) -> np.ndarray:
    k2 = np.zeros((4, 4))
    k2[1, 2], k2[2, 1] = kappa, -kappa
    return k2


# -- dispersion ----------------------------------------------------------------


def test_dispersion_rest_mass():
    assert dispersion([0, 0, 0], np.zeros((4, 4)), 1.0, 2.5) == pytest.approx(2.5)


def test_dispersion_closed_form_example():
    # |k1|^2 = 3, (lam^2/2) K2.K2 = 1, m^2 = 5 -> omega = 3
    w = dispersion([1.0, 1.0, 1.0], _k2_spatial(1.0), 1.0, math.sqrt(5.0))
    assert w == pytest.approx(3.0)


def test_dispersion_even_in_momenta():
    k2 = _k2_spatial(0.7)
    a = dispersion([0.3, -0.2, 0.5], k2, 1.3, 1.0)
    b = dispersion([-0.3, 0.2, -0.5], -k2, 1.3, 1.0)
    assert a == pytest.approx(b)


def test_dispersion_tachyonic_error():
    k2 = np.zeros((4, 4))
    k2[0, 1], k2[1, 0] = 3.0, -3.0  # time-space component: negative K2.K2
    with pytest.raises(TachyonicModeError):
        dispersion([0, 0, 0], k2, 1.0, 0.1)


# -- propagator ----------------------------------------------------------------


def test_propagator_zero_momentum():
    K = ExtendedMomentum(np.zeros(4), np.zeros((4, 4)), 1.0)
    assert propagator(K, 2.0) == pytest.approx(-0.25)


def test_propagator_poles_at_dispersion_frequency():
    from scipy.optimize import brentq

    lam, m = 0.8, 1.2
    kvec = np.array([0.4, 0.0, 0.0])
    k2 = _k2_spatial(0.6)
    w = dispersion(kvec, k2, lam, m)

    def inv_g(k0):
        K = ExtendedMomentum(np.array([k0, *kvec]), k2, lam)
        return K.squared() + m**2

    for sign in (+1, -1):
        root = brentq(inv_g, sign * w - 0.5, sign * w + 0.5)
        assert root == pytest.approx(sign * w, abs=1e-12)
    with pytest.raises(PoleError):
        propagator(ExtendedMomentum(np.array([w, *kvec]), k2, lam), m)
    val = propagator(ExtendedMomentum(np.array([w, *kvec]), k2, lam), m, eps=1e-3)
    assert abs(val) == pytest.approx(1e3, rel=1e-6)


def test_propagator_even_in_theta_momentum():
    k1 = np.array([0.2, 0.1, 0.0, 0.3])
    K = ExtendedMomentum(k1, _k2_spatial(0.4), 1.1)
    K_flip = ExtendedMomentum(k1, -_k2_spatial(0.4), 1.1)
    assert propagator(K, 1.0) == propagator(K_flip, 1.0)


def _one_entry_set(value, bad):
    """value with one entry, or one antisymmetric pair of entries, set to bad."""
    if np.ndim(value) == 0:
        return bad
    value = np.array(value, dtype=float)
    if value.ndim == 2:
        value[1, 2], value[2, 1] = bad, -bad
    else:
        value[-1] = bad
    return value


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["kvec1", "k2", "lam", "m"])
def test_dispersion_inputs_must_be_finite(name, bad):
    # a NaN lam or m gave omega = nan, and an infinite m gave omega = inf
    args = {"kvec1": [0.4, 0.0, 0.3], "k2": _k2_spatial(0.5), "lam": 1.0, "m": 1.0}
    args[name] = _one_entry_set(args[name], bad)
    with pytest.raises(ValueError, match=f"must be finite, got {name} = "):
        dispersion(**args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["k1", "k2", "lam"])
def test_extended_momentum_inputs_must_be_finite(name, bad):
    # a NaN lam gave K^2 = nan
    args = {"k1": [2.0, 0.4, 0.0, 0.3], "k2": _k2_spatial(0.5), "lam": 1.0}
    args[name] = _one_entry_set(args[name], bad)
    with pytest.raises(ValueError, match=f"must be finite, got {name} = "):
        ExtendedMomentum(**args)


@pytest.mark.parametrize("name, bad", [
    *((name, bad) for name in ("m", "eps") for bad in (np.nan, np.inf, -np.inf)),
    ("eps", -1.0), ("eps", -1e-300),
])
def test_propagator_inputs_must_be_finite(name, bad):
    # a NaN m gave G = nan+nanj, and a negative eps the advanced prescription
    # (0.3+0.1j at eps = -1 here, against 0.3-0.1j at eps = 1)
    K = ExtendedMomentum([2.0, 0.0, 0.0, 0.0], np.zeros((4, 4)), 1.0)
    args = {"m": 1.0, "eps": 0.0, name: bad}
    with pytest.raises(ValueError, match=f"must be (finite|>= 0), got {name} = "):
        propagator(K, **args)


# -- lattice wave operator -------------------------------------------------------


def _plane_wave(n, lam=1.0, m=1.0, cycles=(1, 1)):
    # one full period in each direction; time span fixed independent of n
    dx = 2.0 * np.pi / n
    dtheta = 2.0 * np.pi / n
    dt = 1.0 / n
    return plane_wave_mode((n, n, n), dt, dx, dtheta, lam, m,
                           n_x=cycles[0], n_theta=cycles[1])


def test_kg_constant_field():
    shape = (6, 6, 6)
    zero_m = LatticeField(np.full(shape, 2.0 + 0j), 0.1, 0.2, 0.2, 1.0, 0.0)
    assert np.allclose(kg_apply(zero_m), 0.0)
    with_m = LatticeField(np.full(shape, 2.0 + 0j), 0.1, 0.2, 0.2, 1.0, 1.5)
    assert np.allclose(kg_apply(with_m), -1.5**2 * 2.0)


def test_kg_plane_wave_residual_second_order():
    lam, m = 0.9, 1.1
    residuals = []
    sizes = (12, 24, 48)
    for n in sizes:
        f = _plane_wave(n, lam, m)
        residuals.append(float(np.abs(kg_apply(f)).max()))
    slopes = [
        math.log2(residuals[i] / residuals[i + 1]) for i in range(len(sizes) - 1)
    ]
    for s in slopes:
        assert abs(s - 2.0) <= 0.1, (residuals, slopes)


def test_lattice_field_validation():
    with pytest.raises(ValueError):
        LatticeField(np.zeros((4, 8, 8)), 0.1, 0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        LatticeField(np.zeros((8, 8)), 0.1, 0.1, 0.1, 1.0, 1.0)
    # 2 / sqrt(4 / 0.5^2 + 4 * 2^2 / 0.5^2 + 1^2) = 2 / sqrt(81)
    assert max_stable_dt(0.5, 0.5, 2.0, 1.0) == pytest.approx(2.0 / 9.0)


# -- Green's function solve -------------------------------------------------------


def _point_source(shape, dt, dx, dtheta, lam, m):
    J = np.zeros(shape, dtype=complex)
    J[shape[0] // 3, shape[1] // 2, shape[2] // 2] = 1.0
    return SourceTerm(J, dt, dx, dtheta, lam, m)


def test_greens_zero_source():
    src = SourceTerm(np.zeros((8, 8, 8)), 0.1, 0.3, 0.3, 1.0, 1.0)
    phi = greens_solve(src)
    assert np.allclose(phi.values, 0.0)


def test_greens_point_source_residual():
    shape = (24, 16, 16)
    dt, dx, dtheta, lam, m = 0.11, 0.37, 0.41, 0.9, 1.3
    src = _point_source(shape, dt, dx, dtheta, lam, m)
    phi = greens_solve(src)
    residual = kg_apply(phi) - src.values[1:-1, 1:-1, 1:-1]
    rel = np.abs(residual).max() / np.abs(src.values).max()
    assert rel < 1e-6


def test_greens_linearity():
    shape = (12, 10, 10)
    dt, dx, dtheta, lam, m = 0.1, 0.3, 0.3, 1.0, 1.0
    rng = np.random.default_rng(3)
    J1 = np.zeros(shape, dtype=complex)
    J2 = np.zeros(shape, dtype=complex)
    J1[2:-2, 2:-2, 2:-2] = rng.normal(size=(8, 6, 6))
    J2[2:-2, 2:-2, 2:-2] = rng.normal(size=(8, 6, 6))
    a, b = 2.0 - 1.0j, 0.5 + 3.0j
    phi1 = greens_solve(SourceTerm(J1, dt, dx, dtheta, lam, m)).values
    phi2 = greens_solve(SourceTerm(J2, dt, dx, dtheta, lam, m)).values
    phi = greens_solve(SourceTerm(a * J1 + b * J2, dt, dx, dtheta, lam, m)).values
    assert np.allclose(phi, a * phi1 + b * phi2, atol=1e-12)


def test_greens_resonant_mode_warns():
    # m = 0 makes the zero mode exactly singular
    shape = (8, 8, 8)
    src = _point_source(shape, 0.1, 0.3, 0.3, 1.0, 0.0)
    with pytest.warns(IllConditionedWarning):
        greens_solve(src)


def test_greens_retarded_epsilon_selects_causal_response():
    # with a finite pole shift the response at equal time offsets from the
    # source is biased toward times after it
    shape = (64, 12, 12)
    dt, dx, dq, lam, m = 0.15, 0.5, 0.5, 1.0, 1.0
    J = np.zeros(shape, dtype=complex)
    t0 = 32
    J[t0, 6, 6] = 1.0
    src = SourceTerm(J, dt, dx, dq, lam, m)
    phi = greens_solve(src, eps=0.3)
    mag = np.abs(phi.values).sum(axis=(1, 2))
    k = 8
    assert mag[t0 + k] > 1.5 * mag[t0 - k]


def test_source_must_be_compactly_supported():
    J = np.ones((8, 8, 8), dtype=complex)
    with pytest.raises(ValueError):
        SourceTerm(J, 0.1, 0.3, 0.3, 1.0, 1.0)


def test_source_is_a_lattice_field():
    # the grid and spacing checks of LatticeField hold for a source too
    with pytest.raises(ValueError, match="grid sizes"):
        SourceTerm(np.zeros((4, 8, 8)), 0.1, 0.3, 0.3, 1.0, 1.0)
    with pytest.raises(ValueError, match="spacings"):
        SourceTerm(np.zeros((8, 8, 8)), 0.1, -0.3, 0.3, 1.0, 1.0)


def test_symbol_is_inverse_propagator_at_effective_momenta():
    # exact identity once momenta are read off the stencil: (2/h) sin(pi j/n)
    shape, dt, dx, dtheta, lam, m = (16, 12, 10), 0.05, 0.2, 0.25, 0.8, 1.2
    sym = kg_symbol(shape, dt, dx, dtheta, lam, m)
    for j in [(0, 1, 0), (1, 0, 1), (2, 1, 1), (5, 3, 4)]:
        w_eff = 2.0 / dt * math.sin(math.pi * j[0] / shape[0])
        kx_eff = 2.0 / dx * math.sin(math.pi * j[1] / shape[1])
        kq_eff = 2.0 / dtheta * math.sin(math.pi * j[2] / shape[2])
        K = ExtendedMomentum(
            np.array([-w_eff, kx_eff, 0.0, 0.0]), _k2_spatial(kq_eff), lam
        )
        assert sym[j] == pytest.approx((1.0 / propagator(K, m)).real, abs=1e-10)


def test_symbol_converges_to_inverse_propagator():
    # at fixed physical momentum the mismatch shrinks at second order
    lam, m = 0.8, 1.2
    w, kx, kq = 1.0, 0.75, 0.5
    K = ExtendedMomentum(np.array([-w, kx, 0.0, 0.0]), _k2_spatial(kq), lam)
    target = (1.0 / propagator(K, m)).real

    def mismatch(n):
        dt = 2.0 * np.pi / (n * w) if w else 0.1
        dx = 2.0 * np.pi / (n * kx)
        dtheta = 2.0 * np.pi / (n * kq)
        sym = kg_symbol((n, n, n), dt, dx, dtheta, lam, m)
        return abs(sym[1, 1, 1] - target)

    e1, e2 = mismatch(16), mismatch(32)
    assert e2 < e1 / 3.0


# -- conservation -----------------------------------------------------------------


def test_free_evolution_conserves_charges_plane_wave():
    from dfra.field import discrete_mode_initial

    n, nq = 32, 16
    dx = 2.0 * np.pi / n
    dtheta = 2.0 * np.pi / nq
    lam, m = 1.0, 1.0
    dt = 0.5 * max_stable_dt(dx, dtheta, lam, m)
    phi0, phidot0, _ = discrete_mode_initial((n, nq), dt, dx, dtheta, lam, m)
    *_, series = evolve_leapfrog(
        phi0, phidot0, 1000, dt, dx, dtheta, lam, m, record_every=100
    )
    first = series[0][2]
    assert first.P0 > 0
    for _, _, ch in series[1:]:
        for name in Charges._fields:
            ref = getattr(first, name)
            scale = max(abs(ref), first.P0)
            assert abs(getattr(ch, name) - ref) / scale < 1e-6, name


def test_free_evolution_generic_data_no_secular_drift():
    # standing-wave superpositions sample both leapfrog branches, so the
    # midpoint-sampled energy oscillates at the discretization order; the
    # symplectic flow keeps it bounded (no growth) and halving the mesh
    # shrinks the oscillation about fourfold
    rng = np.random.default_rng(12)
    lam, m = 1.0, 0.5
    L_x, L_q = 6.4, 3.2

    def oscillation(refine: int):
        nx, nq = 16 * refine, 8 * refine
        dx, dtheta = L_x / nx, L_q / nq
        dt = 0.2 * max_stable_dt(dx, dtheta, lam, m)
        x = np.arange(nx).reshape(nx, 1)
        q = np.arange(nq).reshape(1, nq)
        phi0 = np.zeros((nx, nq), dtype=complex)
        for k, (jx, jq) in enumerate(((0, 1), (1, 0), (1, 1))):
            amp = [0.9 - 0.4j, -0.6 + 1.1j, 0.45 + 0.2j][k]
            phi0 += amp * np.exp(2j * np.pi * (jx * x / nx + jq * q / nq))
        *_, series = evolve_leapfrog(
            phi0, np.zeros_like(phi0), 1500 * refine, dt, dx, dtheta,
            lam, m, record_every=10,
        )
        p0 = np.array([ch.P0 for _, _, ch in series])
        assert p0.min() > 0
        half = len(p0) // 2
        span_first = np.max(p0[:half]) - np.min(p0[:half])
        span_second = np.max(p0[half:]) - np.min(p0[half:])
        assert span_second < 1.5 * span_first + 1e-12  # bounded, no growth
        return (np.max(p0) - np.min(p0)) / p0[0]

    o1, o2 = oscillation(1), oscillation(2)
    assert o2 < o1 / 3.0


def test_evolution_rejects_unstable_dt():
    with pytest.raises(ValueError):
        evolve_leapfrog(
            np.zeros((8, 8)), np.zeros((8, 8)), 10,
            dt=1.0, dx=0.1, dtheta=0.1, lam=1.0, m=1.0,
        )


@pytest.mark.parametrize("phi, phidot", [
    (np.zeros((8, 6)), np.zeros(6)),  # would broadcast over the rows
    (np.zeros(8), np.zeros(8)),  # not an (x, theta) slice
    (np.zeros((8, 6)), np.zeros((6, 8))),
], ids=["phidot-one-row", "one-dimensional", "transposed-phidot"])
def test_evolution_rejects_slices_of_other_shapes(phi, phidot):
    dt = 0.5 * max_stable_dt(0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        evolve_leapfrog(phi, phidot, 10, dt=dt, dx=0.1, dtheta=0.1, lam=1.0, m=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("which", ["phi", "phidot"])
def test_evolution_rejects_non_finite_slices(which, bad):
    # a transform would spread one NaN over the whole grid at once
    slices = {"phi": np.zeros((8, 6), dtype=complex), "phidot": np.zeros((8, 6), dtype=complex)}
    slices[which][3, 2] = bad
    dt = 0.5 * max_stable_dt(0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        evolve_leapfrog(slices["phi"], slices["phidot"], 10,
                        dt=dt, dx=0.1, dtheta=0.1, lam=1.0, m=1.0)


def test_evolution_rejects_fewer_than_one_step():
    dt = 0.5 * max_stable_dt(0.1, 0.1, 1.0, 1.0)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps"):
            evolve_leapfrog(
                np.zeros((8, 8)), np.zeros((8, 8)), steps,
                dt=dt, dx=0.1, dtheta=0.1, lam=1.0, m=1.0,
            )


# each entry point with the spacings it takes
_SPACING_CALLS = {
    "LatticeField": (
        lambda h: LatticeField(np.zeros((5, 5, 5)), h["dt"], h["dx"], h["dtheta"], 1.0, 1.0),
        ("dt", "dx", "dtheta")),
    "evolve_leapfrog": (
        lambda h: evolve_leapfrog(np.zeros((8, 6)), np.zeros((8, 6)), 3, **h, lam=1.0, m=1.0),
        ("dt", "dx", "dtheta")),
    "discrete_mode_initial": (
        lambda h: discrete_mode_initial((8, 6), **h, lam=1.0, m=1.0),
        ("dt", "dx", "dtheta")),
    "kg_symbol": (
        lambda h: kg_symbol((8, 8, 8), **h, lam=1.0, m=1.0),
        ("dt", "dx", "dtheta")),
    "max_stable_dt": (
        lambda h: max_stable_dt(h["dx"], h["dtheta"], 1.0, 1.0),
        ("dx", "dtheta")),
    "plane_wave_mode": (
        lambda h: plane_wave_mode((8, 8, 8), **h, lam=1.0, m=1.0),
        ("dt", "dx", "dtheta")),
    "noether_charges": (
        lambda h: noether_charges(np.ones((8, 6)), np.ones((8, 6)), **h, lam=1.0, m=1.0),
        ("dt", "dx", "dtheta")),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 0.0])
@pytest.mark.parametrize("call, name", [
    pytest.param(call, name, id=f"{label}-{name}")
    for label, (call, names) in _SPACING_CALLS.items() for name in names
])
def test_spacings_and_dt_must_be_finite_and_positive(call, name, bad):
    # min() drops a NaN, and a negative dt passes the stability bound
    spacings = {"dt": 0.01, "dx": 0.1, "dtheta": 0.1, name: bad}
    with pytest.raises(ValueError, match=re.escape(f"{name} = {bad}")):
        call(spacings)


# each entry point that takes lam and m, at finite positive spacings
_COUPLING_CALLS = {
    "LatticeField": lambda c: LatticeField(np.zeros((5, 5, 5)), 0.01, 0.1, 0.1, **c),
    "SourceTerm": lambda c: SourceTerm(np.zeros((5, 5, 5)), 0.01, 0.1, 0.1, **c),
    "evolve_leapfrog": lambda c: evolve_leapfrog(np.zeros((8, 6)), np.zeros((8, 6)), 3,
                                                 0.01, 0.1, 0.1, **c),
    "discrete_mode_initial": lambda c: discrete_mode_initial((8, 6), 0.01, 0.1, 0.1, **c),
    "kg_symbol": lambda c: kg_symbol((8, 8, 8), 0.01, 0.1, 0.1, **c),
    "max_stable_dt": lambda c: max_stable_dt(0.1, 0.1, **c),
    "plane_wave_mode": lambda c: plane_wave_mode((8, 8, 8), 0.01, 0.1, 0.1, **c),
    "noether_charges": lambda c: noether_charges(np.ones((8, 6)), np.ones((8, 6)),
                                                 0.01, 0.1, 0.1, **c),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["lam", "m"])
@pytest.mark.parametrize("call", list(_COUPLING_CALLS.values()), ids=list(_COUPLING_CALLS))
def test_lam_and_m_must_be_finite(call, name, bad):
    # a NaN lam passes the stability bound (dt > nan is False) and turns
    # every slice, charge and Green's field NaN
    couplings = {"lam": 1.0, "m": 1.0, name: bad}
    with pytest.raises(ValueError, match=re.escape(f"{name} = {bad}")):
        call(couplings)


def test_negative_lam_and_m_are_finite_couplings():
    # both enter only squared
    f = plane_wave_mode((8, 8, 8), 0.01, 0.1, 0.1, lam=-1.5, m=-0.5)
    assert (f.lam, f.m) == (-1.5, -0.5)


def _lattice_mode_frequency(k, kappa, dt, dx, dtheta, lam, m):
    # the leapfrog branch frequency from sin(k h / 2) at the mode's own
    # momenta, independent of the symbol's axis factors
    wh2 = (
        (2.0 / dx * np.sin(0.5 * k * dx)) ** 2
        + lam**2 * (2.0 / dtheta * np.sin(0.5 * kappa * dtheta)) ** 2
        + m**2
    )
    return float(np.arccos(1.0 - 0.5 * dt**2 * wh2) / dt)


def _mode_frequencies(nx, nq, dx, dtheta, lam, m, modes):
    """(w of discrete_mode_initial, w of the momenta formula) per mode."""
    dt = 0.5 * max_stable_dt(dx, dtheta, lam, m)
    for n_x, n_theta in modes:
        w = discrete_mode_initial((nx, nq), dt, dx, dtheta, lam, m, n_x, n_theta)[2]
        k = 2.0 * np.pi * n_x / (nx * dx)
        kappa = 2.0 * np.pi * n_theta / (nq * dtheta)
        yield w, _lattice_mode_frequency(k, kappa, dt, dx, dtheta, lam, m)


@pytest.mark.parametrize("lam, m", [(1.0, 1.0), (2.0, 0.5), (0.7, 0.0)])
@pytest.mark.parametrize("n", [8, 32, 64])
def test_mode_frequency_is_exact_on_power_of_two_periodic_grids(n, lam, m):
    # with h = 2 pi / N and N a power of two, 0.5 k h equals pi n / N bit
    # for bit, so the symbol's entry is the momenta formula's sum at the
    # folded mode min(n, N - n), where the symbol's axes are computed
    nq = n // 2
    dx, dtheta = 2 * np.pi / n, 2 * np.pi / nq
    modes = [(a, b) for a in range(n) for b in range(nq)]
    folded = [(min(a, n - a), min(b, nq - b)) for a, b in modes]
    got = [w for w, _ in _mode_frequencies(n, nq, dx, dtheta, lam, m, modes)]
    want = [ref for _, ref in _mode_frequencies(n, nq, dx, dtheta, lam, m, folded)]
    assert got == want


@pytest.mark.parametrize("shape", [(12, 12, 12), (9, 7, 12), (16, 128, 5)])
def test_kg_symbol_equals_its_mirror_bit_for_bit(shape):
    # the symbol at -K is the symbol at K, so the regularized one is Hermitian
    sym = kg_symbol(shape, 0.05, 0.2, 0.25, 0.7, 0.3)
    mirror = sym[np.ix_(*(-np.arange(n) % n for n in shape))]
    assert np.array_equal(sym, mirror)


@pytest.mark.parametrize("lam, m", [(1.0, 1.0), (2.0, 0.5), (0.7, 0.0)])
@pytest.mark.parametrize("nx, nq, dx, dtheta", [
    (32, 16, 2 * np.pi / 32, 2 * np.pi / 16),
    (31, 17, 0.3, 0.45),
    (24, 10, 0.2, 0.25),
    (33, 12, 2 * np.pi / 33, 2 * np.pi / 12),
], ids=["2pi-over-N-power-of-two", "odd", "even", "2pi-over-N-odd"])
def test_mode_frequency_matches_the_momenta_formula(nx, nq, dx, dtheta, lam, m):
    # negative and aliased modes (n >= N) read the entry n % N
    modes = [(1, 1), (3, 2), (nx // 2, nq - 1), (-2, 1),
             (nx + 2, 2 * nq + 1), (5 * nx - 1, -3 * nq + 2)]
    for w, ref in _mode_frequencies(nx, nq, dx, dtheta, lam, m, modes):
        # 0.5 k h and pi j / N may round apart here, and arccos magnifies a
        # last-bit change of cos(w dt) by 1 / sin(w dt)
        assert w == pytest.approx(ref, rel=1e-13)


def test_plane_wave_charge_values():
    # Q = -sign(omega) 2 omega |A|^2 V up to O((omega dt)^2)
    n, nq = 24, 12
    dx = 2.0 * np.pi / n
    dtheta = 2.0 * np.pi / nq
    lam, m, amp = 1.0, 1.0, 1.4
    dt = 0.02
    V = n * dx * nq * dtheta
    for sign in (+1, -1):
        f = plane_wave_mode((8, n, nq), dt, dx, dtheta, lam, m,
                            amplitude=amp, frequency_sign=sign)
        k = 2.0 * np.pi / (n * dx)
        kappa = 2.0 * np.pi / (nq * dtheta)
        w = dispersion([k, 0, 0], _k2_spatial(kappa), lam, m)
        ch = noether_charges(f.values[0], f.values[1], dt, dx, dtheta, lam, m)
        expected = -sign * 2.0 * w * amp**2 * V
        assert ch.Q == pytest.approx(expected, rel=(w * dt) ** 2)
        assert np.sign(ch.Q) == -sign


def test_static_real_field_has_zero_charge():
    phi = np.full((8, 8), 1.7 + 0j)
    ch = noether_charges(phi, phi, 0.1, 0.2, 0.2, 1.0, 1.0)
    assert ch.Q == 0.0
    assert ch.P0 > 0


def test_energy_nonnegative_for_random_fields():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        b = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        ch = noether_charges(a, b, 0.05, 0.3, 0.3, 1.2, 0.8)
        assert ch.P0 >= 0.0


def test_measured_frequency_matches_dispersion():
    lam, m = 1.0, 1.2

    def freq_error(n):
        dx = 2.0 * np.pi / n
        dtheta = 2.0 * np.pi / n
        dt = 0.4 * max_stable_dt(dx, dtheta, lam, m)
        k = 1.0
        kappa = 1.0
        w = dispersion([k, 0, 0], _k2_spatial(kappa), lam, m)
        x = dx * np.arange(n).reshape(n, 1)
        q = dtheta * np.arange(n).reshape(1, n)
        phi0 = np.exp(1j * (k * x + kappa * q))
        phid = -1j * w * phi0
        # the probe point of the last slice after each step count of a ladder;
        # w dt is under 0.3 here, so 4 steps turn the phase by less than pi
        ladder = np.arange(1, 401, 4)
        probe = [evolve_leapfrog(phi0, phid, int(steps), dt, dx, dtheta, lam, m,
                                 record_every=0)[1][0, 0] for steps in ladder]
        # the phase of exp(-i w t) falls linearly in t
        phase = np.unwrap(np.angle(probe))
        w_meas = -np.polyfit(dt * ladder, phase, 1)[0]
        return abs(w_meas - w)

    e1, e2 = freq_error(12), freq_error(24)
    assert e2 < e1 / 3.0


# -- action density ---------------------------------------------------------------


def test_action_density_constant_field():
    f = LatticeField(np.full((6, 6, 6), 3.0 + 0j), 0.1, 0.1, 0.1, 1.0, 2.0)
    assert np.allclose(scalar_action_density(f), 0.5 * 4.0 * 9.0)


def test_action_density_lambda_zero_is_ordinary_kg():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(7, 7, 7))
    f0 = LatticeField(vals, 0.1, 0.1, 0.1, 0.0, 1.0)
    dens = scalar_action_density(f0)
    c = vals[1:-1, 1:-1, 1:-1]
    dt_ = (vals[2:, 1:-1, 1:-1] - vals[:-2, 1:-1, 1:-1]) / 0.2
    dx_ = (vals[1:-1, 2:, 1:-1] - vals[1:-1, :-2, 1:-1]) / 0.2
    assert np.allclose(dens, 0.5 * (-(dt_**2) + dx_**2 + c**2))


def test_action_gradient_matches_kg_apply_second_order():
    lam, m = 0.8, 1.1

    def gradient_error(n):
        L = 2.0 * np.pi
        h = L / n
        t = (h * np.arange(n)).reshape(n, 1, 1)
        x = (h * np.arange(n)).reshape(1, n, 1)
        q = (h * np.arange(n)).reshape(1, 1, n)
        vals = (
            np.sin(t + 0.3) * np.cos(x - 0.7)
            + 0.6 * np.cos(2.0 * q + 0.4) * np.sin(x + 0.2)
            + 0.25 * np.sin(t - 0.5) * np.cos(q)
        )
        f = LatticeField(vals.astype(complex), h, h, h, lam, m)
        dV = h**3

        def action(values):
            g = LatticeField(values, h, h, h, lam, m)
            return float(scalar_action_density(g).sum()) * dV

        p = (n // 2 + 1, n // 3, n // 4)
        eps = 1e-5
        bumped_p, bumped_m = vals.copy(), vals.copy()
        bumped_p[p] += eps
        bumped_m[p] -= eps
        num = (action(bumped_p.astype(complex)) - action(bumped_m.astype(complex))) / (
            2 * eps
        )
        analytic = -kg_apply(f)[p[0] - 1, p[1] - 1, p[2] - 1].real * dV
        assert abs(analytic) / dV > 0.05  # non-degenerate sample point
        return abs(num - analytic) / dV

    e1, e2 = gradient_error(12), gradient_error(24)
    assert e2 < e1 / 3.0


def test_supplementary_condition_residual():
    f = LatticeField(np.full((6, 6, 6), 2.0 + 0j), 0.1, 0.1, 0.1, 1.0, 1.0)
    assert np.allclose(supplementary_residual(f, 0.7), -0.7 * 2.0)


# -- Moyal star product ---------------------------------------------------------------


def _theta2(val) -> list[list[Fraction]]:
    v = Fraction(val)
    return [[Fraction(0), v], [-v, Fraction(0)]]


def _poly(n, terms) -> Expression:
    """sum of coeff * x[1]^e1 ... x[n]^en over the exponent tuples in terms."""
    out = {}
    for exps, coeff in terms.items():
        assert len(exps) == n
        out[sum(((Generator("x", (k + 1,)),) * e for k, e in enumerate(exps)), ())] = coeff
    return Expression(out)


def test_star_coordinate_commutator_exact():
    x1 = _poly(2, {(1, 0): 1})
    x2 = _poly(2, {(0, 1): 1})
    theta = _theta2(Fraction(3, 7))
    for order in (1, 2, 6):
        comm = star_commutator(x1, x2, theta, order)
        assert comm == _poly(2, {(0, 0): GaussRat(0, Fraction(3, 7))})


def test_star_with_unit():
    one = _poly(2, {(0, 0): 1})
    f = _poly(2, {(2, 1): Fraction(5, 3), (0, 0): 2})
    assert moyal_star(f, one, _theta2(1), 4) == f
    assert moyal_star(one, f, _theta2(1), 4) == f


def test_star_hand_expansion_squares():
    # x1^2 * x2^2 = x1^2 x2^2 + 2 i th x1 x2 - th^2 / 2
    th = Fraction(1, 2)
    f = _poly(2, {(2, 0): 1})
    g = _poly(2, {(0, 2): 1})
    got = moyal_star(f, g, _theta2(th), 2)
    expect = _poly(
        2,
        {
            (2, 2): GaussRat(1),
            (1, 1): GaussRat(0, 2 * th),
            (0, 0): GaussRat(-th * th * Fraction(1, 2)),
        },
    )
    assert got == expect


def test_star_monomials_closed_form():
    # x1^a * x2^b = sum_k (i t/2)^k / k! a!/(a-k)! b!/(b-k)! x1^(a-k) x2^(b-k),
    # and x2^b * x1^a is the same sum at -t
    t = Fraction(3, 5)

    def closed_form(a, b, sign):
        terms = {}
        for k in range(min(a, b) + 1):
            c = GaussRat(Fraction(math.perm(a, k) * math.perm(b, k), math.factorial(k)))
            for _ in range(k):
                c = c * GaussRat(0, sign * t / 2)
            terms[(a - k, b - k)] = c
        return _poly(2, terms)

    for a in range(5):
        for b in range(5):
            f, g = _poly(2, {(a, 0): 1}), _poly(2, {(0, b): 1})
            order = max(a, b, 1)
            assert moyal_star(f, g, _theta2(t), order) == closed_form(a, b, 1), (a, b)
            assert moyal_star(g, f, _theta2(t), order) == closed_form(a, b, -1), (a, b)


def _random_poly(rng, n_coords=2, deg=3) -> Expression:
    terms = {}
    for _ in range(rng.randint(2, 5)):
        while True:
            exps = tuple(rng.randint(0, deg) for _ in range(n_coords))
            if sum(exps) <= deg:
                break
        terms[exps] = GaussRat(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
    return _poly(n_coords, terms)


def test_star_associativity_exact():
    import random

    rng = random.Random(314)
    theta = _theta2(Fraction(2, 5))
    for _ in range(15):
        f, g, h = (_random_poly(rng) for _ in range(3))
        lhs = moyal_star(moyal_star(f, g, theta, 6), h, theta, 6)
        rhs = moyal_star(f, moyal_star(g, h, theta, 6), theta, 6)
        assert lhs == rhs


def test_star_four_coordinates():
    # generic antisymmetric theta over four coordinates
    theta = [[Fraction(0)] * 4 for _ in range(4)]
    vals = {(0, 1): Fraction(1, 2), (0, 2): Fraction(-1, 3), (1, 3): Fraction(2, 7),
            (2, 3): Fraction(1, 5), (0, 3): Fraction(0), (1, 2): Fraction(3, 4)}
    for (i, j), v in vals.items():
        theta[i][j] = v
        theta[j][i] = -v
    for i in range(4):
        for j in range(4):
            xi = _poly(4, {tuple(int(k == i) for k in range(4)): 1})
            xj = _poly(4, {tuple(int(k == j) for k in range(4)): 1})
            comm = star_commutator(xi, xj, theta, 3)
            expect = _poly(4, {(0, 0, 0, 0): GaussRat(0, theta[i][j])})
            if theta[i][j] == 0:
                assert comm.is_zero()
            else:
                assert comm == expect


def test_star_order_validation():
    with pytest.raises(ValueError):
        moyal_star(_poly(2, {(0, 0): 1}), _poly(2, {(0, 0): 1}), _theta2(1), 0)
    with pytest.raises(ValueError):
        moyal_star(_poly(2, {(0, 0): 1}), _poly(2, {(0, 0): 1}), [[0, 1], [1, 0]], 2)


def test_star_rejects_a_coordinate_theta_does_not_cover():
    # a 2x2 theta covers x[1], x[2]; x[3] used to be dropped from the product
    x1 = _poly(2, {(1, 0): 1})
    x3 = _poly(3, {(0, 0, 1): 1})
    for f, g in ((x1, x3), (x3, x1)):
        with pytest.raises(UnknownGeneratorError):
            moyal_star(f, g, _theta2(1), 2)


def test_star_rejects_a_momentum():
    x1 = _poly(2, {(1, 0): 1})
    p1 = Expression.generator(Generator("p", (1,)))
    with pytest.raises(UnknownGeneratorError):
        moyal_star(x1, x1 * p1, _theta2(1), 2)
    with pytest.raises(UnknownGeneratorError):
        star_commutator(p1, x1, _theta2(1), 2)
    with pytest.raises(UnknownGeneratorError):  # even when the product is zero
        moyal_star(p1, Expression.zero(), _theta2(1), 2)
