"""Every lean numeric kernel equals its textbook definition.

The references below are the straightforward formulas: the np.roll leapfrog
stepper, the full-grid Green's solve with one complex regularized symbol,
the three-derivative stencil of kg_apply, and the serial Monte Carlo fold.
The Green's solve, the stencils and the Monte Carlo fold reorganize memory
(preallocated buffers, time slices, worker threads) but keep each
floating-point operation and its order, so those comparisons are exact.
numpy's complex / real divides as a product with the reciprocal, which the
kernels write out; that can flip only the sign of an exact zero, so arrays
are compared with IEEE equality (-0.0 == 0.0).

kg_apply's stencil is now that formula itself, with one shared 2c and its
terms summed into one array.  reference_kg_apply stays as its pin: a rewrite
that changes the rounding order, say by folding lam^2 / dtheta^2 into one
constant, fails the exact comparison.

The leapfrog is the one exception: it steps the same linear recurrence in
the lattice's Fourier basis, so it agrees with the roll stepper only up to
rounding, and is compared within a bound stated in its tests.
"""
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfra import field, oscillator
from dfra.field import IllConditionedWarning, LatticeField, SourceTerm

# -- references ----------------------------------------------------------------


def reference_kg_apply(f):
    v = f.values
    c = v[1:-1, 1:-1, 1:-1]
    dtt = (v[2:, 1:-1, 1:-1] - 2 * c + v[:-2, 1:-1, 1:-1]) / f.dt**2
    dxx = (v[1:-1, 2:, 1:-1] - 2 * c + v[1:-1, :-2, 1:-1]) / f.dx**2
    dqq = (v[1:-1, 1:-1, 2:] - 2 * c + v[1:-1, 1:-1, :-2]) / f.dtheta**2
    return -dtt + dxx + f.lam**2 * dqq - f.m**2 * c


def reference_greens_solve(src, eps):
    symbol = field.kg_symbol(src.values.shape, src.dt, src.dx, src.dtheta, src.lam, src.m)
    w_signed = 2.0 * np.pi * np.fft.fftfreq(src.values.shape[0], src.dt)
    reg = symbol - 1j * eps * w_signed.reshape(-1, 1, 1)
    reg = np.where(np.abs(reg) == 0.0, 1j * max(eps, 1e-300), reg)
    min_abs = float(np.abs(symbol).min())
    scale = float(np.abs(symbol).max())
    if min_abs < 1e-9 * scale:
        cond = scale / max(min_abs, 1e-300)
        warnings.warn(
            f"near-resonant lattice mode; condition number {cond:.3e}",
            IllConditionedWarning,
        )
    return np.fft.ifftn(np.fft.fftn(src.values) / reg)


def reference_leapfrog(phi, phidot, steps, dt, dx, dtheta, lam, m, record_every):
    phi = np.asarray(phi, dtype=complex)
    phidot = np.asarray(phidot, dtype=complex)

    def spatial(v):
        lap_x = (np.roll(v, -1, 0) - 2 * v + np.roll(v, 1, 0)) / dx**2
        lap_q = (np.roll(v, -1, 1) - 2 * v + np.roll(v, 1, 1)) / dtheta**2
        return lap_x + lam**2 * lap_q - m**2 * v

    prev = phi
    cur = phi + dt * phidot + 0.5 * dt**2 * spatial(phi)
    series = []
    if record_every:
        series.append((0, 0.0, field.noether_charges(prev, cur, dt, dx, dtheta, lam, m)))
    for n in range(1, steps):
        prev, cur = cur, 2 * cur - prev + dt**2 * spatial(cur)
        if record_every and n % record_every == 0:
            series.append(
                (n, n * dt, field.noether_charges(prev, cur, dt, dx, dtheta, lam, m)))
    return prev, cur, series


def reference_monte_carlo(cfg, f, samples, seed):
    """(mean, standard error) by the serial chunk loop."""
    sigma = 1.0 / math.sqrt(2.0 * cfg.Lambda * cfg.Omega)
    chunk = 262_144
    total = total_sq = 0.0
    done = 0
    for child in np.random.SeedSequence(seed).spawn(max(1, -(-samples // chunk))):
        n = min(chunk, samples - done)
        theta = np.random.default_rng(child).normal(0.0, sigma, size=(n, cfg.n_modes))
        vals = np.asarray(f(theta), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += n
    mean = total / done
    return mean, math.sqrt(max(total_sq / done - mean * mean, 0.0) / done)


def _complex_grid(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# -- leapfrog --------------------------------------------------------------------


# The Fourier-basis stepper rounds differently from the roll stepper.  Both
# errors grow at most linearly in the step count, so fields and charges must
# agree within LEAPFROG_C * eps * steps * scale, the scale being the largest
# magnitude among the reference's slices or among one record's charges.  The
# worst constant seen over 4000 random cases like those below was 3 for
# fields and 7 for charges; an O(1) change to the recurrence (lambda for
# lambda^2, a dropped 1/2 in the first half-step) is over 1e11 times over it.
LEAPFROG_C = 32


def assert_leapfrog_close(got, ref, steps):
    eps = np.finfo(float).eps
    (prev, cur, series), (ref_prev, ref_cur, ref_series) = got, ref
    scale = max(np.abs(ref_prev).max(), np.abs(ref_cur).max())
    for out, want in ((prev, ref_prev), (cur, ref_cur)):
        assert np.abs(out - want).max() <= LEAPFROG_C * eps * steps * scale
    # the same record steps and times, exactly
    assert [(n, t) for n, t, _ in series] == [(n, t) for n, t, _ in ref_series]
    for (_, _, charges), (_, _, ref_charges) in zip(series, ref_series):
        scale = max(abs(v) for v in ref_charges)
        for v, want in zip(charges, ref_charges):
            assert abs(v - want) <= LEAPFROG_C * eps * steps * scale


@given(nx=st.integers(1, 9), nq=st.integers(1, 9), steps=st.integers(1, 7),
       record_every=st.sampled_from([0, 1, 3]), lam=st.sampled_from([0.0, 0.6, 1.3]),
       m=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_leapfrog_matches_roll_stepper(nx, nq, steps, record_every, lam, m, seed):
    rng = np.random.default_rng(seed)
    phi, phidot = _complex_grid(rng, (nx, nq)), _complex_grid(rng, (nx, nq))
    phi_in, phidot_in = phi.copy(), phidot.copy()
    dx, dq = 2 * np.pi / max(nx, 2), 2 * np.pi / max(nq, 2)
    dt = 0.7 * field.max_stable_dt(dx, dq, lam, m)
    args = (steps, dt, dx, dq, lam, m)

    got = field.evolve_leapfrog(phi, phidot, *args, record_every=record_every)
    assert_leapfrog_close(got, reference_leapfrog(phi_in, phidot_in, *args, record_every),
                          steps)
    # the caller's arrays are neither changed nor handed back
    assert np.array_equal(phi, phi_in) and np.array_equal(phidot, phidot_in)
    for out in got[:2]:
        assert not np.shares_memory(out, phi) and not np.shares_memory(out, phidot)


def test_leapfrog_matches_roll_stepper_on_a_fortran_ordered_mode():
    nx, nq, lam, m = 12, 7, 0.8, 1.0
    dx, dq = 2 * np.pi / nx, 2 * np.pi / nq
    dt = 0.5 * field.max_stable_dt(dx, dq, lam, m)
    phi0, phidot0, _ = field.discrete_mode_initial((nx, nq), dt, dx, dq, lam, m)
    args = (phi0, phidot0, 40, dt, dx, dq, lam, m)
    got = field.evolve_leapfrog(*(np.asfortranarray(a) for a in args[:2]),
                                *args[2:], record_every=4)
    assert_leapfrog_close(got, reference_leapfrog(*args, 4), 40)


# -- Green's solve and residual ----------------------------------------------------


_GRIDS = st.tuples(st.integers(5, 12), st.integers(5, 10), st.integers(5, 9))


def _source(rng, shape, lam, m):
    J = np.zeros(shape, dtype=complex)
    J[1:-1, 1:-1, 1:-1] = _complex_grid(rng, tuple(n - 2 for n in shape))
    return SourceTerm(J, 0.11, 0.37, 0.41, lam, m)


def _solve_recording_warnings(solve, src, eps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = solve(src, eps)
    return phi, [(w.category, str(w.message)) for w in caught]


@given(shape=_GRIDS, eps=st.sampled_from([0.0, 1e-10, 0.3]),
       lam=st.sampled_from([0.0, 0.7]), m=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_greens_solve_equals_full_grid_solve(shape, eps, lam, m, seed):
    src = _source(np.random.default_rng(seed), shape, lam, m)
    phi, caught = _solve_recording_warnings(field.greens_solve, src, eps)
    ref, ref_caught = _solve_recording_warnings(reference_greens_solve, src, eps)
    assert np.array_equal(phi.values, ref, equal_nan=True)
    assert caught == ref_caught


def test_greens_solve_zero_symbol_branch_and_warning():
    # m = 0 and eps = 0 make the (0, 0, 0) mode exactly singular: the solve
    # regularizes it by 1j * 1e-300 and warns
    src = _source(np.random.default_rng(5), (6, 7, 5), 0.7, 0.0)
    phi, caught = _solve_recording_warnings(field.greens_solve, src, 0.0)
    ref, ref_caught = _solve_recording_warnings(reference_greens_solve, src, 0.0)
    assert [c for c, _ in caught] == [IllConditionedWarning]
    assert caught == ref_caught
    assert np.array_equal(phi.values, ref, equal_nan=True)


def test_greens_solve_leaves_the_source_unchanged():
    src = _source(np.random.default_rng(6), (8, 6, 7), 0.7, 1.0)
    before = src.values.copy()
    phi = field.greens_solve(src)
    assert np.array_equal(src.values, before)
    assert not np.shares_memory(phi.values, src.values)


@given(shape=_GRIDS, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_kg_apply_and_slab_residual_equal_full_grid_stencil(shape, seed):
    rng = np.random.default_rng(seed)
    src = _source(rng, shape, 0.7, 1.0)
    phi = LatticeField(_complex_grid(rng, shape), 0.11, 0.37, 0.41, 0.7, 1.0)
    ref = reference_kg_apply(phi)
    assert np.array_equal(field.kg_apply(phi), ref)
    resid = field.kg_residual_max(phi, src)
    assert resid == np.abs(ref - src.values[1:-1, 1:-1, 1:-1]).max()


def test_slab_residual_propagates_nan():
    rng = np.random.default_rng(7)
    src = _source(rng, (9, 6, 5), 0.7, 1.0)
    values = _complex_grid(rng, (9, 6, 5))
    values[4, 2, 2] = np.nan
    phi = LatticeField(values, 0.11, 0.37, 0.41, 0.7, 1.0)
    assert math.isnan(field.kg_residual_max(phi, src))


def test_slab_residual_rejects_mismatched_grids():
    rng = np.random.default_rng(8)
    phi = LatticeField(_complex_grid(rng, (6, 6, 6)), 0.1, 0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        field.kg_residual_max(phi, _source(rng, (6, 6, 7), 1.0, 1.0))


@pytest.mark.parametrize("other", [
    {"dt": 0.2}, {"dx": 0.3}, {"dtheta": 0.4}, {"lam": 5.0}, {"m": 2.0},
], ids=lambda other: next(iter(other)))
def test_slab_residual_rejects_a_source_on_another_lattice(other):
    rng = np.random.default_rng(11)
    src = _source(rng, (8, 8, 8), 1.0, 1.0)
    lattice = {"dt": 0.11, "dx": 0.37, "dtheta": 0.41, "lam": 1.0, "m": 1.0, **other}
    phi = LatticeField(_complex_grid(rng, (8, 8, 8)), **lattice)
    with pytest.raises(ValueError, match="differs from the source"):
        field.kg_residual_max(phi, src)


def test_slab_bounds_the_residual_memory():
    # one 62 x 62 time slice at a time; the full-grid
    # np.abs(kg_apply(f) - J).max() traces about 7 MB on this grid
    rng = np.random.default_rng(10)
    shape = (40, 64, 64)
    src = _source(rng, shape, 1.0, 1.0)
    phi = LatticeField(_complex_grid(rng, shape), 0.11, 0.37, 0.41, 1.0, 1.0)
    tracemalloc.start()
    try:
        field.kg_residual_max(phi, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 4096 * 16


def test_kg_apply_at_equals_kg_apply_at_every_interior_point():
    rng = np.random.default_rng(9)
    f = LatticeField(_complex_grid(rng, (7, 6, 5)), 0.13, 0.29, 0.37, 0.8, 1.1)
    full = field.kg_apply(f)
    for it, ix, iq in np.ndindex(*full.shape):
        assert field.kg_apply_at(f, it + 1, ix + 1, iq + 1) == full[it, ix, iq]


# -- Monte Carlo -------------------------------------------------------------------

_CHUNK = 262_144


@pytest.mark.parametrize("D", [2, 3, 4], ids=["M1", "M3", "M6"])
@pytest.mark.parametrize("samples", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_monte_carlo_equals_serial_fold_for_any_worker_count(D, samples, monkeypatch):
    cfg = oscillator.OscillatorConfig(D=D, Lambda=1.3, Omega=0.7)
    f = oscillator.monomial((2,) + (1,) * (cfg.n_modes - 1))
    mean, stderr = reference_monte_carlo(cfg, f, samples, 17)
    monkeypatch.setattr(oscillator, "_MIN_THREADED_CHUNKS", 2)
    for workers in (1, 3):
        monkeypatch.setattr(oscillator, "_usable_cpus", lambda w=workers: w)
        est = oscillator.moment_oracle(cfg, f, "monte-carlo", samples=samples, seed=17)
        assert est == (mean, stderr, "monte-carlo", samples)


@pytest.mark.parametrize("D", [2, 3], ids=["M1", "M3"])
def test_monte_carlo_f_may_return_a_view_of_its_draws(D):
    # the scaled values go where the draws were, so they overlap such an f's output
    cfg = oscillator.OscillatorConfig(D=D, Lambda=1.3, Omega=0.7)

    def f(theta):
        return theta[..., -1]

    est = oscillator.moment_oracle(cfg, f, "monte-carlo", samples=2 * _CHUNK + 7, seed=4)
    assert est[:2] == reference_monte_carlo(cfg, f, 2 * _CHUNK + 7, 4)


def test_monte_carlo_threads_only_for_many_chunks_and_at_most_one_per_chunk(monkeypatch):
    pools = []
    real = oscillator.concurrent.futures.ThreadPoolExecutor

    def recording(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(oscillator.concurrent.futures, "ThreadPoolExecutor", recording)
    cfg = oscillator.OscillatorConfig(D=2)
    least = oscillator._MIN_THREADED_CHUNKS
    for cpus, chunks in ((3, 1), (3, least - 1), (1, least), (3, least), (2 * least, least)):
        monkeypatch.setattr(oscillator, "_usable_cpus", lambda c=cpus: c)
        oscillator.moment_oracle(cfg, oscillator.monomial((2,)), "monte-carlo",
                                 samples=chunks * _CHUNK)
    # the calling thread draws too, so min(cpus, chunks) workers start one
    # thread fewer: fewer threads than chunks, and none below `least` chunks
    assert pools == [3 - 1, least - 1]


def test_monte_carlo_one_buffer_per_worker_and_chunk_0_on_the_caller(monkeypatch):
    cfg = oscillator.OscillatorConfig(D=3, Lambda=1.3, Omega=0.7)
    workers, chunks, seed = 3, 8, 5
    monkeypatch.setattr(oscillator, "_MIN_THREADED_CHUNKS", 2)
    monkeypatch.setattr(oscillator, "_usable_cpus", lambda: workers)
    seen = []  # (thread, buffer, first row) per chunk

    def f(theta):
        seen.append((threading.get_ident(), theta.base, theta[0].copy()))
        return theta[..., 0] ** 2

    oscillator.moment_oracle(cfg, f, "monte-carlo", samples=chunks * _CHUNK - 3, seed=seed)
    assert len(seen) == chunks
    assert all(base is not None for _, base, _ in seen)  # views, not fresh arrays
    assert len({id(base) for _, base, _ in seen}) <= workers
    sigma = 1.0 / math.sqrt(2.0 * cfg.Lambda * cfg.Omega)
    child = np.random.SeedSequence(seed).spawn(chunks)[0]
    first = np.random.default_rng(child).normal(0.0, sigma, cfg.n_modes)
    (thread,) = [t for t, _, row in seen if np.array_equal(row, first)]
    assert thread == threading.get_ident()
