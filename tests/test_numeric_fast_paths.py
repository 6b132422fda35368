"""Every lean numeric kernel equals its textbook definition.

The references below are the straightforward formulas: the np.roll leapfrog
stepper, the full-grid Green's solve with one complex regularized symbol,
the three-derivative stencil of kg_apply, and the serial Monte Carlo fold.
The stencils and the Monte Carlo fold reorganize memory (preallocated
buffers, time slices, worker threads) but keep each floating-point operation
and its order, so those comparisons are exact.  numpy's complex / real
divides as a product with the reciprocal, which the kernels write out; that
can flip only the sign of an exact zero, so arrays are compared with IEEE
equality (-0.0 == 0.0).

kg_apply's stencil is now that formula itself, with one shared 2c and its
terms summed into one array.  reference_kg_apply stays as its pin: a rewrite
that changes the rounding order, say by folding lam^2 / dtheta^2 into one
constant, fails the exact comparison.

Two kernels agree with their references only up to rounding, within a
bound stated in their tests.  The leapfrog steps the same linear recurrence
in the lattice's Fourier basis.  The Green's solve keeps only the
non-negative theta half of a real source's spectrum, so its field is the
real part of the full-grid solve.
"""
import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dfra import _workers, cli, field, oscillator
from dfra.field import IllConditionedWarning, LatticeField, SourceTerm

# -- references ----------------------------------------------------------------


def reference_kg_apply(f):
    v = f.values
    c = v[1:-1, 1:-1, 1:-1]
    dtt = (v[2:, 1:-1, 1:-1] - 2 * c + v[:-2, 1:-1, 1:-1]) / f.dt**2
    dxx = (v[1:-1, 2:, 1:-1] - 2 * c + v[1:-1, :-2, 1:-1]) / f.dx**2
    dqq = (v[1:-1, 1:-1, 2:] - 2 * c + v[1:-1, 1:-1, :-2]) / f.dtheta**2
    return -dtt + dxx + f.lam**2 * dqq - f.m**2 * c


def reference_regularized_symbol(src, eps):
    """(kg_symbol, kg_symbol - i eps w) with w the signed frequency.

    The t-Nyquist plane of an even nt is its own mirror image and is not
    shifted; an exactly zero entry is inf, so its mode's amplitude is 0.
    """
    symbol = field.kg_symbol(src.values.shape, src.dt, src.dx, src.dtheta, src.lam, src.m)
    nt = src.values.shape[0]
    w_signed = 2.0 * np.pi * np.fft.fftfreq(nt, src.dt)
    if nt % 2 == 0:
        w_signed[nt // 2] = 0.0
    reg = symbol - 1j * eps * w_signed.reshape(-1, 1, 1)
    return symbol, np.where(reg == 0, np.inf, reg)


def reference_greens_solve(src, eps):
    symbol, reg = reference_regularized_symbol(src, eps)
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
    """(mean, standard error) by the serial chunk loop, drawing the components f reads."""
    sigma = 1.0 / math.sqrt(2.0 * cfg.Lambda * cfg.Omega)
    chunk = 262_144
    reads = getattr(f, "components", cfg.n_modes)
    total = total_sq = 0.0
    done = 0
    for child in np.random.SeedSequence(seed).spawn(max(1, -(-samples // chunk))):
        n = min(chunk, samples - done)
        theta = np.random.default_rng(child).normal(0.0, sigma, size=(n, reads))
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


def _source(rng, shape, lam, m, dtype=complex):
    J = np.zeros(shape, dtype=dtype)
    interior = tuple(n - 2 for n in shape)
    J[1:-1, 1:-1, 1:-1] = _complex_grid(rng, interior) if dtype == complex else rng.normal(size=interior)
    return SourceTerm(J, 0.11, 0.37, 0.41, lam, m)


def _parts(src):
    """The sources Re J and Im J on src's lattice."""
    lattice = (src.dt, src.dx, src.dtheta, src.lam, src.m)
    return SourceTerm(src.values.real, *lattice), SourceTerm(src.values.imag, *lattice)


def _solve_recording_warnings(solve, src, eps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = solve(src, eps)
    return phi, [(w.category, str(w.message)) for w in caught]


# The field of a real source differs from the real part of the full-grid
# solve by rounding, amplified by the regularized symbol's condition number
# kappa: within GREENS_C * eps * kappa * max |reference|.  The worst constant
# seen over 2000 random cases like those below was 0.42; the largest kappa
# among them was 5.5e4, so an O(1) change to the symbol or the shift fails.
GREENS_C = 8


def assert_real_part_of_full_grid_solve(phi, src, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        ref = reference_greens_solve(src, eps)
    symbol, reg = reference_regularized_symbol(src, eps)
    kappa = np.abs(symbol).max() / np.abs(reg).min()
    assert phi.dtype == np.float64
    bound = GREENS_C * np.finfo(float).eps * kappa * np.abs(ref).max()
    assert np.abs(phi - ref.real).max() <= bound
    # the regularized symbol is Hermitian, so the full-grid field is real too
    assert np.abs(ref.imag).max() <= bound


@given(shape=_GRIDS, eps=st.sampled_from([0.0, 1e-10, 0.3]),
       lam=st.sampled_from([0.0, 0.7]), m=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_greens_solve_equals_full_grid_solve(shape, eps, lam, m, seed):
    # the field of a complex source J is solve(Re J) + i solve(Im J), each
    # the real part of the full-grid solve, with the reference's one warning
    src = _source(np.random.default_rng(seed), shape, lam, m)
    phi, caught = _solve_recording_warnings(field.greens_solve, src, eps)
    _, ref_caught = _solve_recording_warnings(reference_greens_solve, src, eps)
    assert caught == ref_caught
    assert phi.values.dtype == complex
    for part, got in zip(_parts(src), (phi.values.real, phi.values.imag)):
        real_phi, real_caught = _solve_recording_warnings(field.greens_solve, part, eps)
        assert real_caught == ref_caught
        assert same_bits(got.copy(), real_phi.values)
        assert_real_part_of_full_grid_solve(real_phi.values, part, eps)


def test_greens_solve_zero_symbol_branch_and_warning():
    # m = 0 and eps = 0 make the (0, 0, 0) mode exactly singular: the solve
    # gives it amplitude 0, so the field sums to 0, and warns once, for a
    # complex source too; nt = 6 has a t-Nyquist plane
    src = _source(np.random.default_rng(5), (6, 7, 5), 0.7, 0.0)
    phi, caught = _solve_recording_warnings(field.greens_solve, src, 0.0)
    _, ref_caught = _solve_recording_warnings(reference_greens_solve, src, 0.0)
    assert [c for c, _ in caught] == [IllConditionedWarning]
    assert caught == ref_caught
    assert np.isfinite(phi.values).all()
    assert abs(phi.values.sum()) <= 1e-12 * np.abs(phi.values).sum()
    for part, got in zip(_parts(src), (phi.values.real, phi.values.imag)):
        assert_real_part_of_full_grid_solve(got, part, 0.0)


def test_greens_solve_does_not_shift_the_t_nyquist_plane():
    # on the t-Nyquist plane the shift -i eps w with w = -pi/dt would break
    # the Hermitian symmetry: the field would not be the real part of any
    # solve.  There the solve divides by the unshifted symbol
    src = _source(np.random.default_rng(9), (8, 6, 5), 0.7, 1.0, dtype=float)
    assert_real_part_of_full_grid_solve(field.greens_solve(src, 0.3).values, src, 0.3)
    symbol, reg = reference_regularized_symbol(src, 0.3)
    assert np.array_equal(reg[4], symbol[4]) and not np.array_equal(reg[3], symbol[3])


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


def test_greens_solve_of_a_real_source_writes_the_field_into_its_spectrum_buffer():
    # the half-spectrum buffer is 96 x 32 x 33 complex entries, 0.52 of one
    # complex grid, and the solve's slice-sized temporaries add 0.02; the
    # field is the buffer's float64 view, and the residual reads it one time
    # slice at a time (0.03 of a complex grid), never cast to complex
    shape = (96, 32, 64)
    src = _source(np.random.default_rng(12), shape, 1.0, 1.0, dtype=float)
    complex_grid = np.prod(shape) * 16
    field.greens_solve(src)  # numpy imports a module at its first rfft
    tracemalloc.start()
    try:
        phi = field.greens_solve(src)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        at_start = tracemalloc.get_traced_memory()[0]
        field.kg_residual_max(phi, src)
        residual_peak = tracemalloc.get_traced_memory()[1] - at_start
    finally:
        tracemalloc.stop()
    assert solve_peak < 0.6 * complex_grid
    assert residual_peak < complex_grid / 8
    assert phi.values.dtype == np.float64 and phi.shape == shape
    assert not np.shares_memory(phi.values, src.values)


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


# -- threads ------------------------------------------------------------------------


# 1, 2 and 3 workers, and more workers than any grid below has rows
_WORKERS = (1, 2, 3, 64)


@contextlib.contextmanager
def threaded_leapfrog(workers):
    """The leapfrog split among `workers` CPUs at every slice size.

    Yields the number of parts each _workers.run call was given, so a test can
    see that the split happened.  A short interpreter switch interval makes
    the threads interleave often.
    """
    splits = []
    real_run = _workers.run

    def run(fn, parts):
        splits.append(len(parts))
        return real_run(fn, parts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_MIN_THREADED_CELLS", 0)
        mp.setattr(_workers, "usable_cpus", lambda: workers)
        mp.setattr(_workers, "run", run)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield splits
        finally:
            sys.setswitchinterval(interval)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_field_grids_below_the_threshold_run_on_the_calling_thread(monkeypatch):
    # suite-all's leapfrog slice at 2 CPUs: every _workers.run call gets a
    # single part, which it runs on the calling thread
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    splits = []
    real_run = _workers.run

    def run(fn, parts):
        splits.append(len(parts))
        return real_run(fn, parts)

    monkeypatch.setattr(_workers, "run", run)
    phi0, phidot0, _ = field.discrete_mode_initial((32, 16), 0.01, 0.2, 0.4, 1.0, 1.0)
    field.evolve_leapfrog(phi0, phidot0, 10, 0.01, 0.2, 0.4, 1.0, 1.0)
    assert splits and set(splits) == {1}
    assert 32 * 16 < field._MIN_THREADED_CELLS


def test_only_the_leapfrog_and_the_monte_carlo_start_threads(monkeypatch):
    # at 2 CPUs and 128 x 128 = _MIN_THREADED_CELLS cells per slice, the
    # Green's solve and the residual run on the calling thread; the leapfrog
    # on that slice and the Monte Carlo at _MIN_THREADED_CHUNKS chunks each
    # start one helper thread
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    shape = (6, 128, 128)
    assert shape[1] * shape[2] >= field._MIN_THREADED_CELLS
    src = _source(np.random.default_rng(13), shape, 1.0, 1.0)
    field.kg_residual_max(field.greens_solve(src), src)
    assert started == []
    phi0, phidot0, _ = field.discrete_mode_initial(shape[1:], 0.01, 0.2, 0.4, 1.0, 1.0)
    field.evolve_leapfrog(phi0, phidot0, 3, 0.01, 0.2, 0.4, 1.0, 1.0, record_every=0)
    assert len(started) == 1
    oscillator.moment_oracle(oscillator.OscillatorConfig(D=2), oscillator.monomial((2,)),
                             "monte-carlo", samples=oscillator._MIN_THREADED_CHUNKS * _CHUNK)
    assert len(started) == 2


@given(nx=st.integers(1, 9), nq=st.integers(1, 9), steps=st.sampled_from([1, 2, 11]),
       record_every=st.sampled_from([0, 1, 3, 7]), lam=st.sampled_from([0.0, 1.3]),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_threaded_leapfrog_equals_the_serial_bits(nx, nq, steps, record_every, lam, seed):
    rng = np.random.default_rng(seed)
    phi, phidot = _complex_grid(rng, (nx, nq)), _complex_grid(rng, (nx, nq))
    dx, dq = 2 * np.pi / max(nx, 2), 2 * np.pi / max(nq, 2)
    dt = 0.7 * field.max_stable_dt(dx, dq, lam, 1.0)
    args = (phi, phidot, steps, dt, dx, dq, lam, 1.0)
    prev, cur, series = field.evolve_leapfrog(*args, record_every=record_every)
    for workers in _WORKERS:
        with threaded_leapfrog(workers) as splits:
            got_prev, got_cur, got_series = field.evolve_leapfrog(*args, record_every=record_every)
        assert same_bits(got_prev, prev) and same_bits(got_cur, cur)
        assert got_series == series
        assert set(splits) <= {min(nx, workers)}


def _overflowing_mode(nx=8, nq=6, row=6):
    # one Fourier mode of the leapfrog's slice near the largest float: its
    # first step, gain * cur with gain close to 2, overflows in x row `row`
    # of the transformed slices and nowhere else
    hat = np.zeros((nx, nq), dtype=complex)
    hat[row, 1] = 1.5e308
    dx, dq = 2 * np.pi / nx, 2 * np.pi / nq
    dt = 0.1 * field.max_stable_dt(dx, dq, 0.0, 0.0)
    phi = np.fft.ifft2(hat)
    return (phi, np.zeros_like(phi), 3, dt, dx, dq, 0.0, 0.0)


@pytest.mark.parametrize("workers", _WORKERS)
def test_threaded_leapfrog_raises_an_overflow_in_a_helpers_rows(workers):
    # row 6 of 8 is a helper's from 2 workers on
    args = _overflowing_mode()
    with threaded_leapfrog(workers):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                field.evolve_leapfrog(*args, record_every=0)
        with np.errstate(over="ignore", invalid="ignore"):
            prev, _, _ = field.evolve_leapfrog(*args, record_every=0)
    assert not np.isfinite(prev).all()


@pytest.mark.parametrize("record_every", [-3, -1, 2.5, 1.0, "3", None])
def test_leapfrog_record_every_must_be_a_non_negative_int(record_every):
    phi0, phidot0, _ = field.discrete_mode_initial((8, 6), 0.01, 0.2, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError, match="record_every"):
        field.evolve_leapfrog(phi0, phidot0, 10, 0.01, 0.2, 0.4, 1.0, 1.0,
                              record_every=record_every)


@pytest.mark.parametrize("steps", [0, -1, 2.5, 3.0])
def test_leapfrog_steps_must_be_a_positive_int(steps):
    phi0, phidot0, _ = field.discrete_mode_initial((8, 6), 0.01, 0.2, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError, match="steps"):
        field.evolve_leapfrog(phi0, phidot0, steps, 0.01, 0.2, 0.4, 1.0, 1.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.3, -1e-300])
def test_greens_solve_eps_must_be_finite_and_non_negative(eps):
    src = _source(np.random.default_rng(3), (6, 6, 6), 0.7, 1.0)
    with pytest.raises(ValueError, match="eps"):
        field.greens_solve(src, eps)


# -- Monte Carlo -------------------------------------------------------------------

_CHUNK = 262_144


@pytest.mark.parametrize("D", [2, 3, 4], ids=["M1", "M3", "M6"])
@pytest.mark.parametrize("samples", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_monte_carlo_equals_serial_fold_for_any_worker_count(D, samples, monkeypatch):
    cfg = oscillator.OscillatorConfig(D=D, Lambda=1.3, Omega=0.7)
    # one monomial reads every component, the other a marginal: theta_1 at
    # M = 1 and 3, theta_1 and theta_2 at M = 6
    marginal = {1: (2,), 3: (2, 0, 0), 6: (1, 2, 0, 0, 0, 0)}[cfg.n_modes]
    monkeypatch.setattr(oscillator, "_MIN_THREADED_CHUNKS", 2)
    for exponents in ((2,) + (1,) * (cfg.n_modes - 1), marginal):
        f = oscillator.monomial(exponents)
        mean, stderr = reference_monte_carlo(cfg, f, samples, 17)
        for workers in (1, 3):
            monkeypatch.setattr(_workers, "usable_cpus", lambda w=workers: w)
            est = oscillator.moment_oracle(cfg, f, "monte-carlo", samples=samples, seed=17)
            assert est == (mean, stderr, "monte-carlo", samples)


@pytest.mark.parametrize("exponents, marked, columns", [
    ((2, 0, 0), True, 1), ((0, 1, 0), True, 2), ((0, 0, 0), True, 1), ((1, 0, 2), True, 3),
    ((2, 0, 0), False, 3),  # a plain callable gets every component
])
def test_monte_carlo_hands_f_only_the_components_it_reads(exponents, marked, columns):
    cfg = oscillator.OscillatorConfig(D=3, Lambda=1.3, Omega=0.7)
    g = oscillator.monomial(exponents)
    shapes = []

    def f(theta):
        shapes.append(theta.shape)
        return g(theta)

    if marked:
        f.components = g.components
    oscillator.moment_oracle(cfg, f, "monte-carlo", samples=_CHUNK + 9, seed=2)
    assert shapes == [(_CHUNK, columns), (9, columns)]


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
    real = _workers.concurrent.futures.ThreadPoolExecutor

    def recording(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(_workers.concurrent.futures, "ThreadPoolExecutor", recording)
    cfg = oscillator.OscillatorConfig(D=2)
    least = oscillator._MIN_THREADED_CHUNKS
    for cpus, chunks in ((3, 1), (3, least - 1), (1, least), (3, least), (2 * least, least)):
        monkeypatch.setattr(_workers, "usable_cpus", lambda c=cpus: c)
        oscillator.moment_oracle(cfg, oscillator.monomial((2,)), "monte-carlo",
                                 samples=chunks * _CHUNK)
    # the calling thread draws too, so min(cpus, chunks) workers start one
    # thread fewer: fewer threads than chunks, and none below `least` chunks
    assert pools == [3 - 1, least - 1]


def test_monte_carlo_one_buffer_per_worker_and_chunk_0_on_the_caller(monkeypatch):
    cfg = oscillator.OscillatorConfig(D=3, Lambda=1.3, Omega=0.7)
    workers, chunks, seed = 3, 8, 5
    monkeypatch.setattr(oscillator, "_MIN_THREADED_CHUNKS", 2)
    monkeypatch.setattr(_workers, "usable_cpus", lambda: workers)
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


# -- memory: chunk- and slice-sized temporaries, freed with their record ------------


def reference_monomial(theta, exponents):
    """prod theta_c ** e_c, the factors multiplied in component order."""
    out = None
    for c, e in enumerate(exponents):
        if e:
            factor = theta[..., c] ** e
            out = factor if out is None else out * factor
    return np.ones(theta.shape[:-1]) if out is None else out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), exponents=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       lead=st.lists(st.integers(0, 6), max_size=3))
def test_monomial_writes_the_same_bits_into_out(data, exponents, lead):
    theta = data.draw(hnp.arrays(float, (*lead, len(exponents)),
                                 elements=st.floats(allow_nan=True, allow_infinity=True)))
    f = oscillator.monomial(tuple(exponents))
    buf = np.full(lead, 7.0)
    with np.errstate(all="ignore"):
        want = reference_monomial(theta, exponents)
        plain = f(theta)
        got = f(theta, out=buf)
    assert got is buf
    assert same_bits(got, want) and same_bits(plain, want)


def test_monte_carlo_workers_allocate_nothing_chunk_sized(monkeypatch):
    # 16 chunks on 2 workers: before they start, the calling thread holds one
    # draw buffer and one values buffer per worker; past that the draws trace
    # only small objects (seed sequences, generators, the thread pool)
    cfg = oscillator.OscillatorConfig(D=3)
    workers, chunks, slack = 2, oscillator._MIN_THREADED_CHUNKS, 256 * 1024
    monkeypatch.setattr(_workers, "usable_cpus", lambda: workers)
    traced_at_start = []
    real_run = _workers.run

    def run(fn, parts):
        traced_at_start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return real_run(fn, parts)

    monkeypatch.setattr(_workers, "run", run)
    tracemalloc.start()
    try:
        oscillator.moment_oracle(cfg, oscillator.monomial((2, 0, 0)), "monte-carlo",
                                 samples=chunks * _CHUNK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = workers * (_CHUNK * 1 + _CHUNK) * 8  # (rows, 1) draws and rows values each
    (at_start,) = traced_at_start
    assert buffers <= at_start <= buffers + slack
    assert peak <= at_start + slack


def _zero_source(f):
    return LatticeField(np.broadcast_to(0j, f.shape), f.dt, f.dx, f.dtheta, f.lam, f.m)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [12, 24, 48])
def test_residual_against_a_zero_source_is_max_abs_kg_apply(n, workers):
    # the same bits whatever the usable CPU count, with no split of the rows
    dx = 2.0 * np.pi / n
    f = field.plane_wave_mode((n, n, n), 1.0 / n, dx, dx, 1.3, 0.7)
    noisy = LatticeField(_complex_grid(np.random.default_rng(n), f.shape), 0.11, 0.37, 0.41, 1.3, 0.7)
    nan = LatticeField(noisy.values.copy(), 0.11, 0.37, 0.41, 1.3, 0.7)
    nan.values[n // 2, n - 2, 1] = np.nan
    with threaded_leapfrog(workers) as splits:
        for g in (f, noisy, nan):
            got = field.kg_residual_max(g, _zero_source(g))
            want = float(np.abs(field.kg_apply(g)).max())
            assert same_bits(np.float64(got), np.float64(want))
    assert set(splits) <= {1}
    assert math.isnan(got)


def test_residual_against_a_zero_source_traces_less_than_one_interior_array():
    n = 48
    f = field.plane_wave_mode((n, n, n), 1.0 / n, 2.0 * np.pi / n, 2.0 * np.pi / n, 1.0, 1.0)
    zero = _zero_source(f)
    tracemalloc.start()
    try:
        field.kg_residual_max(f, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n - 2) ** 3 * 16


def test_kg_residual_order_2_record_traces_its_largest_wave_and_less_than_one_interior():
    # the 48^3 plane wave is 1.8 MB and its interior 1.6 MB; building the wave
    # as amplitude * exp(1j * phase), or the residual as np.abs(kg_apply(f)),
    # holds two such arrays at once
    records = cli.field_suite(cli.parse_params([]))
    tracemalloc.start()
    try:
        name, *_ = next(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        records.close()
    assert name == "kg-residual-order-2"
    assert peak < 48**3 * 16 + 46**3 * 16


def test_greens_field_and_source_are_freed_before_the_leapfrog(monkeypatch):
    arrays = []  # weak references to the source's and the field's values
    alive = []
    real_solve, real_evolve = field.greens_solve, field.evolve_leapfrog

    def solve(src, *args, **kwargs):
        phi = real_solve(src, *args, **kwargs)
        arrays.extend(weakref.ref(a) for a in (src.values, phi.values))
        return phi

    def evolve(*args, **kwargs):
        alive.extend(ref() is not None for ref in arrays)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(field, "greens_solve", solve)
    monkeypatch.setattr(field, "evolve_leapfrog", evolve)
    records = [name for name, *_ in cli.field_suite(cli.parse_params([]))]
    assert records.index("greens-residual") < records.index("charge-drift-1000-steps")
    assert alive == [False, False]
