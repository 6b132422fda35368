"""Complex scalar field on the extended (x, theta) space.

Continuum statements (dispersion, momentum-space propagator, Moyal star
product) plus a reduced 1+1+1 lattice: one time axis, one space axis and one
retained theta component.  On the reduced grid the theta d'Alembertian
(1/2) d^{mu nu} d_{mu nu} collapses to a single second derivative d^2/dtheta^2
and the quadratic pair contraction carries the matching factor lambda^2/2 in
densities; plane waves couple as exp(i kappa theta) with kappa the retained
component of the theta-momentum.

Conventions: metric diag(-1,1,1,1); the wave operator is
Box + lambda^2 Box_theta - m^2 = -d_t^2 + d_x^2 + lambda^2 d_theta^2 - m^2,
whose Fourier symbol equals 1/G(K) with G(K) = -1/(K^2 + m^2).

The explicit leapfrog stepper is stable for
dt <= 2 / sqrt(4/dx^2 + 4 lambda^2/dtheta^2 + m^2), the bound max_stable_dt
gives.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
# numpy loads it on first use; importing it here keeps that load out of the
# runtime of the first record that uses it
import numpy.fft

from . import _workers
from .reps import antisymmetric, minkowski_dot, pair_dot, vec_to_mat
from .symcore import (
    BracketTable,
    Expression,
    GaussRat,
    Generator,
    derivative,
    normal_form,
)


class TachyonicModeError(ValueError):
    """Negative radicand in the dispersion relation."""


class PoleError(ZeroDivisionError):
    """Propagator evaluated on shell without an i-epsilon prescription."""


class IllConditionedWarning(UserWarning):
    """A lattice mode sits (nearly) on shell; the solve is regularized."""


# ---------------------------------------------------------------------------
# continuum: dispersion and propagator

def dispersion(kvec1, k2, lam: float, m: float) -> float:
    """omega = sqrt(|k1|^2 + (lam^2/2) K2.K2 + m^2)."""
    kvec1, k2 = np.asarray(kvec1, dtype=float), np.asarray(k2, dtype=float)
    if kvec1.shape != (3,):
        raise ValueError("kvec1 must be the spatial 3-vector")
    _require_finite(kvec1=kvec1, k2=k2, lam=lam, m=m)
    k2 = antisymmetric(k2, "theta-momentum")
    radicand = float(kvec1 @ kvec1) + 0.5 * lam**2 * pair_dot(k2, k2) + m**2
    if radicand < 0:
        raise TachyonicModeError(f"negative radicand {radicand}")
    return float(np.sqrt(radicand))


@dataclass(frozen=True)
class ExtendedMomentum:
    """(K1, K2): covariant 4-vector and antisymmetric theta-momentum.

    K.X = K1_mu x^mu + (1/2) K2_{mu nu} theta^{mu nu}; the half eliminates
    the doubled antisymmetric sum.
    """

    k1: np.ndarray
    k2: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "k1", np.asarray(self.k1, dtype=float))
        if self.k1.shape != (4,):
            raise ValueError("k1 must be a 4-vector")
        k2 = np.asarray(self.k2, dtype=float)
        _require_finite(k1=self.k1, k2=k2, lam=self.lam)
        object.__setattr__(self, "k2", antisymmetric(k2, "theta-momentum"))

    def squared(self) -> float:
        """K^2 = K1.K1 + (lam^2/2) K2.K2 (metric contractions)."""
        k1_squared = float(minkowski_dot(self.k1, self.k1))
        return k1_squared + 0.5 * self.lam**2 * pair_dot(self.k2, self.k2)


def propagator(K: ExtendedMomentum, m: float, eps: float = 0.0) -> complex:
    """G(K) = -1 / (K^2 + m^2 - i eps); poles at K^0 = +-omega.

    Raises ValueError unless m is finite and eps finite and >= 0: a negative
    eps would give the advanced prescription.
    """
    _require_finite(m=m, eps=eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got eps = {eps}")
    denom = K.squared() + m**2 - 1j * eps
    if abs(denom) < 1e-14:
        raise PoleError("on-shell momentum; supply eps for an i-epsilon shift")
    return -1.0 / denom


# ---------------------------------------------------------------------------
# the reduced lattice


def max_stable_dt(dx: float, dtheta: float, lam: float, m: float) -> float:
    """Leapfrog stability bound from the spatial symbol maximum."""
    _require_spacings(dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    return float(2.0 / np.sqrt(4.0 / dx**2 + 4.0 * lam**2 / dtheta**2 + m**2))


def _require_spacings(**spacings: float) -> None:
    """ValueError naming the first spacing that is not finite and positive."""
    for name, h in spacings.items():
        if not 0.0 < h < np.inf:  # False for NaN too
            raise ValueError(f"spacings must be finite and positive, got {name} = {h}")


def _require_finite(**values) -> None:
    """ValueError naming the first value (a coupling, eps or a momentum
    array) with an entry that is not finite."""
    for name, value in values.items():
        v = np.asarray(value)
        if not np.all((-np.inf < v) & (v < np.inf)):  # False for NaN too
            raise ValueError(f"lam, m, eps and momenta must be finite, got {name} = {value}")


@dataclass(frozen=True)
class LatticeField:
    """Real or complex samples on the (t, x, theta) grid, with spacings and masses.

    Complex values are kept as complex128 and any other values as float64.
    Raises ValueError unless the spacings are finite and positive and lam
    and m are finite.
    """

    values: np.ndarray
    dt: float
    dx: float
    dtheta: float
    lam: float
    m: float

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.values) else float
        object.__setattr__(self, "values", np.asarray(self.values, dtype=dtype))
        if self.values.ndim != 3:
            raise ValueError("values must be (t, x, theta)")
        if min(self.values.shape) < 5:
            raise ValueError("grid sizes must be >= 5 for the stencils")
        _require_spacings(dt=self.dt, dx=self.dx, dtheta=self.dtheta)
        _require_finite(lam=self.lam, m=self.m)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


class SourceTerm(LatticeField):
    """Source J on the same grid, compactly supported in the interior."""

    def __post_init__(self):
        super().__post_init__()
        v = self.values
        for axis in range(3):
            first = np.take(v, 0, axis=axis)
            last = np.take(v, v.shape[axis] - 1, axis=axis)
            if first.any() or last.any():
                raise ValueError("source must vanish on the grid boundary")


# The leapfrog splits its slices' x rows among the usable CPUs from this
# many cells of one (x, theta) slice on; below it, it runs on the calling
# thread alone.  suite-all's 32 x 16 slice stays below it.  The Green's solve
# and the residual run on the calling thread at every size: on
# numeric-oracles' 96 x 256 x 128 grid the solve of a real source takes
# 0.08-0.15 s on one thread, less than a two-thread split of the complex
# transform took (0.18-0.20 s).
_MIN_THREADED_CELLS = 2**14


def _kg_interior(v: np.ndarray, f: LatticeField) -> np.ndarray:
    """(Box + lam^2 Box_theta - m^2) on the interior of the block v.

    v is any 3-D block of f's grid; the result has v's shape minus 2 on each
    axis.  The operations and their order are the same for every block, so
    a point's value does not depend on the block it is computed in.
    """
    c = v[1:-1, 1:-1, 1:-1]
    two_c = 2 * c
    out = (v[2:, 1:-1, 1:-1] - two_c + v[:-2, 1:-1, 1:-1]) * (-1.0 / f.dt**2)
    out += (v[1:-1, 2:, 1:-1] - two_c + v[1:-1, :-2, 1:-1]) * (1.0 / f.dx**2)
    out += (v[1:-1, 1:-1, 2:] - two_c + v[1:-1, 1:-1, :-2]) * (1.0 / f.dtheta**2) * f.lam**2
    out -= c * f.m**2
    return out


def kg_apply(f: LatticeField) -> np.ndarray:
    """(Box + lam^2 Box_theta - m^2) phi on the interior, central differences.

    Returns an array of shape (nt-2, nx-2, ntheta-2) aligned with the
    interior points.
    """
    return _kg_interior(f.values, f)


def kg_residual_max(f: LatticeField, src: LatticeField) -> float:
    """max |(Box + lam^2 Box_theta - m^2) phi - J| over the interior.

    Equal to np.abs(kg_apply(f) - J_interior).max(), NaN included, but
    evaluated one time slice at a time, so no full-grid temporary is made.
    Either may be real or complex; a real f is never cast to complex.
    Raises ValueError unless f and src share the grid, spacings, lam and m.
    """
    if src.shape != f.shape:
        raise ValueError("field and source must share the grid")
    lattice = lambda g: (g.dt, g.dx, g.dtheta, g.lam, g.m)
    if lattice(src) != lattice(f):
        raise ValueError(f"field (dt, dx, dtheta, lam, m) = {lattice(f)} differs "
                         f"from the source's {lattice(src)}")
    slice_max = []
    for t in range(1, f.shape[0] - 1):
        r = _kg_interior(f.values[t - 1:t + 2], f) - src.values[t:t + 1, 1:-1, 1:-1]
        slice_max.append(np.abs(r).max())
    return float(np.max(slice_max))


def supplementary_residual(f: LatticeField, delta: float) -> np.ndarray:
    """(Box_theta - delta) phi on the interior; delta is a free constant."""
    v = f.values
    c = v[1:-1, 1:-1, 1:-1]
    dqq = (v[1:-1, 1:-1, 2:] - 2 * c + v[1:-1, 1:-1, :-2]) / f.dtheta**2
    return dqq - delta * c


def _symbol_axes(shape, *spacings: float):
    """The per-axis squared lattice momenta (2/h)^2 sin^2(pi j / n).

    Each is computed at the folded index min(j, n - j), so that entries j
    and n - j are equal bit for bit and the symbol is exactly even.
    """
    folded = (np.minimum(np.arange(n), np.arange(n, 0, -1)) for n in shape)
    return tuple((2.0 / h * np.sin(np.pi * j / n)) ** 2 for j, n, h in zip(folded, shape, spacings))


def _symbol_slice(w2, kx: np.ndarray, kq: np.ndarray, lam: float, m: float) -> np.ndarray:
    """w^2 - kx^2 - lam^2 kq^2 - m^2 on the (x, theta) grid; w2 may be an (nt, 1, 1) column."""
    return w2 - kx.reshape(-1, 1) - lam**2 * kq - m**2


def kg_symbol(
    shape: tuple[int, int, int], dt: float, dx: float, dtheta: float, lam: float, m: float
) -> np.ndarray:
    """Fourier symbol of the periodic wave operator on this grid.

    Equal to 1/G(K) at the effective lattice momenta (2/h) sin(pi j / n)
    per axis; greens_solve, evolve_leapfrog and discrete_mode_initial
    evaluate the same _symbol_slice.
    """
    _require_spacings(dt=dt, dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    wt, kx, kq = _symbol_axes(shape, dt, dx, dtheta)
    return _symbol_slice(wt.reshape(-1, 1, 1), kx, kq, lam, m)


def greens_solve(src: SourceTerm, eps: float = 1e-10) -> LatticeField:
    """Spectral inversion of the wave operator with a retarded i-epsilon.

    Solves (Box + lam^2 Box_theta - m^2) phi = J on the periodic grid;
    the pole shift eps enters as +i eps w with w the signed frequency,
    displacing both K^0 = +-omega poles causally.  Near-resonant modes
    trigger an ill-conditioning warning carrying the condition number, once
    per call.  Raises ValueError unless eps is finite and >= 0.

    The symbol is exactly even (each axis's lattice momentum is computed at
    the folded index min(j, n - j)), so the regularized symbol is exactly
    Hermitian: its value at -K is the conjugate of its value at K.  So a
    real source has a real field, and the field of a real source is
    float64.  A complex source is solved as solve(Re J) + i solve(Im J).
    Two kinds of mode are their own mirror image and get a real regularized
    symbol:
    - the t-Nyquist plane of an even nt, whose signed frequency is taken as
      0, the mean of its two aliases +-pi/dt, so it is not shifted;
    - a mode whose regularized symbol is exactly zero (m = 0 and eps = 0 at
      the zero mode, say).  It is inverted by the pseudo-inverse: its field
      amplitude is 0.
    """
    if not 0.0 <= eps < np.inf:  # False for NaN too
        raise ValueError(f"eps = {eps} must be finite and >= 0")
    J = src.values
    if np.iscomplexobj(J):
        phi = np.empty(src.shape, dtype=complex)
        phi.real, cond = _greens_solve_real(J.real, src, eps)
        phi.imag, _ = _greens_solve_real(J.imag, src, eps)
    else:
        phi, cond = _greens_solve_real(J, src, eps)
    if cond is not None:
        warnings.warn(
            f"near-resonant lattice mode; condition number {cond:.3e}",
            IllConditionedWarning,
        )
    return LatticeField(phi, src.dt, src.dx, src.dtheta, src.lam, src.m)


def _greens_solve_real(J: np.ndarray, src: SourceTerm, eps: float):
    """(phi, condition number or None) for a real source J on src's lattice.

    J's spectrum is Hermitian, so only its nq // 2 + 1 non-negative theta
    columns are kept: rfft over theta into one complex buffer, then fft over
    x and t in place.  Each time slice is divided by the regularized symbol
    and taken back over x; one ifft over t follows.  irfft then takes one time
    slice at a time into the float64 view of the same buffer.  A spectrum row
    of nq // 2 + 1 complex entries holds more than nq floats, so output slice
    t ends before spectrum slice t + 1 begins: it overwrites only slices that
    have been read, and the field needs no second grid-sized array.
    """
    nt, nx, nq = J.shape
    wt, kx, kq = _symbol_axes(J.shape, src.dt, src.dx, src.dtheta)
    kq = kq[:nq // 2 + 1]
    # plane waves here are exp(+i w t) (the inverse-FFT convention), so the
    # retarded prescription moves the poles to w = +-omega + i eps, i.e.
    # symbol(w - i eps) ~ symbol - 2 i eps w; the signed frequency keeps both
    # poles on the causal side
    w_signed = 2.0 * np.pi * np.fft.fftfreq(nt, src.dt)
    if nt % 2 == 0:
        w_signed[nt // 2] = 0.0
    shift = 1j * eps * w_signed
    spec = np.fft.rfft(J, axis=2, out=np.empty((nt, nx, len(kq)), dtype=complex))
    np.fft.fft(spec, axis=1, out=spec)
    np.fft.fft(spec, axis=0, out=spec)
    # each slice of kg_symbol is built from the axis factors, so neither the
    # symbol nor its regularized form ever exists as a full array; the symbol
    # is even in k_theta, so its half columns hold all its magnitudes
    min_abs, scale = float("inf"), 0.0
    for t, spec_t in enumerate(spec):
        symbol = _symbol_slice(wt[t], kx, kq, src.lam, src.m)
        abs_symbol = np.abs(symbol)
        min_abs = min(min_abs, float(abs_symbol.min()))
        scale = max(scale, float(abs_symbol.max()))
        reg = symbol - shift[t]
        reg[reg == 0] = np.inf
        spec_t /= reg
        np.fft.ifft(spec_t, axis=0, out=spec_t)
    np.fft.ifft(spec, axis=0, out=spec)
    phi = spec.view(np.float64).reshape(-1)[:J.size].reshape(J.shape)
    row = np.empty((nx, nq))
    for t in range(nt):
        phi[t] = np.fft.irfft(spec[t], nq, axis=1, out=row)
    cond = scale / max(min_abs, 1e-300) if min_abs < 1e-9 * scale else None
    return phi, cond


# ---------------------------------------------------------------------------
# plane waves and evolution


def plane_wave_mode(
    shape: tuple[int, int, int],
    dt: float,
    dx: float,
    dtheta: float,
    lam: float,
    m: float,
    n_x: int = 1,
    n_theta: int = 1,
    amplitude: complex = 1.0,
    frequency_sign: int = 1,
) -> LatticeField:
    """Plane wave A exp(i(k x + kappa theta - omega t)) on a periodic box.

    k and kappa are chosen commensurate with the box (n_x, n_theta whole
    modes); omega comes from the continuum dispersion with the reduced
    coupling exp(i kappa theta) <-> K2_{12} = kappa.  The values are built
    in one complex array: the float phase k x + kappa theta - omega t times
    1j, then exp and the amplitude applied in place, the same operations as
    amplitude * exp(1j * phase).
    """
    _require_spacings(dt=dt, dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    nt, nx, nq = shape
    k = 2.0 * np.pi * n_x / (nx * dx)
    kappa = 2.0 * np.pi * n_theta / (nq * dtheta)
    k2 = vec_to_mat([0.0, 0.0, 0.0, kappa, 0.0, 0.0])  # K2_{12} = kappa
    omega = frequency_sign * dispersion([k, 0.0, 0.0], k2, lam, m)
    t = (dt * np.arange(nt)).reshape(nt, 1, 1)
    x = (dx * np.arange(nx)).reshape(1, nx, 1)
    q = (dtheta * np.arange(nq)).reshape(1, 1, nq)
    values = np.multiply(1j, k * x + kappa * q - omega * t)
    np.exp(values, out=values)
    values *= amplitude
    return LatticeField(values, dt, dx, dtheta, lam, m)


def discrete_mode_initial(
    shape_xq: tuple[int, int],
    dt: float,
    dx: float,
    dtheta: float,
    lam: float,
    m: float,
    n_x: int = 1,
    n_theta: int = 1,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(phi0, phidot0, w) launching a pure leapfrog plane-wave branch of amplitude 1.

    evolve_leapfrog rotates the mode exp(i(k x + kappa theta)) by
    exp(-i w dt) per step, with cos(w dt) = 1 + dt^2 s / 2 and s the mode's
    entry of _symbol_slice at w = 0.  Initializing phidot with this
    frequency launches a single branch, so all quadratic charges are
    constant to rounding error.
    """
    _require_spacings(dt=dt, dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    nx, nq = shape_xq
    k = 2.0 * np.pi * n_x / (nx * dx)
    kappa = 2.0 * np.pi * n_theta / (nq * dtheta)
    s = _symbol_slice(0.0, *_symbol_axes(shape_xq, dx, dtheta), lam, m)
    c = 1.0 + 0.5 * dt**2 * s[n_x % nx, n_theta % nq]
    if c < -1.0:
        raise ValueError("mode is unstable at this dt")
    w = float(np.arccos(c) / dt)
    x = dx * np.arange(nx).reshape(nx, 1)
    q = dtheta * np.arange(nq).reshape(1, nq)
    phi0 = np.exp(1j * (k * x + kappa * q))
    phidot0 = -1j * (np.sin(w * dt) / dt) * phi0
    return phi0, phidot0, w


class Charges(NamedTuple):
    P0: float
    P1: float
    Ptheta: float
    Q: float


def _roll_diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


def noether_charges(
    phi0: np.ndarray,
    phi1: np.ndarray,
    dt: float,
    dx: float,
    dtheta: float,
    lam: float,
    m: float,
) -> Charges:
    """Discretized conserved charges from two adjacent (x, theta) slices.

    Midpoint-centered: phi = (phi0 + phi1)/2 and phidot = (phi1 - phi0)/dt
    both live at t + dt/2.  Spatial derivatives are periodic central
    differences; the summation order is fixed (numpy axis order) so charge
    values are bit-stable.

    P0     sum |phidot|^2 + |d_x phi|^2 + lam^2 |d_theta phi|^2 + m^2|phi|^2
    P1     sum 2 Re(phidot* d_x phi)
    Ptheta sum Re(phidot* d_theta phi)
    Q      i sum (phidot* phi - phidot phi*)

    The theta-gradient coefficient is fixed by conservation under the wave
    operator Box + lam^2 Box_theta - m^2: in unreduced form the energy
    carries (lam^2/2) d^{mu nu} phi* d_{mu nu} phi, i.e. lam^2 per
    independent pair.
    """
    _require_spacings(dt=dt, dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    phi0 = np.asarray(phi0, dtype=complex)
    phi1 = np.asarray(phi1, dtype=complex)
    if phi0.shape != phi1.shape or phi0.ndim != 2:
        raise ValueError("need two equal-shape (x, theta) slices")
    dV = dx * dtheta
    phi = 0.5 * (phi0 + phi1)
    phidot = (phi1 - phi0) / dt
    gx = _roll_diff(phi, 0, dx)
    gq = _roll_diff(phi, 1, dtheta)
    p0 = float(
        (
            np.abs(phidot) ** 2
            + np.abs(gx) ** 2
            + lam**2 * np.abs(gq) ** 2
            + m**2 * np.abs(phi) ** 2
        ).sum()
        * dV
    )
    p1 = float((2.0 * (np.conj(phidot) * gx).real).sum() * dV)
    ptheta = float(((np.conj(phidot) * gq).real).sum() * dV)
    q = float((1j * (np.conj(phidot) * phi - phidot * np.conj(phi))).real.sum() * dV)
    return Charges(p0, p1, ptheta, q)


def evolve_leapfrog(
    phi: np.ndarray,
    phidot: np.ndarray,
    steps: int,
    dt: float,
    dx: float,
    dtheta: float,
    lam: float,
    m: float,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, float, Charges]]]:
    """Free leapfrog evolution on the periodic (x, theta) grid.

    The recurrence is the textbook one,
      phi_1     = phi_0 + dt phidot_0 + (dt^2 / 2) L phi_0,
      phi_{n+1} = 2 phi_n - phi_{n-1} + dt^2 L phi_n,
    with L = lap_x + lam^2 lap_theta - m^2 from periodic 3-point stencils.
    It is stepped in the lattice's Fourier basis, where L is the diagonal
    symbol s = -kx^2 - lam^2 kq^2 - m^2 (_symbol_slice at w = 0), so a
    step is phi_{n+1} = (2 + dt^2 s) phi_n - phi_{n-1} mode by mode and
    agrees with the stencil recurrence up to rounding.  Slices return to
    real space only for the recorded charges and the two returned slices.

    Modes are independent in this basis.  From _MIN_THREADED_CELLS cells on,
    the x rows of the transformed slices are split among the usable CPUs, and
    each worker steps its own rows through every step between two recorded
    steps; the transforms and the charges stay on the calling thread.  A
    mode's arithmetic does not depend on the rows it is stepped with, so the
    result is the same for any CPU count.

    Returns the last two field slices and the recorded charge series
    [(step, t, charges)], recorded at step 0 and every record_every steps
    (none when record_every is 0).  Raises ValueError unless phi and phidot
    are finite (x, theta) arrays of one shape, when steps is not an int >= 1
    or record_every not an int >= 0, when dt, dx or dtheta is not finite and
    positive, when lam or m is not finite, or when dt exceeds the stability
    bound.
    """
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise ValueError(f"steps = {steps!r} must be an int >= 1")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 0):
        raise ValueError(f"record_every = {record_every!r} must be an int >= 0")
    _require_spacings(dt=dt, dx=dx, dtheta=dtheta)
    _require_finite(lam=lam, m=m)
    if dt > max_stable_dt(dx, dtheta, lam, m):
        raise ValueError(
            f"dt = {dt} exceeds the stability bound "
            f"{max_stable_dt(dx, dtheta, lam, m)}"
        )
    phi = np.asarray(phi, dtype=complex)
    phidot = np.asarray(phidot, dtype=complex)
    if phi.ndim != 2 or phi.shape != phidot.shape:
        raise ValueError(f"phi {phi.shape} and phidot {phidot.shape} must be "
                         "(x, theta) slices of one shape")
    # one NaN would spread over every mode at the first transform
    if not (np.isfinite(phi).all() and np.isfinite(phidot).all()):
        raise ValueError("phi and phidot must be finite")
    nx, nq = phi.shape
    s = _symbol_slice(0.0, *_symbol_axes((nx, nq), dx, dtheta), lam, m)
    prev = np.fft.fft2(phi, out=np.empty((nx, nq), dtype=complex))
    cur = np.fft.fft2(phidot, out=np.empty((nx, nq), dtype=complex))
    cur *= dt
    cur += prev
    cur += 0.5 * dt**2 * s * prev
    # next = gain cur - prev, written over prev, on the float64 views of the
    # C-ordered complex arrays: a real gain repeated per (re, im) pair keeps
    # both passes contiguous
    gain = np.repeat(2.0 + dt**2 * s, 2, axis=1)
    tmp = np.empty_like(gain)
    rows = _workers.split(nx, nx * nq >= _MIN_THREADED_CELLS)

    def charges():
        return noether_charges(np.fft.ifft2(prev), np.fft.ifft2(cur),
                               dt, dx, dtheta, lam, m)

    def advance(x: slice, count: int) -> None:
        # count steps of the rows x, which no other worker touches
        p, c = prev.view(float)[x], cur.view(float)[x]
        g, t = gain[x], tmp[x]
        for _ in range(count):
            np.multiply(g, c, out=t)
            np.subtract(t, p, out=p)
            p, c = c, p

    series: list[tuple[int, float, Charges]] = []
    if record_every:
        series.append((0, 0.0, charges()))
    done = 0  # steps taken after the first half-step
    while done < steps - 1:
        count = min(record_every or steps, steps - 1 - done)
        _workers.run(lambda x: advance(x, count), rows)
        if count % 2:
            prev, cur = cur, prev
        done += count
        if record_every and done % record_every == 0:
            series.append((done, done * dt, charges()))
    return np.fft.ifft2(prev), np.fft.ifft2(cur), series


# ---------------------------------------------------------------------------
# action density


def scalar_action_density(f: LatticeField) -> np.ndarray:
    """(1/2)(d^mu phi d_mu phi + (lam^2/2) d^{mn} phi d_{mn} phi + m^2 phi^2).

    Real-field density on the interior; the reduced pair contraction
    contributes (lam^2/2)(d_theta phi)^2 inside the bracket, so the
    Euler-Lagrange residual of the summed action is exactly -kg_apply
    (the theta-term normalization is fixed by that cross identity, checked
    in the tests by a central-difference functional derivative).
    """
    v = f.values.real
    c = v[1:-1, 1:-1, 1:-1]
    dt_ = (v[2:, 1:-1, 1:-1] - v[:-2, 1:-1, 1:-1]) / (2 * f.dt)
    dx_ = (v[1:-1, 2:, 1:-1] - v[1:-1, :-2, 1:-1]) / (2 * f.dx)
    dq_ = (v[1:-1, 1:-1, 2:] - v[1:-1, 1:-1, :-2]) / (2 * f.dtheta)
    return 0.5 * (
        -(dt_**2) + dx_**2 + f.lam**2 * dq_**2 + f.m**2 * c**2
    )


# ---------------------------------------------------------------------------
# Moyal star product on exact polynomials


def moyal_star(f: Expression, g: Expression, theta, order: int) -> Expression:
    """Star product by the truncated exponential bidifferential series.

    f and g are commutative polynomials in x[1..n], n the size of theta, an
    antisymmetric matrix of exact rationals whose row and column k stand for
    x[k+1]; the result is in poisson normal form, and any other generator is
    an UnknownGeneratorError.  Exact once order >= min(deg f, deg g); each
    series term is (1/n!) (i/2)^n theta^{m1 n1} ... (d..f)(d..g).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = len(theta)
    theta = antisymmetric(theta, "theta", n, exact=True)
    x = [Generator("x", (k + 1,)) for k in range(n)]
    table = BracketTable(n, x, {}, mode="poisson")
    f, g = normal_form(f, table), normal_form(g, table)

    half_i = GaussRat(0, Fraction(1, 2))
    # tensor pairs sum_k  a_k (x) b_k, advanced by the bidifferential operator
    pairs: list[tuple[Expression, Expression]] = [(f, g)]
    result = normal_form(f * g, table)
    factor = GaussRat(1)
    for step in range(1, order + 1):
        factor = factor * half_i / step
        new_pairs: list[tuple[Expression, Expression]] = []
        for a, b in pairs:
            db = [derivative(b, xk) for xk in x]
            for mu in range(n):
                da = derivative(a, x[mu])
                if da.is_zero():
                    continue
                for nu in range(n):
                    if theta[mu, nu] != 0 and not db[nu].is_zero():
                        new_pairs.append((da * theta[mu, nu], db[nu]))
        if not new_pairs:
            break
        pairs = new_pairs
        contribution = Expression()
        for a, b in pairs:
            contribution = contribution + normal_form(a * b, table)
        result = result + contribution * factor
    return result


def star_commutator(f: Expression, g: Expression, theta, order: int) -> Expression:
    return moyal_star(f, g, theta, order) - moyal_star(g, f, theta, order)
