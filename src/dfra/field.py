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


class BoundaryError(IndexError):
    """Stencil evaluation requested on the grid boundary."""


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
    """G(K) = -1 / (K^2 + m^2 - i eps); poles at K^0 = +-omega."""
    _require_finite(m=m, eps=eps)
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
    """Complex samples on the (t, x, theta) grid, with spacings and masses.

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
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=complex)
        )
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


# The field kernels split their work among the usable CPUs from this many
# grid cells on (x rows times theta points of one time slice for the leapfrog
# and the residual, which walk the slices one by one); below it they run on
# the calling thread alone.  suite-all's grids stay below it: 24 x 32 x 16 =
# 12,288 cells for the Green's solve, 32 x 16 for the leapfrog and 48 x 48
# for the largest plane wave's residual.
_MIN_THREADED_CELLS = 2**14


def _slabs(n: int, cells: int) -> list[slice]:
    """range(n) as contiguous slices, one per worker: a single one below _MIN_THREADED_CELLS."""
    workers = 1
    if cells >= _MIN_THREADED_CELLS:
        workers = min(n, _workers.usable_cpus())
    return [slice(n * w // workers, n * (w + 1) // workers) for w in range(workers)]


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


def kg_apply_at(f: LatticeField, it: int, ix: int, iq: int) -> complex:
    """Pointwise stencil; boundary points have no centered stencil."""
    nt, nx, nq = f.shape
    if not (0 < it < nt - 1 and 0 < ix < nx - 1 and 0 < iq < nq - 1):
        raise BoundaryError(f"({it}, {ix}, {iq}) is on the grid boundary")
    block = f.values[it - 1:it + 2, ix - 1:ix + 2, iq - 1:iq + 2]
    return complex(_kg_interior(block, f)[0, 0, 0])


def kg_residual_max(f: LatticeField, src: LatticeField) -> float:
    """max |(Box + lam^2 Box_theta - m^2) phi - J| over the interior.

    Equal to np.abs(kg_apply(f) - J_interior).max(), NaN included, but
    evaluated one time slice at a time, so no full-grid temporary is made.
    From _MIN_THREADED_CELLS cells per time slice on, the interior x rows are
    split among the usable CPUs and each worker walks every time slice of its
    own rows, so the workers' temporaries together still make one slice.
    Raises ValueError unless f and src share the grid, spacings, lam and m.
    """
    if src.shape != f.shape:
        raise ValueError("field and source must share the grid")
    lattice = lambda g: (g.dt, g.dx, g.dtheta, g.lam, g.m)
    if lattice(src) != lattice(f):
        raise ValueError(f"field (dt, dx, dtheta, lam, m) = {lattice(f)} differs "
                         f"from the source's {lattice(src)}")

    def rows_max(x: slice) -> float:
        # interior rows x are grid rows x.start + 1 ... x.stop; the block
        # adds their neighbours
        v = f.values[:, x.start:x.stop + 2]
        J = src.values[:, x.start + 1:x.stop + 1, 1:-1]
        slice_max = []
        for t in range(1, nt - 1):
            r = _kg_interior(v[t - 1:t + 2], f)
            r -= J[t:t + 1]
            slice_max.append(np.abs(r).max())
        return np.max(slice_max)

    nt, nx, nq = f.shape
    return float(np.max(_workers.run(rows_max, _slabs(nx - 2, nx * nq))))


def supplementary_residual(f: LatticeField, delta: float) -> np.ndarray:
    """(Box_theta - delta) phi on the interior; delta is a free constant."""
    v = f.values
    c = v[1:-1, 1:-1, 1:-1]
    dqq = (v[1:-1, 1:-1, 2:] - 2 * c + v[1:-1, 1:-1, :-2]) / f.dtheta**2
    return dqq - delta * c


def _symbol_axes(shape, *spacings: float):
    """The per-axis squared lattice momenta (2/h)^2 sin^2(pi j / n)."""
    return tuple((2.0 / h * np.sin(np.pi * np.arange(n) / n)) ** 2
                 for n, h in zip(shape, spacings))


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
    trigger an ill-conditioning warning carrying the condition number.
    Raises ValueError unless eps is finite and >= 0.

    The transforms are numpy.fft.fftn and ifftn taken one axis at a time in
    their order (theta, x, then t).  From _MIN_THREADED_CELLS cells on, the
    usable CPUs share them in slabs: of time slices for the theta and x
    transforms and the division by the symbol, of x rows for the t
    transforms.  Each line is transformed as in the full-grid call, so the
    result is the same for any CPU count.
    """
    if not 0.0 <= eps < np.inf:  # False for NaN too
        raise ValueError(f"eps = {eps} must be finite and >= 0")
    wt, kx, kq = _symbol_axes(src.shape, src.dt, src.dx, src.dtheta)
    # plane waves here are exp(+i w t) (the inverse-FFT convention), so the
    # retarded prescription moves the poles to w = +-omega + i eps, i.e.
    # symbol(w - i eps) ~ symbol - 2 i eps w; the signed frequency keeps both
    # poles on the causal side
    w_signed = 2.0 * np.pi * np.fft.fftfreq(src.shape[0], src.dt)
    shift = 1j * eps * w_signed
    phi = np.empty(src.shape, dtype=complex)
    times = _slabs(src.shape[0], phi.size)
    rows = _slabs(src.shape[1], phi.size)

    def forward_slices(t: slice) -> None:
        np.fft.fft(src.values[t], axis=2, out=phi[t])
        np.fft.fft(phi[t], axis=1, out=phi[t])

    def forward_rows(x: slice) -> None:
        np.fft.fft(phi[:, x], axis=0, out=phi[:, x])

    def divide_and_invert_slices(t: slice) -> tuple[float, float]:
        # one time slice at a time: each slice of kg_symbol is built from the
        # axis factors, so neither the symbol nor its regularized form ever
        # exists as a full array
        min_abs, scale = float("inf"), 0.0
        for i in range(t.start, t.stop):
            symbol = _symbol_slice(wt[i], kx, kq, src.lam, src.m)
            abs_symbol = np.abs(symbol)
            min_abs = min(min_abs, float(abs_symbol.min()))
            scale = max(scale, float(abs_symbol.max()))
            reg = symbol - shift[i]
            reg[np.abs(reg) == 0.0] = 1j * max(eps, 1e-300)
            phi[i] /= reg
        np.fft.ifft(phi[t], axis=2, out=phi[t])
        np.fft.ifft(phi[t], axis=1, out=phi[t])
        return min_abs, scale

    def inverse_rows(x: slice) -> None:
        np.fft.ifft(phi[:, x], axis=0, out=phi[:, x])

    _workers.run(forward_slices, times)
    _workers.run(forward_rows, rows)
    bounds = _workers.run(divide_and_invert_slices, times)
    _workers.run(inverse_rows, rows)
    min_abs = min(lo for lo, _ in bounds)
    scale = max(hi for _, hi in bounds)
    if min_abs < 1e-9 * scale:
        cond = scale / max(min_abs, 1e-300)
        warnings.warn(
            f"near-resonant lattice mode; condition number {cond:.3e}",
            IllConditionedWarning,
        )
    return LatticeField(phi, src.dt, src.dx, src.dtheta, src.lam, src.m)


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
    amplitude: complex = 1.0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(phi0, phidot0, w) launching a pure leapfrog plane-wave branch.

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
    phi0 = amplitude * np.exp(1j * (k * x + kappa * q))
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
    rows = _slabs(nx, nx * nq)

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
