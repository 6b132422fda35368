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
dt <= 2 / sqrt(4/dx^2 + 4 lambda^2/dtheta^2 + m^2);
the lattice metadata records that bound.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .reps import ETA, antisymmetric
from .symcore import GaussRat, Scalar, _add_term


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

def _pair_contraction(k2: np.ndarray) -> float:
    """K_{mu nu} K^{mu nu} for an antisymmetric lower-index matrix."""
    k2 = antisymmetric(np.asarray(k2, dtype=float), "theta-momentum")
    upper = ETA @ k2 @ ETA
    return float(np.einsum("mn,mn->", k2, upper))


def dispersion(kvec1, k2, lam: float, m: float) -> float:
    """omega = sqrt(|k1|^2 + (lam^2/2) K2.K2 + m^2)."""
    kvec1 = np.asarray(kvec1, dtype=float)
    if kvec1.shape != (3,):
        raise ValueError("kvec1 must be the spatial 3-vector")
    radicand = float(kvec1 @ kvec1) + 0.5 * lam**2 * _pair_contraction(k2) + m**2
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
        object.__setattr__(self, "k2", np.asarray(self.k2, dtype=float))
        if self.k1.shape != (4,):
            raise ValueError("k1 must be a 4-vector")
        _pair_contraction(self.k2)  # validates shape/antisymmetry

    def squared(self) -> float:
        """K^2 = K1.K1 + (lam^2/2) K2.K2 (metric contractions)."""
        return float(self.k1 @ ETA @ self.k1) + 0.5 * self.lam**2 * _pair_contraction(
            self.k2
        )


def propagator(K: ExtendedMomentum, m: float, eps: float = 0.0) -> complex:
    """G(K) = -1 / (K^2 + m^2 - i eps); poles at K^0 = +-omega."""
    denom = K.squared() + m**2 - 1j * eps
    if abs(denom) < 1e-14:
        raise PoleError("on-shell momentum; supply eps for an i-epsilon shift")
    return -1.0 / denom


# ---------------------------------------------------------------------------
# the reduced lattice


def max_stable_dt(dx: float, dtheta: float, lam: float, m: float) -> float:
    """Leapfrog stability bound from the spatial symbol maximum."""
    return float(2.0 / np.sqrt(4.0 / dx**2 + 4.0 * lam**2 / dtheta**2 + m**2))


@dataclass(frozen=True)
class LatticeField:
    """Complex samples on the (t, x, theta) grid, with spacings and masses."""

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
        if min(self.dt, self.dx, self.dtheta) <= 0:
            raise ValueError("spacings must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def stable_dt(self) -> float:
        """The recorded stability bound for explicit time stepping."""
        return max_stable_dt(self.dx, self.dtheta, self.lam, self.m)


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


def _kg_interior(v: np.ndarray, f: LatticeField) -> np.ndarray:
    """(Box + lam^2 Box_theta - m^2) on the interior of the block v.

    v is any 3-D block of f's grid; the result has v's shape minus 2 on each
    axis.  The operations and their order are the same for every block, so
    a point's value does not depend on the block it is computed in.
    """
    c = v[1:-1, 1:-1, 1:-1]
    two_c = 2 * c
    out = np.subtract(v[2:, 1:-1, 1:-1], two_c)
    out += v[:-2, 1:-1, 1:-1]
    out *= 1.0 / f.dt**2
    np.negative(out, out=out)
    tmp = np.subtract(v[1:-1, 2:, 1:-1], two_c)
    tmp += v[1:-1, :-2, 1:-1]
    tmp *= 1.0 / f.dx**2
    out += tmp
    np.subtract(v[1:-1, 1:-1, 2:], two_c, out=tmp)
    tmp += v[1:-1, 1:-1, :-2]
    tmp *= 1.0 / f.dtheta**2
    tmp *= f.lam**2
    out += tmp
    np.multiply(c, f.m**2, out=tmp)
    out -= tmp
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


# cells per slab of kg_residual_max: a few MB of complex temporaries
_SLAB_CELLS = 1 << 18


def kg_residual_max(f: LatticeField, src: LatticeField) -> float:
    """max |(Box + lam^2 Box_theta - m^2) phi - J| over the interior.

    Equal to np.abs(kg_apply(f) - J_interior).max(), NaN included, but
    evaluated a few time slices at a time, so no full-grid temporary is made.
    """
    if src.shape != f.shape:
        raise ValueError("field and source must share the grid")
    nt, nx, nq = f.shape
    rows = max(1, _SLAB_CELLS // (nx * nq))
    slab_max = []
    for t0 in range(0, nt - 2, rows):
        t1 = min(t0 + rows, nt - 2)
        r = _kg_interior(f.values[t0:t1 + 2], f)
        r -= src.values[t0 + 1:t1 + 1, 1:-1, 1:-1]
        slab_max.append(np.abs(r).max())
    return float(np.max(slab_max))


def supplementary_residual(f: LatticeField, delta: float) -> np.ndarray:
    """(Box_theta - delta) phi on the interior; delta is a free constant."""
    v = f.values
    c = v[1:-1, 1:-1, 1:-1]
    dqq = (v[1:-1, 1:-1, 2:] - 2 * c + v[1:-1, 1:-1, :-2]) / f.dtheta**2
    return dqq - delta * c


def kg_symbol(
    shape: tuple[int, int, int], dt: float, dx: float, dtheta: float, lam: float, m: float
) -> np.ndarray:
    """Fourier symbol of the periodic wave operator on this grid.

    Equal to 1/G(K) at the effective lattice momenta
    (2/h) sin(pi j / n) per axis.
    """
    nt, nx, nq = shape

    def sq(n, h):
        j = np.arange(n)
        return (2.0 / h * np.sin(np.pi * j / n)) ** 2

    wt = sq(nt, dt).reshape(nt, 1, 1)
    kx = sq(nx, dx).reshape(1, nx, 1)
    kq = sq(nq, dtheta).reshape(1, 1, nq)
    return wt - kx - lam**2 * kq - m**2


def greens_solve(src: SourceTerm, eps: float = 1e-10) -> LatticeField:
    """Spectral inversion of the wave operator with a retarded i-epsilon.

    Solves (Box + lam^2 Box_theta - m^2) phi = J on the periodic grid;
    the pole shift eps enters as +i eps w with w the signed frequency,
    displacing both K^0 = +-omega poles causally.  Near-resonant modes
    trigger an ill-conditioning warning carrying the condition number.
    """
    symbol = kg_symbol(src.values.shape, src.dt, src.dx, src.dtheta, src.lam, src.m)
    # plane waves here are exp(+i w t) (the inverse-FFT convention), so the
    # retarded prescription moves the poles to w = +-omega + i eps, i.e.
    # symbol(w - i eps) ~ symbol - 2 i eps w; the signed frequency keeps both
    # poles on the causal side
    w_signed = 2.0 * np.pi * np.fft.fftfreq(src.values.shape[0], src.dt)
    shift = 1j * eps * w_signed
    abs_symbol = np.abs(symbol)
    min_abs = float(abs_symbol.min())
    scale = float(abs_symbol.max())
    del abs_symbol
    if min_abs < 1e-9 * scale:
        cond = scale / max(min_abs, 1e-300)
        warnings.warn(
            f"near-resonant lattice mode; condition number {cond:.3e}",
            IllConditionedWarning,
        )
    # divide one time slice at a time, so the regularized symbol never
    # exists as a full complex array
    phi = np.fft.fftn(src.values, out=np.empty(src.shape, dtype=complex))
    for t, phi_t in enumerate(phi):
        reg = symbol[t] - shift[t]
        reg[np.abs(reg) == 0.0] = 1j * max(eps, 1e-300)
        phi_t /= reg
    np.fft.ifftn(phi, out=phi)
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
    coupling exp(i kappa theta) <-> K2_{12} = kappa.
    """
    nt, nx, nq = shape
    k = 2.0 * np.pi * n_x / (nx * dx)
    kappa = 2.0 * np.pi * n_theta / (nq * dtheta)
    k2 = np.zeros((4, 4))
    k2[1, 2], k2[2, 1] = kappa, -kappa
    omega = frequency_sign * dispersion([k, 0.0, 0.0], k2, lam, m)
    t = (dt * np.arange(nt)).reshape(nt, 1, 1)
    x = (dx * np.arange(nx)).reshape(1, nx, 1)
    q = (dtheta * np.arange(nq)).reshape(1, 1, nq)
    values = amplitude * np.exp(1j * (k * x + kappa * q - omega * t))
    return LatticeField(values, dt, dx, dtheta, lam, m)


def lattice_mode_frequency(
    k: float, kappa: float, dt: float, dx: float, dtheta: float, lam: float, m: float
) -> float:
    """Exact phase advance per unit time of a leapfrog plane-wave branch.

    A mode exp(i(k x + kappa theta)) evolved by the explicit stepper rotates
    by exp(-i w dt) per step with cos(w dt) = 1 - dt^2 w_h^2 / 2, where w_h
    is the spatially-discrete frequency.  Initializing phidot with this
    frequency (through discrete_mode_initial) launches a single branch, so
    all quadratic charges are constant to rounding error.
    """
    wh2 = (
        (2.0 / dx * np.sin(0.5 * k * dx)) ** 2
        + lam**2 * (2.0 / dtheta * np.sin(0.5 * kappa * dtheta)) ** 2
        + m**2
    )
    c = 1.0 - 0.5 * dt**2 * wh2
    if c < -1.0:
        raise ValueError("mode is unstable at this dt")
    return float(np.arccos(c) / dt)


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
    """(phi0, phidot0, w) launching a pure leapfrog plane-wave branch."""
    nx, nq = shape_xq
    k = 2.0 * np.pi * n_x / (nx * dx)
    kappa = 2.0 * np.pi * n_theta / (nq * dtheta)
    w = lattice_mode_frequency(k, kappa, dt, dx, dtheta, lam, m)
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

    Returns the last two field slices and the recorded charge series
    [(step, t, charges)].  Raises when dt exceeds the stability bound.
    """
    if dt > max_stable_dt(dx, dtheta, lam, m):
        raise ValueError(
            f"dt = {dt} exceeds the stability bound "
            f"{max_stable_dt(dx, dtheta, lam, m)}"
        )
    phi = np.asarray(phi, dtype=complex)
    phidot = np.asarray(phidot, dtype=complex)
    # The stencil is the textbook one,
    #   (roll(v, -1) - 2 v + roll(v, 1)) / h^2 per axis, then
    #   lap_x + lam^2 lap_q - m^2 v,
    # with the same operations in the same order, written in place into
    # preallocated C-ordered buffers.  The periodic shifts are slice copies;
    # along theta they run over the flattened rows, and the wrap-around
    # column is then redone.  / h^2 is * (1 / h^2): numpy divides a complex
    # by a real as a product with the reciprocal, so the values agree bit
    # for bit (signs of zeros aside).
    inv_dx2, inv_dq2 = 1.0 / dx**2, 1.0 / dtheta**2
    lam2, m2, dt2 = lam**2, m**2, dt**2
    two_v, lap, tmp = (np.empty(phi.shape, dtype=complex) for _ in range(3))
    first_col = np.empty(phi.shape[0], dtype=complex)

    def spatial(v):
        """Leaves the stencil in lap and 2 v in two_v."""
        np.multiply(v, 2, out=two_v)
        np.subtract(v[1:], two_v[:-1], out=lap[:-1])
        np.subtract(v[:1], two_v[-1:], out=lap[-1:])
        lap[1:] += v[:-1]
        lap[:1] += v[-1:]
        np.multiply(lap, inv_dx2, out=lap)
        flat, flat_two, flat_tmp = v.reshape(-1), two_v.reshape(-1), tmp.reshape(-1)
        np.subtract(flat[1:], flat_two[:-1], out=flat_tmp[:-1])
        np.subtract(v[:, 0], two_v[:, -1], out=tmp[:, -1])
        np.add(tmp[:, 0], v[:, -1], out=first_col)
        flat_tmp[1:] += flat[:-1]
        tmp[:, 0] = first_col
        np.multiply(tmp, inv_dq2, out=tmp)
        np.multiply(tmp, lam2, out=tmp)
        np.add(lap, tmp, out=lap)
        np.multiply(v, m2, out=tmp)
        np.subtract(lap, tmp, out=lap)

    prev = np.array(phi, order="C")
    spatial(prev)
    lap *= 0.5 * dt2
    cur = np.multiply(phidot, dt, out=np.empty_like(prev))
    np.add(prev, cur, out=cur)
    cur += lap
    series: list[tuple[int, float, Charges]] = []
    if record_every:
        series.append(
            (0, 0.0, noether_charges(prev, cur, dt, dx, dtheta, lam, m))
        )
    for n in range(1, steps):
        # next = 2 cur - prev + dt^2 spatial(cur), written over prev
        spatial(cur)
        lap *= dt2
        np.subtract(two_v, prev, out=prev)
        prev += lap
        prev, cur = cur, prev
        if record_every and n % record_every == 0:
            series.append(
                (n, n * dt, noether_charges(prev, cur, dt, dx, dtheta, lam, m))
            )
    return prev, cur, series


def fit_frequency(samples: np.ndarray, dt: float) -> float:
    """Frequency of a complex oscillation by linear phase fit."""
    phase = np.unwrap(np.angle(np.asarray(samples)))
    t = dt * np.arange(len(phase))
    slope = np.polyfit(t, phase, 1)[0]
    return -float(slope)


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
# snapshots and charge series

_SNAPSHOT_MAGIC = "dfra-field-snapshot v1"


def write_snapshot(f: LatticeField, path) -> None:
    """Binary snapshot: text header, then little-endian complex128 samples."""
    header = (
        f"{_SNAPSHOT_MAGIC}\n"
        f"shape {f.shape[0]} {f.shape[1]} {f.shape[2]}\n"
        f"spacing {f.dt!r} {f.dx!r} {f.dtheta!r}\n"
        f"lambda {f.lam!r} m {f.m!r}\n"
        "dtype complex128 little\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(f.values.astype("<c16").tobytes())


def read_snapshot(path) -> LatticeField:
    with open(path, "rb") as fh:
        data = fh.read()
    text_end = 0
    for _ in range(5):
        text_end = data.index(b"\n", text_end) + 1
    lines = data[:text_end].decode("ascii").splitlines()
    if lines[0] != _SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot")
    shape = tuple(int(x) for x in lines[1].split()[1:])
    dt, dx, dtheta = (float(x) for x in lines[2].split()[1:])
    lam, m = float(lines[3].split()[1]), float(lines[3].split()[3])
    values = np.frombuffer(data[text_end:], dtype="<c16").reshape(shape)
    return LatticeField(values.copy(), dt, dx, dtheta, lam, m)


def charges_to_csv(series: Iterable[tuple[int, float, Charges]]) -> str:
    """CSV rows `step,t,P0,P1,Ptheta,Q`."""
    out = io.StringIO()
    out.write("step,t,P0,P1,Ptheta,Q\n")
    for step, t, ch in series:
        out.write(
            f"{step},{float(t)!r},{float(ch.P0)!r},{float(ch.P1)!r},"
            f"{float(ch.Ptheta)!r},{float(ch.Q)!r}\n"
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Moyal star product on exact polynomials


class CommutingPoly:
    """Polynomial in commuting coordinates with exact coefficients.

    Terms map exponent tuples to Gaussian rationals; used for the star
    product, where exactness makes associativity an identity rather than a
    tolerance.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple[int, ...], GaussRat] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = GaussRat.coerce(coeff)
                if coeff:
                    if len(exps) != n:
                        raise ValueError("exponent tuple length mismatch")
                    self.terms[tuple(exps)] = coeff

    @staticmethod
    def coordinate(n: int, i: int) -> "CommutingPoly":
        exps = [0] * n
        exps[i] = 1
        return CommutingPoly(n, {tuple(exps): 1})

    @staticmethod
    def constant(n: int, c: Scalar) -> "CommutingPoly":
        return CommutingPoly(n, {(0,) * n: c})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "CommutingPoly") -> "CommutingPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(terms, e, c)
        return CommutingPoly(self.n, terms)

    def __sub__(self, other: "CommutingPoly") -> "CommutingPoly":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "CommutingPoly":
        c = GaussRat.coerce(c)
        return CommutingPoly(self.n, {e: cc * c for e, cc in self.terms.items()})

    def __mul__(self, other: "CommutingPoly") -> "CommutingPoly":
        terms: dict[tuple[int, ...], GaussRat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return CommutingPoly(self.n, terms)

    def diff(self, i: int) -> "CommutingPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        return CommutingPoly(self.n, terms)

    def __eq__(self, other):
        return isinstance(other, CommutingPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"CommutingPoly({self.n}, {self.terms!r})"


def moyal_star(
    f: CommutingPoly, g: CommutingPoly, theta, order: int
) -> CommutingPoly:
    """Star product by the truncated exponential bidifferential series.

    theta is an antisymmetric matrix of exact rationals.  Exact for
    polynomial inputs once order >= min(deg f, deg g); each series term is
    (1/n!) (i/2)^n theta^{m1 n1} ... (d..f)(d..g).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = f.n
    theta = antisymmetric(theta, "theta", n, exact=True)

    half_i = GaussRat(0, Fraction(1, 2))
    # tensor pairs sum_k  a_k (x) b_k, advanced by the bidifferential operator
    pairs: list[tuple[CommutingPoly, CommutingPoly]] = [(f, g)]
    result = f * g
    factor = GaussRat(1)
    for step in range(1, order + 1):
        factor = factor * half_i / step
        new_pairs: list[tuple[CommutingPoly, CommutingPoly]] = []
        for a, b in pairs:
            for mu in range(n):
                da = a.diff(mu)
                if da.is_zero():
                    continue
                for nu in range(n):
                    if theta[mu, nu] == 0:
                        continue
                    db = b.diff(nu)
                    if db.is_zero():
                        continue
                    new_pairs.append((da.scale(theta[mu, nu]), db))
        if not new_pairs:
            break
        pairs = new_pairs
        contribution = CommutingPoly(n)
        for a, b in pairs:
            contribution = contribution + a * b
        result = result + contribution.scale(factor)
    return result


def star_commutator(
    f: CommutingPoly, g: CommutingPoly, theta, order: int
) -> CommutingPoly:
    return moyal_star(f, g, theta, order) - moyal_star(g, f, theta, order)
