"""Spectrum and Gaussian statistics of the two-sector isotropic oscillator.

The x-sector is a D-dimensional oscillator in the shifted coordinate X with
frequency omega; the theta-sector adds D(D-1)/2 modes of frequency Omega and
stiffness parameter Lambda (units length^-3).  The theta ground state is a
Gaussian whose square is the weight function W used to average over
noncommutativity; every closed-form moment here is cross-checked by an
independent quadrature / Monte Carlo oracle, and the vacuum shift by a
discrete-variable-representation diagonalization of one theta mode.

Conventions: theta_{ij} theta^{ij} = 2 sum_{i<j} (theta^{ij})^2, and
theta^2 denotes half that contraction, i.e. the sum over the independent
components.  With the ground-state weight this gives a variance of
1/(2 Lambda Omega) per independent component, hence

    <theta^2> = D(D-1)/(4 Lambda Omega),
    <theta^{ij} theta^{kl}> = delta^{ij,kl} / (2 Lambda Omega)
                            = (2/(D(D-1))) delta^{ij,kl} <theta^2>.

For D = 2 this reduces to the commonly quoted scalar <theta^2> =
1/(2 Lambda Omega); for D > 2 the quoted scalar is the per-component
variance, not the full contraction.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np
# numpy loads these on first use; importing them here keeps that load out of
# the runtime of the first record that uses them
import numpy.polynomial
import numpy.random

from . import _workers


class QuadratureUnsupportedError(ValueError):
    """Tensor quadrature is limited to <= 3 theta components (D <= 3)."""


@dataclass(frozen=True)
class OscillatorConfig:
    m: float = 1.0
    omega: float = 1.0
    Lambda: float = 1.0
    Omega: float = 1.0
    D: int = 3

    def __post_init__(self):
        for name in ("m", "omega", "Lambda", "Omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):  # NaN fails both
                raise ValueError(f"oscillator parameter {name} must be finite and "
                                 f"positive, got {value}")
        # a float D would give a float n_modes; bool is an Integral too
        if not (isinstance(self.D, numbers.Integral) and not isinstance(self.D, bool)
                and self.D >= 2):
            raise ValueError(f"D must be an integer >= 2, got {self.D!r}")

    @property
    def n_modes(self) -> int:
        """Independent theta components."""
        return self.D * (self.D - 1) // 2

    @property
    def mode_pairs(self) -> list[tuple[int, int]]:
        return list(combinations(range(1, self.D + 1), 2))


@dataclass(frozen=True)
class Occupation:
    n_x: tuple[int, ...]
    n_theta: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.n_x + self.n_theta):
            raise ValueError("occupation numbers must be non-negative")


def energy(cfg: OscillatorConfig, occ: Occupation) -> float:
    """E = omega (sum n_x + D/2) + Omega (sum n_theta + D(D-1)/4)."""
    if len(occ.n_x) != cfg.D or len(occ.n_theta) != cfg.n_modes:
        raise ValueError("occupation does not match configuration")
    return cfg.omega * (sum(occ.n_x) + cfg.D / 2.0) + cfg.Omega * (
        sum(occ.n_theta) + cfg.D * (cfg.D - 1) / 4.0
    )


def vacuum_shift(cfg: OscillatorConfig) -> float:
    """Ground-state energy added by the theta sector: D(D-1) Omega / 4."""
    return cfg.D * (cfg.D - 1) * cfg.Omega / 4.0


# Grid sizes of the sinc-DVR diagonalizations in vacuum_shift_oracle.
_DVR_POINTS = (41, 81)


def vacuum_shift_oracle(cfg: OscillatorConfig) -> tuple[float, float]:
    """Independent estimate of vacuum_shift, as (value, error).

    n_modes times the lowest eigenvalue of one theta mode,
    H = -(1/(2 Lambda)) d^2/dtheta^2 + (1/2) Lambda Omega^2 theta^2, from
    numpy.linalg.eigvalsh of its sinc discrete-variable representation
    (Colbert and Miller, J. Chem. Phys. 96, 1982 (1992)) on n equally spaced
    points spanning |theta| <= 8/sqrt(Lambda Omega), where the ground state
    is e^{-32} of its peak.  With step h the kinetic matrix is
    T_ij = (-1)^(i-j) 2/(i-j)^2 / (2 Lambda h^2), pi^2/3 in place of
    2/(i-j)^2 on the diagonal.  The value comes from 81 points.  The DVR
    error falls exponentially as h shrinks, so the 41-point value is much
    further off than the 81-point one, and the returned error is their gap
    plus a bound on eigvalsh's rounding at 81 points, n eps ||H||_inf (the
    row-sum norm bounds the 2-norm of the symmetric H), both times n_modes.
    """
    half = 8.0 / math.sqrt(cfg.Lambda * cfg.Omega)
    (coarse, _), (fine, rounding) = (_lowest_dvr_eigenvalue(cfg, half, n)
                                     for n in _DVR_POINTS)
    n = cfg.n_modes
    return n * fine, n * (abs(fine - coarse) + rounding)


def _lowest_dvr_eigenvalue(cfg: OscillatorConfig, half: float,
                           points: int) -> tuple[float, float]:
    """Lowest sinc-DVR eigenvalue of one theta mode and its rounding bound."""
    h = 2.0 * half / (points - 1)
    theta = np.linspace(-half, half, points)
    k = np.subtract.outer(np.arange(points), np.arange(points))
    T = 2.0 * (-1.0) ** k / np.maximum(k * k, 1)
    np.fill_diagonal(T, math.pi**2 / 3.0)
    # Lambda Omega theta^2 first: Omega^2 underflows where Omega does not
    potential = 0.5 * ((cfg.Lambda * cfg.Omega) * theta**2) * cfg.Omega
    H = T / (2.0 * cfg.Lambda * h * h) + np.diag(potential)
    lowest = float(np.linalg.eigvalsh(H)[0])
    return lowest, points * np.finfo(float).eps * float(np.abs(H).sum(axis=1).max())


def level_degeneracy(D: int, n: int) -> int:
    """Number of x-sector states with sum n_x = n (unchanged by the shift)."""
    return math.comb(n + D - 1, D - 1)


def ground_wavefunction(cfg: OscillatorConfig, theta_values, t: float = 0.0) -> complex:
    """theta-sector ground state at the given independent components.

    (Lambda Omega / pi)^{D(D-1)/8} exp(-(Lambda Omega/4) theta.theta)
    exp(-i D(D-1) Omega t / 4), where theta.theta is the doubled pair
    contraction.
    """
    theta = np.asarray(theta_values, dtype=float)
    if theta.shape != (cfg.n_modes,):
        raise ValueError(f"expected {cfg.n_modes} theta components")
    lo = cfg.Lambda * cfg.Omega
    amp = (lo / math.pi) ** (cfg.D * (cfg.D - 1) / 8.0) * math.exp(
        -0.5 * lo * float(theta @ theta)
    )
    return amp * complex(math.cos(vacuum_shift(cfg) * t), -math.sin(vacuum_shift(cfg) * t))


def weight_function(cfg: OscillatorConfig, theta_values) -> float:
    """W(theta) = (Lambda Omega/pi)^{D(D-1)/4} exp(-Lambda Omega theta.theta / 2).

    Normalized Gaussian over the independent components; equals
    |ground_wavefunction|^2 at t = 0.
    """
    theta = np.asarray(theta_values, dtype=float)
    if theta.shape != (cfg.n_modes,):
        raise ValueError(f"expected {cfg.n_modes} theta components")
    lo = cfg.Lambda * cfg.Omega
    return (lo / math.pi) ** (cfg.D * (cfg.D - 1) / 4.0) * math.exp(
        -lo * float(theta @ theta)
    )


def _pair_delta(i, j, k, l) -> int:
    return (1 if (i, j) == (k, l) else 0) - (1 if (i, j) == (l, k) else 0)


def moment(cfg: OscillatorConfig, which: str, indices: tuple[int, ...] | None = None):
    """Closed-form ground-state expectation values over W.

    which = "one":                <1> = 1
    which = "theta_ij":           <theta^{ij}> = 0
    which = "theta2":             <theta^2> = D(D-1)/(4 Lambda Omega)
    which = "theta_ij_theta_kl":  delta^{ij,kl}/(2 Lambda Omega); with
        indices=(i, j, k, l) the delta (including sign) is evaluated,
        otherwise the diagonal value is returned.
    """
    lo = cfg.Lambda * cfg.Omega
    if which == "one":
        return 1.0
    if which == "theta_ij":
        return 0.0
    if which == "theta2":
        return cfg.D * (cfg.D - 1) / (4.0 * lo)
    if which == "theta_ij_theta_kl":
        if indices is None:
            return 1.0 / (2.0 * lo)
        i, j, k, l = indices
        return _pair_delta(i, j, k, l) / (2.0 * lo)
    raise ValueError(f"unknown moment {which!r}")


def x2_expectation(cfg: OscillatorConfig, X2: float, p2: float) -> float:
    """<x^2> = <X^2> + <theta^2> <p^2> / (2D).

    X2 and p2 are ordinary-oscillator expectation values supplied by the
    caller for an isotropic x-sector state, so <p_j^2> = <p^2>/D.  With
    x_i = X_i - (1/2) theta^{ij} p_j (algebra.shifted_coordinate) and theta
    averaged over W independently of the x sector, the cross terms vanish
    and <x^2> = <X^2> + (1/4) sum_{i != j} <(theta^{ij})^2> <p_j^2>; the sum
    over ordered pairs counts each independent component twice, which gives
    2 <theta^2> <p^2>/D.
    """
    return X2 + moment(cfg, "theta2") * p2 / (2.0 * cfg.D)


class MomentEstimate(NamedTuple):
    value: float
    error: float
    method: str
    samples: int


def monomial(exponents: tuple[int, ...]) -> Callable[..., np.ndarray]:
    """Vectorized monomial prod theta_c^{e_c} over the component axis.

    Exponents must be non-negative ints.  The returned f(theta, out=None)
    computes each factor as theta_c ** e_c and multiplies them in component
    order; given out, an array of shape theta.shape[:-1], it writes the
    values there and returns out, with the same bits.  Only a second or later
    factor then makes a temporary.  f carries f.components, the number of
    leading theta components it reads: one more than the last index with a
    nonzero exponent, and at least 1.  moment_oracle integrates over only
    those components, and its Monte Carlo passes its values buffers as out.
    """
    if not all(isinstance(e, numbers.Integral) and e >= 0 for e in exponents):
        raise ValueError(f"monomial exponents must be non-negative ints, got {exponents}")
    factors = [(c, e) for c, e in enumerate(exponents) if e]

    def f(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not factors:
            if out is None:
                return np.ones(theta.shape[:-1])
            out[...] = 1.0
            return out
        (c, e), *rest = factors
        out = _power(theta[..., c], e, out)
        for c, e in rest:
            out *= _power(theta[..., c], e)
        return out

    f.components = 1 + max((c for c, _ in factors), default=0)
    return f


def _power(x: np.ndarray, e: int, out: np.ndarray | None = None) -> np.ndarray:
    """x ** e, into out if given: numpy computes x ** 2 as np.square."""
    return np.square(x, out=out) if e == 2 else np.power(x, e, out=out)


def moment_oracle(
    cfg: OscillatorConfig,
    f: Callable[[np.ndarray], np.ndarray],
    method: str = "quadrature",
    samples: int = 1_000_000,
    seed: int | tuple[int, ...] = 0,
    nodes: int = 24,
) -> MomentEstimate:
    """Independent estimate of int W(theta) f(theta) dtheta.

    f must be vectorized over a trailing component axis: it maps arrays of
    shape (..., m) to shape (...), or ValueError is raised.  Both methods
    pass m = f.components where f has that attribute (as monomial's
    functions do), else n_modes, and integrate over those components only:
    W is a product over components, and each one f does not read integrates
    to 1.  f.components above n_modes is a ValueError.  Quadrature (tensor
    Gauss-Hermite, exact for polynomials up to degree 2*nodes-1) supports
    n_modes <= 3.  Monte Carlo works in any dimension, in deterministic
    seeded chunks.  seed is anything numpy.random.SeedSequence takes as
    entropy: an int or a tuple of ints.

    The Monte Carlo's calling thread allocates every chunk-sized array up
    front: one draw buffer per worker and, where f takes an out= keyword (as
    monomial's functions do), one values buffer per worker, which f writes
    each chunk's values into.  A chunk then makes no chunk-sized temporary
    beyond what f itself makes; an f without out= returns a new array per
    chunk.
    """
    M = cfg.n_modes
    lo = cfg.Lambda * cfg.Omega
    reads = getattr(f, "components", M)
    if not 1 <= reads <= M:
        raise ValueError(f"f reads {reads} theta components; D = {cfg.D} has {M}")
    if method == "quadrature":
        if M > 3:
            raise QuadratureUnsupportedError(
                f"quadrature supports <= 3 theta components, got {M} (D = {cfg.D})"
            )
        value = _hermite_tensor(f, reads, lo, nodes)
        check = _hermite_tensor(f, reads, lo, nodes + 8)
        return MomentEstimate(value, abs(value - check) + 1e-15, "quadrature", 0)
    if method == "monte-carlo":
        if samples < 2:
            raise ValueError(f"monte-carlo needs samples >= 2, got {samples}")
        sigma = 1.0 / math.sqrt(2.0 * lo)
        chunk = 262_144
        children = np.random.SeedSequence(seed).spawn(-(-samples // chunk))
        runs = _workers.split(len(children), len(children) >= _MIN_THREADED_CHUNKS)
        # the calling thread allocates every worker's draw buffer, so that no
        # worker thread's malloc arena keeps one once the thread is done
        rows = min(chunk, samples)
        buffers = [np.empty((rows, reads)) for _ in runs]
        values = [np.empty(rows) for _ in runs] if _takes_out(f) else None
        parts = [None] * len(children)  # (k, sum f/2^k, sum (f/2^k)^2) per chunk

        def draw(w):
            # worker w takes the contiguous run of chunks runs[w]; worker 0 is
            # the calling thread
            theta_buf = buffers[w]
            # once f has read a chunk's draws, the buffer's first n floats take
            # the scaled values and then their squares; numpy copies vals first
            # where f returned a view that overlaps them
            scratch = theta_buf.reshape(-1)
            for i in range(runs[w].start, runs[w].stop):
                n = min(chunk, samples - i * chunk)
                theta = theta_buf[:n]
                # sigma * z is what normal(0.0, sigma) computes, bit for bit
                np.random.default_rng(children[i]).standard_normal(out=theta)
                theta *= sigma
                vals = _values(f, theta, None if values is None else values[w][:n])
                # |f| / 2^k < 1, so the squares cannot overflow; scaling by
                # a power of two is exact, so the sums are 2^-k times the
                # raw ones (2^1022 at most: 2^1073 is not a float)
                k = max(math.frexp(max(vals.max(), -vals.min()))[1], -1022)
                scaled = np.multiply(vals, 2.0 ** -k, out=scratch[:n])
                chunk_sum = float(scaled.sum())
                scaled *= scaled
                parts[i] = k, chunk_sum, float(scaled.sum())

        _workers.run(draw, range(len(runs)))
        # fold in chunk order at the largest chunk's scale, so the sums do not
        # depend on the thread count
        top = max(k for k, _, _ in parts)
        total = 0.0
        total_sq = 0.0
        for k, s, sq in parts:
            total += math.ldexp(s, k - top)
            total_sq += math.ldexp(sq, 2 * (k - top))
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        stderr = math.sqrt(var / samples)
        return MomentEstimate(math.ldexp(mean, top), math.ldexp(stderr, top),
                              "monte-carlo", samples)
    raise ValueError(f"unknown method {method!r}")


# Monte Carlo draws its chunks on threads only from this many chunks on.
# Each worker holds its own draw buffer, rows x the components f reads, and
# a buffer for f's values at the same time as the others: 8.4 MB at M = 3
# for an f that reads all three components.  Threading the 1M samples (4
# chunks) of `dfra run --suite all` on 2 CPUs raised its peak RSS from 51.4 to
# 61.4 MB.  Below 16 chunks (4.2M samples) sampling takes well under a second
# on one thread.
_MIN_THREADED_CHUNKS = 16


def _takes_out(f) -> bool:
    """Whether f takes an out= keyword, as monomial's functions do."""
    try:
        return "out" in inspect.signature(f).parameters
    except (TypeError, ValueError):  # a callable with no signature to read
        return False


def _values(f, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f at theta as floats, which must have shape theta.shape[:-1]; into out if given."""
    vals = np.asarray(f(theta) if out is None else f(theta, out=out), dtype=float)
    if vals.shape != theta.shape[:-1]:
        raise ValueError(f"f maps theta of shape {theta.shape} to shape {vals.shape}, "
                         f"not {theta.shape[:-1]}")
    return vals


@functools.lru_cache(maxsize=8)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, read-only, computed once per node count."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _hermite_tensor(f, M: int, lo: float, nodes: int) -> float:
    # substitute theta_c = u_c / sqrt(lo):  int W f = pi^{-M/2} int e^{-u.u} f
    x, w = _hermgauss(nodes)
    theta = np.stack(np.meshgrid(*[x * (1.0 / math.sqrt(lo))] * M, indexing="ij"), axis=-1)
    weights = functools.reduce(np.multiply.outer, [w] * M)
    vals = _values(f, theta)
    return float((weights * vals).sum() / math.pi ** (M / 2.0))
