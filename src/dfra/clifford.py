"""D = 10 Clifford sector with the 4 + 6 macro-index split.

Ten 32x32 gamma matrices indexed by A in {0..9}: A < 4 is a spacetime vector
index, A >= 4 an antisymmetric pair from reps.PAIRS.  They satisfy

    {Gamma^A, Gamma^B} = -2 eta^{AB} I

with eta^{mu nu} = diag(-1, 1, 1, 1) and eta^{mu nu, alpha beta} =
eta^{mu alpha} eta^{nu beta} - eta^{mu beta} eta^{nu alpha} on the pair
block, which makes the extended signature (-,+,+,+, -,-,-, +,+,+).

Construction: the standard tensor ladder of Pauli matrices gives ten
Hermitian anticommuting E_A with E_A^2 = +1; Gamma^A = E_A where
eta^{AA} = -1 and i E_A where eta^{AA} = +1.  In particular Gamma^0 is
Hermitian and squares to +1 while spatial/positive-signature gammas are
anti-Hermitian; all are traceless.

Spinor Lorentz generator:

    M^{mu nu} = (i/4) ([G^mu, G^nu] + [G^{mu a}, G^nu_a])

closes exactly in the Lorentz algebra and obeys the covariance relations

    [G^mu, M_{ab}]    = i (d^mu_b G_a - d^mu_a G_b)
    [G^{mu nu}, M_{ab}] = i (d^mu_b G_a^nu - d^mu_a G_b^nu)
                        - i (d^nu_b G_a^mu - d^nu_a G_b^mu)

(the delta-selected single-gamma structure; the antisymmetrization order is
the one this M realizes, verified entrywise in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .algebra import so_pattern
from .reps import ETA, PAIRS, antisymmetric, expm, minkowski_dot, pair_dot, pair_slot

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

N_SPINOR = 32


def _kron(*mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def extended_metric_diagonal() -> np.ndarray:
    """eta^{AA} over the ten macro indices."""
    out = np.empty(10)
    out[:4] = np.diag(ETA)
    for s, (mu, nu) in enumerate(PAIRS):
        out[4 + s] = ETA[mu, mu] * ETA[nu, nu]
    return out


@dataclass(frozen=True)
class GammaSet:
    gamma: np.ndarray  # (10, 32, 32) complex
    eta: np.ndarray  # (10,) extended metric diagonal

    def vector(self, mu: int) -> np.ndarray:
        """Gamma^mu, mu in 0..3."""
        if not 0 <= mu <= 3:
            raise IndexError("vector index must be 0..3")
        return self.gamma[mu]

    def pair(self, mu: int, nu: int) -> np.ndarray:
        """Gamma^{mu nu} = -Gamma^{nu mu}; zero when mu == nu."""
        if mu == nu:
            return np.zeros((N_SPINOR, N_SPINOR), dtype=complex)
        slot, sign = pair_slot(mu, nu)
        return sign * self.gamma[4 + slot]

    @cached_property
    def generator(self) -> "SpinorGenerator":
        """spinor_generator(self), built on first use and kept."""
        return spinor_generator(self)


def build_gammas() -> GammaSet:
    """Deterministic tensor-ladder construction of the ten gammas."""
    euclid = []
    for j in range(5):
        euclid.append(_kron(*([_SZ] * j + [_SX] + [_I2] * (4 - j))))
        euclid.append(_kron(*([_SZ] * j + [_SY] + [_I2] * (4 - j))))
    eta = extended_metric_diagonal()
    gamma = np.empty((10, N_SPINOR, N_SPINOR), dtype=complex)
    for A in range(10):
        gamma[A] = euclid[A] if eta[A] == -1 else 1j * euclid[A]
    return GammaSet(gamma=gamma, eta=eta)


def anticommutator_residual(gs: GammaSet) -> float:
    """Max-entry residual of {G^A, G^B} + 2 eta^{AB} over all 100 pairs; NaN if any is."""
    residuals = []
    eye = np.eye(N_SPINOR)
    for A, B in product(range(10), repeat=2):
        anti = gs.gamma[A] @ gs.gamma[B] + gs.gamma[B] @ gs.gamma[A]
        target = -2.0 * gs.eta[A] * eye if A == B else 0.0
        residuals.append(np.abs(anti - target).max())
    return float(np.max(residuals))


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


@dataclass(frozen=True)
class SpinorGenerator:
    m: np.ndarray  # (4, 4, 32, 32) M^{mu nu}, antisymmetric in the first two axes

    def lower(self, mu: int, nu: int) -> np.ndarray:
        return ETA[mu, mu] * ETA[nu, nu] * self.m[mu, nu]


def spinor_generator(gs: GammaSet) -> SpinorGenerator:
    """M^{mu nu} = (i/4)([G^mu, G^nu] + [G^{mu a}, G^nu_a])."""
    m = np.zeros((4, 4, N_SPINOR, N_SPINOR), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            term = _comm(gs.vector(mu), gs.vector(nu))
            for a in range(4):
                term = term + ETA[a, a] * _comm(gs.pair(mu, a), gs.pair(nu, a))
            m[mu, nu] = 0.25j * term
            m[nu, mu] = -m[mu, nu]
    return SpinorGenerator(m)


def lorentz_closure_residual(sg: SpinorGenerator) -> float:
    """Max residual of the Lorentz algebra commutators of M; NaN if any is."""
    M = lambda a, b: sg.m[a, b]
    eta = lambda a, b: ETA[a, b]
    residuals = []
    for mu, nu, rho, sig in product(range(4), repeat=4):
        lhs = _comm(sg.m[mu, nu], sg.m[rho, sig])
        rhs = 1j * so_pattern(M, eta, mu, nu, rho, sig)
        residuals.append(np.abs(lhs - rhs).max())
    return float(np.max(residuals))


def _covariance_residual(sg: SpinorGenerator, tensor, rank: int) -> float:
    """Max residual of the covariance rule of a gamma tensor T = tensor(m1, .., mr),

        [T^{m1..mr}, M_{ab}] = i sum_s (d^{ms}_b T^{..a..} - d^{ms}_a T^{..b..}),

    where T^{..a..} has a lowered a in place of its s-th index; NaN if any is.
    """
    def lowered(idx, s, a):
        return ETA[a, a] * tensor(*idx[:s], a, *idx[s + 1:])

    residuals = []
    for idx in product(range(4), repeat=rank):
        for a, b in product(range(4), repeat=2):
            lhs = _comm(tensor(*idx), sg.lower(a, b))
            rhs = sum(1j * ((1.0 if mu == b else 0.0) * lowered(idx, s, a)
                            - (1.0 if mu == a else 0.0) * lowered(idx, s, b))
                      for s, mu in enumerate(idx))
            residuals.append(np.abs(lhs - rhs).max())
    return float(np.max(residuals))


def vector_covariance_residual(gs: GammaSet, sg: SpinorGenerator) -> float:
    """Max residual of [G^mu, M_{ab}] = i(d^mu_b G_a - d^mu_a G_b)."""
    return _covariance_residual(sg, gs.vector, 1)


def pair_covariance_residual(gs: GammaSet, sg: SpinorGenerator) -> float:
    """Max residual of the Gamma^{mu nu} covariance commutator (module docstring)."""
    return _covariance_residual(sg, gs.pair, 2)


# ---------------------------------------------------------------------------
# generalized Dirac operator


def dirac_operator(gs: GammaSet, k, K, lam: float, m: float) -> np.ndarray:
    """Momentum-space operator G^mu k_mu + (lam/2) G^{ab} K_{ab} - m I.

    k carries lower (covariant) components k_mu; K is the antisymmetric
    lower-index theta-momentum K_{ab}.  The pair term's full index sum
    equals lam * sum_{a<b} G^{ab} K_{ab}.
    """
    k = np.asarray(k, dtype=float)
    K = np.asarray(K, dtype=float)
    out = -m * np.eye(N_SPINOR, dtype=complex)
    for mu in range(4):
        if k[mu]:
            out = out + gs.vector(mu) * k[mu]
    for slot, (a, b) in enumerate(PAIRS):
        if K[a, b]:
            out = out + lam * K[a, b] * gs.gamma[4 + slot]
    return out


def conjugate_dirac_operator(gs: GammaSet, k, K, lam: float, m: float) -> np.ndarray:
    """Same slash terms with +m, the left factor of the squaring identity."""
    return dirac_operator(gs, k, K, lam, m) + 2.0 * m * np.eye(N_SPINOR, dtype=complex)


def quadratic_form(k, K, lam: float, m: float) -> float:
    """k^2 + (lam^2/2) K_{ab} K^{ab} + m^2, the generalized mass-shell form."""
    k = np.asarray(k, dtype=float)
    return float(minkowski_dot(k, k)) + 0.5 * lam**2 * pair_dot(K, K) + m**2


def dirac_square_residual(gs: GammaSet, k, K, lam: float, m: float) -> float:
    """Max-entry residual of D+ D- + (k^2 + (lam^2/2) K^2 + m^2) I."""
    prod = conjugate_dirac_operator(gs, k, K, lam, m) @ dirac_operator(gs, k, K, lam, m)
    target = -quadratic_form(k, K, lam, m) * np.eye(N_SPINOR)
    return float(np.abs(prod - target).max())


# ---------------------------------------------------------------------------
# finite spinor transformations


def spinor_boost(gs: GammaSet, omega: np.ndarray) -> np.ndarray:
    """S(omega) = exp(-(i/2) omega_{mu nu} M^{mu nu}) (full index sum).

    omega is the antisymmetric lower-index parameter matrix.  S intertwines
    the vector representation: S^-1 G^mu S = L^mu_nu G^nu with
    L = vector_matrix(omega).
    """
    omega = antisymmetric(np.asarray(omega, dtype=float), "omega")
    sg = gs.generator
    gen = np.zeros((N_SPINOR, N_SPINOR), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            if omega[mu, nu]:
                gen = gen - 0.5j * omega[mu, nu] * sg.m[mu, nu]
    S = expm(gen)
    if not np.all(np.isfinite(S)):
        raise FloatingPointError("matrix exponential did not converge")
    return S


def vector_matrix(omega: np.ndarray) -> np.ndarray:
    """The Lorentz matrix paired with spinor_boost.

    With L = exp(-omega^mu_nu) = exp(-eta omega) this M realizes
    S(omega)^-1 G^mu S(omega) = L^mu_nu G^nu, equivalently
    S G^mu S^-1 = (L^-1)^mu_nu G^nu.
    """
    omega = np.asarray(omega, dtype=float)
    return expm(-ETA @ omega)


def intertwining_residual(gs: GammaSet, omega: np.ndarray) -> float:
    """Max-entry residual of S^-1 G^mu S - L^mu_nu G^nu."""
    S = spinor_boost(gs, omega)
    S_inv = np.linalg.inv(S)
    L = vector_matrix(omega)
    residuals = []
    for mu in range(4):
        rhs = sum(L[mu, nu] * gs.vector(nu) for nu in range(4))
        residuals.append(np.abs(S_inv @ gs.vector(mu) @ S - rhs).max())
    return float(np.max(residuals))
