"""The DFRA commutator algebra and its derived operators.

Builds the bracket table for the extended phase space (x, p, theta, pi) in
arbitrary spatial dimension D, or its relativistic variant over spacetime
indices 0..D with metric diag(-1, 1, ..., 1), and exposes the shifted
coordinate X, the angular momenta l/L/J, the Lorentz generator M, and the
Planck-scale quantum conditions on a numeric theta matrix.

The index space (index range, metric, generators) is shared with the
classical phase space of `dfra.constraints`, and so are the operator
formulas: X, J and M, their SO(D) closure residuals and the infinitesimal
transforms they generate take any bracket over either space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .reps import _levi4, antisymmetric, pair_dot
from .symcore import (
    BracketTable,
    Expression,
    Generator,
    GaussRat,
    I,
    bracket,
    normal_form,
)


def index_range(D: int, relativistic: bool = False) -> range:
    """Indices 1..D, or spacetime indices 0..D when relativistic."""
    if D < 2:
        raise ValueError("D must be >= 2: theta has no components below D = 2")
    return range(0 if relativistic else 1, D + 1)


def generator_symbols(idx: range, vectors: tuple[str, ...]) -> list[Generator]:
    """One generator per vector name and index, then theta and pi per pair mu < nu."""
    out = [Generator(name, (mu,)) for name in vectors for mu in idx]
    return out + [Generator(name, pair) for name in ("theta", "pi")
                  for pair in combinations(idx, 2)]


@dataclass(frozen=True)
class IndexSpace:
    """Index range, metric and generators of a bracket table over (x, p, theta, pi).

    Antisymmetric pairs are stored with first index < second; the pair
    constructors return the sign-normalized generator.  `_memo` holds the
    derived operators built over this space (X, l/L/J, M), so they are built
    once per space and go away with it.
    """

    D: int
    relativistic: bool
    table: BracketTable
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False,
                        repr=False)

    @property
    def indices(self) -> range:
        return index_range(self.D, self.relativistic)

    def metric(self, mu: int, nu: int) -> Fraction:
        if mu != nu:
            return Fraction(0)
        if self.relativistic and mu == 0:
            return Fraction(-1)
        return Fraction(1)

    def _check_index(self, mu: int) -> None:
        if mu not in self.indices:
            raise IndexError(f"index {mu} outside range {self.indices}")

    def _vector(self, name: str, mu: int) -> Expression:
        self._check_index(mu)
        return Expression.generator(Generator(name, (mu,)))

    def _pair(self, name: str, mu: int, nu: int) -> Expression:
        self._check_index(mu)
        self._check_index(nu)
        return Expression.pair(name, mu, nu)

    def _generators(self, vectors: tuple[str, ...]) -> list[Expression]:
        return [Expression.generator(g) for g in generator_symbols(self.indices, vectors)]

    def x(self, mu: int) -> Expression:
        return self._vector("x", mu)

    def p(self, mu: int) -> Expression:
        return self._vector("p", mu)

    def theta(self, mu: int, nu: int) -> Expression:
        return self._pair("theta", mu, nu)

    def pi(self, mu: int, nu: int) -> Expression:
        return self._pair("pi", mu, nu)


class DfraAlgebra(IndexSpace):
    """The quantum algebra: commutator table over (x, p, theta, pi)."""

    def generators(self) -> list[Expression]:
        """All generators as expressions, one per independent component."""
        return self._generators(("x", "p"))


def build(D: int, relativistic: bool = False) -> DfraAlgebra:
    """Bracket table for the extended algebra in D spatial dimensions.

    Nonzero relations: [x, p] = i delta, [x, x] = i theta,
    [theta, pi] = i delta-pair, and [x, pi] = -(i/2) delta-pair p.
    Everything else commutes.
    """
    idx = index_range(D, relativistic)
    entries: dict[tuple[Generator, Generator], Expression] = {}
    for mu in idx:
        entries[(Generator("x", (mu,)), Generator("p", (mu,)))] = Expression.scalar(I)
    for mu, nu in combinations(idx, 2):
        entries[(Generator("x", (mu,)), Generator("x", (nu,)))] = Expression(
            {(Generator("theta", (mu, nu)),): I}
        )
        entries[(Generator("theta", (mu, nu)), Generator("pi", (mu, nu)))] = (
            Expression.scalar(I)
        )
        # [x^mu, pi_{ab}] = -(i/2) (delta^mu_a p_b - delta^mu_b p_a)
        entries[(Generator("x", (mu,)), Generator("pi", (mu, nu)))] = Expression(
            {(Generator("p", (nu,)),): GaussRat(0, Fraction(-1, 2))}
        )
        entries[(Generator("x", (nu,)), Generator("pi", (mu, nu)))] = Expression(
            {(Generator("p", (mu,)),): GaussRat(0, Fraction(1, 2))}
        )

    table = BracketTable(D, generator_symbols(idx, ("x", "p")), entries, mode="commutator")
    return DfraAlgebra(D=D, relativistic=relativistic, table=table)


# ---------------------------------------------------------------------------
# derived operators, over the quantum algebra or the classical phase space


def shifted_coordinate(space: IndexSpace, mu: int) -> Expression:
    """X^mu = x^mu + (1/2) theta^{mu nu} p_nu; commutes with itself and pi."""
    key = ("X", mu)
    if key in space._memo:
        return space._memo[key]
    space._check_index(mu)
    out = space.x(mu)
    for nu in space.indices:
        out = out + space.theta(mu, nu) * space.p(nu) * Fraction(1, 2)
    out = space._memo[key] = normal_form(out, space.table)
    return out


def angular_momentum(space: IndexSpace, i: int, j: int, variant: str = "J") -> Expression:
    """Angular momentum, over spatial or (relativistic) spacetime indices.

    variant "little-l": x^i p^j - x^j p^i (does not close in SO(D));
    variant "L": X^i p^j - X^j p^i;
    variant "J": L^{ij} - theta^{il} pi_l^j + theta^{jl} pi_l^i, the total
    angular momentum that generates rotations on every sector.  The same
    formula is the Lorentz generator M on a relativistic algebra and the
    classical J on a phase space.
    """
    key = (variant, i, j)
    if key in space._memo:
        return space._memo[key]
    if i == j:
        raise ValueError("angular momentum needs i != j")
    space._check_index(i)
    space._check_index(j)
    if variant == "little-l":
        base_i, base_j = space.x(i), space.x(j)
    elif variant in ("L", "J"):
        base_i, base_j = shifted_coordinate(space, i), shifted_coordinate(space, j)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    out = base_i * _p_upper(space, j) - base_j * _p_upper(space, i)
    if variant == "J":
        out = out - _theta_pi_term(space, i, j) + _theta_pi_term(space, j, i)
    out = space._memo[key] = normal_form(out, space.table)
    return out


def _p_upper(space: IndexSpace, mu: int) -> Expression:
    return space.p(mu) * space.metric(mu, mu)


def _theta_pi_term(space: IndexSpace, mu: int, nu: int) -> Expression:
    """theta^{mu sigma} pi_sigma^nu, index raised with the space's metric."""
    out = Expression.zero()
    for sigma in space.indices:
        out = out + space.theta(mu, sigma) * space.pi(sigma, nu) * space.metric(nu, nu)
    return out


def _pair_generator(space: IndexSpace, variant: str = "J"):
    """(a, b) -> angular momentum of the variant, zero when a == b."""

    def G(a: int, b: int) -> Expression:
        if a == b:
            space._check_index(a)
            return Expression.zero()
        return angular_momentum(space, a, b, variant)

    return G


def lorentz_generator(alg: DfraAlgebra, mu: int, nu: int) -> Expression:
    """M^{mu nu} = X^mu p^nu - X^nu p^mu - theta^{mu s} pi_s^nu + theta^{nu s} pi_s^mu."""
    if not alg.relativistic:
        raise ValueError("Lorentz generator needs a relativistic algebra")
    return _pair_generator(alg)(mu, nu)


def _commutator(alg: IndexSpace):
    return lambda a, b: bracket(a, b, alg.table)


def so_pattern(G, g, i: int, j: int, k: int, l: int):
    """g_il G(k,j) - g_jl G(k,i) - g_ik G(l,j) + g_jk G(l,i).

    [G^{ij}, G^{kl}] is i (quantum) or 1 (classical) times this when G closes
    in SO(D) or the Lorentz algebra with metric g.  G and g take two indices;
    G may return expressions or arrays.  Terms with a zero metric factor are
    not evaluated.
    """
    terms = ((g(i, l), k, j), (-g(j, l), k, i), (-g(i, k), l, j), (g(j, k), l, i))
    return sum((c * G(a, b) for c, a, b in terms if c), 0)


def closure_residual(space: IndexSpace, br, variant: str, factor, i, j, k, l) -> Expression:
    """br(G^{ij}, G^{kl}) - factor * so_pattern, G the variant's angular momentum."""
    G = _pair_generator(space, variant)
    lhs = br(G(i, j), G(k, l))
    return normal_form(lhs - so_pattern(G, space.metric, i, j, k, l) * factor, space.table)


def infinitesimal_transform(space: IndexSpace, w, label: str, indices: range, br,
                            factor, e: Expression) -> Expression:
    """factor * sum_{a,b} w_ab br(e, J^{ab}), a and b running over indices.

    w is an antisymmetric matrix of exact rationals, row and column k
    standing for indices[k].
    """
    w = antisymmetric(w, label, len(indices), exact=True)
    J = _pair_generator(space)
    out = Expression.zero()
    for a, mu in enumerate(indices):
        for b, nu in enumerate(indices):
            if w[a, b]:
                out = out + br(e, J(mu, nu)) * w[a, b]
    return normal_form(out * factor, space.table)


def rotate(alg: DfraAlgebra, epsilon, e: Expression) -> Expression:
    """Infinitesimal rotation delta e = (i/2) eps_{kl} [e, J^{kl}].

    epsilon is an antisymmetric D x D matrix of exact rationals indexed by
    the spatial indices 1..D.
    """
    return infinitesimal_transform(alg, epsilon, "epsilon", range(1, alg.D + 1),
                                   _commutator(alg), GaussRat(0, Fraction(1, 2)), e)


def lorentz_transform(alg: DfraAlgebra, omega, e: Expression) -> Expression:
    """Infinitesimal Lorentz transformation delta e = (i/2) w_{mu nu} [e, M^{mu nu}].

    omega is the antisymmetric lower-index parameter matrix over spacetime
    indices, with exact rational entries.  On the generators this produces
    the mixed-index patterns delta x^mu = w^mu_nu x^nu,
    delta p_mu = w_mu^nu p_nu, and the two-index tensor action on theta, pi.
    """
    if not alg.relativistic:
        raise ValueError("Lorentz transformations need a relativistic algebra")
    return infinitesimal_transform(alg, omega, "omega", alg.indices,
                                   _commutator(alg), GaussRat(0, Fraction(1, 2)), e)


def so_closure_residual(alg: DfraAlgebra, i: int, j: int, k: int, l: int) -> Expression:
    """[J^{ij}, J^{kl}] minus the SO(D) pattern; zero certifies closure.

    On a relativistic algebra J is M and the pattern is the Lorentz algebra.
    """
    return closure_residual(alg, _commutator(alg), "J", I, i, j, k, l)


def little_l_residual(alg: DfraAlgebra, i: int, j: int, k: int, l: int) -> Expression:
    """[l^{ij}, l^{kl}] minus the SO(D) pattern: the theta p p obstruction."""
    return closure_residual(alg, _commutator(alg), "little-l", I, i, j, k, l)


def little_l_theta_terms(alg: DfraAlgebra, i: int, j: int, k: int, l: int) -> Expression:
    """-i th^{il} p^k p^j + i th^{jl} p^k p^i + i th^{ik} p^l p^j - i th^{jk} p^l p^i."""
    pu = lambda m: _p_upper(alg, m)
    out = (
        -alg.theta(i, l) * pu(k) * pu(j)
        + alg.theta(j, l) * pu(k) * pu(i)
        + alg.theta(i, k) * pu(l) * pu(j)
        - alg.theta(j, k) * pu(l) * pu(i)
    ) * I
    return normal_form(out, alg.table)


def jacobi_suite(alg: DfraAlgebra):
    """Yield (a, b, c, residual) for every unordered generator triple."""
    from .symcore import jacobi_residual

    gens = alg.generators()
    for a, b, c in combinations(gens, 3):
        yield a, b, c, jacobi_residual(a, b, c, alg.table)


# ---------------------------------------------------------------------------
# quantum conditions on a numeric eigenvalue matrix


def quantum_conditions(theta: np.ndarray, planck_length: float) -> tuple[float, float]:
    """Residuals of the Planck-scale conditions on a numeric theta matrix.

    Returns (theta_{mu nu} theta^{mu nu},
             ((1/4) *theta^{mu nu} theta_{mu nu})^2 - lambda_P^8)
    with *theta_{mu nu} = (1/2) eps_{mu nu rho sigma} theta^{rho sigma} and
    eps_{0123} = +1.  Both vanish iff the conditions hold.
    """
    theta = antisymmetric(theta, "theta")
    if not 0.0 < planck_length < np.inf:  # False for NaN too
        raise ValueError(f"planck_length must be finite and positive, got {planck_length}")
    first = pair_dot(theta, theta)
    dual_lower = 0.5 * np.einsum("mnrs,rs->mn", _levi4(), theta)
    pseudo = 0.25 * float(np.einsum("mn,mn->", dual_lower, theta))
    second = pseudo**2 - planck_length**8
    return first, second
