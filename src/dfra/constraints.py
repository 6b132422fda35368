"""Constrained Hamiltonian engine on the enlarged classical phase space.

The phase space carries canonical pairs (x, p), (theta, pi), (Z, K) with the
standard Poisson structure.  Second-class constraint sets produce a constraint
matrix, inverted exactly over Gaussian rationals, and Dirac brackets

    {A, B}_D = {A, B} - {A, Xi^a} Dinv_{ab} {Xi^b, B}.

Quantizing {., .}_D -> (1/i)[., .] reproduces the commutator algebra of
`dfra.algebra` on matching pairs.  The phase space shares that algebra's
index space, and X and J are its formulas taken with the Poisson bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import (
    IndexSpace,
    closure_residual,
    generator_symbols,
    index_range,
    infinitesimal_transform,
    shifted_coordinate,
)
from .symcore import (
    BracketTable,
    Expression,
    GaussRat,
    Generator,
    bracket,
    format_expression,
    normal_form,
)


class ConstraintError(Exception):
    pass


class FieldDependentMatrixError(ConstraintError):
    """Constraint matrix entries are not scalars; classification deferred."""


class NotSecondClassError(ConstraintError):
    pass


class PhaseSpace(IndexSpace):
    """Canonical variables {x, p, theta, pi, Z, K} with Poisson structure."""

    def Z(self, mu):
        return self._vector("Z", mu)

    def K(self, mu):
        return self._vector("K", mu)

    def generators(self) -> list[Expression]:
        return self._generators(("x", "p", "Z", "K"))

    def core_generators(self) -> list[Expression]:
        """The (x, p, theta, pi) sector shared with the quantum algebra."""
        return self._generators(("x", "p"))


def build_phase_space(D: int, relativistic: bool = False) -> PhaseSpace:
    """Poisson table: {x,p} = delta, {theta,pi} = delta-pair, {Z,K} = delta."""
    idx = index_range(D, relativistic)
    entries: dict[tuple[Generator, Generator], Expression] = {}
    one = Expression.scalar(1)
    for mu in idx:
        entries[(Generator("x", (mu,)), Generator("p", (mu,)))] = one
        entries[(Generator("Z", (mu,)), Generator("K", (mu,)))] = one
    for pair in combinations(idx, 2):
        entries[(Generator("theta", pair), Generator("pi", pair))] = one
    universe = generator_symbols(idx, ("x", "p", "Z", "K"))
    table = BracketTable(D, universe, entries, mode="poisson")
    return PhaseSpace(D=D, relativistic=relativistic, table=table)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Expression, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.constraints) != len(self.labels):
            raise ValueError("labels must match constraints")
        for label, c in zip(self.labels, self.constraints):
            if c.degree() > 2:
                raise ValueError(f"constraint {label} has degree > 2")

    def __len__(self):
        return len(self.constraints)


def dfra_constraints(ps: PhaseSpace) -> ConstraintSet:
    """The DFRA second-class pair

        Psi^i = Z^i - (1/2) theta^{ij} p_j,    Phi_i = K_i - p_i,

    whose Dirac brackets quantize to the DFRA commutators.  In the
    relativistic case Phi is used with its index raised, eta^{ii} Phi_i
    (labelled Phi^[i]), so the constraint matrix comes out in eta blocks.
    """
    psis, phis = [], []
    for i in ps.indices:
        psi = ps.Z(i)
        for j in ps.indices:
            psi = psi + Fraction(-1, 2) * ps.theta(i, j) * ps.p(j)
        psis.append(normal_form(psi, ps.table))
        phis.append(normal_form(ps.metric(i, i) * (ps.K(i) - ps.p(i)), ps.table))
    phi_name = "Phi^" if ps.relativistic else "Phi"
    labels = [f"Psi[{i}]" for i in ps.indices] + [f"{phi_name}[{i}]" for i in ps.indices]
    return ConstraintSet(tuple(psis + phis), tuple(labels))


def constraint_matrix(ps: PhaseSpace, cs: ConstraintSet) -> list[list[GaussRat]]:
    """The rows of Delta^{ab} = {Xi^a, Xi^b}, as Gaussian rationals.

    Raises FieldDependentMatrixError if any entry is not a scalar: such a
    set cannot be classified, or its Dirac bracket built, by an exact inverse.
    """
    rows = [[bracket(a, b, ps.table) for b in cs.constraints] for a in cs.constraints]
    if not all(e.is_scalar() for row in rows for e in row):
        raise FieldDependentMatrixError("constraint matrix has field-dependent entries")
    return [[e.scalar_part() for e in row] for row in rows]


def _inverse(m: list[list[GaussRat]]) -> list[list[GaussRat]]:
    """Exact inverse of the square matrix m by Gauss-Jordan elimination.

    Raises NotSecondClassError if m is singular.
    """
    n = len(m)
    aug = [row[:] + [GaussRat(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotSecondClassError("constraint matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = GaussRat(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class DiracBracket:
    """Dirac bracket for a fixed second-class constraint set.

    Builds the rows of the scalar constraint matrix (`delta`, from
    constraint_matrix) and their exact inverse (`delta_inv`) once; an empty,
    singular or field-dependent matrix raises.  The column
    [{A, Xi^a}] of each argument A is computed on first use and kept, and
    the other side comes from the same column, {Xi^b, B} = -{B, Xi^b}; so a
    run of brackets with shared arguments (all pairs of generators, one
    argument against every constraint) brackets each argument with the
    constraints once.  An argument's hash is built on its first lookup and
    kept with it, so a repeated lookup costs a dict probe and an equality
    test.  The memo holds only expressions, which are immutable
    and exact, and a cached column equals a fresh one, so instances behave
    as immutable and stay safe to share.
    """

    def __init__(self, ps: PhaseSpace, cs: ConstraintSet):
        self.ps = ps
        self.cs = cs
        self.delta = constraint_matrix(ps, cs)
        if not self.delta:
            raise NotSecondClassError("empty constraint set")
        self.delta_inv = _inverse(self.delta)
        self._columns: dict[Expression, tuple[Expression, ...]] = {}

    def _column(self, A: Expression) -> tuple[Expression, ...]:
        """({A, Xi^a} for each constraint Xi^a), memoized per argument."""
        col = self._columns.get(A)
        if col is None:
            t = self.ps.table
            col = self._columns[A] = tuple(bracket(A, xi, t) for xi in self.cs.constraints)
        return col

    def __call__(self, A: Expression, B: Expression) -> Expression:
        t = self.ps.table
        out = bracket(A, B, t)
        a_side = self._column(A)
        b_side = self._column(B)  # {B, Xi^b} = -{Xi^b, B}
        for a, row in enumerate(self.delta_inv):
            if a_side[a].is_zero():
                continue
            for b, coeff in enumerate(row):
                if coeff and not b_side[b].is_zero():
                    out = out + a_side[a] * b_side[b] * coeff
        return normal_form(out, t)


def dirac_table_dump(ps: PhaseSpace, cs: ConstraintSet) -> str:
    """Golden-file text of all nonzero Dirac brackets among generators."""
    db = DiracBracket(ps, cs)
    gens = ps.generators()
    lines = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            val = db(a, b)
            if not val.is_zero():
                lines.append(
                    f"{{{format_expression(a)}, {format_expression(b)}}}_D"
                    f" = {format_expression(val)}"
                )
    return "\n".join(lines) + "\n"


def classical_j_closure_residual(
    db: DiracBracket, i: int, j: int, k: int, l: int
) -> Expression:
    """{J^{ij}, J^{kl}}_D minus the classical SO(D) pattern."""
    return closure_residual(db.ps, db, "J", 1, i, j, k, l)


def classical_rotate(db: DiracBracket, epsilon, A: Expression) -> Expression:
    """delta A = -(1/2) eps_{kl} {A, J^{kl}}_D."""
    ps = db.ps
    return infinitesimal_transform(ps, epsilon, "epsilon", range(1, ps.D + 1), db,
                                   Fraction(-1, 2), A)


def standard_hamiltonian(
    ps: PhaseSpace,
    m: Fraction | int = 1,
    omega: Fraction | int = 1,
    Lambda: Fraction | int = 1,
    Omega: Fraction | int = 1,
) -> Expression:
    """H = p^2/2m + m w^2 X^2/2 + pi^2/2L + L W^2 theta^2/2.

    Pair contractions use theta^2 = (1/2) theta_{ij} theta^{ij}, i.e. the sum
    over independent components, so the (X, p) and (theta, pi) sectors are two
    independent isotropic oscillators.
    """
    m, omega = Fraction(m), Fraction(omega)
    Lambda, Omega = Fraction(Lambda), Fraction(Omega)
    H = Expression.zero()
    for i in ps.indices:
        X = shifted_coordinate(ps, i)
        H = H + Fraction(1, 2) / m * ps.p(i) * ps.p(i)
        H = H + m * omega**2 * Fraction(1, 2) * X * X
    for i, j in combinations(ps.indices, 2):
        H = H + Fraction(1, 2) / Lambda * ps.pi(i, j) * ps.pi(i, j)
        H = H + Lambda * Omega**2 * Fraction(1, 2) * ps.theta(i, j) * ps.theta(i, j)
    return normal_form(H, ps.table)


def hamiltonian_flow(db: DiracBracket, H: Expression, A: Expression) -> Expression:
    """Adot = {A, H}_D.

    H must be quadratic in the decoupled variables (X, p, theta, pi); the
    X^2 term expands to phase-space word degree 4, which is the bound
    enforced here.
    """
    if H.degree() > 4:
        raise ValueError("Hamiltonian must be quadratic in (X, p, theta, pi)")
    return db(A, H)


def mass_shell_constraint(ps: PhaseSpace, m: Fraction | int) -> Expression:
    """chi = p^2 + m^2 (recorded for the relativistic free particle)."""
    if not ps.relativistic:
        raise ValueError("mass shell constraint is relativistic")
    out = Expression.scalar(Fraction(m) ** 2)
    for mu in ps.indices:
        out = out + ps.metric(mu, mu) * ps.p(mu) * ps.p(mu)
    return normal_form(out, ps.table)
