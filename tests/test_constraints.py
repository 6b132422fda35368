"""Dirac brackets reproduce the commutator algebra; constraint machinery."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dfra import algebra
from dfra.constraints import (
    ConstraintSet,
    DiracBracket,
    FieldDependentMatrixError,
    NotSecondClassError,
    _inverse,
    build_phase_space,
    classical_j_closure_residual,
    classical_rotate,
    constraint_matrix,
    dfra_constraints,
    dirac_table_dump,
    hamiltonian_flow,
    mass_shell_constraint,
    shifted_coordinate,
    standard_hamiltonian,
)
from dfra.symcore import Expression, GaussRat, I, bracket, normal_form

GOLDEN = Path(__file__).parent / "goldens"

PS = build_phase_space(3)
CS = dfra_constraints(PS)
DB = DiracBracket(PS, CS)


def test_poisson_structure():
    t = PS.table
    assert bracket(PS.x(1), PS.p(1), t) == Expression.scalar(1)
    assert bracket(PS.theta(1, 2), PS.pi(1, 2), t) == Expression.scalar(1)
    assert bracket(PS.Z(2), PS.K(2), t) == Expression.scalar(1)
    assert bracket(PS.x(1), PS.x(2), t).is_zero()
    assert bracket(PS.Z(1), PS.p(1), t).is_zero()


def test_constraint_matrix_block_form():
    delta = constraint_matrix(PS, CS)
    n = PS.D
    for a in range(2 * n):
        for b in range(2 * n):
            expect = 0
            if b == a + n:
                expect = 1
            elif a == b + n:
                expect = -1
            assert delta[a][b] == GaussRat(expect), (a, b)


def test_constraint_matrix_empty():
    assert constraint_matrix(PS, ConstraintSet((), ())) == []


def test_relativistic_constraint_matrix_eta_blocks():
    ps = build_phase_space(3, relativistic=True)
    cs = dfra_constraints(ps)
    delta = constraint_matrix(ps, cs)
    n = len(list(ps.indices))
    for a in range(n):
        for b in range(n):
            assert delta[a][b + n] == GaussRat(ps.metric(a, b))
            assert delta[a + n][b] == GaussRat(-ps.metric(a, b))
            assert delta[a][b] == GaussRat(0)
            assert delta[a + n][b + n] == GaussRat(0)


def test_classify_second_class():
    # building the Dirac bracket inverts the constraint matrix
    assert len(DiracBracket(PS, CS).delta) == 2 * PS.D


def test_classify_single_momentum_constraint():
    cs = ConstraintSet((normal_form(PS.p(1), PS.table),), ("p1",))
    with pytest.raises(NotSecondClassError):
        DiracBracket(PS, cs)


def test_classify_duplicated_constraint():
    psi = CS.constraints[0]
    cs = ConstraintSet((psi, psi), ("a", "b"))
    with pytest.raises(NotSecondClassError):
        DiracBracket(PS, cs)


def test_field_dependent_matrix_rejected():
    # Psi^i plus theta^{ij} K_j: {Psi, Psi} is then proportional to theta
    psis = []
    for psi, i in zip(CS.constraints, PS.indices):
        for j in PS.indices:
            psi = psi + PS.theta(i, j) * PS.K(j)
        psis.append(normal_form(psi, PS.table))
    cs = ConstraintSet(tuple(psis) + CS.constraints[PS.D:], CS.labels)
    assert not bracket(psis[0], psis[1], PS.table).is_scalar()
    with pytest.raises(FieldDependentMatrixError):
        constraint_matrix(PS, cs)
    with pytest.raises(FieldDependentMatrixError):
        DiracBracket(PS, cs)


def _written_out(ps):
    """Psi^i = Z^i - (1/2) theta^{ij} p_j and Phi_i = K_i - p_i (eta^{ii} Phi_i when
    relativistic), spelled out term by term."""
    idx, t = ps.indices, ps.table
    psis, phis = [], []
    for i in idx:
        psi = ps.Z(i)
        for j in idx:
            if j != i:
                psi = psi - Fraction(1, 2) * ps.theta(i, j) * ps.p(j)
        psis.append(normal_form(psi, t))
        eta = -1 if ps.relativistic and i == 0 else 1
        phis.append(normal_form(eta * ps.K(i) - eta * ps.p(i), t))
    return psis + phis


@pytest.mark.parametrize("D, relativistic, labels", [
    (2, False, ("Psi[1]", "Psi[2]", "Phi[1]", "Phi[2]")),
    (3, False, ("Psi[1]", "Psi[2]", "Psi[3]", "Phi[1]", "Phi[2]", "Phi[3]")),
    (3, True, ("Psi[0]", "Psi[1]", "Psi[2]", "Psi[3]", "Phi^[0]", "Phi^[1]", "Phi^[2]", "Phi^[3]")),
])
def test_dfra_constraints_are_the_dfra_pair(D, relativistic, labels):
    ps = build_phase_space(D, relativistic)
    cs = dfra_constraints(ps)
    assert cs.labels == labels
    assert list(cs.constraints) == _written_out(ps)


def test_dirac_brackets_of_original_variables():
    t = PS.table
    assert DB(PS.x(1), PS.x(2)) == PS.theta(1, 2)
    assert DB(PS.x(1), PS.p(1)) == Expression.scalar(1)
    assert DB(PS.theta(1, 2), PS.pi(1, 2)) == Expression.scalar(1)
    assert DB(PS.x(1), PS.pi(1, 2)) == normal_form(
        Fraction(-1, 2) * PS.p(2), t
    )
    assert DB(PS.x(2), PS.pi(1, 2)) == normal_form(Fraction(1, 2) * PS.p(1), t)
    assert DB(PS.x(1), PS.theta(1, 2)).is_zero()
    assert DB(PS.p(1), PS.theta(1, 2)).is_zero()


def test_dirac_brackets_involving_Z_K():
    t = PS.table
    assert DB(PS.Z(1), PS.x(2)) == normal_form(Fraction(-1, 2) * PS.theta(1, 2), t)
    assert DB(PS.K(1), PS.x(1)) == Expression.scalar(-1)
    assert DB(PS.K(1), PS.x(2)).is_zero()
    assert DB(PS.Z(1), PS.pi(1, 2)) == normal_form(Fraction(1, 2) * PS.p(2), t)


def test_dirac_brackets_shifted_coordinate():
    t = PS.table
    X1 = shifted_coordinate(PS, 1)
    assert DB(X1, PS.p(1)) == Expression.scalar(1)
    assert DB(X1, PS.x(2)) == normal_form(Fraction(1, 2) * PS.theta(1, 2), t)
    assert DB(X1, PS.Z(2)) == normal_form(Fraction(-1, 2) * PS.theta(1, 2), t)
    assert DB(X1, PS.K(1)) == Expression.scalar(1)
    assert DB(X1, shifted_coordinate(PS, 2)).is_zero()


def _random_degree2(rng: random.Random, ps) -> Expression:
    gens = [g for e in ps.generators() for g in e.generators()]
    e = Expression.zero()
    for _ in range(rng.randint(1, 4)):
        word = tuple(sorted((rng.choice(gens) for _ in range(rng.randint(0, 2))),
                            key=lambda g: g.sort_key))
        coeff = GaussRat(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        if coeff:
            e = e + Expression({word: coeff})
    return normal_form(e, ps.table)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_poisson_bracket_laws(seed):
    rng = random.Random(seed)
    t = PS.table
    A = _random_degree2(rng, PS)
    B = _random_degree2(rng, PS)
    C = _random_degree2(rng, PS)
    assert (bracket(A, B, t) + bracket(B, A, t)).is_zero()
    lhs = bracket(normal_form(A * B, t), C, t)
    rhs = normal_form(A * bracket(B, C, t) + bracket(A, C, t) * B, t)
    assert lhs == rhs
    jac = (
        bracket(bracket(A, B, t), C, t)
        + bracket(bracket(B, C, t), A, t)
        + bracket(bracket(C, A, t), B, t)
    )
    assert normal_form(jac, t).is_zero()


_gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=4),
                   st.fractions(-3, 3, max_denominator=4))
_nonzero = _gauss.filter(bool)


def _matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), GaussRat(0))
             for j in range(len(y[0]))] for i in range(len(x))]


@st.composite
def _invertible(draw):
    # P L U: L unit lower triangular with L[1][0] != 0 and U upper triangular with a
    # nonzero diagonal, so column 0 holds two nonzeros and a row must be eliminated
    n = draw(st.integers(2, 5))
    low = [[GaussRat(int(i == j)) if j >= i else draw(_gauss) for j in range(n)] for i in range(n)]
    low[1][0] = draw(_nonzero)
    up = [[draw(_nonzero) if i == j else draw(_gauss) if j > i else GaussRat(0)
           for j in range(n)] for i in range(n)]
    lu = _matmul(low, up)
    return [lu[r] for r in draw(st.permutations(range(n)))]


@given(m=_invertible())
@settings(max_examples=60, deadline=None)
def test_inverse_by_elimination_is_exact(m):
    inv = _inverse(m)
    eye = [[GaussRat(int(i == j)) for j in range(len(m))] for i in range(len(m))]
    assert _matmul(m, inv) == eye
    assert _matmul(inv, m) == eye


@given(m=_invertible(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_of_a_singular_matrix_raises(m, data):
    # one row replaced by a combination of the others
    k = data.draw(st.integers(0, len(m) - 1))
    c = [data.draw(_gauss) for _ in m]
    m[k] = [sum((c[i] * row[j] for i, row in enumerate(m) if i != k), GaussRat(0))
            for j in range(len(m))]
    with pytest.raises(NotSecondClassError):
        _inverse(m)


def test_constraints_have_zero_dirac_bracket_with_anything():
    rng = random.Random(20260811)
    for _ in range(40):
        A = _random_degree2(rng, PS)
        for xi in CS.constraints:
            assert DB(A, xi).is_zero()


def test_dirac_bracket_jacobi_identity():
    # the Dirac bracket is a genuine Poisson structure: cyclic sums vanish
    rng = random.Random(5)
    for _ in range(10):
        A = _random_degree2(rng, PS)
        B = _random_degree2(rng, PS)
        C = _random_degree2(rng, PS)
        jac = DB(DB(A, B), C) + DB(DB(B, C), A) + DB(DB(C, A), B)
        assert normal_form(jac, PS.table).is_zero()


def test_dirac_antisymmetry_and_leibniz():
    rng = random.Random(7)
    for _ in range(10):
        A = _random_degree2(rng, PS)
        B = _random_degree2(rng, PS)
        C = _random_degree2(rng, PS)
        assert (DB(A, B) + DB(B, A)).is_zero()
        lhs = DB(normal_form(A * B, PS.table), C)
        rhs = normal_form(A * DB(B, C) + DB(A, C) * B, PS.table)
        assert lhs == rhs


def test_quantum_table_is_i_times_dirac_table():
    alg = algebra.build(3)
    qgens = alg.generators()
    cgens = PS.core_generators()
    for qa, ca in zip(qgens, cgens):
        for qb, cb in zip(qgens, cgens):
            qc = bracket(qa, qb, alg.table)
            dc = DB(ca, cb)
            # map classical words onto quantum words (same names/indices)
            mapped = Expression({w: c * I for w, c in dc.terms.items()})
            assert qc == normal_form(mapped, alg.table), (qa, qb)


def test_relativistic_quantum_table_is_i_times_dirac_table():
    ps = build_phase_space(3, relativistic=True)
    cs = dfra_constraints(ps)
    db = DiracBracket(ps, cs)
    alg = algebra.build(3, relativistic=True)
    for qa, ca in zip(alg.generators(), ps.core_generators()):
        for qb, cb in zip(alg.generators(), ps.core_generators()):
            mapped = Expression({w: c * I for w, c in db(ca, cb).terms.items()})
            assert bracket(qa, qb, alg.table) == normal_form(mapped, alg.table)


def test_degrees_of_freedom_bookkeeping():
    # 2(D + D(D-1)/2 + D) phase variables minus 2D second-class constraints
    # leaves the 2D + D(D-1) operators of the quantum algebra.
    D = PS.D
    num_variables = len(PS.generators())
    assert num_variables == 2 * (D + D * (D - 1) // 2 + D)
    assert len(CS) == 2 * D
    assert num_variables - len(CS) == 2 * D + D * (D - 1)
    assert len(PS.core_generators()) == 2 * D + D * (D - 1)


def test_classical_j_closure_d3():
    idx = [1, 2, 3]
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    if i == j or k == l:
                        continue
                    assert classical_j_closure_residual(DB, i, j, k, l).is_zero()


def test_classical_rotation_of_Z_and_K():
    # delta Z^i = (1/2) eps^i_j theta^{jk} p_k ; delta K_i = eps_i^j p_j
    eps = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    t = PS.table
    expect_Z1 = Expression.zero()
    for k in PS.indices:
        expect_Z1 = expect_Z1 + Fraction(1, 2) * PS.theta(2, k) * PS.p(k)
    assert classical_rotate(DB, eps, PS.Z(1)) == normal_form(expect_Z1, t)
    assert classical_rotate(DB, eps, PS.K(1)) == normal_form(PS.p(2), t)
    assert classical_rotate(DB, eps, PS.x(1)) == normal_form(PS.x(2), t)


def test_hamiltonian_flow_decouples_sectors():
    H = standard_hamiltonian(PS, m=1, omega=1, Lambda=1, Omega=1)
    t = PS.table
    X1 = shifted_coordinate(PS, 1)
    assert hamiltonian_flow(DB, H, X1) == PS.p(1)
    assert hamiltonian_flow(DB, H, PS.theta(1, 2)) == PS.pi(1, 2)
    assert hamiltonian_flow(DB, H, H).is_zero()
    # mass m = 2: {X^1, H}_D = p^1/m
    H2 = standard_hamiltonian(PS, m=2, omega=1, Lambda=3, Omega=1)
    assert hamiltonian_flow(DB, H2, X1) == normal_form(
        Fraction(1, 2) * PS.p(1), t
    )
    assert hamiltonian_flow(DB, H2, PS.theta(1, 2)) == normal_form(
        Fraction(1, 3) * PS.pi(1, 2), t
    )


def test_hamiltonian_flow_rejects_high_degree():
    x1 = PS.x(1)
    H = normal_form(x1 * x1 * x1 * x1 * x1, PS.table)
    with pytest.raises(ValueError):
        hamiltonian_flow(DB, H, PS.x(1))


def test_mass_shell_constraint():
    ps = build_phase_space(3, relativistic=True)
    chi = mass_shell_constraint(ps, 2)
    expect = Expression.scalar(4)
    for mu in ps.indices:
        expect = expect + ps.metric(mu, mu) * ps.p(mu) * ps.p(mu)
    assert chi == normal_form(expect, ps.table)
    with pytest.raises(ValueError):
        mass_shell_constraint(PS, 1)


def test_dirac_table_golden_d2():
    ps = build_phase_space(2)
    cs = dfra_constraints(ps)
    got = dirac_table_dump(ps, cs)
    expected = (GOLDEN / "dirac_table_d2.txt").read_text()
    assert got == expected
