"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS ...` line on success; a failing
assertion marks the criterion failed.  Stated runtime limits are asserted
with wall-clock timers.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dfra import algebra, clifford, constraints, field, oscillator, reps
from dfra.symcore import Expression, GaussRat, Generator, normal_form


def _announce(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_jacobi_suite():
    started = time.perf_counter()
    total = 0
    for D, relativistic in ((2, False), (3, False), (4, False), (3, True)):
        alg = algebra.build(D, relativistic=relativistic)
        for a, b, c, residual in algebra.jacobi_suite(alg):
            assert residual.is_zero(), (D, relativistic, str(a), str(b), str(c))
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"Jacobi suite took {elapsed:.1f} s"
    _announce(1, f"{total} generator triples, all residuals exactly zero "
                 f"({elapsed:.1f} s)")


def test_criterion_2_dirac_bracket_reproduction():
    started = time.perf_counter()
    ps = constraints.build_phase_space(3)
    cs = constraints.dfra_constraints(ps)
    db = constraints.DiracBracket(ps, cs)
    t = ps.table
    half = Fraction(1, 2)

    # the full nonzero bracket table among the original variables
    pairs = ((1, 2), (1, 3), (2, 3))
    for i in ps.indices:
        for j in ps.indices:
            expect = Expression.scalar(1) if i == j else Expression.zero()
            assert db(ps.x(i), ps.p(j)) == expect
            if i != j:
                assert db(ps.x(i), ps.x(j)) == ps.theta(i, j)
    for (i, j) in pairs:
        for (k, l) in pairs:
            expect = Expression.scalar(1) if (i, j) == (k, l) else Expression.zero()
            assert db(ps.theta(i, j), ps.pi(k, l)) == expect
            assert db(ps.theta(i, j), ps.theta(k, l)).is_zero()
            assert db(ps.pi(i, j), ps.pi(k, l)).is_zero()
    for i in ps.indices:
        for (k, l) in pairs:
            expect = Expression.zero()
            if i == k:
                expect = expect - half * ps.p(l)
            if i == l:
                expect = expect + half * ps.p(k)
            assert db(ps.x(i), ps.pi(k, l)) == normal_form(expect, t)
            z_expect = normal_form(-expect, t)
            assert db(ps.Z(i), ps.pi(k, l)) == z_expect
    for i in ps.indices:
        for j in ps.indices:
            assert db(ps.Z(i), ps.x(j)) == normal_form(-half * ps.theta(i, j), t)
            expect = Expression.scalar(-1) if i == j else Expression.zero()
            assert db(ps.K(i), ps.x(j)) == expect

    # 200 random degree <= 2 phase-space functions against every constraint
    rng = random.Random(2026)
    gens = [g for e in ps.generators() for g in e.generators()]
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(sorted((rng.choice(gens) for _ in range(rng.randint(0, 2))),
                                key=lambda g: g.sort_key))
            terms[word] = GaussRat(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
        A = normal_form(Expression(terms), t)
        for xi in cs.constraints:
            assert db(A, xi).is_zero()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"Dirac reproduction took {elapsed:.1f} s"
    _announce(2, f"bracket table reproduced exactly; 200 random functions "
                 f"commute with the constraint surface ({elapsed:.1f} s)")


def test_criterion_3_so3_closure_and_obstruction():
    alg = algebra.build(3)
    ps = constraints.build_phase_space(3)
    cs = constraints.dfra_constraints(ps)
    db = constraints.DiracBracket(ps, cs)
    idx = [1, 2, 3]
    combos = [
        (i, j, k, l)
        for i in idx for j in idx for k in idx for l in idx
        if i != j and k != l
    ]
    for i, j, k, l in combos:
        assert algebra.so_closure_residual(alg, i, j, k, l).is_zero()
        assert constraints.classical_j_closure_residual(db, i, j, k, l).is_zero()
    nonzero = 0
    for i, j, k, l in combos:
        got = algebra.little_l_residual(alg, i, j, k, l)
        assert got == algebra.little_l_theta_terms(alg, i, j, k, l)
        nonzero += not got.is_zero()
    assert nonzero > 0
    _announce(3, f"quantum and classical J close exactly on {len(combos)} index "
                 f"combinations; naive angular momentum obstruction matches "
                 f"the theta p p pattern symbolically")


def test_criterion_4_representation_homomorphism():
    rng = random.Random(40400)
    for trial in range(100):
        g1 = reps.random_exact_element(rng)
        g2 = reps.random_exact_element(rng)
        lhs = reps.d5(g1).dot(reps.d5(g2))
        rhs = reps.d5(reps.compose(g1, g2))
        assert all(a == b for a, b in zip(lhs.flat, rhs.flat)), trial

    # infinitesimal composition, componentwise against generator commutators
    for trial in range(25):
        w1 = reps.vec_to_mat(
            np.array([Fraction(rng.randint(-4, 4), 3) for _ in range(6)],
                     dtype=object)
        )
        w2 = reps.vec_to_mat(
            np.array([Fraction(rng.randint(-4, 4), 2) for _ in range(6)],
                     dtype=object)
        )
        a1 = np.array([Fraction(rng.randint(-5, 5), 2) for _ in range(4)], dtype=object)
        a2 = np.array([Fraction(rng.randint(-5, 5), 3) for _ in range(4)], dtype=object)
        b1 = reps.vec_to_mat(
            np.array([Fraction(rng.randint(-4, 4), 2) for _ in range(6)], dtype=object)
        )
        b2 = reps.vec_to_mat(
            np.array([Fraction(rng.randint(-4, 4), 3) for _ in range(6)], dtype=object)
        )
        e1 = reps.InfinitesimalElement.from_antisymmetric(w1, a1, b1)
        e2 = reps.InfinitesimalElement.from_antisymmetric(w2, a2, b2)
        e3 = reps.compose_infinitesimal(e1, e2)
        g1m, g2m = reps.generator_matrix(e1), reps.generator_matrix(e2)
        commutator = g1m.dot(g2m) - g2m.dot(g1m)
        # componentwise: omega block, translation column, theta column
        assert all(a == b for a, b in zip(commutator[:4, :4].flat, e3.omega.flat))
        assert all(a == b for a, b in zip(commutator[:4, 10], e3.a))
        assert all(
            a == b for a, b in zip(commutator[4:10, 10], reps.mat_to_vec(e3.b))
        )
        assert all(
            a == b
            for a, b in zip(commutator[4:10, 4:10].flat,
                            reps.generator_matrix(e3)[4:10, 4:10].flat)
        )

    nrng = np.random.default_rng(44)
    k = np.array([2.0, 0.3, -0.5, 0.1])
    K = reps.vec_to_mat(nrng.normal(0, 1, 6))
    c1, _, c3, _ = reps.casimirs(k, K)
    worst = 0.0
    for _ in range(100):
        lam = reps.random_float_lorentz(nrng)
        c1b, _, c3b, _ = reps.casimirs(lam.dot(k), lam.dot(K).dot(lam.T))
        worst = max(worst, abs(c1b - c1), abs(c3b - c3))
    assert worst < 1e-10
    _announce(4, f"d5 homomorphism exact on 100 rational pairs; infinitesimal "
                 f"composition componentwise exact; C1/C3 invariance "
                 f"{worst:.2e} < 1e-10")


def test_criterion_5_clifford_suite():
    started = time.perf_counter()
    gs = clifford.build_gammas()
    sg = clifford.spinor_generator(gs)
    anti = clifford.anticommutator_residual(gs)
    assert anti < 1e-12
    rng = np.random.default_rng(55)
    worst_sq = 0.0
    for _ in range(100):
        k = rng.normal(0, 1, 4)
        K = reps.vec_to_mat(rng.normal(0, 1, 6))
        lam, m = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        prod = clifford.conjugate_dirac_operator(gs, k, K, lam, m) @ \
            clifford.dirac_operator(gs, k, K, lam, m)
        off = prod - np.diag(np.diag(prod))
        worst_sq = max(worst_sq, float(np.abs(off).max()),
                       clifford.dirac_square_residual(gs, k, K, lam, m))
    assert worst_sq < 1e-12
    cov_v = clifford.vector_covariance_residual(gs, sg)
    cov_p = clifford.pair_covariance_residual(gs, sg)
    assert cov_v < 1e-12 and cov_p < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"Clifford suite took {elapsed:.1f} s"
    _announce(5, f"100 anticommutators ({anti:.1e}), squared Dirac operator "
                 f"scalar ({worst_sq:.1e}), covariance commutators "
                 f"({max(cov_v, cov_p):.1e}) all < 1e-12 ({elapsed:.1f} s)")


def test_criterion_6_oscillator_moments():
    worst_quad = 0.0
    for D in (2, 3):
        cfg = oscillator.OscillatorConfig(D=D, Lambda=1.0, Omega=1.0)
        M = cfg.n_modes
        # <1> = 1
        est = oscillator.moment_oracle(cfg, oscillator.monomial((0,) * M))
        worst_quad = max(worst_quad, abs(est.value - 1.0))
        # <theta^{ij}> = 0 and the pair moments, component by component
        for c in range(M):
            exps = [0] * M
            exps[c] = 1
            est = oscillator.moment_oracle(cfg, oscillator.monomial(tuple(exps)))
            worst_quad = max(worst_quad, abs(est.value))
            exps[c] = 2
            est = oscillator.moment_oracle(cfg, oscillator.monomial(tuple(exps)))
            closed = oscillator.moment(cfg, "theta_ij_theta_kl")
            worst_quad = max(worst_quad, abs(est.value - closed))
        if M >= 2:
            est = oscillator.moment_oracle(
                cfg, oscillator.monomial((1, 1) + (0,) * (M - 2))
            )
            worst_quad = max(worst_quad, abs(est.value))
        # <theta^2> against quadrature of the summed contraction
        est = oscillator.moment_oracle(cfg, lambda th: (th * th).sum(axis=-1))
        worst_quad = max(worst_quad, abs(est.value - oscillator.moment(cfg, "theta2")))
        # pair moment is (2/(D(D-1))) delta <theta^2>
        assert oscillator.moment(cfg, "theta_ij_theta_kl") == pytest.approx(
            2.0 / (D * (D - 1)) * oscillator.moment(cfg, "theta2"), rel=1e-14
        )
        # Monte Carlo at 10^6 samples within 3 sigma
        mc = oscillator.moment_oracle(
            cfg, oscillator.monomial((2,) + (0,) * (M - 1)),
            "monte-carlo", samples=1_000_000, seed=606,
        )
        assert abs(mc.value - oscillator.moment(cfg, "theta_ij_theta_kl")) \
            < 3.0 * mc.error
        # vacuum shift, exact
        assert oscillator.vacuum_shift(cfg) == D * (D - 1) * cfg.Omega / 4.0
    assert worst_quad < 1e-8
    # the scalar value 1/(2 Lambda Omega) at D = 2, where the printed closed
    # form and the weight-function average coincide
    cfg2 = oscillator.OscillatorConfig(D=2, Lambda=0.7, Omega=1.9)
    assert oscillator.moment(cfg2, "theta2") == pytest.approx(
        1.0 / (2.0 * 0.7 * 1.9), rel=1e-14
    )
    _announce(6, f"closed-form moments vs quadrature {worst_quad:.2e} < 1e-8; "
                 f"Monte Carlo within 3 sigma at 1e6 samples; vacuum shift exact")


def test_criterion_7_field_suite():
    lam, m = 1.0, 1.0
    # second-order convergence of the plane-wave residual
    residuals = []
    for n in (12, 24, 48):
        dx = 2.0 * np.pi / n
        f = field.plane_wave_mode((n, n, n), 1.0 / n, dx, dx, lam, m)
        residuals.append(float(np.abs(field.kg_apply(f)).max()))
    slopes = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 2.0) <= 0.1, (residuals, slopes)

    # source inversion residual
    shape = (24, 16, 16)
    J = np.zeros(shape, dtype=complex)
    J[8, 8, 8] = 1.0
    src = field.SourceTerm(J, 0.11, 0.37, 0.41, lam, m)
    phi = field.greens_solve(src)
    rel = float(
        np.abs(field.kg_apply(phi) - src.values[1:-1, 1:-1, 1:-1]).max()
        / np.abs(J).max()
    )
    assert rel < 1e-6

    # free-evolution drift over 1000 leapfrog steps at CFL 0.5
    nx, nq = 32, 16
    dx = 2.0 * np.pi / nx
    dq = 2.0 * np.pi / nq
    dt = 0.5 * field.max_stable_dt(dx, dq, lam, m)
    phi0, phidot0, _ = field.discrete_mode_initial((nx, nq), dt, dx, dq, lam, m)
    *_, series = field.evolve_leapfrog(
        phi0, phidot0, 1000, dt, dx, dq, lam, m, record_every=100
    )
    first = series[0][2]
    drift = 0.0
    for _, _, ch in series[1:]:
        for name in field.Charges._fields:
            ref = getattr(first, name)
            drift = max(drift, abs(getattr(ch, name) - ref) / max(abs(ref), first.P0))
    assert drift < 1e-6

    # propagator poles at +-omega: continuum root and lattice symbol minimum
    from scipy.optimize import brentq

    kvec = np.array([0.4, 0.0, 0.0])
    k2 = np.zeros((4, 4))
    k2[1, 2], k2[2, 1] = 0.6, -0.6
    w = field.dispersion(kvec, k2, lam, m)
    for sign in (+1, -1):
        root = brentq(
            lambda k0: field.ExtendedMomentum(np.array([k0, *kvec]), k2, lam).squared()
            + m**2,
            sign * w - 0.5,
            sign * w + 0.5,
        )
        assert abs(root - sign * w) < 1e-10
    nt = 512
    dt_s = 0.02
    sym_t = (2.0 / dt_s * np.sin(np.pi * np.arange(nt) / nt)) ** 2 - (
        float(kvec @ kvec) + 0.5 * lam**2 * 2.0 * 0.6**2 + m**2
    )
    j_min = int(np.argmin(np.abs(sym_t[: nt // 2])))
    w_lattice = 2.0 * np.pi * j_min / (nt * dt_s)
    assert abs(w_lattice - w) <= 2.0 * np.pi / (nt * dt_s)  # one frequency bin
    _announce(7, f"KG residual slopes {slopes[0]:.3f}/{slopes[1]:.3f}; greens "
                 f"residual {rel:.1e}; charge drift {drift:.1e}; poles at "
                 f"+-omega to grid accuracy")


def _poly(n, terms) -> Expression:
    """sum of coeff * x[1]^e1 ... x[n]^en over the exponent tuples in terms."""
    out = {}
    for exps, coeff in terms.items():
        assert len(exps) == n
        out[sum(((Generator("x", (k + 1,)),) * e for k, e in enumerate(exps)), ())] = coeff
    return Expression(out)


def test_criterion_8_moyal():
    theta = [[Fraction(0), Fraction(2, 5)], [Fraction(-2, 5), Fraction(0)]]
    x1 = _poly(2, {(1, 0): 1})
    x2 = _poly(2, {(0, 1): 1})
    for order in (1, 3, 6):
        comm = field.star_commutator(x1, x2, theta, order)
        assert comm == _poly(2, {(0, 0): GaussRat(0, Fraction(2, 5))})
    rng = random.Random(808)

    def poly():
        terms = {}
        for _ in range(rng.randint(2, 5)):
            while True:
                exps = (rng.randint(0, 3), rng.randint(0, 3))
                if sum(exps) <= 3:
                    break
            terms[exps] = GaussRat(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
        return _poly(2, terms)

    for _ in range(20):
        f, g, h = poly(), poly(), poly()
        lhs = field.moyal_star(field.moyal_star(f, g, theta, 6), h, theta, 6)
        rhs = field.moyal_star(f, field.moyal_star(g, h, theta, 6), theta, 6)
        assert lhs == rhs
    _announce(8, "coordinate star-commutator equals i theta exactly; "
                 "associativity exact on random degree-3 polynomials at order 6")


def test_criterion_9_end_to_end(tmp_path):
    from dfra.cli import REFERENCES

    out = tmp_path / "report.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dfra.cli", "run", "--suite", "all",
         "--format", "json", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 300.0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 0
    for check in report["checks"]:
        assert check["paper_ref"] in REFERENCES, check["name"]
    # every registered tag but the artifact-only one is emitted by some check
    assert {check["paper_ref"] for check in report["checks"]} == set(REFERENCES) - {"plumbing"}
    names = [check["name"] for check in report["checks"]]
    assert len(names) == len(set(names)), "record names repeat"
    # the record list, in order, is pinned: name<TAB>paper_ref per line
    golden = Path(__file__).parent / "goldens" / "suite_all_records.txt"
    want = [tuple(line.split("\t")) for line in golden.read_text().splitlines()
            if not line.startswith("#")]
    assert [(check["name"], check["paper_ref"]) for check in report["checks"]] == want
    # an exact check passes only on an exactly zero residual
    inexact = [c["name"] for c in report["checks"] if c["tolerance"] == 0 and c["residual"] != 0]
    assert not inexact, inexact
    _announce(9, f"run --suite all: {report['summary']['passed']} checks pass, "
                 f"exit 0 in {elapsed:.0f} s; every record reference resolves")
