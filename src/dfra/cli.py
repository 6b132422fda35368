"""Command-line front end: named verification suites and expression eval.

    dfra run --suite all --format json --out report.json
    dfra eval "[x[1], pi[1,2]]" --table dfra --set D=3

Each suite re-drives the library's own operations and yields one
(name, reference tag, residual, tolerance) per check as soon as it has
computed it.  `_run` turns what a suite yields into records (name,
reference tag, pass/fail, residual, tolerance, runtime); no suite reads the
clock, so every runtime is measured the same way.  The reference tags
resolve through the REFERENCES registry below, mapping each check to the
piece of structure it verifies ("plumbing" marks pure artifact checks).
Reports are deterministic for a fixed seed apart from the generated-at
timestamp and the per-check runtimes.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import numpy as np

from . import __version__, algebra, clifford, constraints, field, oscillator, reps
from .symcore import (
    Expression,
    GaussRat,
    Generator,
    I,
    ParseError,
    SymError,
    bracket,
    format_expression,
    normal_form,
    parse_expression,
)

REPORT_SCHEMA = "dfra-report/v1"

REFERENCES = {
    "dfra-jacobi": "Jacobi identity over all generator triples",
    "shifted-coordinate": "commuting shifted coordinate X and its brackets",
    "so-closure": "SO(D) closure of the total angular momentum J",
    "little-l-obstruction": "theta p p non-closure terms of the naive angular momentum",
    "rotation-transforms": "infinitesimal rotations generated by J",
    "lorentz-generator": "extended Lorentz generator M and its algebra",
    "quantum-conditions": "Planck-scale constraints on the theta eigenvalue matrix",
    "constraint-matrix": "second-class constraint matrix block form",
    "dirac-constraint-surface": "vanishing Dirac brackets with the constraints",
    "dirac-quantization": "i times Dirac table equals the commutator table",
    "classical-so-closure": "classical SO(D) closure of J under Dirac brackets",
    "hamiltonian-flow": "decoupled oscillator flow of the standard Hamiltonian",
    "rep-homomorphism": "group law of the extended-Poincare matrix representations",
    "rep-infinitesimal": "commutator closure of infinitesimal transformations",
    "casimirs": "invariance of the quadratic Casimir evaluations",
    "scalar-transform": "scalar field transformation law on sampled grids",
    "clifford-anticommutators": "macro-index Clifford algebra relations",
    "spinor-generator": "spinor Lorentz generator closure and covariance",
    "dirac-operator": "generalized Dirac operator squaring to the quadratic form",
    "spinor-boost": "finite spinor transformations intertwining the vector action",
    "oscillator-spectrum": "two-sector oscillator spectrum and vacuum shift",
    "oscillator-moments": "Gaussian theta-sector moments against oracles",
    "weight-function": "normalized weight function from the ground state",
    "coordinate-spread": "noncommutative enlargement of the coordinate spread",
    "propagator": "momentum-space Green's function and its poles",
    "kg-lattice": "lattice wave operator consistency and convergence",
    "greens-solve": "spectral source inversion residual",
    "noether-charges": "conserved lattice charges of the free field",
    "moyal-product": "star-product commutator and associativity",
    "plumbing": "artifact-internal consistency",
}


# ---------------------------------------------------------------------------
# parameter handling

# name -> (type, default, domain); a domain (op, bound) requires value op bound,
# None allows any finite value
PARAMS = {
    "D": (int, 3, (">=", 2)),
    "lambda": (float, 1.0, None),
    "m": (float, 1.0, (">", 0)),
    "omega": (float, 1.0, (">", 0)),
    "Lambda": (float, 1.0, (">", 0)),
    "Omega": (float, 1.0, (">", 0)),
    "seed": (int, 12345, (">=", 0)),
    "samples": (int, 1_000_000, (">=", 2)),  # a standard error needs two samples
    "steps": (int, 1000, (">=", 2)),  # fewer steps record only the initial charges
    "nt": (int, 24, (">=", 5)),  # the lattice stencils need five points an axis
    "nx": (int, 32, (">=", 5)),
    "ntheta": (int, 16, (">=", 5)),
}


class UsageError(Exception):
    pass


def parse_params(pairs: list[str], config_file: str | None = None) -> dict:
    values = {k: d for k, (_, d, _) in PARAMS.items()}
    merged: list[tuple[str, str]] = []
    if config_file:
        try:
            with open(config_file) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise UsageError(f"bad config line {line!r}")
                    k, _, v = line.partition("=")
                    merged.append((k.strip(), v.strip()))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set needs key=value, got {pair!r}")
        k, _, v = pair.partition("=")
        merged.append((k.strip(), v.strip()))
    for key, raw in merged:
        if key not in PARAMS:
            raise UsageError(f"unknown parameter {key!r}")
        typ = PARAMS[key][0]
        try:
            values[key] = typ(raw)
        except ValueError as exc:
            raise UsageError(f"parameter {key} needs {'an int' if typ is int else 'a float'}") from exc
    for key, value in values.items():
        if not math.isfinite(value):
            raise UsageError(f"parameter {key} must be finite, got {value}")
        domain = PARAMS[key][2]
        if domain and not (value > domain[1] if domain[0] == ">" else value >= domain[1]):
            raise UsageError(f"parameter {key} must be {domain[0]} {domain[1]}, got {value}")
    return values


# ---------------------------------------------------------------------------
# suites


def _worst(*values) -> float:
    """Largest value, NaN if any value is NaN (builtin max can drop a NaN)."""
    return float(np.max(values))


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] by bisection down to adjacent floats.

    Returns an exact zero of f if it meets one, else the final end with the
    smaller |f|.  Raises ValueError unless f(lo) and f(hi) have opposite
    signs (or one is 0), and when f is NaN at a midpoint.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if not (flo < 0 < fhi or fhi < 0 < flo):  # also false for a NaN end
        raise ValueError(f"f({lo}) = {flo} and f({hi}) = {fhi} bracket no sign change")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = f(mid)
        if fmid == 0:
            return mid
        if math.isnan(fmid):
            raise ValueError(f"f({mid}) is NaN")
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid


# The Monte Carlo records (moments-vs-monte-carlo-D2 and -D3) pass within
# MC_Z standard errors.  MC_Z is the Sidak threshold (J. Amer. Statist.
# Assoc. 62, 1967) for a false-alarm rate MC_FALSE_ALARM_RATE per report
# over MC_RECORDS records: each record's two-sided normal tail is
# 1 - (1 - alpha)^(1/k), and MC_Z = Phi^-1(1 - tail/2), about 3.48.
MC_FALSE_ALARM_RATE = 1e-3
MC_RECORDS = 2


def _normal_two_sided_quantile(tail: float) -> float:
    """z with P(|N(0, 1)| > z) = tail, for 0 < tail < 1."""
    return _bisect(lambda z: math.erfc(z / math.sqrt(2.0)) - tail, 0.0, 40.0)


MC_Z = _normal_two_sided_quantile(1.0 - (1.0 - MC_FALSE_ALARM_RATE) ** (1.0 / MC_RECORDS))


def _zero_expr_residual(exprs) -> float:
    return float(sum(0 if e.is_zero() else 1 for e in exprs))


def _closure_failures(residual, indices, pairs) -> float:
    """Nonzero residual(i, j, k, l) over every two index pairs (i, j), (k, l)
    that pairs (itertools.permutations or combinations) draws from indices."""
    ij = list(pairs(indices, 2))
    return _zero_expr_residual(residual(*a, *b) for a in ij for b in ij)


def algebra_suite(p: dict, *, shared: bool = True):
    """The algebra checks at D = p["D"]; shared=False leaves out the three
    that do not depend on D (relativistic Jacobi, Lorentz closure, quantum conditions)."""
    D = p["D"]

    alg = algebra.build(D)
    failures = _zero_expr_residual(r for *_, r in algebra.jacobi_suite(alg))
    yield f"jacobi-exhaustive-D{D}", "dfra-jacobi", failures, 0

    if shared:
        rel = algebra.build(3, relativistic=True)
        failures = _zero_expr_residual(r for *_, r in algebra.jacobi_suite(rel))
        yield "jacobi-exhaustive-relativistic-4d", "dfra-jacobi", failures, 0

    bad = []
    for i in alg.indices:
        X = algebra.shifted_coordinate(alg, i)
        for j in alg.indices:
            expect = Expression.scalar(I) if i == j else Expression.zero()
            bad.append(bracket(X, alg.p(j), alg.table) - expect)
            bad.append(bracket(X, algebra.shifted_coordinate(alg, j), alg.table))
    yield (f"shifted-coordinate-D{D}", "shifted-coordinate",
           _zero_expr_residual(bad), 0)

    failures = _closure_failures(partial(algebra.so_closure_residual, alg), alg.indices,
                                 permutations)
    yield f"j-closure-D{D}", "so-closure", failures, 0

    diffs = []
    for (i, j, k, l) in [(1, 2, 2, 1), (1, 2, 2, 3)] if D >= 3 else [(1, 2, 2, 1)]:
        got = algebra.little_l_residual(alg, i, j, k, l)
        expect = algebra.little_l_theta_terms(alg, i, j, k, l)
        diffs.append(got - expect)
    yield (f"little-l-residual-D{D}", "little-l-obstruction",
           _zero_expr_residual(diffs), 0)

    eps = [[Fraction(0)] * D for _ in range(D)]
    eps[0][1], eps[1][0] = Fraction(1), Fraction(-1)
    bad = [
        algebra.rotate(alg, eps, alg.x(1)) - normal_form(alg.x(2), alg.table),
        algebra.rotate(alg, eps, alg.p(1)) - normal_form(alg.p(2), alg.table),
        algebra.rotate(alg, eps, Expression.scalar(1)),
    ]
    yield (f"rotation-transforms-D{D}", "rotation-transforms",
           _zero_expr_residual(bad), 0)

    if not shared:
        return

    failures = _closure_failures(partial(algebra.so_closure_residual, rel), rel.indices,
                                 combinations)
    yield "lorentz-generator-closure", "lorentz-generator", failures, 0

    lp = 1.0
    theta = reps.vec_to_mat([lp**2, 0.0, 0.0, 0.0, 0.0, lp**2])  # theta^{01} = theta^{23}
    r1, r2 = algebra.quantum_conditions(theta, lp)
    yield ("quantum-conditions-selfdual", "quantum-conditions",
           abs(r1) + abs(r2), 1e-12)


def constraints_suite(p: dict):
    D = p["D"]
    ps = constraints.build_phase_space(D)
    cs = constraints.dfra_constraints(ps)

    db = constraints.DiracBracket(ps, cs)
    yield f"constraint-matrix-D{D}", "constraint-matrix", _canonical_mismatches(ps, db.delta), 0

    alg = algebra.build(D)
    mism = 0
    qgens, cgens = alg.generators(), ps.core_generators()
    for qa, ca in zip(qgens, cgens):
        for qb, cb in zip(qgens, cgens):
            if bracket(qa, qb, alg.table) != normal_form(db(ca, cb) * I, alg.table):
                mism += 1
    yield f"dirac-quantization-D{D}", "dirac-quantization", mism, 0

    rng = random.Random(p["seed"])
    gens = [g for e in ps.generators() for g in e.generators()]
    bad = 0
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(sorted(rng.choice(gens) for _ in range(rng.randint(0, 2))))
            terms[word] = GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        A = normal_form(Expression(terms), ps.table)
        for xi in cs.constraints:
            if not db(A, xi).is_zero():
                bad += 1
    yield (f"dirac-constraint-surface-D{D}", "dirac-constraint-surface",
           bad, 0)

    failures = _closure_failures(partial(constraints.classical_j_closure_residual, db),
                                 ps.indices, permutations)
    yield f"classical-j-closure-D{D}", "classical-so-closure", failures, 0

    H = constraints.standard_hamiltonian(ps, m=1, omega=1, Lambda=1, Omega=1)
    bad = [
        constraints.hamiltonian_flow(db, H, constraints.shifted_coordinate(ps, 1)) - ps.p(1),
        constraints.hamiltonian_flow(db, H, ps.theta(1, 2)) - ps.pi(1, 2),
        constraints.hamiltonian_flow(db, H, H),
    ]
    yield (f"hamiltonian-flow-D{D}", "hamiltonian-flow",
           _zero_expr_residual([normal_form(b, ps.table) for b in bad]), 0)

    psr = constraints.build_phase_space(3, relativistic=True)
    deltar = constraints.constraint_matrix(psr, constraints.dfra_constraints(psr))
    yield "constraint-matrix-relativistic", "constraint-matrix", _canonical_mismatches(psr, deltar), 0


def _canonical_mismatches(ps, delta) -> int:
    """Entries of the (2n)^2 constraint matrix off [[0, g], [-g, 0]], g the metric of ps."""
    m, idx = delta.scalar_matrix(), ps.indices
    n = len(idx)
    sign = ((0, 1), (-1, 0))
    return sum(m[a][b] != GaussRat(sign[a // n][b // n] * ps.metric(idx[a % n], idx[b % n]))
               for a in range(2 * n) for b in range(2 * n))


def reps_suite(p: dict):
    rng = random.Random(p["seed"])

    mism = 0
    for _ in range(100):
        g1 = reps.random_exact_element(rng)
        g2 = reps.random_exact_element(rng)
        g12 = reps.compose(g1, g2)
        for m1, m2, m12 in zip(*map(reps.scaled_reps, (g1, g2, g12))):
            mism += not (m1 @ m2).equals(m12)
    yield "rep-homomorphism-100", "rep-homomorphism", mism, 0

    mism = 0
    for _ in range(25):
        e1 = _random_infinitesimal(rng)
        e2 = _random_infinitesimal(rng)
        e3 = reps.compose_infinitesimal(e1, e2)
        g1, g2, g3 = map(reps.scaled_generator, (e1, e2, e3))
        mism += not (g1 @ g2 - g2 @ g1).equals(g3)
    yield "infinitesimal-closure-25", "rep-infinitesimal", mism, 0

    nrng = np.random.default_rng(p["seed"])
    k = np.array([2.0, 0.3, -0.5, 0.1])
    K = reps.vec_to_mat(nrng.normal(0, 1, 6))
    c1, _, c3, _ = reps.casimirs(k, K)
    worst = 0.0
    for _ in range(100):
        lam = reps.random_float_lorentz(nrng)
        c1b, _, c3b, _ = reps.casimirs(lam.dot(k), lam.dot(K).dot(lam.T))
        worst = _worst(worst, abs(c1b - c1), abs(c3b - c3))
    yield "casimir-invariance-100", "casimirs", worst, 1e-10

    resid = _scalar_transform_commutator_residual()
    yield "scalar-transform-commutator", "scalar-transform", resid, 1e-9


def _random_infinitesimal(rng: random.Random):
    # per pair, omega^{mu nu} is drawn before b^{mu nu}
    draws = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 2))) for _ in reps.PAIRS]
    w_up, b = (reps.vec_to_mat(np.array(v, dtype=object)) for v in zip(*draws))
    a = np.array([Fraction(rng.randint(-5, 5), 2) for _ in range(4)], dtype=object)
    return reps.InfinitesimalElement.from_antisymmetric(w_up, a, b)


def _scalar_transform_commutator_residual() -> float:
    # 9 points over [-1, 1] on x^0, x^1, theta^{01} and theta^{02}
    xs = np.linspace(-1.0, 1.0, 9)
    used = (0, 1, 4, 5)
    shape = tuple(9 if axis in used else 1 for axis in range(10))
    origin = tuple(xs[0] if axis in used else 0.0 for axis in range(10))
    spacing = tuple(xs[1] - xs[0] if axis in used else 1.0 for axis in range(10))
    grid = reps.SampledField(np.empty(shape), origin, spacing)
    t, x, q1, q2 = map(grid.coordinate, used)
    values = t**2 + 2 * t * x + x * q1 + q1 * q2 + q2**2 + 0.5 * t * q2
    f = reps.SampledField(values, origin, spacing)
    e1 = reps.InfinitesimalElement.from_antisymmetric(reps.vec_to_mat([0.3, 0, 0, -0.2, 0, 0]))
    e2 = reps.InfinitesimalElement(
        np.zeros((4, 4)), np.array([0.7, -0.4, 0.0, 0.0]),
        reps.vec_to_mat([0.5, -0.3, 0, 0, 0, 0]),
    )
    e3 = reps.compose_infinitesimal(e1, e2)

    def apply(e, vals):
        return reps.scalar_field_transform(
            e, reps.SampledField(vals, f.origin, f.spacing)
        )

    comm = apply(e1, apply(e2, f.values)) - apply(e2, apply(e1, f.values))
    return float(np.abs(comm - apply(e3, f.values)).max())


def clifford_suite(p: dict):
    gs = clifford.build_gammas()
    sg = gs.generator

    yield ("anticommutators-100", "clifford-anticommutators",
           clifford.anticommutator_residual(gs), 1e-12)

    yield ("spinor-lorentz-closure", "spinor-generator",
           clifford.lorentz_closure_residual(sg), 1e-12)

    resid = _worst(clifford.vector_covariance_residual(gs, sg),
                   clifford.pair_covariance_residual(gs, sg))
    yield "covariance-commutators", "spinor-generator", resid, 1e-12

    rng = np.random.default_rng(p["seed"])
    worst = 0.0
    for _ in range(100):
        k = rng.normal(0, 1, 4)
        K = reps.vec_to_mat(rng.normal(0, 1, 6))
        lam = rng.uniform(0.1, 2.0)
        m = rng.uniform(0.1, 2.0)
        worst = _worst(worst, clifford.dirac_square_residual(gs, k, K, lam, m))
    yield "dirac-square-scalar-100", "dirac-operator", worst, 1e-12

    worst = 0.0
    for _ in range(10):
        omega = reps.vec_to_mat(rng.normal(0, 0.2, 6))
        worst = _worst(worst, clifford.intertwining_residual(gs, omega))
    yield "boost-intertwining-10", "spinor-boost", worst, 1e-10

    S = clifford.spinor_boost(gs, reps.vec_to_mat([0, 0, 0, 2.0 * np.pi, 0, 0]))
    yield ("two-pi-rotation-minus-identity", "spinor-boost",
           float(np.abs(S + np.eye(32)).max()), 1e-10)


def oscillator_suite(p: dict):
    # Records compare in the oscillator's natural units, each exactly 1 at the
    # defaults: theta in (Lambda Omega)^(-1/2), so a theta moment of degree d
    # in its d-th power and the weight function in its (-M)-th power, and
    # <x^2> in max(1/(m omega), m omega/(Lambda Omega)).
    quad_tol = 1e-8
    lo = p["Lambda"] * p["Omega"]
    cfgs = {D: oscillator.OscillatorConfig(m=p["m"], omega=p["omega"], Lambda=p["Lambda"],
                                           Omega=p["Omega"], D=D) for D in (2, 3)}

    def theta2(th):
        return (th * th).sum(axis=-1)

    quad = {}  # D -> {moment: quadrature value}, reused by the moment table records
    for D, cfg in cfgs.items():
        M = cfg.n_modes
        first2 = (2,) + (0,) * (M - 1)  # theta_1^2, whose mean is the pair moment
        # <1> = 1, and per component <theta_c> = 0 and <theta_c^2> = the pair moment
        want = {(0,) * M: 1.0}
        for c in range(M):
            for power, mean in ((1, 0.0), (2, oscillator.moment(cfg, "theta_ij_theta_kl"))):
                want[tuple(power * (i == c) for i in range(M))] = mean
        got = {e: oscillator.moment_oracle(cfg, oscillator.monomial(e)).value for e in want}
        got["theta2"] = oscillator.moment_oracle(cfg, theta2).value
        want["theta2"] = oscillator.moment(cfg, "theta2")
        degree = {k: 2 if k == "theta2" else sum(k) for k in want}
        worst = _worst(*(abs(got[k] - want[k]) * lo ** (degree[k] / 2) for k in want))
        quad[D] = {"theta2": got["theta2"], "theta_ij_theta_kl": got[first2]}
        yield f"moments-vs-quadrature-D{D}", "oscillator-moments", worst, quad_tol

        # the sampler draws only theta_1, so at one seed D = 3 would draw D = 2's
        # numbers; MC_Z assumes independent records, so D = 3 takes its own stream
        seed = p["seed"] if D == 2 else (p["seed"], D)
        mc = oscillator.moment_oracle(cfg, oscillator.monomial(first2), "monte-carlo",
                                      samples=p["samples"], seed=seed)
        dev = abs(mc.value - oscillator.moment(cfg, "theta_ij_theta_kl"))
        yield (f"moments-vs-monte-carlo-D{D}", "oscillator-moments",
               dev, MC_Z * mc.error)

        oracle, error = oscillator.vacuum_shift_oracle(cfg)
        yield (f"vacuum-shift-D{D}", "oscillator-spectrum",
               abs(oscillator.vacuum_shift(cfg) - oracle), error)

        rng = np.random.default_rng(p["seed"])
        worst = 0.0
        for _ in range(20):
            theta = rng.normal(0, lo ** -0.5, cfg.n_modes)
            w = oscillator.weight_function(cfg, theta)
            psi2 = abs(oscillator.ground_wavefunction(cfg, theta, 0.0)) ** 2
            worst = _worst(worst, abs(w - psi2) * lo ** (-cfg.n_modes / 2))
        yield (f"weight-is-wavefunction-squared-D{D}", "weight-function",
               worst, 1e-12)

    # moment table records: the evaluated values ride in the record names
    for D, cfg in cfgs.items():
        for label, which in (("theta2", "theta2"), ("pair-moment", "theta_ij_theta_kl")):
            value = oscillator.moment(cfg, which)
            yield (f"moment-{label}-D{D} = {value:g}", "oscillator-moments",
                   abs(value - quad[D][which]) * lo, quad_tol)

    # ground state of the X oscillator: <X^2> = D/(2 m omega), <p^2> = D m omega/2
    mw = p["m"] * p["omega"]
    X2, p2 = 3 / (2 * mw), 3 * mw / 2
    cfg = cfgs[3]
    x2 = oscillator.x2_expectation(cfg, X2, p2)

    def spread(th):
        # (1/4) |theta p|^2 averaged over p: (1/4) sum_ij (theta^{ij})^2 <p_j^2>
        theta = np.zeros(th.shape[:-1] + (cfg.D, cfg.D))
        for c, (i, j) in enumerate(cfg.mode_pairs):
            theta[..., i - 1, j - 1] = th[..., c]
            theta[..., j - 1, i - 1] = -th[..., c]
        return 0.25 * (theta * theta).sum(axis=(-2, -1)) * p2 / cfg.D

    oracle = X2 + oscillator.moment_oracle(cfg, spread).value
    yield ("x2-spread-ground-state-D3", "coordinate-spread",
           abs(x2 - oracle) / max(1 / mw, mw / lo), quad_tol)


def field_suite(p: dict):
    lam, m = p["lambda"], p["m"]

    residuals = []
    for n in (12, 24, 48):
        dx = 2.0 * np.pi / n
        f = field.plane_wave_mode((n, n, n), 1.0 / n, dx, dx, lam, m)
        residuals.append(float(np.abs(field.kg_apply(f)).max()))
    slopes = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    worst = _worst(*(abs(sl - 2.0) for sl in slopes))
    yield "kg-residual-order-2", "kg-lattice", worst, 0.1

    shape = (p["nt"], p["nx"], p["ntheta"])
    amplitude = 1.0
    J = np.zeros(shape, dtype=complex)
    J[shape[0] // 3, shape[1] // 2, shape[2] // 2] = amplitude
    src = field.SourceTerm(J, 0.11, 0.37, 0.41, lam, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", field.IllConditionedWarning)
        phi = field.greens_solve(src)
    resid = field.kg_residual_max(phi, src)
    yield ("greens-residual", "greens-solve",
           float(resid / amplitude), 1e-6)

    nx, nq = p["nx"], p["ntheta"]
    dx = 2.0 * np.pi / nx
    dq = 2.0 * np.pi / nq
    dt = 0.5 * field.max_stable_dt(dx, dq, lam, m)
    phi0, phidot0, _ = field.discrete_mode_initial((nx, nq), dt, dx, dq, lam, m)
    *_, series = field.evolve_leapfrog(
        phi0, phidot0, p["steps"], dt, dx, dq, lam, m, record_every=max(1, p["steps"] // 10)
    )
    first = series[0][2]
    drift = 0.0
    for _, _, ch in series[1:]:
        for name_ in field.Charges._fields:
            ref = getattr(first, name_)
            scale = max(abs(ref), first.P0)
            drift = _worst(drift, abs(getattr(ch, name_) - ref) / scale)
    yield f"charge-drift-{p['steps']}-steps", "noether-charges", drift, 1e-6

    kvec = np.array([0.4, 0.0, 0.0])
    k2 = reps.vec_to_mat([0, 0, 0, 0.6, 0, 0])  # K2_{12}
    w = field.dispersion(kvec, k2, lam, m)
    # w +- 0.5 alone is a single float once w is about 1e16
    half = max(0.5, w / 1024)
    worst = 0.0
    for sign in (+1, -1):
        root = _bisect(
            lambda k0: field.ExtendedMomentum(
                np.array([k0, *kvec]), k2, lam
            ).squared() + m**2,
            sign * w - half, sign * w + half,
        )
        worst = _worst(worst, abs(root - sign * w) / w)
    yield "propagator-poles-at-dispersion", "propagator", worst, 1e-10

    # at lambda and 2 lambda: at lambda = 1 alone, lambda and lambda^2 agree
    worst = 0.0
    for lam_ in (lam, 2.0 * lam):
        sym = field.kg_symbol((16, 12, 10), 0.05, 0.2, 0.25, lam_, m)
        for j in [(0, 1, 0), (1, 0, 1), (2, 1, 1)]:
            w_eff = 2.0 / 0.05 * math.sin(math.pi * j[0] / 16)
            kx_eff = 2.0 / 0.2 * math.sin(math.pi * j[1] / 12)
            kq_eff = 2.0 / 0.25 * math.sin(math.pi * j[2] / 10)
            K = field.ExtendedMomentum(np.array([-w_eff, kx_eff, 0.0, 0.0]),
                                       reps.vec_to_mat([0, 0, 0, kq_eff, 0, 0]), lam_)
            # in the scale of the symbol's terms, which grows as lambda^2
            scale = w_eff**2 + kx_eff**2 + lam_**2 * kq_eff**2 + m**2
            worst = _worst(worst, abs(sym[j] - (1.0 / field.propagator(K, m)).real) / scale)
    yield "symbol-matches-propagator", "propagator", worst, 1e-9

    rng = random.Random(p["seed"])
    theta = [[Fraction(0), Fraction(2, 5)], [Fraction(-2, 5), Fraction(0)]]
    x1, x2 = (Expression.generator(Generator("x", (k,))) for k in (1, 2))
    comm = field.star_commutator(x1, x2, theta, 6)
    mism = 0 if comm == GaussRat(0, Fraction(2, 5)) else 1
    for _ in range(10):
        f_, g_, h_ = (_random_cpoly(rng) for _ in range(3))
        lhs = field.moyal_star(field.moyal_star(f_, g_, theta, 6), h_, theta, 6)
        rhs = field.moyal_star(f_, field.moyal_star(g_, h_, theta, 6), theta, 6)
        mism += lhs != rhs
    yield "moyal-commutator-and-associativity", "moyal-product", mism, 0


def _random_cpoly(rng: random.Random) -> Expression:
    x1, x2 = Generator("x", (1,)), Generator("x", (2,))
    terms = {}
    for _ in range(rng.randint(2, 5)):
        while True:
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a + b <= 3:
                break
        terms[(x1,) * a + (x2,) * b] = GaussRat(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return Expression(terms)


SUITES = {
    "algebra": algebra_suite,
    "constraints": constraints_suite,
    "reps": reps_suite,
    "clifford": clifford_suite,
    "oscillator": oscillator_suite,
    "field": field_suite,
}


def _run(name: str, params: dict, **options) -> list[dict]:
    """The records of one suite, one per (name, ref, residual, tolerance) it yields.

    A check passes when its residual is finite and within a finite tolerance.
    A record's runtime runs from the end of the previous record (from the
    start of the suite for the first, so setup counts toward it).

    Parameters inside their domains can still take a suite's floating-point
    arithmetic out of range (Omega = 1e300 overflows Omega^2); that is a
    usage error, not a record.  numpy overflow, invalid values and division
    by zero raise FloatingPointError here, so they end like Python's own
    arithmetic errors instead of warning.
    """
    records = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            started = time.perf_counter()
            for check, ref, residual, tolerance in SUITES[name](params, **options):
                if ref not in REFERENCES:
                    raise ValueError(f"unregistered reference tag {ref!r}")
                ok = math.isfinite(residual) and math.isfinite(tolerance) and residual <= tolerance
                records.append({"name": check, "paper_ref": ref,
                                "status": "pass" if ok else "fail",
                                "residual": float(residual), "tolerance": float(tolerance),
                                "runtime": round(time.perf_counter() - started, 6)})
                started = time.perf_counter()
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise UsageError(f"the {name} suite overflows or underflows at these parameters "
                         f"({type(exc).__name__}: {exc})") from None
    return records


def run_suite(suite: str, params: dict) -> dict:
    checks = []
    if suite == "all":
        # the D-independent algebra checks run once, with D = 2
        for D in (2, 3, 4):
            checks += _run("algebra", {**params, "D": D}, shared=D == 2)
        for name in ("constraints", "reps", "clifford", "oscillator", "field"):
            checks += _run(name, params)
    elif suite in SUITES:
        checks += _run(suite, params)
    else:
        raise UsageError(f"unknown suite {suite!r}")
    passed = sum(c["status"] == "pass" for c in checks)
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "suite": suite,
        "seed": params["seed"],
        "params": {k: params[k] for k in sorted(params)},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed,
                    "failed": len(checks) - passed},
    }


def format_report_text(report: dict) -> str:
    lines = [
        f"suite {report['suite']}  (toolkit {report['version']}, "
        f"seed {report['seed']})"
    ]
    for c in report["checks"]:
        lines.append(
            f"[{c['status'].upper():4s}] {c['name']:42s} ref={c['paper_ref']:28s}"
            f" residual={c['residual']:.3e} tol={c['tolerance']:.1e}"
            f" t={c['runtime']:.2f}s"
        )
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} checks passed")
    return "\n".join(lines) + "\n"


def _report_json(report: dict) -> str:
    """Strict JSON text of a report: a non-finite residual or tolerance is null."""
    finite = lambda v: None if isinstance(v, float) and not math.isfinite(v) else v
    checks = [{k: finite(v) for k, v in c.items()} for c in report["checks"]]
    return json.dumps({**report, "checks": checks}, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename.

    The file gets the mode open(path, "w") would give it: an existing file's
    own, or 0o666 less the umask (mkstemp alone makes 0o600).  A symlink at
    path is written through, as open() does: its target gets the report.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".report-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    params = parse_params(args.set or [], args.config)
    report = run_suite(args.suite, params)
    text = (
        _report_json(report)
        if args.format == "json"
        else format_report_text(report)
    )
    if args.out:
        try:
            _atomic_write(args.out, text)
        except OSError as exc:
            raise UsageError(f"cannot write the report to {args.out}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if report["summary"]["failed"] == 0 else 1


# dfra eval --table NAME: the bracket table at dimension D
TABLES = {
    "dfra": lambda D: algebra.build(D).table,
    "dfra-relativistic": lambda D: algebra.build(D, relativistic=True).table,
    "poisson": lambda D: constraints.build_phase_space(D).table,
}


def _cmd_eval(args) -> int:
    params = parse_params(args.set or [], None)
    table = TABLES[args.table](params["D"])
    expr = parse_expression(args.expression, table)
    sys.stdout.write(format_expression(normal_form(expr, table)) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfra",
        description="verification suites for the extended noncommutative phase space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prun = sub.add_parser("run", help="run a named verification suite")
    prun.add_argument("--suite", default="all",
                      choices=[*SUITES.keys(), "all"])
    prun.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="override a parameter (repeatable)")
    prun.add_argument("--format", default="text", choices=["text", "json"])
    prun.add_argument("--out", help="write the report to this path (atomic)")
    prun.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    prun.add_argument("--samples", type=int,
                      help="shorthand for --set samples=N")
    prun.add_argument("--config", help="flat key=value parameter file")
    prun.set_defaults(func=_cmd_run)

    peval = sub.add_parser("eval", help="normalize an expression or bracket")
    peval.add_argument("expression")
    peval.add_argument("--table", default="dfra",
                       choices=list(TABLES))
    peval.add_argument("--set", action="append", metavar="KEY=VALUE")
    peval.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "seed", None) is not None:
        args.set = (args.set or []) + [f"seed={args.seed}"]
    if getattr(args, "samples", None) is not None:
        args.set = (args.set or []) + [f"samples={args.samples}"]
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, SymError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
