"""Every public float argument of dfra refuses NaN, +inf and -inf by name.

CALLS gives one valid call of each public function and class that
test_public_names collects and that takes a float, NO_FLOAT says what each
other name takes instead, and KEPT gives the reason for each name or
argument the gate leaves alone.  The gate substitutes NaN, +inf and -inf in
turn for each float argument of a call and for each entry of each float or
complex array argument (a tuple of floats counts as one), and expects a
ValueError whose message starts with that argument's name.  A collected
name in none of the tables fails, so a new public name cannot skip it.
"""

import math
import re

import numpy as np
import pytest
from test_public_names import DEFINITIONS

from dfra import algebra, clifford, constraints, field, oscillator, reps, symcore

V = np.array([1.0, 0.5, 0.0, 0.0])
K = reps.vec_to_mat([0.0, 0.0, 0.0, 0.5, 0.0, 0.0])  # K_{12} = 0.5
W = np.array([[0.0, 0.5], [-0.5, 0.0]])
GRID = dict(dt=0.01, dx=0.1, dtheta=0.1, lam=1.0, m=1.0)
CFG = oscillator.OscillatorConfig()
GS = clifford.build_gammas()
ALG = algebra.build(2)
REL = algebra.build(2, relativistic=True)
PS = constraints.build_phase_space(2)
DB = constraints.DiracBracket(PS, constraints.dfra_constraints(PS))
X1, X2 = (symcore.Expression.generator(symcore.Generator("x", (k,))) for k in (1, 2))
SOURCE = field.SourceTerm(np.zeros((6, 6, 6)), 0.11, 0.37, 0.41, 1.0, 0.7)
MOMENTUM = field.ExtendedMomentum(V, K, 1.0)

# (name, callable, keyword arguments of a valid call, labels): labels maps an
# argument to the name its message gives it where the two differ
CALLS = [
    ("Scaled", reps.Scaled.of, dict(m=np.eye(2), label="m"), {}),
    ("antisymmetric", reps.antisymmetric, dict(m=K, label="m"), {}),
    ("mat_to_vec", reps.mat_to_vec, dict(b=K), {}),
    ("minkowski_dot", reps.minkowski_dot, dict(u=V, v=V), {}),
    ("pair_dot", reps.pair_dot, dict(A=K, B=K), {}),
    ("orbital_m1", reps.orbital_m1, dict(x_ref=V, k=V), {}),
    ("orbital_m2", reps.orbital_m2, dict(theta_ref=K, K=K), {}),
    ("pauli_lubanski", reps.pauli_lubanski, dict(m1=K, k=V), {}),
    ("casimirs", reps.casimirs, dict(k=V, K=K, m1=K, m2=K), {}),
    ("casimirs", reps.casimirs, dict(k=V, K=K, x_ref=V, theta_ref=K), {}),
    ("GroupElement", reps.GroupElement, dict(lam=np.eye(4), a=V, b=K), {"lam": "lambda"}),
    ("InfinitesimalElement", reps.InfinitesimalElement,
     dict(omega=np.zeros((4, 4)), a=V, b=K), {}),
    ("exact_rotation", reps.exact_rotation, dict(i=1, j=2, cos_sin=(1.0, 0.0)), {}),
    ("exact_boost", reps.exact_boost, dict(axis=1, t=0.5), {}),
    ("expm", reps.expm, dict(a=np.eye(2)), {}),
    ("SampledField", reps.SampledField,
     dict(values=np.zeros((3,) + (1,) * 9), origin=(0.0,) * 10, spacing=(1.0,) * 10), {}),
    ("vec_to_mat", reps.vec_to_mat, dict(v=np.zeros(6)), {}),
    ("matrix_to_text", reps.matrix_to_text, dict(m=np.eye(2), title="t"), {}),
    ("quantum_conditions", algebra.quantum_conditions, dict(theta=K, planck_length=1.0), {}),
    ("rotate", algebra.rotate, dict(alg=ALG, epsilon=W, e=ALG.x(1)), {}),
    ("lorentz_transform", algebra.lorentz_transform,
     dict(alg=REL, omega=np.zeros((3, 3)), e=REL.x(1)), {}),
    ("infinitesimal_transform", algebra.infinitesimal_transform,
     dict(space=ALG, w=W, label="w", indices=range(1, 3),
          br=lambda a, b: symcore.bracket(a, b, ALG.table), factor=1, e=ALG.x(1)), {}),
    ("standard_hamiltonian", constraints.standard_hamiltonian,
     dict(ps=PS, m=1.0, omega=1.0, Lambda=1.0, Omega=1.0), {}),
    ("mass_shell_constraint", constraints.mass_shell_constraint,
     dict(ps=constraints.build_phase_space(2, relativistic=True), m=1.0), {}),
    ("classical_rotate", constraints.classical_rotate, dict(db=DB, epsilon=W, A=PS.x(1)), {}),
    ("OscillatorConfig", oscillator.OscillatorConfig,
     dict(m=1.0, omega=1.0, Lambda=1.0, Omega=1.0, D=3), {}),
    ("ground_wavefunction", oscillator.ground_wavefunction,
     dict(cfg=CFG, theta_values=np.array([0.1, 0.2, 0.3]), t=0.5), {}),
    ("weight_function", oscillator.weight_function,
     dict(cfg=CFG, theta_values=np.array([0.1, 0.2, 0.3])), {}),
    ("x2_expectation", oscillator.x2_expectation, dict(cfg=CFG, X2=1.0, p2=1.0), {}),
    ("dispersion", field.dispersion, dict(kvec1=np.array([0.4, 0.0, 0.3]), k2=K, lam=1.0, m=1.0),
     {}),
    ("ExtendedMomentum", field.ExtendedMomentum, dict(k1=V, k2=K, lam=1.0), {}),
    ("propagator", field.propagator, dict(K=MOMENTUM, m=1.0, eps=0.1), {}),
    ("max_stable_dt", field.max_stable_dt, dict(dx=0.1, dtheta=0.1, lam=1.0, m=1.0), {}),
    ("LatticeField", field.LatticeField, dict(values=np.zeros((5, 5, 5)), **GRID), {}),
    ("SourceTerm", field.SourceTerm, dict(values=np.zeros((5, 5, 5)), **GRID), {}),
    ("kg_symbol", field.kg_symbol, dict(shape=(8, 8, 8), **GRID), {}),
    ("greens_solve", field.greens_solve, dict(src=SOURCE, eps=1e-3), {}),
    ("supplementary_residual", field.supplementary_residual,
     dict(f=field.LatticeField(np.zeros((5, 5, 5)), **GRID), delta=0.5), {}),
    ("plane_wave_mode", field.plane_wave_mode, dict(shape=(8, 8, 8), **GRID, amplitude=1.0), {}),
    ("discrete_mode_initial", field.discrete_mode_initial, dict(shape_xq=(8, 6), **GRID), {}),
    ("noether_charges", field.noether_charges,
     dict(phi0=np.ones((8, 6)), phi1=np.ones((8, 6)), **GRID), {}),
    ("evolve_leapfrog", field.evolve_leapfrog,
     dict(phi=np.zeros((8, 6)), phidot=np.zeros((8, 6)), steps=3, **GRID), {}),
    ("moyal_star", field.moyal_star, dict(f=X1, g=X2, theta=W, order=1), {}),
    ("star_commutator", field.star_commutator, dict(f=X1, g=X2, theta=W, order=1), {}),
    ("dirac_operator", clifford.dirac_operator, dict(gs=GS, k=V, K=K, lam=1.0, m=1.0), {}),
    ("conjugate_dirac_operator", clifford.conjugate_dirac_operator,
     dict(gs=GS, k=V, K=K, lam=1.0, m=1.0), {}),
    ("dirac_square_residual", clifford.dirac_square_residual,
     dict(gs=GS, k=V, K=K, lam=1.0, m=1.0), {}),
    ("quadratic_form", clifford.quadratic_form, dict(k=V, K=K, lam=1.0, m=1.0), {}),
    ("spinor_boost", clifford.spinor_boost, dict(gs=GS, omega=K), {}),
    ("vector_matrix", clifford.vector_matrix, dict(omega=K), {}),
    ("intertwining_residual", clifford.intertwining_residual, dict(gs=GS, omega=K), {}),
]

ERROR = "an exception or warning class: it takes a message"
EXACT = "exact input only: a float coefficient is a TypeError"
ELEMENTS = "group or infinitesimal elements"
LATTICE = "LatticeFields, which read their own spacings and couplings"
SUITE = "a parameter mapping from parse_params, which refuses a non-finite value as a usage error"
ORACLE = "a configuration and ints"

NO_FLOAT = {
    **dict.fromkeys(["StencilError", "SymError", "UnknownGeneratorError", "NormalizationError",
                     "ParseError", "ConstraintError", "FieldDependentMatrixError",
                     "NotSecondClassError", "UsageError", "QuadratureUnsupportedError",
                     "IllConditionedWarning", "PoleError", "TachyonicModeError"], ERROR),
    **dict.fromkeys(["GaussRat", "Expression", "Generator", "BracketTable", "bracket",
                     "derivative", "format_expression", "jacobi_residual", "normal_form",
                     "closure_residual", "so_pattern", "angular_momentum",
                     "little_l_residual", "little_l_theta_terms", "lorentz_generator",
                     "shifted_coordinate", "so_closure_residual", "jacobi_suite",
                     "generator_symbols", "DfraAlgebra", "IndexSpace", "PhaseSpace",
                     "ConstraintSet", "DiracBracket", "constraint_matrix", "dfra_constraints",
                     "dirac_table_dump", "hamiltonian_flow", "classical_j_closure_residual"],
                    EXACT),
    **dict.fromkeys(["compose", "compose_infinitesimal", "d1", "d2", "d3", "d4", "d5",
                     "generator_matrix", "scaled_generator", "scaled_reps",
                     "scalar_field_transform"], ELEMENTS),
    **dict.fromkeys(["kg_apply", "kg_residual_max", "scalar_action_density"], LATTICE),
    **dict.fromkeys(["algebra_suite", "constraints_suite", "reps_suite", "clifford_suite",
                     "oscillator_suite", "field_suite", "run_suite"], SUITE),
    **dict.fromkeys(["energy", "level_degeneracy", "moment", "vacuum_shift",
                     "vacuum_shift_oracle", "Occupation", "monomial", "moment_oracle"], ORACLE),
    **dict.fromkeys(["anticommutator_residual", "lorentz_closure_residual",
                     "pair_covariance_residual", "vector_covariance_residual",
                     "spinor_generator"], "a GammaSet or SpinorGenerator"),
    **dict.fromkeys(["build_gammas", "extended_metric_diagonal", "usable_cpus",
                     "build_parser"], "no argument"),
    "parse_expression": "text",
    "parse_params": "key=value text",
    "main": "command-line text",
    "format_report_text": "a report built by run_suite",
    "pair_slot": "two int indices",
    "index_range": "an int dimension",
    "build": "an int dimension",
    "build_phase_space": "an int dimension",
    "random_exact_element": "a random.Random",
    "random_float_lorentz": "a numpy Generator",
    "run": "a callable and its parts",
    "split": "an int count",
}

RECORD = "a result record: its fields are computed values, and a NaN one fails its check"
GRID_SAMPLES = ("grid samples, read without a copy or a grid-sized pass; a NaN sample is "
                "data that the residuals carry (test_slab_residual_propagates_nan)")

KEPT = {
    "GammaSet": "holds build_gammas' matrices; test_residuals_keep_a_nan builds one with a "
                "NaN gamma to check that every residual carries it",
    "SpinorGenerator": "holds spinor_generator's matrices; test_residuals_keep_a_nan builds "
                       "one with a NaN entry",
    "Charges": RECORD,
    "MomentEstimate": RECORD,
    "LatticeField.values": GRID_SAMPLES,
    "SourceTerm.values": GRID_SAMPLES,
    "SampledField.values": GRID_SAMPLES,
    "vec_to_mat.v": "places six entries without reading them as numbers; mat_to_vec names "
                    "a NaN they carry (test_every_float_read_rejects_a_non_finite_entry)",
    "matrix_to_text.m": "writes any matrix as text, a NaN entry as nan",
}


def _entries(value):
    """The substitution points of an argument: () for a float, each index of
    a float or complex array or of a tuple of floats; None for other values."""
    if type(value) is float:
        return [()]
    if isinstance(value, tuple) and value and all(type(v) is float for v in value):
        return [(i,) for i in range(len(value))]
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        return list(np.ndindex(value.shape))
    return None


def _with(value, index, bad):
    """value with the entry at index set to bad."""
    if index == ():
        return bad
    if isinstance(value, tuple):
        return value[:index[0]] + (bad,) + value[index[0] + 1:]
    out = value.copy()
    out[index] = bad
    return out


CASES = [
    pytest.param(name, fn, kwargs, arg, labels.get(arg, arg), id=f"{name}-{arg}")
    for name, fn, kwargs, labels in CALLS
    for arg, value in kwargs.items()
    if _entries(value) is not None and f"{name}.{arg}" not in KEPT
]


def test_every_public_name_is_in_the_gate():
    called = {name for name, *_ in CALLS}
    missing = sorted(set(DEFINITIONS) - called - set(NO_FLOAT) - set(KEPT))
    assert not missing, f"public names the non-finite gate does not know: {missing}"
    stale = sorted((called | set(NO_FLOAT) | {k.split(".")[0] for k in KEPT}) - set(DEFINITIONS))
    assert not stale, f"gate entries that are no public name: {stale}"
    assert not called & set(NO_FLOAT), "a name with a float call also says it takes none"


@pytest.mark.parametrize("name, fn, kwargs", [c[:3] for c in CALLS],
                         ids=[c[0] for c in CALLS])
def test_each_gate_call_is_valid(name, fn, kwargs):
    fn(**kwargs)


def test_each_kept_argument_is_one_that_the_gate_would_vary():
    calls = {(name, arg): value for name, _, kwargs, _ in CALLS for arg, value in kwargs.items()}
    for key in KEPT:
        if "." in key:
            assert _entries(calls[tuple(key.split("."))]) is not None, key


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, fn, kwargs, arg, label", CASES)
def test_a_non_finite_entry_is_a_value_error_naming_its_argument(name, fn, kwargs, arg, label,
                                                                 bad):
    for index in _entries(kwargs[arg]):
        with pytest.raises(ValueError, match=f"^{re.escape(label)} ") as caught:
            fn(**{**kwargs, arg: _with(kwargs[arg], index, bad)})
        assert "finite" in str(caught.value), (index, str(caught.value))


# -- the reader's other rules ----------------------------------------------------

_COMPLEX_READS = {
    "minkowski_dot-u": ("u", lambda z: reps.minkowski_dot([z, 0, 0, 0], V)),
    "pair_dot-B": ("B", lambda z: reps.pair_dot(K, K * z)),
    "casimirs-k": ("k", lambda z: reps.casimirs([z, 0, 0, 0], K)),
    "dispersion-kvec1": ("kvec1", lambda z: field.dispersion([z, 0, 0], K, 1.0, 1.0)),
    "dispersion-lam": ("lam", lambda z: field.dispersion([0.4, 0, 0], K, z, 1.0)),
    "quadratic_form-m": ("m", lambda z: clifford.quadratic_form(V, K, 1.0, z)),
    "ground_wavefunction-t": ("t", lambda z: oscillator.ground_wavefunction(CFG, [0, 0, 0], z)),
    "OscillatorConfig-Omega": ("Omega", lambda z: oscillator.OscillatorConfig(Omega=z)),
}


@pytest.mark.parametrize("z", [1j, np.complex128(1 + 1j), complex(2, 0)],
                         ids=["imaginary", "numpy-complex", "zero-imaginary-part"])
@pytest.mark.parametrize("read", sorted(_COMPLEX_READS))
def test_a_complex_value_of_a_float_argument_is_refused_by_name(read, z):
    # minkowski_dot dropped the imaginary part with a ComplexWarning and
    # returned 0.0 for [1j, 0, 0, 0]; dispersion raised a bare TypeError
    label, call = _COMPLEX_READS[read]
    with pytest.raises(ValueError, match=f"^{label} must be finite and real"):
        call(z)


def test_the_reader_returns_a_float_or_a_private_read_only_array():
    assert type(reps._finite(2, "x")) is float and type(reps._finite(np.float32(2), "x")) is float
    caller = np.array([1.0, 2.0])
    out = reps._finite(caller, "x", (2,))
    caller[0] = 7.0
    assert out.tolist() == [1.0, 2.0] and not out.flags.writeable
    assert reps._finite([1j, 2], "phi", dtype=complex).dtype == complex
    with pytest.raises(ValueError, match=r"^x must have shape \(3,\), got \(2,\)"):
        reps._finite(caller, "x", (3,))
    with pytest.raises(ValueError, match="^x must be finite and real"):
        reps._finite(np.array([None, 1.0], dtype=object), "x")
