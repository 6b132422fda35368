"""Representation matrices: homomorphism, infinitesimal closure, Casimirs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from dfra.clifford import build_gammas
from dfra.reps import (
    ETA,
    antisymmetric,
    PAIRS,
    GroupElement,
    InfinitesimalElement,
    SampledField,
    Scaled,
    StencilError,
    casimirs,
    compose,
    compose_infinitesimal,
    d1,
    d2,
    d2_first_order,
    d3,
    d4,
    d5,
    exact_boost,
    exact_rotation,
    expm,
    generator_matrix,
    mat_to_vec,
    minkowski_dot,
    pair_dot,
    pair_slot,
    pauli_lubanski,
    random_exact_element,
    random_float_lorentz,
    scalar_field_transform,
    scaled_generator,
    scaled_reps,
    vec_to_mat,
)


def _f(x, d=1):
    return Fraction(x, d)


def _exact_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def test_d5_serialization_golden():
    from pathlib import Path

    from dfra.reps import matrix_to_text

    lam = exact_rotation(1, 2, (_f(3, 5), _f(4, 5))).dot(exact_boost(1, _f(1, 2)))
    a = np.array([_f(1, 2), _f(1), _f(-3, 2), _f(2)], dtype=object)
    b = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
    b[0, 1], b[1, 0] = _f(1, 3), _f(-1, 3)
    b[2, 3], b[3, 2] = _f(-2, 5), _f(2, 5)
    g = GroupElement(lam, a, b)
    text = matrix_to_text(
        d5(g), "d5 of rotation(1,2;3/5,4/5) . boost(1;t=1/2) with sample translations"
    )
    golden = Path(__file__).parent / "goldens" / "d5_sample.txt"
    assert text == golden.read_text()


def test_pair_basis_round_trip():
    for s, (mu, nu) in enumerate(PAIRS):
        assert pair_slot(mu, nu) == (s, 1)
        assert pair_slot(nu, mu) == (s, -1)
    v = np.arange(6.0)
    assert np.array_equal(mat_to_vec(vec_to_mat(v)), v)
    exact = np.array([Fraction(k, 3) for k in range(1, 7)], dtype=object)
    m = vec_to_mat(exact)
    assert np.array_equal(mat_to_vec(m), exact) and np.array_equal(m, -m.T)
    # the diagonal of an exact tensor is Fraction(0), like every other entry
    assert all(type(x) is Fraction for x in m.flat)


def test_d_matrices_at_identity():
    g = GroupElement.identity()
    assert np.array_equal(d1(g), np.eye(4))
    assert np.array_equal(d2(g), np.eye(6))
    assert np.array_equal(d3(g), np.eye(5))
    assert np.array_equal(d4(g), np.eye(7))
    assert np.array_equal(d5(g), np.eye(11))


def test_antisymmetric_validator_exact_and_float():
    exact = antisymmetric([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]], "w", 2, exact=True)
    assert exact.dtype == object and exact[0, 1] == Fraction(1, 3)
    with pytest.raises(ValueError):  # exact entries compare exactly
        antisymmetric([[0, Fraction(1, 3)], [Fraction(-1, 3) + Fraction(1, 10**15), 0]],
                      "w", 2, exact=True)
    with pytest.raises(ValueError):
        antisymmetric([[0, 1, 0], [-1, 0, 0]], "w", 3, exact=True)
    near = np.array([[0.0, 1.0], [-1.0 + 1e-13, 0.0]])
    assert antisymmetric(near, "w", 2).dtype == float  # floats at atol 1e-12
    for bad in (np.eye(4), np.full((4, 4), np.nan), np.zeros((3, 3))):
        with pytest.raises(ValueError):
            antisymmetric(bad, "w")


def test_group_element_rejects_non_lorentz():
    with pytest.raises(ValueError):
        GroupElement(np.eye(4) * 2.0, np.zeros(4), np.zeros((4, 4)))


@pytest.mark.parametrize("axis", [-1, 0, 4])
def test_exact_boost_rejects_an_axis_outside_1_to_3(axis):
    with pytest.raises(ValueError, match="axes"):
        exact_boost(axis, _f(1, 2))


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (2, 2), (1, 4), (-1, 2)])
def test_exact_rotation_rejects_bad_planes(i, j):
    with pytest.raises(ValueError, match="axes"):
        exact_rotation(i, j, (_f(3, 5), _f(4, 5)))


@pytest.mark.parametrize("cos_sin", [(0.6, 0.8), (_f(3, 5), 0.8), (0.6, _f(4, 5)),
                                     (math.inf, 0), (math.nan, _f(1))])
def test_exact_rotation_reads_cos_and_sin_exactly(cos_sin):
    # 0.6**2 + 0.8**2 rounds to 1.0, but the binary values are not a unit pair
    with pytest.raises(ValueError):
        exact_rotation(1, 2, cos_sin)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_exact_boost_rejects_a_non_finite_t(t):
    with pytest.raises(ValueError):
        exact_boost(1, t)


def test_exact_rotation_and_boost_accept_every_spatial_axis():
    for axis in (1, 2, 3):
        GroupElement.pure_lorentz(exact_boost(axis, _f(-2, 7)))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                GroupElement.pure_lorentz(exact_rotation(i, j, (_f(5, 13), _f(12, 13))))


def test_exact_homomorphism_all_representations():
    rng = random.Random(2026)
    for _ in range(25):
        g1 = random_exact_element(rng)
        g2 = random_exact_element(rng)
        g12 = compose(g1, g2)
        for rep in (d1, d2, d3, d4, d5):
            assert _exact_equal(rep(g1).dot(rep(g2)), rep(g12)), rep.__name__


def test_float_homomorphism_generic_boosts():
    rng = np.random.default_rng(61)
    for _ in range(25):
        def element():
            lam = random_float_lorentz(rng)
            b = vec_to_mat(rng.normal(0, 1, 6))
            return GroupElement(lam, rng.normal(0, 1, 4), b)

        g1, g2 = element(), element()
        g12 = compose(g1, g2)
        for rep in (d1, d2, d3, d4, d5):
            assert np.abs(rep(g1) @ rep(g2) - rep(g12)).max() < 1e-10


def test_d2_implements_tensor_transform_exactly():
    rng = random.Random(7)
    for _ in range(10):
        g = random_exact_element(rng)
        theta = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
        for mu, nu in PAIRS:
            v = _f(rng.randint(-5, 5))
            theta[mu, nu] = v
            theta[nu, mu] = -v
        direct = g.lam.dot(theta).dot(g.lam.T)
        via_d2 = vec_to_mat(d2(g).dot(mat_to_vec(theta)))
        assert _exact_equal(direct, via_d2)
        # image re-expands antisymmetric
        assert _exact_equal(via_d2, -via_d2.T)


def test_d5_block_structure_and_translation_column():
    rng = random.Random(12)
    g = random_exact_element(rng)
    m = d5(g)
    assert _exact_equal(m[:4, :4], d1(g))
    assert _exact_equal(m[4:10, 4:10], d2(g))
    assert _exact_equal(m[:4, 10], g.a)
    assert _exact_equal(m[4:10, 10], mat_to_vec(g.b))
    assert m[10, 10] == 1


def test_d2_first_order_matches_tensor_formula():
    rng = random.Random(3)
    for _ in range(10):
        w_up = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
        for mu, nu in PAIRS:
            v = _f(rng.randint(-4, 4), )
            w_up[mu, nu] = v
            w_up[nu, mu] = -v
        e = InfinitesimalElement.from_antisymmetric(w_up)
        theta = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
        for mu, nu in PAIRS:
            v = _f(rng.randint(-4, 4))
            theta[mu, nu] = v
            theta[nu, mu] = -v
        got = vec_to_mat(d2_first_order(e.omega).dot(mat_to_vec(theta)))
        expect = e.omega.dot(theta) + theta.dot(e.omega.T)
        assert _exact_equal(got, expect)


def test_d2_first_order_is_derivative_of_d2():
    rng = np.random.default_rng(8)
    w_up = rng.normal(0, 1, (4, 4))
    w_up = w_up - w_up.T
    errors = []
    for eps in (1e-3, 5e-4):
        lam = scipy_expm(eps * w_up.dot(ETA))
        g = GroupElement.pure_lorentz(lam)
        e = InfinitesimalElement.from_antisymmetric(eps * w_up)
        errors.append(np.abs(d2(g) - np.eye(6) - d2_first_order(e.omega)).max())
    assert errors[1] < errors[0] / 3.0  # quadratic remainder


def _random_infinitesimal(rng: random.Random) -> InfinitesimalElement:
    w_up = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
    b = np.array([[_f(0)] * 4 for _ in range(4)], dtype=object)
    for mu, nu in PAIRS:
        v = _f(rng.randint(-4, 4), rng.randint(1, 3))
        w_up[mu, nu] = v
        w_up[nu, mu] = -v
        u = _f(rng.randint(-4, 4), rng.randint(1, 2))
        b[mu, nu] = u
        b[nu, mu] = -u
    a = np.array([_f(rng.randint(-5, 5), 2) for _ in range(4)], dtype=object)
    return InfinitesimalElement.from_antisymmetric(w_up, a, b)


def test_compose_infinitesimal_zero_and_abelian():
    rng = random.Random(5)
    e1 = _random_infinitesimal(rng)
    zero = InfinitesimalElement.zero()
    e3 = compose_infinitesimal(e1, zero)
    assert not np.any(e3.omega) and not np.any(e3.a) and not np.any(e3.b)
    # pure translations commute
    t1 = InfinitesimalElement(np.zeros((4, 4)), np.array([1.0, 0, 0, 0]),
                              vec_to_mat([1.0, 0, 0, 0, 0, 0]))
    t2 = InfinitesimalElement(np.zeros((4, 4)), np.array([0, 2.0, 0, 0]),
                              vec_to_mat([0, 0, 3.0, 0, 0, 0]))
    e3 = compose_infinitesimal(t1, t2)
    assert not np.any(e3.omega) and not np.any(e3.a) and not np.any(e3.b)


def test_compose_infinitesimal_matches_generator_commutator():
    rng = random.Random(99)
    for _ in range(12):
        e1 = _random_infinitesimal(rng)
        e2 = _random_infinitesimal(rng)
        e3 = compose_infinitesimal(e1, e2)
        g1, g2, g3 = map(generator_matrix, (e1, e2, e3))
        assert _exact_equal(g1.dot(g2) - g2.dot(g1), g3)


def test_commutator_on_random_11_vector():
    rng = random.Random(4)
    e1 = _random_infinitesimal(rng)
    e2 = _random_infinitesimal(rng)
    e3 = compose_infinitesimal(e1, e2)
    y = np.array([_f(rng.randint(-9, 9), 3) for _ in range(11)], dtype=object)
    g1, g2 = generator_matrix(e1), generator_matrix(e2)
    assert _exact_equal(g1.dot(g2.dot(y)) - g2.dot(g1.dot(y)),
                        generator_matrix(e3).dot(y))


# -- elements hold only their integer forms ---------------------------------------


def test_group_operations_never_read_out_fraction_arrays(monkeypatch):
    rng = random.Random(17)
    gs = [random_exact_element(rng) for _ in range(3)]
    es = [_random_infinitesimal(rng) for _ in range(3)]

    def refuse(self):
        raise AssertionError("Scaled.array called")

    monkeypatch.setattr(Scaled, "array", refuse)
    g12, g23 = compose(gs[0], gs[1]), compose(gs[1], gs[2])
    for m1, m2, m3, m12, m23 in zip(*map(scaled_reps, (*gs, g12, g23))):
        assert (m1 @ m2).equals(m12) and (m2 @ m3).equals(m23)
        assert not (m1 @ m2).equals(m23)
    e3 = compose_infinitesimal(es[0], es[1])
    s1, s2, s3 = map(scaled_generator, (es[0], es[1], e3))
    assert (s1 @ s2 - s2 @ s1).equals(s3)
    assert not (s1 @ s2).equals(s3)


def test_elements_are_immutable():
    rng = random.Random(3)
    g, e = random_exact_element(rng), _random_infinitesimal(rng)
    for obj, names in ((g, ("lam", "a", "b", "scaled")), (e, ("omega", "a", "b", "scaled"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
    # an exact part reads out as a fresh Fraction array: writing to it changes nothing
    lam = g.lam
    lam[0, 0] += 1
    assert g.lam[0, 0] == lam[0, 0] - 1


def test_float_elements_keep_private_read_only_parts():
    lam, a, b, omega = np.eye(4), np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4))
    g = GroupElement(lam, a, b)
    e = InfinitesimalElement(omega, a, b)
    rep = d1(g)
    # writing to the arrays the elements were built from changes neither
    lam[0, 0], a[0], b[0, 1], omega[0, 1] = 5.0, 1.0, 2.0, 3.0
    # and the read-outs cannot be written to
    for part in (g.lam, g.a, g.b, e.omega, e.a, e.b):
        with pytest.raises(ValueError):
            part[0] = 7.0
    assert np.array_equal(g.lam, np.eye(4)) and np.array_equal(d1(g), rep)
    assert not (g.a.any() or g.b.any() or e.omega.any() or e.a.any() or e.b.any())


def test_elements_survive_a_pickle_round_trip():
    import pickle

    rng = random.Random(8)
    for x in (random_exact_element(rng), _random_infinitesimal(rng),
              GroupElement(random_float_lorentz(np.random.default_rng(8)), np.ones(4),
                           vec_to_mat(np.arange(6.0)))):
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x)
        assert all(p.equals(q) for p, q in zip(x.scaled, y.scaled))


# -- matrix exponential --------------------------------------------------------

_EPS = np.finfo(float).eps
_SPINOR_M = build_gammas().generator.m


def _expm_bound(a, reference):
    # a backward-stable expm is off by about eps times the condition number,
    # which is at least the 1-norm of a
    norm = np.abs(a).sum(axis=0).max()
    return _EPS * (1 + norm) * np.abs(reference).max()


def _assert_expm_matches_scipy(a):
    # scipy is the looser of the two: on boosts of rapidity 4-5 it is off by
    # up to about 540 of these units from a 40-digit expm, reps.expm by 3
    want = scipy_expm(a)
    assert np.abs(expm(a) - want).max() <= 1024 * _expm_bound(a, want)


@given(st.lists(st.floats(-1, 1), min_size=16, max_size=16))
@example([0.0] * 15 + [5e-324])  # a subnormal 1-norm: norm / theta_13 underflows to 0
@settings(max_examples=200, deadline=None)
def test_expm_matches_scipy_on_real_4x4(entries):
    _assert_expm_matches_scipy(np.array(entries).reshape(4, 4))


@given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_expm_matches_scipy_on_lorentz_generators(upper):
    # the generators random_float_lorentz exponentiates, up to 7 sigma at its scale
    _assert_expm_matches_scipy(vec_to_mat(upper).dot(ETA))


@given(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_expm_matches_scipy_on_spinor_generators(omega):
    # -(i/2) omega_{mu nu} M^{mu nu}, the 32x32 complex exponent of spinor_boost
    _assert_expm_matches_scipy(-0.5j * np.einsum("mn,mnab->ab", vec_to_mat(omega), _SPINOR_M))


@pytest.mark.parametrize("t", [0.1, 5.0, 40.0, 1000.0])
def test_expm_of_a_rotation_generator_is_the_rotation(t):
    # 1-norm t: no squaring at 0.1 and 5, then 3 and 8 squarings
    a = np.array([[0.0, -t], [t, 0.0]])
    want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.abs(expm(a) - want).max() <= 64 * _expm_bound(a, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                         ids=["nan", "inf", "-inf", "complex-nan"])
@pytest.mark.parametrize("n", [4, 32])
def test_expm_rejects_nonfinite_input(bad, n):
    a = np.zeros((n, n), dtype=complex if isinstance(bad, complex) else float)
    a[n - 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        expm(a)


def test_expm_rejects_an_overflowing_norm_and_nonsquare_input():
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        expm(np.full((4, 4), 1e308))  # every entry finite, the 1-norm is not
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((3, 4)))


# -- Casimirs -----------------------------------------------------------------


def test_c1_rest_frame():
    m = 2.5
    c1, _, _, _ = casimirs([m, 0, 0, 0], np.zeros((4, 4)))
    assert c1 == pytest.approx(-(m**2))


def test_c1_c3_invariant_under_random_transformations():
    rng = np.random.default_rng(17)
    k = np.array([2.0, 0.3, -0.5, 0.1])
    K = vec_to_mat(rng.normal(0, 1, 6))
    c1, _, c3, _ = casimirs(k, K)
    for _ in range(50):
        lam = random_float_lorentz(rng)
        k2 = lam.dot(k)
        K2 = lam.dot(K).dot(lam.T)
        c1b, _, c3b, _ = casimirs(k2, K2)
        assert abs(c1b - c1) < 1e-10
        assert abs(c3b - c3) < 1e-10


def test_c2_c4_orbital_parts_vanish_and_stay_invariant():
    # with purely orbital angular momentum the Pauli-Lubanski square and the
    # M2.K pairing both vanish identically; invariance is then trivial but
    # still exercised through transformed reference data
    rng = np.random.default_rng(23)
    k = np.array([3.0, 1.0, 0.2, -0.4])
    K = vec_to_mat(rng.normal(0, 1, 6))
    x_ref = rng.normal(0, 1, 4)
    th_ref = vec_to_mat(rng.normal(0, 1, 6))
    _, c2, _, c4 = casimirs(k, K, x_ref=x_ref, theta_ref=th_ref)
    assert c2 == pytest.approx(0.0, abs=1e-12)
    assert c4 == pytest.approx(0.0, abs=1e-12)


def test_c2_with_spin_part_is_invariant():
    # a generic (spin-carrying) M1 makes C2 nonzero; it must stay invariant
    rng = np.random.default_rng(31)
    k = np.array([2.0, 0.5, -0.3, 0.8])
    m1 = vec_to_mat(rng.normal(0, 1, 6))
    s = pauli_lubanski(m1, k)
    c2 = float(s.dot(ETA).dot(s))
    assert abs(c2) > 1e-6
    for _ in range(25):
        lam = random_float_lorentz(rng)
        m1p = lam.dot(m1).dot(lam.T)
        sp = pauli_lubanski(m1p, lam.dot(k))
        c2p = float(sp.dot(ETA).dot(sp))
        assert abs(c2p - c2) < 1e-9


def test_c3_value_matches_pair_sum():
    K = vec_to_mat([1.0, 0, 0, 0, 0, 2.0])
    # K^{01} = 1 (eta gives -1 on its square), K^{23} = 2 (+4)
    _, _, c3, _ = casimirs(np.zeros(4), K)
    assert c3 == pytest.approx(-1.0 + 4.0)


def test_minkowski_dot_signature():
    assert minkowski_dot([1, 0, 0, 0], [1, 0, 0, 0]) == pytest.approx(-1.0)
    assert minkowski_dot([0, 1, 0, 0], [0, 1, 0, 0]) == pytest.approx(1.0)


def test_pair_dot_raises_both_indices():
    rng = np.random.default_rng(11)
    A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    eta = np.diag(ETA)
    want = sum(A[m, n] * eta[m] * eta[n] * B[m, n] for m in range(4) for n in range(4))
    assert pair_dot(A, B) == pytest.approx(want, rel=1e-13, abs=1e-13)
    # a time-space component flips sign, a space-space one does not
    K = vec_to_mat([1.0, 0, 0, 0, 0, 2.0])
    assert pair_dot(K, K) == -2.0 + 8.0


# -- sampled scalar fields ------------------------------------------------------


def _field_on(axes: dict[int, np.ndarray], fill) -> SampledField:
    """Build a SampledField varying only along the given axes."""
    shape = [1] * 10
    origin = [0.0] * 10
    spacing = [1.0] * 10
    coords = []
    for axis, xs in axes.items():
        shape[axis] = len(xs)
        origin[axis] = float(xs[0])
        spacing[axis] = float(xs[1] - xs[0]) if len(xs) > 1 else 1.0
    grids = []
    for axis in range(10):
        n = shape[axis]
        c = origin[axis] + spacing[axis] * np.arange(n)
        view = [1] * 10
        view[axis] = n
        grids.append(c.reshape(view))
    values = fill(grids)
    values = np.broadcast_to(values, shape).astype(float).copy()
    return SampledField(values, tuple(origin), tuple(spacing))


def test_transform_constant_field_pure_translation():
    f = _field_on({0: np.linspace(0, 1, 5)}, lambda g: np.ones_like(g[0]))
    e = InfinitesimalElement(np.zeros((4, 4)), np.array([1.0, 2.0, 0, 0]),
                             np.zeros((4, 4)))
    assert np.allclose(scalar_field_transform(e, f), 0.0, atol=1e-12)


def test_transform_linear_field_directional_derivative():
    f = _field_on({1: np.linspace(-1, 1, 7)}, lambda g: g[1])
    e = InfinitesimalElement(np.zeros((4, 4)), np.array([0, 1.0, 0, 0]),
                             np.zeros((4, 4)))
    assert np.allclose(scalar_field_transform(e, f), -1.0, atol=1e-12)


def test_transform_theta_translation():
    # axis 4 is theta^{01}; delta phi = -(1/2) b^{mu nu} d_{mu nu} phi
    # reduces to -b^{01} d/dtheta^{01} on the canonical component
    f = _field_on({4: np.linspace(-1, 1, 7)}, lambda g: 3.0 * g[4])
    e = InfinitesimalElement(np.zeros((4, 4)), np.zeros(4),
                             vec_to_mat([2.0, 0, 0, 0, 0, 0]))
    assert np.allclose(scalar_field_transform(e, f), -6.0, atol=1e-12)


def test_transform_needs_stencil():
    f = SampledField(np.zeros((2,) + (1,) * 9), (0.0,) * 10, (1.0,) * 10)
    e = InfinitesimalElement(np.zeros((4, 4)), np.array([1.0, 0, 0, 0]),
                             np.zeros((4, 4)))
    with pytest.raises(StencilError):
        scalar_field_transform(e, f)


def test_transform_skips_an_axis_without_flow():
    # axis 2 has 2 points, but a translation along x^0 moves nothing along it
    f = _field_on({0: np.linspace(0, 1, 5), 2: np.array([0.0, 1.0])}, lambda g: g[0] + g[2])
    e = InfinitesimalElement(np.zeros((4, 4)), np.array([1.0, 0, 0, 0]), np.zeros((4, 4)))
    assert np.allclose(scalar_field_transform(e, f), -1.0, atol=1e-12)


def test_transform_rotates_theta_and_boosts_x():
    # pinned without the generator matrix: omega^{12} = 0.2 takes theta^{02}
    # to 0.2 theta^{01}, and omega^{01} = 0.3 takes x^1 to -0.3 x^0
    xs = np.linspace(-1.0, 1.0, 5)
    f = _field_on({4: xs, 5: xs}, lambda g: g[5])
    e = InfinitesimalElement.from_antisymmetric(vec_to_mat([0, 0, 0, 0.2, 0, 0]))
    assert np.allclose(scalar_field_transform(e, f), 0.2 * f.coordinate(4), atol=1e-12)
    f = _field_on({0: xs, 1: xs}, lambda g: g[1])
    e = InfinitesimalElement.from_antisymmetric(vec_to_mat([0.3, 0, 0, 0, 0, 0]))
    assert np.allclose(scalar_field_transform(e, f), -0.3 * f.coordinate(0), atol=1e-12)


def _reference_transform(e: InfinitesimalElement, f: SampledField) -> np.ndarray:
    """The flows written out by hand: (a + omega x)^mu on the x axes and the
    antisymmetrized (b + 2 omega theta)^{mu nu} on the canonical pair axes.
    An axis is differentiated unless every coefficient of its flow is zero."""
    omega, a, b = (np.asarray(v, dtype=float) for v in (e.omega, e.a, e.b))

    def theta(r, s):
        slot, sign = pair_slot(r, s)
        return sign * f.coordinate(4 + slot)

    rows = [(a[mu], [(omega[mu, nu], f.coordinate(nu)) for nu in range(4)]) for mu in range(4)]
    for mu, nu in PAIRS:
        terms = [(omega[mu, r], theta(r, nu)) for r in range(4) if r != nu]
        terms += [(-omega[nu, r], theta(r, mu)) for r in range(4) if r != mu]
        rows.append((b[mu, nu], terms))
    out = np.zeros_like(f.values)
    for axis, (constant, terms) in enumerate(rows):
        if constant or any(c for c, _ in terms):
            flow = constant + sum(c * x for c, x in terms)
            out = out - flow * f.derivative(axis)
    return out


def _sparse_infinitesimal(rng: random.Random, exact: bool) -> InfinitesimalElement:
    """About half of the parameters zero, so that some flows vanish."""
    def draw():
        v = _f(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else _f(0)
        return v if exact else float(v) * rng.uniform(0.5, 2.0)

    dtype = object if exact else float
    w_up, b = (vec_to_mat(np.array([draw() for _ in PAIRS], dtype=dtype)) for _ in range(2))
    return InfinitesimalElement.from_antisymmetric(
        w_up, np.array([draw() for _ in range(4)], dtype=dtype), b)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_transform_matches_the_hand_written_flows(exact):
    rng = random.Random(23)
    outcomes = set()
    for _ in range(200):
        e = _sparse_infinitesimal(rng, exact)
        shape = tuple(rng.choice((1, 1, 1, 2, 3, 4)) for _ in range(10))
        origin = tuple(rng.uniform(-1, 1) for _ in range(10))
        spacing = tuple(rng.uniform(0.1, 1) for _ in range(10))
        values = np.random.default_rng(rng.randrange(2**32)).normal(size=shape)
        f = SampledField(values, origin, spacing)
        try:
            want = _reference_transform(e, f)
        except StencilError:
            outcomes.add("stencil")
            with pytest.raises(StencilError):
                scalar_field_transform(e, f)
            continue
        outcomes.add("value")
        assert np.allclose(scalar_field_transform(e, f), want,
                           rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))
    assert outcomes == {"stencil", "value"}


def _quadratic_field() -> SampledField:
    # varies along x0, x1, theta^{01} (axis 4), theta^{02} (axis 5)
    xs = np.linspace(-1.0, 1.0, 9)
    return _field_on(
        {0: xs, 1: xs, 4: xs, 5: xs},
        lambda g: (
            g[0] ** 2
            + 2.0 * g[0] * g[1]
            + g[1] * g[4]
            + g[4] * g[5]
            + g[5] ** 2
            + 0.5 * g[0] * g[5]
        ),
    )


def _boost_rotation_element() -> InfinitesimalElement:
    w_up = np.zeros((4, 4))
    w_up[0, 1] = 0.3  # boost (0,1)
    w_up[1, 2] = -0.2  # rotation (1,2)
    w_up = w_up - w_up.T
    return InfinitesimalElement.from_antisymmetric(w_up)


def test_transform_commutator_matches_composition_exactly_on_quadratics():
    # all stencils are exact on per-axis quadratics, so the discrete
    # commutator reproduces the composed transform to rounding error
    f = _quadratic_field()
    e1 = _boost_rotation_element()
    e2 = InfinitesimalElement(np.zeros((4, 4)), np.array([0.7, -0.4, 0.0, 0.0]),
                              vec_to_mat([0.5, -0.3, 0, 0, 0, 0]))
    e3 = compose_infinitesimal(e1, e2)

    def apply(e, field_values):
        g = SampledField(field_values, f.origin, f.spacing)
        return scalar_field_transform(e, g)

    d12 = apply(e1, apply(e2, f.values))
    d21 = apply(e2, apply(e1, f.values))
    d3v = apply(e3, f.values)
    assert np.allclose(d12 - d21, d3v, atol=1e-10)


def test_transform_commutator_second_order_on_smooth_field():
    # Richardson check: discretization error of the commutator shrinks ~4x
    # per mesh halving on a transcendental field
    e1 = _boost_rotation_element()
    e2 = InfinitesimalElement(np.zeros((4, 4)), np.array([0.7, -0.4, 0.0, 0.0]),
                              vec_to_mat([0.5, -0.3, 0, 0, 0, 0]))
    e3 = compose_infinitesimal(e1, e2)

    def residual(n):
        xs = np.linspace(-1.0, 1.0, n)
        f = _field_on(
            {0: xs, 1: xs, 4: xs, 5: xs},
            lambda g: np.sin(g[0] + 0.5 * g[1]) * np.exp(0.3 * g[4])
            + np.cos(g[5] - 0.2 * g[0]),
        )

        def apply(e, values):
            return scalar_field_transform(e, SampledField(values, f.origin, f.spacing))

        comm = apply(e1, apply(e2, f.values)) - apply(e2, apply(e1, f.values))
        direct = apply(e3, f.values)
        k = 2  # compare away from one-sided edge stencils
        sl = (slice(k, -k),) * 2 + (slice(None),) * 2 + (slice(k, -k),) * 2
        return np.abs((comm - direct)[(slice(k, -k), slice(k, -k), 0, 0,
                                       slice(k, -k), slice(k, -k)) + (0,) * 4]).max()

    r1, r2 = residual(11), residual(21)
    assert r2 < r1 / 3.0
