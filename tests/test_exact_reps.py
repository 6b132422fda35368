"""The integer (Scaled) path of dfra.reps against the entrywise Fraction definitions.

The reference functions below are the plain definitions: object-array dot
products and per-entry loops over Fractions (or floats).  Exact results of
the library, turned back into Fractions, must equal them entry for entry;
float results must equal them bit for bit.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfra import reps
from dfra.reps import (
    PAIRS,
    GroupElement,
    InfinitesimalElement,
    Scaled,
    compose,
    compose_infinitesimal,
    d1,
    d2,
    d3,
    d4,
    d5,
    exact_boost,
    exact_rotation,
    generator_matrix,
    random_exact_element,
    random_float_lorentz,
    scaled_generator,
    scaled_reps,
    vec_to_mat,
)

_ETA_FRACTIONS = np.array([[Fraction(int(v)) for v in row] for row in reps.ETA], dtype=object)


# -- entrywise reference definitions -------------------------------------------


def _ref_identity(n, exact):
    out = np.zeros((n, n), dtype=object if exact else float)
    out.fill(Fraction(0) if exact else 0.0)
    for i in range(n):
        out[i, i] = Fraction(1) if exact else 1.0
    return out


def _ref_vec(b):
    return np.array([b[mu, nu] for mu, nu in PAIRS], dtype=b.dtype)


def _ref_compose(g1, g2):
    return (g1.lam.dot(g2.lam), g1.lam.dot(g2.a) + g1.a,
            g1.lam.dot(g2.b).dot(g1.lam.T) + g1.b)


def _ref_d2(lam):
    out = np.empty((6, 6), dtype=lam.dtype)
    for r, (mu, nu) in enumerate(PAIRS):
        for c, (al, be) in enumerate(PAIRS):
            out[r, c] = lam[mu, al] * lam[nu, be] - lam[mu, be] * lam[nu, al]
    return out


def _ref_reps(g):
    exact = g.lam.dtype == object
    m3 = _ref_identity(5, exact)
    m3[:4, :4], m3[:4, 4] = g.lam, g.a
    m4 = _ref_identity(7, exact)
    m4[:6, :6], m4[:6, 6] = _ref_d2(g.lam), _ref_vec(g.b)
    m5 = _ref_identity(11, exact)
    m5[:4, :4], m5[4:10, 4:10] = g.lam, _ref_d2(g.lam)
    m5[:4, 10], m5[4:10, 10] = g.a, _ref_vec(g.b)
    return g.lam, _ref_d2(g.lam), m3, m4, m5


def _ref_compose_infinitesimal(e1, e2):
    raw = e1.omega.dot(e2.b) - e2.omega.dot(e1.b)
    return (e1.omega.dot(e2.omega) - e2.omega.dot(e1.omega),
            e1.omega.dot(e2.a) - e2.omega.dot(e1.a), raw - raw.T)


def _ref_d2_first_order(omega):
    exact = omega.dtype == object
    delta = _ref_identity(4, exact)
    out = _ref_identity(6, exact) * 0
    for r, (mu, nu) in enumerate(PAIRS):
        for c, (al, be) in enumerate(PAIRS):
            out[r, c] = (omega[mu, al] * delta[nu, be] + delta[mu, al] * omega[nu, be]
                         - omega[mu, be] * delta[nu, al] - delta[mu, be] * omega[nu, al])
    return out


def _ref_generator_matrix(e):
    out = _ref_identity(11, e.omega.dtype == object) * 0
    out[:4, :4], out[4:10, 4:10] = e.omega, _ref_d2_first_order(e.omega)
    out[:4, 10], out[4:10, 10] = e.a, _ref_vec(e.b)
    return out


def _ref_random_exact_element(rng):
    lam = _ref_identity(4, True)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            i, j = rng.sample([1, 2, 3], 2)
            c, s, r = rng.choice(reps._PYTHAGOREAN)
            factor = exact_rotation(min(i, j), max(i, j), (Fraction(c, r), Fraction(s, r)))
        else:
            factor = exact_boost(rng.randint(1, 3), Fraction(rng.randint(-3, 3), 7))
        lam = lam.dot(factor)
    a = np.array([Fraction(rng.randint(-6, 6), 3) for _ in range(4)], dtype=object)
    b = _ref_identity(4, True) * 0
    for mu, nu in PAIRS:
        v = Fraction(rng.randint(-6, 6), 2)
        b[mu, nu], b[nu, mu] = v, -v
    return lam, a, b


def _fraction_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.dtype == object and y.dtype == object
            and all(isinstance(u, Fraction) and u == v for u, v in zip(x.flat, y.flat)))


def _bit_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype == float and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


# -- strategies ---------------------------------------------------------------------

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=7)
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


@st.composite
def _exact_lorentz(draw):
    lam = _ref_identity(4, True)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            i, j = draw(st.permutations([1, 2, 3]))[:2]
            p, q, r = draw(st.sampled_from(_TRIPLES))
            sign = draw(st.sampled_from([1, -1]))
            factor = exact_rotation(i, j, (Fraction(p, r), Fraction(sign * q, r)))
        else:
            t = draw(st.fractions(min_value=Fraction(-8, 9), max_value=Fraction(8, 9),
                                  max_denominator=9))
            factor = exact_boost(draw(st.integers(1, 3)), t)
        lam = lam.dot(factor)
    return lam


def _antisymmetric(entries):
    return vec_to_mat(np.array(entries, dtype=object))


@st.composite
def _exact_elements(draw):
    a = np.array(draw(st.lists(_fractions, min_size=4, max_size=4)), dtype=object)
    b = _antisymmetric(draw(st.lists(_fractions, min_size=6, max_size=6)))
    return GroupElement(draw(_exact_lorentz()), a, b)


@st.composite
def _exact_infinitesimals(draw):
    def antisym():
        return _antisymmetric(draw(st.lists(_fractions, min_size=6, max_size=6)))

    a = np.array(draw(st.lists(_fractions, min_size=4, max_size=4)), dtype=object)
    return InfinitesimalElement.from_antisymmetric(antisym(), a, antisym())


def _float_element(seed):
    rng = np.random.default_rng(seed)
    b = vec_to_mat(rng.normal(0, 1, 6))
    b[0, 2], b[2, 0] = 0.0, -0.0  # signed zeros must come through unchanged
    return GroupElement(random_float_lorentz(rng), rng.normal(0, 1, 4), b)


def _float_infinitesimal(seed):
    rng = np.random.default_rng(seed)
    w = vec_to_mat(rng.normal(0, 1, 6))
    w[1, 3], w[3, 1] = -0.0, 0.0
    return InfinitesimalElement.from_antisymmetric(w, rng.normal(0, 1, 4),
                                                   vec_to_mat(rng.normal(0, 1, 6)))


# -- exact results equal the Fraction definitions ----------------------------------------


@given(g1=_exact_elements(), g2=_exact_elements())
@settings(max_examples=25, deadline=None)
def test_exact_compose_and_reps_equal_fraction_definitions(g1, g2):
    g12 = compose(g1, g2)
    for got, want in zip((g12.lam, g12.a, g12.b), _ref_compose(g1, g2)):
        assert _fraction_equal(got, want)
    for g in (g1, g2, g12):
        want = _ref_reps(g)
        for rep, form, ref in zip((d1, d2, d3, d4, d5), scaled_reps(g), want):
            assert _fraction_equal(rep(g), ref), rep.__name__
            assert _fraction_equal(form.array(), ref), rep.__name__


@given(e1=_exact_infinitesimals(), e2=_exact_infinitesimals())
@settings(max_examples=25, deadline=None)
def test_exact_infinitesimal_results_equal_fraction_definitions(e1, e2):
    e3 = compose_infinitesimal(e1, e2)
    for got, want in zip((e3.omega, e3.a, e3.b), _ref_compose_infinitesimal(e1, e2)):
        assert _fraction_equal(got, want)
    for e in (e1, e2, e3):
        assert _fraction_equal(generator_matrix(e)[4:10, 4:10], _ref_d2_first_order(e.omega))
        assert _fraction_equal(generator_matrix(e), _ref_generator_matrix(e))
        assert _fraction_equal(scaled_generator(e).array(), _ref_generator_matrix(e))


@given(omega_upper=st.lists(_fractions, min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_lowering_an_index_equals_the_fraction_product(omega_upper):
    w = _antisymmetric(omega_upper)
    e = InfinitesimalElement.from_antisymmetric(w)
    assert _fraction_equal(e.omega, w.dot(_ETA_FRACTIONS))


@pytest.mark.parametrize("seed", range(30))
def test_random_exact_element_makes_the_same_draws(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(4):
        g = random_exact_element(rng)
        for got, want in zip((g.lam, g.a, g.b), _ref_random_exact_element(ref_rng)):
            assert _fraction_equal(got, want)
    assert rng.getstate() == ref_rng.getstate()


@given(axes=st.permutations([1, 2, 3]), triple=st.sampled_from(_TRIPLES),
       swap=st.booleans(), sign=st.sampled_from([1, -1]))
@settings(max_examples=40, deadline=None)
def test_integer_rotation_equals_exact_rotation(axes, triple, swap, sign):
    i, j = axes[:2]
    p, q, r = triple
    c, s = (q, p) if swap else (p, q)
    form = reps._rotation_form(i, j, c, sign * s, r)
    assert form.exact and all(type(v) is int for v in form.num.flat)
    assert form.equals(Scaled.of(exact_rotation(i, j, (Fraction(c, r), Fraction(sign * s, r)))))
    with pytest.raises(ValueError):
        reps._rotation_form(i, j, c + 1, s, r)


@given(axis=st.integers(1, 3), n=st.integers(1, 30), k=st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_integer_boost_equals_exact_boost(axis, n, k):
    if abs(k) >= n:  # |t| >= 1 is rejected by both
        with pytest.raises(ValueError):
            reps._boost_form(axis, k, n)
        with pytest.raises(ValueError):
            exact_boost(axis, Fraction(k, n))
        return
    form = reps._boost_form(axis, k, n)
    assert form.exact and all(type(v) is int for v in form.num.flat)
    assert form.equals(Scaled.of(exact_boost(axis, Fraction(k, n))))


@given(seed=st.integers(0, 2**32), exact=st.booleans())
@settings(max_examples=30, deadline=None)
def test_scaled_reps_equal_each_representation_built_alone(seed, exact):
    rng = random.Random(seed)
    if exact:
        g1, g2 = random_exact_element(rng), random_exact_element(rng)
    else:
        g1, g2 = _float_element(seed), _float_element(seed + 1)
    for g in (g1, g2, compose(g1, g2)):
        lam, a, b = g.scaled
        alone = (lam, reps._d2(lam), reps._d3(lam, a),
                 reps._d4(reps._d2(lam), reps._vec(b)),
                 reps._d5(lam, a, reps._d2(lam), reps._vec(b)))
        for rep, form, one in zip((d1, d2, d3, d4, d5), scaled_reps(g), alone):
            assert form.equals(one) and form.equals(Scaled.of(rep(g))), rep.__name__
            if not exact:  # the float forms are the same doubles
                assert _bit_equal(form.array(), one.array()), rep.__name__


# -- the float path is bit for bit the float definition -------------------------------------


@given(s1=st.integers(0, 2**16), s2=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_float_results_equal_float_definitions_bit_for_bit(s1, s2):
    g1, g2 = _float_element(s1), _float_element(s2)
    g12 = compose(g1, g2)
    for got, want in zip((g12.lam, g12.a, g12.b), _ref_compose(g1, g2)):
        assert _bit_equal(got, want)
    for rep, ref in zip((d1, d2, d3, d4, d5), _ref_reps(g12)):
        assert _bit_equal(rep(g12), ref), rep.__name__
    e1, e2 = _float_infinitesimal(s1), _float_infinitesimal(s2)
    e3 = compose_infinitesimal(e1, e2)
    for got, want in zip((e3.omega, e3.a, e3.b), _ref_compose_infinitesimal(e1, e2)):
        assert _bit_equal(got, want)
    assert _bit_equal(generator_matrix(e3), _ref_generator_matrix(e3))


# -- cross-multiplied verdicts -------------------------------------------------------------


@given(g1=_exact_elements(), g2=_exact_elements(), rep=st.integers(0, 4),
       row=st.integers(0, 10), col=st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_cross_multiplied_verdict_is_fraction_equality(g1, g2, rep, row, col):
    g12 = compose(g1, g2)
    m1, m2, m12 = (scaled_reps(g)[rep] for g in (g1, g2, g12))
    r1, r2, r12 = (_ref_reps(g)[rep] for g in (g1, g2, g12))
    product = r1.dot(r2)
    assert (m1 @ m2).equals(m12)
    assert _fraction_equal(product, r12)
    # one entry off by 1/10^15 is a mismatch on both sides
    bump = np.zeros(product.shape, dtype=object)
    bump[row % product.shape[0], col % product.shape[1]] = Fraction(1, 10**15)
    assert not (m1 @ m2 + Scaled.of(bump)).equals(m12)
    assert not _fraction_equal(product + bump, r12)


@given(x=st.lists(_fractions, min_size=6, max_size=6),
       y=st.lists(_fractions, min_size=6, max_size=6), k=st.integers(1, 50))
@settings(max_examples=25, deadline=None)
def test_equals_ignores_the_choice_of_denominator(x, y, k):
    sx = Scaled.of(np.array(x, dtype=object))
    sy = Scaled.of(np.array(y, dtype=object))
    wide = Scaled(sx.num * k, sx.den * k)  # the same numbers, not in lowest terms
    assert wide.equals(sx) and sx.equals(wide)
    assert sx.equals(sy) == (x == y)
    assert _fraction_equal(wide.array(), np.array(x, dtype=object))


@given(g=_exact_elements(), row=st.integers(0, 3), col=st.integers(0, 3),
       sign=st.sampled_from([1, -1]))
@settings(max_examples=40, deadline=None)
def test_group_element_rejects_a_metric_miss_of_one_part_in_10_12(g, row, col, sign):
    lam = g.lam.copy()
    lam[row, col] += sign * Fraction(1, 10**12)
    with pytest.raises(ValueError, match="metric"):
        GroupElement(lam, g.a, g.b)
    GroupElement(g.lam, g.a, g.b)  # the unperturbed matrix passes
