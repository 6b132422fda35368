"""Every fast path equals its slow definition.

The derivation-rule bracket is compared with normal-ordering ab - ba
(commutator tables) and with the Leibniz recursion (Poisson tables); the
integer-coded normal form and bracket with the same rules on Generator
words, ordered by sort_key; the exact derivative d/dx^mu with the Poisson bracket with p_mu; the per-space
memos of X, l/L/J and M with operators built on a fresh space; the memoized
Dirac bracket with its unmemoized formula; the integer-triple Gaussian
rationals with a pair of Fractions.
"""

import operator
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfra import algebra, constraints
from dfra.symcore import (
    ONE,
    Expression,
    GaussRat,
    Generator,
    bracket,
    derivative,
    format_expression,
    normal_form,
)

QUANTUM = {
    "D2": algebra.build(2),
    "D3": algebra.build(3),
    "D4": algebra.build(4),
    "relativistic": algebra.build(3, relativistic=True),
}
CLASSICAL = {
    "D2": constraints.build_phase_space(2),
    "D3": constraints.build_phase_space(3),
    "relativistic": constraints.build_phase_space(3, relativistic=True),
}

_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_COEFFS = st.builds(GaussRat, _FRACTIONS, _FRACTIONS)


def expressions(space, max_len=3, max_terms=4):
    """Sums of arbitrary (unordered) words over the space's generators."""
    gens = sorted({g for e in space.generators() for g in e.generators()},
                  key=lambda g: g.sort_key)
    words = st.lists(st.sampled_from(gens), max_size=max_len).map(tuple)
    return st.dictionaries(words, _COEFFS, min_size=1, max_size=max_terms).map(Expression)


def _space_and_pair(spaces, **kw):
    return st.sampled_from(sorted(spaces)).flatmap(
        lambda name: st.tuples(st.just(spaces[name]), expressions(spaces[name], **kw),
                               expressions(spaces[name], **kw)))


# -- brackets -------------------------------------------------------------------


@given(_space_and_pair(QUANTUM))
@settings(max_examples=120, deadline=None)
def test_commutator_bracket_is_normal_ordered_ab_minus_ba(case):
    space, a, b = case
    t = space.table
    assert bracket(a, b, t) == normal_form(a * b - b * a, t)


def _leibniz_words(u, v, table):
    """{u, v} for monomial words by the Leibniz rule, recursing on word length."""
    if not u or not v:
        return Expression.zero()
    if len(u) == 1 and len(v) == 1:
        return table.entry(u[0], v[0])
    if len(u) > 1:
        a, rest = Expression({u[:1]: ONE}), Expression({u[1:]: ONE})
        return a * _leibniz_words(u[1:], v, table) + _leibniz_words(u[:1], v, table) * rest
    c, rest = Expression({v[:1]: ONE}), Expression({v[1:]: ONE})
    return c * _leibniz_words(u, v[1:], table) + _leibniz_words(u, v[:1], table) * rest


def _leibniz_bracket(a, b, table):
    out = Expression.zero()
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out = out + _leibniz_words(wa, wb, table) * (ca * cb)
    return normal_form(out, table)


@given(_space_and_pair(CLASSICAL))
@settings(max_examples=120, deadline=None)
def test_poisson_bracket_is_the_leibniz_recursion(case):
    space, a, b = case
    assert bracket(a, b, space.table) == _leibniz_bracket(a, b, space.table)


# -- the integer-coded kernel ------------------------------------------------------
#
# The reference kernel keeps words as tuples of Generators, reads the table
# through its public `entries`, and orders letters by sort_key.


def _reference_rows(table):
    """Generator -> Generator -> terms of their bracket, for both orders."""
    rows = {}
    for (a, b), expr in table.entries.items():
        terms = list(expr.terms.items())
        rows.setdefault(a, {})[b] = terms
        rows.setdefault(b, {})[a] = [(w, -c) for w, c in terms]
    return rows


def _add(terms, word, coeff):
    acc = terms.get(word, 0) + coeff
    if acc:
        terms[word] = acc
    else:
        terms.pop(word, None)


def reference_normal_form(e, table):
    """Sort each word (poisson), or rewrite ab = ba + [a, b] at its first descent."""
    if table.mode == "poisson":
        terms = {}
        for word, coeff in e.terms.items():
            _add(terms, tuple(sorted(word, key=lambda g: g.sort_key)), coeff)
        return Expression(terms)
    rows = _reference_rows(table)
    result = {}
    pending = list(e.terms.items())
    while pending:
        word, coeff = pending.pop()
        for k in range(len(word) - 1):
            if word[k + 1].sort_key < word[k].sort_key:
                break
        else:
            _add(result, word, coeff)
            continue
        a, b = word[k], word[k + 1]
        pending.append((word[:k] + (b, a) + word[k + 2 :], coeff))
        for w, c in rows.get(a, {}).get(b, ()):
            pending.append((word[:k] + w + word[k + 2 :], coeff * c))
    return Expression(result)


def reference_bracket(a, b, table):
    """The derivation rule over every pair of letters, then the normal form."""
    rows = _reference_rows(table)
    terms = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            for i, ui in enumerate(u):
                for j, vj in enumerate(v):
                    for w, cw in rows.get(ui, {}).get(vj, ()):
                        if table.mode == "commutator":
                            word = u[:i] + v[:j] + w + v[j + 1 :] + u[i + 1 :]
                        else:
                            word = u[:i] + u[i + 1 :] + v[:j] + v[j + 1 :] + w
                        _add(terms, word, cu * cv * cw)
    return reference_normal_form(Expression(terms), table)


SPACES = {**{f"quantum-{k}": s for k, s in QUANTUM.items()},
          **{f"classical-{k}": s for k, s in CLASSICAL.items()}}


@given(_space_and_pair(SPACES))
@settings(max_examples=200, deadline=None)
def test_int_coded_kernel_equals_the_generator_word_kernel(case):
    space, a, b = case
    t = space.table
    for e in (a, a * b):
        expect = reference_normal_form(e, t)
        assert normal_form(e, t) == expect
        assert format_expression(normal_form(e, t)) == format_expression(expect)
    expect = reference_bracket(a, b, t)
    assert bracket(a, b, t) == expect
    assert dict(bracket(a, b, t).terms) == dict(expect.terms)


@given(_space_and_pair(SPACES))
@settings(max_examples=60, deadline=None)
def test_expressions_survive_a_pickle_round_trip(case):
    space, a, b = case
    for e in (a, bracket(a, b, space.table)):
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)
        assert dict(copy.terms) == dict(e.terms)


# -- derivative -------------------------------------------------------------------


def _coordinate_and_expressions(count):
    """(space, mu, e_1..e_count) on the D = 2 or 3 phase space, e_k in normal form."""
    def build(name):
        space = CLASSICAL[name]
        normal = expressions(space).map(lambda e: normal_form(e, space.table))
        return st.tuples(st.just(space), st.sampled_from(list(space.indices)),
                         *(normal for _ in range(count)))
    return st.sampled_from(["D2", "D3"]).flatmap(build)


@given(_coordinate_and_expressions(1))
@settings(max_examples=120, deadline=None)
def test_derivative_is_the_bracket_with_the_conjugate_momentum(case):
    # {e, p_mu} = de/dx^mu on the canonical phase space, where p_mu brackets
    # nothing but x^mu
    space, mu, e = case
    assert derivative(e, Generator("x", (mu,))) == bracket(e, space.p(mu), space.table)


@given(_coordinate_and_expressions(2))
@settings(max_examples=120, deadline=None)
def test_derivative_obeys_the_leibniz_rule(case):
    space, mu, a, b = case
    t, x = space.table, Generator("x", (mu,))
    lhs = derivative(normal_form(a * b, t), x)
    assert lhs == normal_form(derivative(a, x) * b + a * derivative(b, x), t)


# -- derived-operator memos -------------------------------------------------------


def _operators(space):
    """(key, builder) for X and every angular-momentum variant on the space."""
    idx = space.indices
    out = [(("X", mu), lambda s, mu=mu: algebra.shifted_coordinate(s, mu)) for mu in idx]
    for variant in ("little-l", "L", "J"):
        out += [((variant, i, j), lambda s, i=i, j=j, v=variant:
                 algebra.angular_momentum(s, i, j, v))
                for i in idx for j in idx if i != j]
    return out


def _fresh(space):
    if isinstance(space, constraints.PhaseSpace):
        return constraints.build_phase_space(space.D, space.relativistic)
    return algebra.build(space.D, space.relativistic)


@pytest.mark.parametrize("space", [*QUANTUM.values(), *CLASSICAL.values()],
                         ids=[*(f"quantum-{k}" for k in QUANTUM),
                              *(f"classical-{k}" for k in CLASSICAL)])
def test_memoized_operators_equal_ones_built_on_a_fresh_space(space):
    shared = _fresh(space)
    # fill the memo in closure order first, as the suites do
    idx = list(shared.indices)
    for i, j, k, l in [(idx[0], idx[1], idx[1], idx[-1]), (idx[-1], idx[0], idx[0], idx[1])]:
        algebra.closure_residual(shared, lambda a, b: bracket(a, b, shared.table),
                                 "J", 1, i, j, k, l)
    for key, build in _operators(shared):
        memoized = build(shared)
        assert build(shared) is memoized
        assert shared._memo[key] is memoized
        assert memoized == build(_fresh(space))
    if shared.relativistic and isinstance(shared, algebra.DfraAlgebra):
        fresh = _fresh(space)
        for i in idx:
            for j in idx:
                if i != j:
                    assert (algebra.lorentz_generator(shared, i, j)
                            == algebra.lorentz_generator(fresh, i, j))


def test_memo_is_not_part_of_the_space_value():
    space = algebra.build(2)
    before = (repr(space), hash(space))
    algebra.angular_momentum(space, 1, 2)
    assert space._memo
    assert (repr(space), hash(space)) == before
    assert "_memo" not in repr(space)


def test_memo_does_not_cache_invalid_requests():
    space = algebra.build(2)
    for args in ((1, 1, "J"), (1, 3, "J"), (1, 2, "spin")):
        with pytest.raises((ValueError, IndexError)):
            algebra.angular_momentum(space, *args)
    with pytest.raises(IndexError):
        algebra.shifted_coordinate(space, 0)
    assert space._memo == {}


# -- Dirac bracket memo ---------------------------------------------------------

PS = CLASSICAL["D3"]
DB = constraints.DiracBracket(PS, constraints.dfra_constraints(PS))


def _dirac_reference(db, A, B):
    """{A, B} - {A, Xi^a} Dinv_ab {Xi^b, B}, every bracket computed afresh."""
    t, xis = db.ps.table, db.cs.constraints
    out = bracket(A, B, t)
    for a, row in enumerate(db.delta_inv):
        for b, coeff in enumerate(row):
            out = out - bracket(A, xis[a], t) * bracket(xis[b], B, t) * coeff
    return normal_form(out, t)


@given(expressions(PS, max_len=2), expressions(PS, max_len=2))
@settings(max_examples=60, deadline=None)
def test_memoized_dirac_bracket_equals_the_unmemoized_formula(A, B):
    expect = _dirac_reference(DB, A, B)
    assert DB(A, B) == expect
    assert DB(A, B) == expect  # second call reads both columns from the memo
    assert DB(B, A) == -expect


# -- Gaussian rationals -----------------------------------------------------------

# The slow definition: a coefficient is its (re, im) pair of Fractions.


def _pair(x):
    if isinstance(x, GaussRat):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _pair_div(p, q):
    norm = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm


_PAIR_OPS = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: lambda p, q: (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]),
    operator.truediv: _pair_div,
}

# small parts give coprime denominators and cancellations; large ones big ints
_PARTS = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6),
)
_GAUSS = st.builds(GaussRat, _PARTS, _PARTS)
_OPERANDS = st.one_of(_GAUSS, _PARTS, st.integers(-10**12, 10**12))


def _assert_is(x, pair):
    """x is a reduced triple holding exactly the Fraction pair."""
    assert type(x) is GaussRat
    assert (x.re, x.im) == pair
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1


@given(st.sampled_from(sorted(_PAIR_OPS, key=lambda op: op.__name__)),
       _GAUSS, _OPERANDS, st.booleans())
@settings(max_examples=400, deadline=None)
def test_gaussrat_ops_equal_the_fraction_pair_definition(op, x, y, gauss_on_left):
    left, right = (x, y) if gauss_on_left else (y, x)
    if op is operator.truediv and _pair(right) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    out = op(left, right)
    _assert_is(out, _PAIR_OPS[op](_pair(left), _pair(right)))
    assert out == GaussRat(*_pair(out))


@given(_GAUSS)
def test_gaussrat_negation_and_exact_inverses(x):
    re, im = _pair(x)
    _assert_is(-x, (-re, -im))
    _assert_is(x - x, (0, 0))
    assert x - x == 0 and (x - x)._d == 1
    _assert_is((x + 7) - 7, (re, im))
    if x:
        _assert_is(x / x, (1, 0))
        assert (x / x)._d == 1


@given(_GAUSS, st.sampled_from([0, Fraction(0), GaussRat(0), GaussRat(0, 0)]))
def test_gaussrat_division_by_zero_raises(x, zero):
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        1 / GaussRat(0)


@given(st.integers(-30, 30), st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30))
def test_gaussrat_parts_with_coprime_denominators(p, q, r, s):
    re, im = Fraction(p, q), Fraction(r, s)
    x = GaussRat(re, im)
    _assert_is(x, (re, im))
    d = lcm(re.denominator, im.denominator)
    assert x._d == d
    # scaling by the common denominator reduces back to d == 1
    _assert_is(x * d, (re * d, im * d))
    assert (x * d)._d == 1


def test_gaussrat_results_reduce_to_integers():
    half_third = GaussRat(Fraction(1, 6), Fraction(1, 10))
    assert half_third * 30 == GaussRat(5, 3) and (half_third * 30)._d == 1
    assert (GaussRat(Fraction(1, 2), Fraction(1, 2)) + GaussRat(Fraction(1, 2), Fraction(-1, 2)))._d == 1
    assert GaussRat(Fraction(1, 2), Fraction(1, 2)) * GaussRat(1, -1) == 1
    assert GaussRat(3, 4) / GaussRat(3, -4) == GaussRat(Fraction(-7, 25), Fraction(24, 25))
    assert GaussRat(0, 2) / GaussRat(0, 2) == 1 and (GaussRat(0, 2) / GaussRat(0, 2))._d == 1


@given(_GAUSS, _OPERANDS)
@settings(max_examples=300)
def test_gaussrat_value_rules_follow_the_fraction_pair(x, y):
    re, im = _pair(x)
    assert (x == y) == (_pair(x) == _pair(y))
    assert (y == x) == (x == y)
    assert (x != y) == (_pair(x) != _pair(y))
    assert (x == GaussRat(re, im)) and hash(x) == hash(GaussRat(re, im))
    assert hash(x) == (hash(re) if im == 0 else hash((re, im)))
    if im == 0:
        assert x == re and hash(x) == hash(re)
        if re.denominator == 1:
            assert x == int(re) and hash(x) == hash(int(re))
    assert bool(x) == (re != 0 or im != 0)
    assert complex(x) == complex(float(re), float(im))
    assert repr(x) == f"GaussRat({re!r}, {im!r})"
    assert (x == 0.5) is False and (x == "x") is False


@given(_GAUSS)
def test_gaussrat_parts_are_read_only_fractions(x):
    assert type(x.re) is Fraction and type(x.im) is Fraction
    for part in ("re", "im"):
        with pytest.raises(AttributeError):
            setattr(x, part, Fraction(1))
    assert type(GaussRat(3).re) is Fraction and type(GaussRat(3).im) is Fraction
