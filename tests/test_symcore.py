"""Engine-level checks: exact arithmetic, normal ordering, bracket laws."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfra
from dfra import algebra
from dfra.symcore import (
    Expression,
    GaussRat,
    Generator,
    ParseError,
    BracketTable,
    UnknownGeneratorError,
    bracket,
    derivative,
    format_expression,
    jacobi_residual,
    normal_form,
    parse_expression,
)

ALG = algebra.build(3)
TABLE = ALG.table


def test_gaussrat_field_ops():
    a = GaussRat(Fraction(1, 2), Fraction(3, 4))
    b = GaussRat(2, -1)
    assert a + b == GaussRat(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussRat(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a + a == 0
    assert bool(GaussRat(0, 0)) is False


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, complex(1, 0), "1/3", "2", None])
def test_gaussrat_takes_only_int_and_fraction_parts(bad):
    # the exact branch never admits a float, even one with an exact binary value
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)
    with pytest.raises(TypeError):
        GaussRat.coerce(bad)


def test_gaussrat_accepts_int_and_fraction_parts():
    assert GaussRat(True, Fraction(-2, 4)) == GaussRat(1, Fraction(-1, 2))
    assert GaussRat(Fraction(6, 3)) == 2
    with pytest.raises(TypeError):
        GaussRat(GaussRat(1))


_RATIONALS = st.fractions(min_value=-100, max_value=100, max_denominator=12)


_GENERATORS = st.builds(
    Generator,
    st.sampled_from(["X", "x", "p", "theta", "pi", "Z", "K", "w"]),
    st.lists(st.integers(0, 5), max_size=2).map(tuple),
)


@given(g=_GENERATORS, h=_GENERATORS)
def test_generator_hash_and_order_follow_the_value(g, h):
    same = (g.name, g.indices) == (h.name, h.indices)
    assert (g == h) == same and (g is h) == same
    assert Generator(h.name, h.indices) is h
    assert same <= (hash(g) == hash(h))
    rank = {"X": 0, "x": 1, "p": 2, "theta": 3, "pi": 4, "Z": 5, "K": 6}
    assert g.sort_key == (rank.get(g.name, 99), g.name, g.indices)
    assert (g < h) == (g.sort_key < h.sort_key)
    assert repr(g) == f"Generator(name={g.name!r}, indices={g.indices!r})"
    copy = pickle.loads(pickle.dumps(g))
    assert copy is g and hash(copy) == hash(g)


@given(g=_GENERATORS)
def test_generators_are_interned_and_immutable(g):
    assert Generator(g.name, g.indices) is g
    assert pickle.loads(pickle.dumps(g)) is g
    for attr in ("name", "sort_key", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, attr, None)
    with pytest.raises(AttributeError):
        del g.name


_TABLE_GENERATORS = sorted(TABLE.universe, key=lambda g: g.sort_key)
_GAUSS_COEFFS = st.builds(GaussRat, _RATIONALS, _RATIONALS)
_TABLE_EXPRESSIONS = st.dictionaries(
    st.lists(st.sampled_from(_TABLE_GENERATORS), max_size=3).map(tuple),
    _GAUSS_COEFFS, max_size=4,
).map(Expression)


@given(_TABLE_EXPRESSIONS)
def test_parsed_expression_pickles(e):
    parsed = parse_expression(format_expression(e), TABLE)
    for expr in (e, parsed):
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr and copy.terms == expr.terms
        assert format_expression(copy) == format_expression(expr)
    with pytest.raises(AttributeError):
        copy.terms = {}


def test_terms_read_out_generator_words():
    x1, p1 = Generator("x", (1,)), Generator("p", (1,))
    e = Expression({(x1, p1): 2, (): Fraction(1, 2), (p1,): 0})
    assert len(e.terms) == 2
    assert dict(e.terms) == {(x1, p1): GaussRat(2), (): GaussRat(Fraction(1, 2))}
    assert e.terms[(x1, p1)] == 2 and e.terms.get((p1, x1)) is None
    assert (p1,) not in e.terms and ("x",) not in e.terms
    assert sorted(e.terms.values(), key=lambda c: c.re) == [Fraction(1, 2), 2]
    assert e.generators() == {x1, p1}
    with pytest.raises(TypeError):
        Expression({("x",): 1})


_BUILD_ORDER_SCRIPT = """
import pickle, sys
from dfra import symcore
if sys.argv[1] == "reversed":
    # build every generator the tables below use first, against sort order
    for name in ("K", "Z", "pi", "theta", "p", "x", "X"):
        for i in range(4, -1, -1):
            symcore.Generator(name, (i,))
            for j in range(4, i, -1):
                symcore.Generator(name, (i, j))
from dfra import algebra, constraints
alg, rel, ps = algebra.build(3), algebra.build(3, relativistic=True), constraints.build_phase_space(3)
word = symcore.parse_expression("pi[1,2]*p[2]*theta[1,3]*x[2]*x[1] + x[3]*p[1]*x[1]")
out = [t.table.dump() for t in (alg, rel, ps)]
out += [str(symcore.normal_form(word, t.table)) for t in (alg, ps)]
out += [str(algebra.angular_momentum(alg, 1, 2)), str(algebra.lorentz_generator(rel, 0, 1))]
sys.stdout.write(pickle.dumps((out, symcore.normal_form(word, alg.table))).hex())
"""


def test_normal_forms_do_not_depend_on_the_order_generators_are_built():
    # generator codes number generators as they are first built; the tables
    # order words by sort_key whatever the codes, and pickles carry no codes
    src = os.path.dirname(os.path.dirname(os.path.abspath(dfra.__file__)))
    runs = [pickle.loads(bytes.fromhex(subprocess.run(
        [sys.executable, "-c", _BUILD_ORDER_SCRIPT, order], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120).stdout))
        for order in ("reversed", "natural")]
    assert runs[0][0] == runs[1][0]
    word = parse_expression("pi[1,2]*p[2]*theta[1,3]*x[2]*x[1] + x[3]*p[1]*x[1]")
    here = normal_form(word, TABLE)
    assert runs[0][1] == runs[1][1] == here
    assert str(here) == runs[0][0][3]


def test_table_ranks_order_each_universe_like_sort_key():
    for table in (TABLE, algebra.build(4, relativistic=True).table):
        by_rank = sorted(table.universe, key=lambda g: table._rank[g.code])
        assert by_rank == sorted(table.universe, key=lambda g: g.sort_key)


def test_expression_checked_on_one_table_is_checked_again_on_another():
    small = algebra.build(2).table
    born = bracket(ALG.x(1), ALG.x(3), TABLE)  # i theta[1,3], built by TABLE
    parsed = parse_expression("x[1]*x[3]")
    normal_form(parsed, TABLE)  # checked against TABLE
    for e in (born, parsed, born + parsed, -parsed):
        with pytest.raises(UnknownGeneratorError):
            normal_form(e, small)
        with pytest.raises(UnknownGeneratorError):
            bracket(ALG.x(1), e, small)
    fits = normal_form(parse_expression("x[1]*p[2]"), small)
    assert normal_form(fits, TABLE) == fits


@given(re=st.one_of(st.integers(-50, 50).map(Fraction), _RATIONALS),
       im=st.one_of(st.just(Fraction(0)), _RATIONALS))
def test_equal_values_hash_equal(re, im):
    a = GaussRat(re, im)
    # a scalar expression's kept hash, and a pickled copy's fresh one
    values = [a, GaussRat(re, im), Expression.scalar(a),
              pickle.loads(pickle.dumps(Expression.scalar(a)))]
    if im == 0:
        values.append(re)
        if re.denominator == 1:
            values.append(int(re))
    for x in values:
        for y in values:
            assert x == y and hash(x) == hash(y)
    assert len(set(values)) == 1


def _uncached_hash(e: Expression) -> int:
    # the rule Expression.__hash__ keeps: a scalar hashes like its coefficient
    if e.is_scalar():
        return hash(e.scalar_part())
    return hash(frozenset(e._terms.items()))


@given(e=_TABLE_EXPRESSIONS, f=_TABLE_EXPRESSIONS)
def test_cached_hash_equals_the_uncached_rule(e, f):
    # e comes from __init__, the others from arithmetic's _expr
    for expr in (e, e + f, e * f, -e, e - e):
        want = _uncached_hash(expr)
        before = pickle.loads(pickle.dumps(expr))  # pickled before its first hash
        assert hash(expr) == want and hash(expr) == want  # computed, then kept
        after = pickle.loads(pickle.dumps(expr))
        assert hash(before) == hash(after) == want
        assert after == expr and hash(after) == hash(Expression(dict(expr.terms)))


def test_normal_form_reorders_px():
    e = parse_expression("p[1]*x[1]")
    assert normal_form(e, TABLE) == parse_expression("x[1]*p[1] - i")


def test_normal_form_already_ordered():
    e = parse_expression("x[1]*x[1]")
    assert normal_form(e, TABLE) == e


def test_normal_form_coordinate_swap_produces_theta():
    e = parse_expression("x[2]*x[1]")
    assert normal_form(e, TABLE) == parse_expression("x[1]*x[2] - i*theta[1,2]")


def test_bracket_x_pi():
    got = bracket(ALG.x(1), ALG.pi(1, 2), TABLE)
    assert got == parse_expression("-(1/2)i*p[2]")


def test_bracket_theta_theta():
    assert bracket(ALG.theta(1, 2), ALG.theta(1, 3), TABLE).is_zero()


def test_bracket_shifted_coordinates_commute():
    X1 = algebra.shifted_coordinate(ALG, 1)
    X2 = algebra.shifted_coordinate(ALG, 2)
    assert bracket(X1, X2, TABLE).is_zero()


def test_jacobi_x_x_pi():
    assert jacobi_residual(ALG.x(1), ALG.x(2), ALG.pi(1, 2), TABLE).is_zero()


def test_jacobi_momenta():
    assert jacobi_residual(ALG.p(1), ALG.p(2), ALG.p(3), TABLE).is_zero()


def test_unknown_generator_rejected():
    stray = Expression.generator(Generator("x", (9,)))
    with pytest.raises(UnknownGeneratorError):
        normal_form(stray, TABLE)


def test_table_entry_outside_the_universe_rejected():
    x1, x2, z = Generator("x", (1,)), Generator("x", (2,)), Generator("Z")
    with pytest.raises(UnknownGeneratorError):
        BracketTable(2, [x1, x2], {(x1, x2): Expression.generator(z)})


def test_derivative_adds_words_that_meet():
    # x1 x2 and x2 x1 lose their x1 to the same word x2
    x1, x2 = Generator("x", (1,)), Generator("x", (2,))
    assert derivative(Expression({(x1, x2): 1, (x2, x1): -1}), x1).is_zero()
    assert derivative(Expression({(x1, x2): 1, (x2, x1): 1}), x1) == Expression({(x2,): 2})
    assert derivative(Expression({(x1, x1, x1, x2): 5}), x1) == Expression({(x1, x1, x2): 15})
    assert derivative(Expression({(x2,): 1, (): 3}), x1).is_zero()


def test_zero_expression_is_valid_everywhere():
    z = Expression.zero()
    assert normal_form(z, TABLE).is_zero()
    assert bracket(z, ALG.x(1), TABLE).is_zero()


def test_rewrite_budget_guard(monkeypatch):
    import dfra.symcore as sc

    monkeypatch.setattr(sc, "_MAX_REWRITE_FACTOR", 0)
    with pytest.raises(sc.NormalizationError):
        normal_form(parse_expression("p[1]*x[1]"), TABLE)


# -- property tests ---------------------------------------------------------


def _random_expression(rng: random.Random, max_terms=3, max_len=2) -> Expression:
    gens = [
        Generator("x", (1,)), Generator("x", (2,)),
        Generator("p", (1,)), Generator("p", (2,)),
        Generator("theta", (1, 2)), Generator("pi", (1, 2)),
        Generator("theta", (1, 3)), Generator("pi", (2, 3)),
    ]
    e = Expression.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        coeff = GaussRat(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        e = e + Expression({word: coeff}) if coeff else e
    return e


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetry(seed):
    rng = random.Random(seed)
    a = _random_expression(rng)
    b = _random_expression(rng)
    assert (bracket(a, b, TABLE) + bracket(b, a, TABLE)).is_zero()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_bracket_leibniz(seed):
    rng = random.Random(seed)
    a = _random_expression(rng)
    b = _random_expression(rng)
    c = _random_expression(rng)
    lhs = bracket(normal_form(a * b, TABLE), c, TABLE)
    rhs = normal_form(a * bracket(b, c, TABLE) + bracket(a, c, TABLE) * b, TABLE)
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_normal_form_idempotent(seed):
    rng = random.Random(seed)
    e = _random_expression(rng)
    nf = normal_form(e, TABLE)
    assert normal_form(nf, TABLE) == nf


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_coefficients_stay_exact(seed):
    rng = random.Random(seed)
    e = normal_form(_random_expression(rng) * _random_expression(rng), TABLE)
    for coeff in e.terms.values():
        assert isinstance(coeff, GaussRat)
        assert isinstance(coeff.re, Fraction) and isinstance(coeff.im, Fraction)


# -- text syntax ------------------------------------------------------------


def test_parse_example_fixture():
    e = parse_expression("x[1]*p[1] - (1/2)i*theta[1,2]")
    expected = ALG.x(1) * ALG.p(1) - ALG.theta(1, 2) * GaussRat(0, Fraction(1, 2))
    assert e == expected


def test_parse_antisymmetric_index_normalization():
    assert parse_expression("theta[2,1]") == -parse_expression("theta[1,2]")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x[1] +* p[2]")
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse_expression("1/0 * x[1]")
    assert exc.value.position == 0


def test_parse_bracket_requires_table():
    with pytest.raises(ParseError):
        parse_expression("[x[1], x[2]]")


def test_parse_bracket_with_table():
    assert parse_expression("[x[1], x[2]]", TABLE) == parse_expression("i*theta[1,2]")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(seed):
    rng = random.Random(seed)
    e = normal_form(_random_expression(rng), TABLE)
    assert parse_expression(format_expression(e)) == e


def test_format_zero():
    assert format_expression(Expression.zero()) == "0"


def test_format_mixed_coefficient_round_trips():
    e = Expression({(): GaussRat(Fraction(1, 2), Fraction(-3, 4))})
    assert parse_expression(format_expression(e)) == e
