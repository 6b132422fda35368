"""Exact noncommutative polynomial algebra over named generators.

Coefficients are Gaussian rationals (a + b*i with a, b exact fractions), so
every identity checked downstream is exact: no floating point enters this
module.  Words of generators are normal-ordered against a bracket table,
using ab = ba + [a, b] in commutator mode; in poisson (classical) mode words
are commutative monomials and are simply sorted.

Brackets of words follow the derivation rule instead of normal-ordering
ab - ba:

    [u, v] = sum_ij u_<i v_<j [u_i, v_j] v_>j u_>i      (commutator)
    {u, v} = sum_ij (u without u_i)(v without v_j) {u_i, v_j}   (poisson)

Both sides are the same element of the algebra, since a bracket is a
derivation in each argument, and the normal form of an element is unique
(Bergman's diamond lemma, Adv. Math. 29, 1978).  So normal-ordering the
sum of these terms gives exactly the expression normal_form(ab - ba)
gives, and it rewrites far fewer words.

Words are tuples of small ints, one code per interned Generator, so dict
and set operations on them hash and compare in C (rewriting engines key
monomials the same way; Mora, Theor. Comput. Sci. 134, 1994).  A bracket
table indexes its bracket rows by code and keeps a rank list beside the
codes that orders its universe like `Generator.sort_key`; codes number
generators in the order they are first built, ranks do not.  The public
`bracket` and `normal_form` check their arguments against the table's
universe once per call, as a subset test of the code set each expression
caches; the rewrite itself reads the rows unchecked.  Codes map back to
Generators only in `format_expression`, `Expression.generators`,
`Expression.terms` and pickling.

Units are hbar = c = 1 throughout the toolkit.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import attrgetter
from typing import Union


class SymError(Exception):
    """Base class for errors raised by the symbolic layer."""


class UnknownGeneratorError(SymError):
    """An expression mentions a generator outside the table's universe."""


class NormalizationError(SymError):
    """Internal consistency failure: the rewrite loop did not terminate."""


class ParseError(SymError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# coefficients


class GaussRat:
    """Exact complex number (a + b*i)/d with integers a, b and d > 0.

    The triple is reduced, gcd(a, b, d) == 1, so equal values have equal
    triples (FLINT's fmpq layout, with the two parts over one denominator).
    Over integer operands +, -, * stay plain int arithmetic; any other result
    is reduced by one gcd.  `re` and `im` read the parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot use {type(part).__name__} as an exact coefficient")
        re, im = Fraction(re), Fraction(im)
        q1, q2 = re.denominator, im.denominator
        d = q1 * q2 // gcd(q1, q2)
        # each part is in lowest terms, so gcd(a, b, d) == 1 already
        self._a = re.numerator * (d // q1)
        self._b = im.numerator * (d // q2)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(value: "Scalar") -> "GaussRat":
        out = GaussRat._cast(value)
        if out is None:
            raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")
        return out

    @staticmethod
    def _cast(value):
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, int):
            return _triple(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _triple(value.numerator, 0, value.denominator)
        return None

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat._cast(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat._cast(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat._cast(other)
            if other is None:
                return NotImplemented
        # _reduced and _triple written out: products are the hot path of bracket
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        out = object.__new__(GaussRat)
        out._a = a
        out._b = b
        out._d = d
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat._cast(other)
            if other is None:
                return NotImplemented
        # multiply by the conjugate of other over its norm
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm)

    def __rtruediv__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat._cast(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def _triple(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d from a triple already in lowest terms with d > 0."""
    out = object.__new__(GaussRat)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _triple(a, b, d)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)

Scalar = Union[int, Fraction, GaussRat]


# ---------------------------------------------------------------------------
# generators

# Global generator order; reordering x*pi spawns a p word, which sorts
# earlier, so each rewrite strictly shrinks (length, inversions) and the
# normal-ordering loop terminates.
_NAME_RANK = {"X": 0, "x": 1, "p": 2, "theta": 3, "pi": 4, "Z": 5, "K": 6}


class Generator:
    """Atomic symbol such as x^1, p_2, theta^{1,2}.

    Antisymmetric index pairs are stored with first index < second; the
    sign lives in the coefficient of the surrounding expression.

    Generators are interned: equal (name, indices) give the same object, so
    equality and hashing are by identity.  Each carries a `code`, a small
    int numbering generators in the order they are first built; expressions
    store words as tuples of codes.  Codes do not order like `sort_key`:
    each bracket table keeps a rank list beside them that does.
    """

    __slots__ = ("name", "indices", "sort_key", "code")

    def __new__(cls, name: str, indices: tuple[int, ...] = ()):
        key = (name, indices)
        g = _INTERNED.get(key)
        if g is None:
            g = object.__new__(cls)
            object.__setattr__(g, "name", name)
            object.__setattr__(g, "indices", indices)
            object.__setattr__(g, "sort_key", (_NAME_RANK.get(name, 99), name, indices))
            object.__setattr__(g, "code", len(_BY_CODE))
            _BY_CODE.append(g)
            _INTERNED[key] = g
        return g

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Generator is immutable")

    __delattr__ = __setattr__

    # __eq__ and __hash__ stay object identity

    def __reduce__(self):
        # codes differ between processes: rebuild (and intern) from the value
        return Generator, (self.name, self.indices)

    def __lt__(self, other: "Generator"):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Generator(name={self.name!r}, indices={self.indices!r})"

    def __str__(self):
        if not self.indices:
            return self.name
        return f"{self.name}[{','.join(str(i) for i in self.indices)}]"


# (name, indices) -> the one Generator with that value
_INTERNED: dict[tuple[str, tuple[int, ...]], Generator] = {}
# code -> Generator
_BY_CODE: list[Generator] = []

_SORT_KEY = attrgetter("sort_key")
_NONE: frozenset[int] = frozenset()

Word = tuple[Generator, ...]
Codes = tuple[int, ...]  # a word as generator codes


def _encode(word: Iterable[Generator]) -> Codes:
    codes = []
    for g in word:
        if type(g) is not Generator:
            raise TypeError(f"a word holds generators, not {type(g).__name__}")
        codes.append(g.code)
    return tuple(codes)


def _decode(codes: Codes) -> Word:
    return tuple(map(_BY_CODE.__getitem__, codes))


def _add_term(terms: dict, word: Codes, coeff: GaussRat) -> None:
    """terms[word] += coeff, dropping the word when the sum is zero."""
    old = terms.get(word)
    if old is None:
        terms[word] = coeff
        return
    acc = old + coeff
    if acc:
        terms[word] = acc
    else:
        del terms[word]


# ---------------------------------------------------------------------------
# expressions


class Expression:
    """Finite linear combination of generator words with exact coefficients.

    Instances are immutable (`terms` is a read-only view, and no method
    changes the private term dict); arithmetic returns fresh expressions.
    The empty word is the scalar unit, and an empty term map is the zero
    expression.

    Words are held as tuples of generator codes, coefficients as nonzero
    GaussRats; `terms` reads them out with Generator words.  The set of
    codes an expression mentions is built on first use and kept, so a
    table's universe check is one frozenset subset test.  So is the hash:
    an expression never changes, so the kept hash equals a fresh one, and
    a memo keyed by expressions (DiracBracket's columns) pays for the
    frozenset of terms once per expression, not once per lookup.
    """

    __slots__ = ("_terms", "_codes", "_hash")

    def __init__(self, terms: Mapping[Word, Scalar] | None = None):
        clean: dict[Codes, GaussRat] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = GaussRat.coerce(coeff)
                if coeff:
                    clean[_encode(word)] = coeff
        self._terms = clean
        self._codes = None
        self._hash = None

    def __reduce__(self):
        # codes are process-local: pickle the Generator words
        return Expression, (dict(self.terms),)

    @property
    def terms(self) -> Mapping[Word, GaussRat]:
        """The terms as a read-only mapping from Generator words."""
        return _Terms(self._terms)

    def _code_set(self) -> frozenset[int]:
        codes = self._codes
        if codes is None:
            codes = self._codes = frozenset(chain.from_iterable(self._terms))
        return codes

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return _expr({})

    @staticmethod
    def scalar(value: Scalar) -> "Expression":
        c = GaussRat.coerce(value)
        return _expr({(): c} if c else {})

    @staticmethod
    def generator(gen: Generator) -> "Expression":
        return _expr({_encode((gen,)): ONE})

    @staticmethod
    def pair(name: str, mu: int, nu: int) -> "Expression":
        """name[mu, nu], stored as mu < nu with the sign in the coefficient; 0 if mu == nu."""
        if mu == nu:
            return _expr({})
        if mu > nu:
            return -Expression.generator(Generator(name, (nu, mu)))
        return Expression.generator(Generator(name, (mu, nu)))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(not w for w in self._terms)

    def scalar_part(self) -> GaussRat:
        return self._terms.get((), ZERO)

    def degree(self) -> int:
        return max(map(len, self._terms), default=0)

    def generators(self) -> set[Generator]:
        return {_BY_CODE[c] for c in self._code_set()}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            _add_term(terms, word, coeff)
        return _expr(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_expression(other) - self

    def __neg__(self):
        return _expr({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            # a product of nonzero Gaussian rationals is nonzero
            return _expr({w: cc * c for w, cc in self._terms.items()} if c else {})
        if isinstance(other, Expression):
            terms: dict[Codes, GaussRat] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    _add_term(terms, w1 + w2, c1 * c2)
            return _expr(terms)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            # a scalar expression hashes like the coefficient it equals
            if self.is_scalar():
                h = hash(self.scalar_part())
            else:
                h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def __repr__(self):
        return f"Expression({format_expression(self)!r})"

    def __str__(self):
        return format_expression(self)


def _expr(terms: dict[Codes, GaussRat], codes: frozenset[int] | None = None) -> Expression:
    """An Expression owning `terms` (code words, nonzero GaussRat values).

    No expression changes its term dict once built, so expressions may share
    one, and with it the code set `codes`.
    """
    e = object.__new__(Expression)
    e._terms = terms
    e._codes = codes
    e._hash = None
    return e


# the zero expression bracket hands to normal_form when no letters meet
_ZERO = _expr({}, _NONE)


class _Terms(Mapping):
    """Read-only view of code-word terms, keyed by Generator words."""

    __slots__ = ("_coded",)

    def __init__(self, coded: dict[Codes, GaussRat]):
        self._coded = coded

    def __len__(self):
        return len(self._coded)

    def __iter__(self):
        return map(_decode, self._coded)

    def __getitem__(self, word):
        try:
            return self._coded[_encode(word)]
        except TypeError:
            raise KeyError(word) from None

    def __repr__(self):
        return repr(dict(self))


def _as_expression(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction, GaussRat)):
        return Expression.scalar(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# bracket tables


class BracketTable:
    """Structure data [a, b] (or {a, b}) for ordered generator pairs.

    Entries are stored for pairs with a < b in the global generator order;
    the antisymmetric partner is produced on lookup.  Every entry must be a
    scalar-or-linear expression, which is what guarantees termination of the
    normal-ordering rewrite.

    The universe is checked where an expression enters: `check_expression`
    (called by the public `bracket` and `normal_form`), `entry`, and each
    entry's right-hand side here.  The rewrite and the bracket then read two
    lists indexed by generator code, without re-checking: `_rank[c]` orders
    the universe like `sort_key`, and `_rows[a][b]` holds the terms of
    [a, b] for both orders of every nonzero pair (`_rows[a]` is None for a
    generator that brackets nothing).
    """

    def __init__(
        self,
        dimension: int,
        universe: Iterable[Generator],
        entries: Mapping[tuple[Generator, Generator], Expression],
        mode: str = "commutator",
    ):
        if mode not in ("commutator", "poisson"):
            raise ValueError(f"unknown bracket mode {mode!r}")
        self.dimension = dimension
        self.mode = mode
        self.universe = frozenset(universe)
        self._codes = frozenset(_encode(self.universe))
        self.entries: dict[tuple[Generator, Generator], Expression] = {}
        for (a, b), expr in entries.items():
            if a not in self.universe or b not in self.universe:
                raise UnknownGeneratorError(f"table entry ({a}, {b}) outside universe")
            self.check_expression(expr)
            if expr.degree() > 1:
                raise ValueError(f"bracket entry [{a}, {b}] has degree > 1")
            if expr.is_zero():
                continue
            if b < a:
                a, b, expr = b, a, -expr
            if a == b:
                raise ValueError(f"nonzero bracket [{a}, {a}] is inconsistent")
            self.entries[(a, b)] = expr
        size = max(self._codes, default=-1) + 1
        self._rank: list = [None] * size
        for r, g in enumerate(sorted(self.universe, key=_SORT_KEY)):
            self._rank[g.code] = r
        self._rows: list = [None] * size
        for (a, b), expr in self.entries.items():
            for g, h, e in ((a, b, expr), (b, a, -expr)):
                if self._rows[g.code] is None:
                    self._rows[g.code] = [None] * size
                self._rows[g.code][h.code] = tuple(e._terms.items())
        self._partners = [_NONE if row is None else frozenset(c for c, t in enumerate(row) if t)
                          for row in self._rows]

    def entry(self, a: Generator, b: Generator) -> Expression:
        """[a, b] for generators, with antisymmetry applied on lookup."""
        for g in (a, b):
            if g not in self.universe:
                raise UnknownGeneratorError(f"generator {g} not in table universe")
        row = self._rows[a.code]
        return _expr(dict(row[b.code] or ()) if row else {})

    def check_expression(self, e: Expression) -> None:
        codes = e._code_set()
        if not codes <= self._codes:
            bad = min((_BY_CODE[c] for c in codes - self._codes), key=_SORT_KEY)
            raise UnknownGeneratorError(f"generator {bad} not in table universe")

    def dump(self) -> str:
        """Text table `[<gen>, <gen>] = <expression>` of all nonzero entries."""
        left = "[{}, {}]" if self.mode == "commutator" else "{{{}, {}}}"
        lines = []
        for (a, b) in sorted(self.entries, key=lambda p: (p[0].sort_key, p[1].sort_key)):
            lines.append(f"{left.format(a, b)} = {format_expression(self.entries[(a, b)])}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# normal ordering

# Safety valve for the rewrite loop; generous since each step strictly
# decreases (word length, inversion count) lexicographically.
_MAX_REWRITE_FACTOR = 10_000


def normal_form(e: Expression, table: BracketTable) -> Expression:
    """Unique canonical representative of e modulo the table's relations."""
    terms = e._terms
    if not terms:
        return _expr(terms, _NONE)  # zero mentions no generator, so fits every table
    codes = e._codes or e._code_set()
    if not codes <= table._codes:
        table.check_expression(e)
    by_rank = table._rank.__getitem__
    # the words out of order; the rest are normal already
    unsorted = []
    for word in terms:
        if len(word) > 1:
            ranks = list(map(by_rank, word))
            if ranks != sorted(ranks):
                unsorted.append(word)
    if not unsorted:
        return _expr(terms, codes)
    result = dict(terms)
    pending = [(word, result.pop(word)) for word in unsorted]
    if table.mode == "poisson":
        for word, coeff in pending:
            _add_term(result, tuple(sorted(word, key=by_rank)), coeff)
        return _expr(result)

    rank, rows = table._rank, table._rows
    budget = _MAX_REWRITE_FACTOR * (1 + len(terms)) * (1 + e.degree()) ** 2
    steps = 0
    while pending:
        steps += 1
        if steps > budget:
            raise NormalizationError("rewrite did not terminate; inconsistent table")
        word, coeff = pending.pop()
        # the first k with word[k] ranked below word[k - 1]
        previous = -1
        for k, g in enumerate(word):
            r = rank[g]
            if r < previous:
                break
            previous = r
        else:
            _add_term(result, word, coeff)
            continue
        a, b = word[k - 1], word[k]
        head, tail = word[: k - 1], word[k + 1 :]
        pending.append((head + (b, a) + tail, coeff))
        row = rows[a]
        if row is not None:
            for w2, c2 in row[b] or ():
                pending.append((head + w2 + tail, coeff * c2))
    return _expr(result)


def bracket(a: Expression, b: Expression, table: BracketTable) -> Expression:
    """[a, b] (commutator mode) or {a, b} (poisson mode), in normal form.

    Sums the derivation-rule terms of every pair of words (see the module
    docstring) and normal-orders the sum once.
    """
    universe = table._codes
    if not ((a._codes or a._code_set()) <= universe and (b._codes or b._code_set()) <= universe):
        table.check_expression(a)
        table.check_expression(b)
    rows, partners = table._rows, table._partners
    commutator = table.mode == "commutator"
    terms: dict[Codes, GaussRat] = {}
    b_terms = b._terms.items()
    for u, cu in a._terms.items():
        # the generators some letter of u brackets with
        reach = partners[u[0]] if len(u) == 1 else _NONE.union(*map(partners.__getitem__, u))
        if not reach:
            continue
        for v, cv in b_terms:
            if reach.isdisjoint(v):
                continue
            c = cu * cv
            for i, ui in enumerate(u):
                row = rows[ui]
                if row is None:
                    continue
                for j, vj in enumerate(v):
                    entry = row[vj]
                    if entry is None:
                        continue
                    if commutator:
                        left, right = u[:i] + v[:j], v[j + 1 :] + u[i + 1 :]
                    else:
                        left, right = u[:i] + u[i + 1 :] + v[:j] + v[j + 1 :], ()
                    for w, cw in entry:
                        _add_term(terms, left + w + right, c * cw)
    return normal_form(_expr(terms) if terms else _ZERO, table)


def derivative(e: Expression, g: Generator) -> Expression:
    """d e / d g, reading e's words as commutative monomials.

    A word holding g k times gives k times the word with one g removed, so a
    poisson normal form (sorted words) maps to a poisson normal form.
    """
    code = g.code
    terms: dict[Codes, GaussRat] = {}
    for word, coeff in e._terms.items():
        k = word.count(code)
        if k:
            i = word.index(code)
            _add_term(terms, word[:i] + word[i + 1 :], coeff * k)
    return _expr(terms)


def jacobi_residual(
    a: Expression, b: Expression, c: Expression, table: BracketTable
) -> Expression:
    """[[a,b],c] + [[b,c],a] + [[c,a],b]; the zero expression certifies it.

    Each bracket is in normal form, and so is their sum.
    """
    return (
        bracket(bracket(a, b, table), c, table)
        + bracket(bracket(b, c, table), a, table)
        + bracket(bracket(c, a, table), b, table)
    )


# ---------------------------------------------------------------------------
# text syntax
#
# Round-trips normal forms bit-exactly, e.g.  x[1]*p[1] - (1/2)i*theta[1,2]


def _format_rational(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"({q})"


def _format_coeff(c: GaussRat) -> tuple[str, str]:
    """(sign, magnitude text) for a coefficient; '' magnitude means 1."""
    if c.im == 0:
        sign = "-" if c.re < 0 else "+"
        q = abs(c.re)
        return sign, ("" if q == 1 else _format_rational(q))
    if c.re == 0:
        sign = "-" if c.im < 0 else "+"
        q = abs(c.im)
        return sign, ("i" if q == 1 else _format_rational(q) + "i")
    im_sign = "-" if c.im < 0 else "+"
    im_q = abs(c.im)
    im_txt = "i" if im_q == 1 else _format_rational(im_q) + "i"
    return "+", f"({c.re} {im_sign} {im_txt})"


def format_expression(e: Expression) -> str:
    if e.is_zero():
        return "0"
    parts = []
    words = sorted(map(_decode, e._terms), key=lambda w: (-len(w), [g.sort_key for g in w]))
    for word in words:
        sign, mag = _format_coeff(e._terms[_encode(word)])
        body = "*".join(map(str, word))
        if body and mag:
            text = f"{mag}*{body}"
        elif body:
            text = body
        else:
            text = mag if mag else "1"
        parts.append((sign, text))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


# The tokens of the _Parser syntax; finditer skips only whitespace, since any
# other character that starts no token matches `bad`.
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>[-+*()\[\],])|(?P<bad>\S)"
)


# Nesting levels of '-', '( )' and '[ , ]' one expression may hold.  Each
# level costs the recursive-descent parser up to four Python frames, so 100
# levels stay well inside the default recursion limit of 1000; deeper input
# is a ParseError, not a RecursionError.
_MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for the test-fixture expression syntax.

    Tokens are ASCII: numbers `[0-9]+(/[0-9]+)?`, names
    `[A-Za-z_][A-Za-z0-9_]*` and the symbols `+ - * ( ) [ ] ,`; any other
    non-space character is a ParseError at its position.

    Grammar (juxtaposition multiplies, so `(1/2)i*p[2]` works):
        expr   := term (('+'|'-') term)*
        term   := factor (('*')? factor)*
        factor := ('-')* (number | 'i' | name '[' idx ']' | '(' expr ')'
                   | '[' expr ',' expr ']')
    Commutator/Poisson brackets `[a, b]` are evaluated against the table
    supplied to parse_expression, and require one.
    """

    _FACTOR_STARTS = {"number", "name", "(", "["}

    def __init__(self, text: str, table: BracketTable | None):
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[0]!r}", m.start())
            self.tokens.append((m[0] if kind == "symbol" else kind, m[0], m.start()))
        self.tokens.append(("end", "", len(text)))
        self.cursor = 0
        self.depth = 0
        self.table = table

    def peek(self):
        return self.tokens[self.cursor]

    def next(self):
        tok = self.tokens[self.cursor]
        if tok[0] != "end":
            self.cursor += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.next()
                e = e * self.factor()
            elif tok[0] in self._FACTOR_STARTS:
                e = e * self.factor()
            else:
                return e

    def factor(self) -> Expression:
        # factors nest only inside factors ('-', '( )', '[ , ]'), so this
        # count is the nesting depth plus one
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels",
                             self.peek()[2])
        self.depth += 1
        e = self._factor()
        self.depth -= 1
        return e

    def _factor(self) -> Expression:
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return -self.factor()
        if tok[0] == "number":
            self.next()
            try:
                return Expression.scalar(Fraction(tok[1]))
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok[2]) from None
        if tok[0] == "name":
            self.next()
            if tok[1] == "i":
                return Expression.scalar(I)
            if self.peek()[0] != "[":
                raise ParseError(f"generator {tok[1]!r} needs [indices]", tok[2])
            self.next()
            indices = [self._index()]
            while self.peek()[0] == ",":
                self.next()
                indices.append(self._index())
            self.expect("]")
            return self._generator(tok[1], tuple(indices), tok[2])
        if tok[0] == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok[0] == "[":
            self.next()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            if self.table is None:
                raise ParseError("bracket [a, b] needs a bracket table", tok[2])
            return bracket(
                normal_form(a, self.table), normal_form(b, self.table), self.table
            )
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def _index(self) -> int:
        tok = self.expect("number")
        if "/" in tok[1]:
            raise ParseError(f"index must be an integer, found {tok[1]!r}", tok[2])
        return int(tok[1])

    def _generator(self, name: str, indices: tuple[int, ...], pos: int) -> Expression:
        if name in ("theta", "pi"):
            if len(indices) != 2 or indices[0] == indices[1]:
                raise ParseError(f"{name} needs two distinct indices", pos)
            return Expression.pair(name, *indices)
        if len(indices) != 1:
            raise ParseError(f"{name} takes one index", pos)
        return Expression.generator(Generator(name, indices))


def parse_expression(text: str, table: BracketTable | None = None) -> Expression:
    """Parse the textual syntax; brackets [a, b] evaluate against `table`."""
    return _Parser(text, table).parse()
