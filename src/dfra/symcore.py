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

Units are hbar = c = 1 throughout the toolkit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union


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
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

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
        if isinstance(value, (int, Fraction)):
            return GaussRat(value)
        return None

    def __add__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = GaussRat._cast(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


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


@dataclass(frozen=True)
class Generator:
    """Atomic symbol such as x^1, p_2, theta^{1,2}.

    Antisymmetric index pairs are stored with first index < second; the
    sign lives in the coefficient of the surrounding expression.
    """

    name: str
    indices: tuple[int, ...] = ()

    @property
    def sort_key(self):
        return (_NAME_RANK.get(self.name, 99), self.name, self.indices)

    def __lt__(self, other: "Generator"):
        return self.sort_key < other.sort_key

    def __str__(self):
        if not self.indices:
            return self.name
        return f"{self.name}[{','.join(str(i) for i in self.indices)}]"


Word = tuple[Generator, ...]


def _add_term(terms: dict, key: tuple, coeff: GaussRat) -> None:
    """terms[key] += coeff, dropping the key when the sum is zero (keys are words
    here and exponent tuples in field.CommutingPoly)."""
    acc = terms.get(key, ZERO) + coeff
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


# ---------------------------------------------------------------------------
# expressions


class Expression:
    """Finite linear combination of generator words with exact coefficients.

    Instances are immutable; arithmetic returns fresh expressions.  The empty
    word is the scalar unit, and an empty term map is the zero expression.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Scalar] | None = None):
        clean: dict[Word, GaussRat] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = GaussRat.coerce(coeff)
                if coeff:
                    clean[tuple(word)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Expression is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return Expression()

    @staticmethod
    def scalar(value: Scalar) -> "Expression":
        return Expression({(): GaussRat.coerce(value)})

    @staticmethod
    def generator(gen: Generator) -> "Expression":
        return Expression({(gen,): ONE})

    @staticmethod
    def pair(name: str, mu: int, nu: int) -> "Expression":
        """name[mu, nu], stored as mu < nu with the sign in the coefficient; 0 if mu == nu."""
        if mu == nu:
            return Expression()
        if mu > nu:
            return -Expression.generator(Generator(name, (nu, mu)))
        return Expression.generator(Generator(name, (mu, nu)))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not w for w in self.terms)

    def scalar_part(self) -> GaussRat:
        return self.terms.get((), ZERO)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def generators(self) -> set[Generator]:
        return {g for word in self.terms for g in word}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_term(terms, word, coeff)
        return Expression(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_expression(other) - self

    def __neg__(self):
        return Expression({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            return Expression({w: cc * c for w, cc in self.terms.items()})
        if isinstance(other, Expression):
            terms: dict[Word, GaussRat] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    _add_term(terms, w1 + w2, c1 * c2)
            return Expression(terms)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        other = _as_expression(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a scalar expression hashes like the coefficient it equals
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Expression({format_expression(self)!r})"

    def __str__(self):
        return format_expression(self)


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

    The universe is checked where an expression enters (`check_expression`,
    `entry`); the rewrite and the bracket read `_signed_terms`, the terms of
    [a, b] for both orders of every nonzero pair, without re-checking.
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
        self.entries: dict[tuple[Generator, Generator], Expression] = {}
        for (a, b), expr in entries.items():
            if a not in self.universe or b not in self.universe:
                raise UnknownGeneratorError(f"table entry ({a}, {b}) outside universe")
            if expr.degree() > 1:
                raise ValueError(f"bracket entry [{a}, {b}] has degree > 1")
            if expr.is_zero():
                continue
            if b < a:
                a, b, expr = b, a, -expr
            if a == b:
                raise ValueError(f"nonzero bracket [{a}, {a}] is inconsistent")
            self.entries[(a, b)] = expr
        self._signed_terms: dict[tuple[Generator, Generator], tuple] = {}
        for (a, b), expr in self.entries.items():
            self._signed_terms[(a, b)] = tuple(expr.terms.items())
            self._signed_terms[(b, a)] = tuple((w, -c) for w, c in expr.terms.items())

    def entry(self, a: Generator, b: Generator) -> Expression:
        """[a, b] for generators, with antisymmetry applied on lookup."""
        for g in (a, b):
            if g not in self.universe:
                raise UnknownGeneratorError(f"generator {g} not in table universe")
        return Expression(dict(self._signed_terms.get((a, b), ())))

    def check_expression(self, e: Expression) -> None:
        for g in e.generators():
            if g not in self.universe:
                raise UnknownGeneratorError(f"generator {g} not in table universe")

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
    table.check_expression(e)
    if table.mode == "poisson":
        terms: dict[Word, GaussRat] = {}
        for word, coeff in e.terms.items():
            _add_term(terms, tuple(sorted(word, key=lambda g: g.sort_key)), coeff)
        return Expression(terms)

    signed = table._signed_terms
    result: dict[Word, GaussRat] = {}
    pending: list[tuple[Word, GaussRat]] = list(e.terms.items())
    budget = _MAX_REWRITE_FACTOR * (1 + len(e.terms)) * (1 + e.degree()) ** 2
    steps = 0
    while pending:
        steps += 1
        if steps > budget:
            raise NormalizationError("rewrite did not terminate; inconsistent table")
        word, coeff = pending.pop()
        for k in range(len(word) - 1):
            if word[k + 1] < word[k]:
                break
        else:
            _add_term(result, word, coeff)
            continue
        a, b = word[k], word[k + 1]
        pending.append((word[:k] + (b, a) + word[k + 2 :], coeff))
        for w2, c2 in signed.get((a, b), ()):
            pending.append((word[:k] + w2 + word[k + 2 :], coeff * c2))
    return Expression(result)


def bracket(a: Expression, b: Expression, table: BracketTable) -> Expression:
    """[a, b] (commutator mode) or {a, b} (poisson mode), in normal form.

    Sums the derivation-rule terms of every pair of words (see the module
    docstring) and normal-orders the sum once.
    """
    table.check_expression(a)
    table.check_expression(b)
    signed = table._signed_terms
    commutator = table.mode == "commutator"
    terms: dict[Word, GaussRat] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = None
            for i, ui in enumerate(u):
                for j, vj in enumerate(v):
                    entry = signed.get((ui, vj))
                    if entry is None:
                        continue
                    if c is None:
                        c = cu * cv
                    if commutator:
                        left, right = u[:i] + v[:j], v[j + 1 :] + u[i + 1 :]
                    else:
                        left, right = u[:i] + u[i + 1 :] + v[:j] + v[j + 1 :], ()
                    for w, cw in entry:
                        _add_term(terms, left + w + right, c * cw)
    return normal_form(Expression(terms), table)


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
    words = sorted(e.terms, key=lambda w: (-len(w), tuple(g.sort_key for g in w)))
    for word in words:
        sign, mag = _format_coeff(e.terms[word])
        body = "*".join(str(g) for g in word)
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
