"""Dense-matrix representations of the extended Poincare group.

The group element (Lambda, A, B) carries a Lorentz matrix, an x-translation
and an antisymmetric theta-translation.  Representations:

    d1  4x4    vector
    d2  6x6    antisymmetric product acting on theta 6-vectors
    d3  5x5    Poincare on (X, 1)
    d4  7x7    theta-sector affine group on (theta, 1)
    d5  11x11  the full product on (X, theta, 1)

Matrices are built from whatever the entries of the input are: exact input
(object arrays of ints and Fractions) stays exact, float input goes through
numpy doubles.  Exact matrices are computed over a common integer
denominator (`Scaled`: an integer matrix and one positive int, compared
cross-multiplied) and returned as Fraction object arrays.  Elements hold
their parts only in that form (`scaled`), so group operations never leave
integers; `lam`, `a`, `b` and `omega` read them out as arrays, and
`scaled_reps` and `scaled_generator` hand out the forms for closure proofs.
The antisymmetric basis fixes pair order
(0,1),(0,2),(0,3),(1,2),(1,3),(2,3); d2 rows/columns are the plain
antisymmetrized product Lambda^mu_a Lambda^nu_b - Lambda^mu_b Lambda^nu_a
restricted to that basis (no 1/2), which is the unique normalization whose
6-vector action matches the full-sum transform of an antisymmetric tensor.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

# canonical antisymmetric-pair basis
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SLOT = {p: s for s, p in enumerate(PAIRS)}
_MU = np.array([mu for mu, _ in PAIRS])
_NU = np.array([nu for _, nu in PAIRS])

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _rational(x, label: str) -> Fraction:
    """x read exactly as a Fraction; a float reads as its exact binary value.

    A NaN or infinite x is a ValueError naming label, as _finite's are.
    """
    try:
        return Fraction(x)
    except OverflowError:
        pass
    except ValueError:
        if x == x:  # not a NaN: some other unreadable value
            raise
    raise ValueError(f"{label} must be finite, got {x!r}") from None


def _finite(x, name: str, shape: tuple[int, ...] | None = None, dtype: type = float):
    """x read as a float (or complex) argument: the one rule for NaN and +-inf.

    An int or float comes back as a float, without an array; anything else as
    a new read-only array of dtype and shape (a number if it has no axes and
    no shape is asked for).  A NaN or infinite entry, a complex one of a float
    argument or one that is no number is a ValueError naming x."""
    if shape is None and isinstance(x, (int, float)):
        if math.isfinite(x):
            return float(x)
    else:
        a = np.array(x)
        if shape is not None and a.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        kinds = "biufcO" if dtype is complex else "biufO"
        try:
            a = a.astype(dtype, copy=False) if a.dtype.kind in kinds else None
        except TypeError:  # an object entry that is no such number
            a = None
        # count_nonzero: the cheapest whole-array reduction on small arrays
        if a is not None and np.count_nonzero(np.isfinite(a)) == a.size:
            a.setflags(write=False)
            return a if a.ndim or shape is not None else dtype(a)
    raise _refuse(name, x, "finite and real" if dtype is float else "finite")


def _refuse(name: str, x, rule: str) -> ValueError:
    """The error for an argument x that breaks its rule, naming it first."""
    return ValueError(f"{name} must be {rule}, got {name} = {x}")


class Scaled:
    """Rational array num / den over one denominator.

    Exact forms hold num as an object array of Python ints and den as a
    positive int (the layout of FLINT's fmpq_mat), so products and sums are
    integer arithmetic and equality is cross-multiplied.  A float array
    rides along as (array, 1) and goes through exactly the float operations
    it would alone, so each formula below is written once for both kinds.
    An operation on one exact and one float operand is done in floats.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int = 1):
        self.num = num
        self.den = den

    @staticmethod
    def of(m, exact: bool | None = None, label: str = "entries") -> "Scaled":
        """m as a private read-only form over one denominator: the one reader of matrices.

        exact defaults to whether m is an object array or an exact form.
        Exact entries are read with _rational, the others by _finite into a
        float copy, so a NaN or infinite entry of either kind is a
        ValueError naming label.  num is always a new array, even for a form.
        """
        if isinstance(m, Scaled) and m.exact and exact is not False:
            out = Scaled(np.array(m.num), m.den)
        else:
            m = np.asarray(m.array() if isinstance(m, Scaled) else m)
            if not (exact or (exact is None and m.dtype == object)):
                return Scaled(_finite(m, label, m.shape))
            q = [v if type(v) in (int, Fraction) else _rational(v, label) for v in m.flat]
            den = math.lcm(*(int(v.denominator) for v in q))
            num = [int(v.numerator) * (den // int(v.denominator)) for v in q]
            out = Scaled(np.array(num, dtype=object).reshape(m.shape), den)
        out.num.flags.writeable = False
        return out

    @property
    def exact(self) -> bool:
        return self.num.dtype == object

    @property
    def T(self) -> "Scaled":
        return Scaled(self.num.T, self.den)

    def array(self) -> np.ndarray:
        """The Fraction object array of an exact form; a float form's array."""
        if not self.exact:
            return self.num
        out = [Fraction(n, self.den) for n in self.num.flat]
        return np.array(out, dtype=object).reshape(self.num.shape)

    def equals(self, other: "Scaled") -> bool:
        """Exact equality, cross-multiplied: num1 den2 == num2 den1."""
        x, y = _alike(self, other)
        return x.num.shape == y.num.shape and bool(np.all(x.num * y.den == y.num * x.den))

    def __matmul__(self, other: "Scaled") -> "Scaled":
        x, y = _alike(self, other)
        return Scaled(np.asarray(x.num.dot(y.num), dtype=x.num.dtype), x.den * y.den)

    def __add__(self, other: "Scaled") -> "Scaled":
        return _combine(self, other, operator.add)

    def __sub__(self, other: "Scaled") -> "Scaled":
        return _combine(self, other, operator.sub)


def _alike(x: Scaled, y: Scaled) -> tuple[Scaled, Scaled]:
    """The operands in one kind: floats when either one is a float form."""
    if x.exact == y.exact:
        return x, y
    return tuple(Scaled(s.array().astype(float)) if s.exact else s for s in (x, y))


def _combine(x: Scaled, y: Scaled, op) -> Scaled:
    """x op y for op + or -, over the least common denominator."""
    x, y = _alike(x, y)
    if x.den == y.den:
        return Scaled(op(x.num, y.num), x.den)
    den = math.lcm(x.den, y.den)
    return Scaled(op(x.num * (den // x.den), y.num * (den // y.den)), den)


_ETA = {True: Scaled(ETA.astype(int).astype(object)), False: Scaled(ETA)}
_EYE4 = Scaled(np.identity(4, dtype=int).astype(object))


def _eta(s: Scaled) -> Scaled:
    return _ETA[s.exact]


def pair_slot(mu: int, nu: int) -> tuple[int, int]:
    """(basis slot, sign) for an ordered index pair; round-trip bijective."""
    if mu == nu:
        raise ValueError("pair indices must differ")
    if mu < nu:
        return _SLOT[(mu, nu)], 1
    return _SLOT[(nu, mu)], -1


def mat_to_vec(b: np.ndarray) -> np.ndarray:
    """Antisymmetric 4x4 to 6-vector over the canonical basis, in b's dtype.

    Raises ValueError unless b passes antisymmetric's check.
    """
    b = np.asarray(b)
    antisymmetric(b, "b")
    return b[_MU, _NU]


def vec_to_mat(v) -> np.ndarray:
    """6-vector back to an antisymmetric 4x4; an exact (object) one has Fraction(0) zeros."""
    v = np.asarray(v)
    if v.shape != (6,):
        raise ValueError(f"v must be a 6-vector, got shape {v.shape}")
    out = np.full((4, 4), Fraction(0) if v.dtype == object else 0, v.dtype)
    out[_MU, _NU] = v
    out[_NU, _MU] = -v
    return out


def antisymmetric(m, label: str, n: int = 4, exact: bool | None = None) -> np.ndarray:
    """m as an n x n array, after checking that it is antisymmetric.

    m is read by Scaled.of (exactly when exact is True, or None and m is an
    object array), so a NaN or infinite entry is a ValueError naming label.
    The result is a Fraction object array (exact) or a read-only float array.
    """
    s = Scaled.of(m, exact, label)
    _check_antisymmetric(s, label, n)
    return s.array()


def _check_antisymmetric(s: Scaled, label: str, n: int = 4) -> None:
    """s must be n x n and equal -s^T: exactly, or for floats within 1e-12 max(1, max |s|)."""
    m = s.num
    if m.shape != (n, n):
        raise ValueError(f"{label} must be {n}x{n}")
    if s.exact:
        ok = np.array_equal(m, -m.T)
    else:
        ok = np.abs(m + m.T).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(m).max(initial=0.0))
    if not ok:
        raise ValueError(f"{label} must be antisymmetric")


class _Element:
    """Three parts held only as Scaled forms in `scaled`, all exact when the
    first one is; the parts read out as Fraction object arrays (exact) or
    float arrays.  Immutable.
    """

    __slots__ = ("scaled",)

    def _store(self, first, a, b, label: str) -> Scaled:
        """Read the parts, check their shapes and b, store them; the first one back.

        Scaled.of reads each part (a and b in the first one's kind) into a
        private read-only form, so every part is finite and no caller can
        write to a checked element.  label names the first part in errors.
        """
        first = Scaled.of(first, label=label)
        a, b = Scaled.of(a, first.exact, "a"), Scaled.of(b, first.exact, "b")
        if first.num.shape != (4, 4) or a.num.shape != (4,):
            raise ValueError(f"{label} must be 4x4 and a must be a 4-vector")
        _check_antisymmetric(b, "b")
        object.__setattr__(self, "scaled", (first, a, b))
        return first

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # the default slot restore would go through the guard above
        return type(self), self.scaled

    a = property(lambda self: self.scaled[1].array(), doc="x-translation")
    b = property(lambda self: self.scaled[2].array(), doc="theta-translation")


class GroupElement(_Element):
    """(Lambda, A, B): Lorentz matrix, x-translation, theta-translation."""

    __slots__ = ()

    def __init__(self, lam, a, b):
        lam = self._store(lam, a, b, "lambda")
        eta = _eta(lam)
        kept = lam.T @ eta @ lam
        # exact: the integer identity N^T eta N == den^2 eta
        if lam.exact:
            ok = kept.equals(eta)
        else:
            ok = np.allclose((kept - eta).num, 0.0, atol=1e-12)
        if not ok:
            raise ValueError("lambda does not preserve the metric")

    lam = property(lambda self: self.scaled[0].array(), doc="Lorentz matrix")

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(np.eye(4), np.zeros(4), np.zeros((4, 4)))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group law: (L1 L2, L1 A2 + A1, D2(L1) B2 + B1)."""
    (l1, a1, b1), (l2, a2, b2) = g1.scaled, g2.scaled
    return GroupElement(l1 @ l2, l1 @ a2 + a1, l1 @ b2 @ l1.T + b1)


_MM, _NN, _MN, _NM = (np.ix_(r, c) for r, c in ((_MU, _MU), (_NU, _NU), (_MU, _NU), (_NU, _MU)))


def _minors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[r, c] = x[mu, al] y[nu, be] - x[mu, be] y[nu, al], r = (mu, nu), c = (al, be)."""
    return x[_MM] * y[_NN] - x[_MN] * y[_NM]


def _vec(b: Scaled) -> Scaled:
    """The pair components of an element's b, which _store has checked."""
    return Scaled(b.num[_MU, _NU], b.den)


def _blocks(n: int, blocks, one: bool = True) -> Scaled:
    """n x n form over the blocks' common denominator: each (rows, cols,
    Scaled) block written into the identity, or into zeros if not one."""
    den = math.lcm(*(s.den for _, _, s in blocks))
    out = np.zeros((n, n), dtype=blocks[0][2].num.dtype)
    if one:
        out[np.diag_indices(n)] = den
    for rows, cols, s in blocks:
        out[rows, cols] = s.num if s.den == den else s.num * (den // s.den)
    return Scaled(out, den)


_X, _TH, _SIX = slice(0, 4), slice(4, 10), slice(0, 6)

# Each block builder takes the parts it is made of, so that scaled_reps
# computes d2 and vec(b) once for both d4 and d5.


def _d2(lam: Scaled) -> Scaled:
    return Scaled(_minors(lam.num, lam.num), lam.den**2)


def _d3(lam: Scaled, a: Scaled) -> Scaled:
    return _blocks(5, ((_X, _X, lam), (_X, 4, a)))


def _d4(m2: Scaled, vb: Scaled) -> Scaled:
    return _blocks(7, ((_SIX, _SIX, m2), (_SIX, 6, vb)))


def _d5(lam: Scaled, a: Scaled, m2: Scaled, vb: Scaled) -> Scaled:
    return _blocks(11, ((_X, _X, lam), (_TH, _TH, m2), (_X, 10, a), (_TH, 10, vb)))


def d1(g: GroupElement) -> np.ndarray:
    return g.lam.copy()


def d2(g: GroupElement) -> np.ndarray:
    return _d2(g.scaled[0]).array()


def d3(g: GroupElement) -> np.ndarray:
    return _d3(*g.scaled[:2]).array()


def d4(g: GroupElement) -> np.ndarray:
    lam, _, b = g.scaled
    return _d4(_d2(lam), _vec(b)).array()


def d5(g: GroupElement) -> np.ndarray:
    lam, a, b = g.scaled
    return _d5(lam, a, _d2(lam), _vec(b)).array()


def scaled_reps(g: GroupElement) -> tuple[Scaled, ...]:
    """d1..d5 of g as Scaled forms, for group-law checks without Fractions."""
    lam, a, b = g.scaled
    m2, vb = _d2(lam), _vec(b)
    return (lam, m2, _d3(lam, a), _d4(m2, vb), _d5(lam, a, m2, vb))


# ---------------------------------------------------------------------------
# infinitesimal elements


class InfinitesimalElement(_Element):
    """(omega, a, b) with omega in the mixed-index convention omega^mu_nu.

    omega^{mu nu} = omega^mu_rho eta^{rho nu} must be antisymmetric.
    """

    __slots__ = ()

    def __init__(self, omega, a, b):
        omega = self._store(omega, a, b, "omega")
        _check_antisymmetric(omega @ _eta(omega), "omega^{mu nu}")

    omega = property(lambda self: self.scaled[0].array(), doc="omega^mu_nu")

    @staticmethod
    def zero() -> "InfinitesimalElement":
        return InfinitesimalElement(np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)))

    @staticmethod
    def from_antisymmetric(omega_upper, a=None, b=None) -> "InfinitesimalElement":
        """Build from antisymmetric omega^{mu nu}, lowering the second index."""
        omega_upper = Scaled.of(omega_upper, label="omega^{mu nu}")
        a = np.zeros(4) if a is None else a
        b = np.zeros((4, 4)) if b is None else b
        return InfinitesimalElement(omega_upper @ _eta(omega_upper), a, b)


def compose_infinitesimal(
    e1: InfinitesimalElement, e2: InfinitesimalElement
) -> InfinitesimalElement:
    """Parameters of [delta_2, delta_1] = delta_3.

    omega_3 = omega_1 omega_2 - omega_2 omega_1 (mixed indices),
    a_3 = omega_1 a_2 - omega_2 a_1, and b_3 is the antisymmetrized
    omega_1 b_2 - omega_2 b_1.
    """
    (w1, a1, b1), (w2, a2, b2) = e1.scaled, e2.scaled
    raw = w1 @ b2 - w2 @ b1
    return InfinitesimalElement(w1 @ w2 - w2 @ w1, w1 @ a2 - w2 @ a1, raw - raw.T)


def _d2_first_order(omega: Scaled) -> Scaled:
    one = np.eye(4, dtype=omega.num.dtype)
    return Scaled(_minors(omega.num, one) + _minors(one, omega.num), omega.den)


def scaled_generator(e: InfinitesimalElement) -> Scaled:
    """generator_matrix(e) as a Scaled form, for closure checks without Fractions."""
    omega, a, b = e.scaled
    blocks = ((_X, _X, omega), (_TH, _TH, _d2_first_order(omega)),
              (_X, 10, a), (_TH, 10, _vec(b)))
    return _blocks(11, blocks, one=False)


def generator_matrix(e: InfinitesimalElement) -> np.ndarray:
    """First-order d5 action: delta y = G y on the 11-vector (X, theta, 1)."""
    return scaled_generator(e).array()


# ---------------------------------------------------------------------------
# exact Lorentz elements

# primitive Pythagorean triples (c, s, r): the rotations with cos c/r, sin s/r
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def _check_axes(*axes: int) -> None:
    """Spatial axes must lie in {1, 2, 3} and differ from each other."""
    if any(ax not in (1, 2, 3) for ax in axes) or len(set(axes)) != len(axes):
        raise ValueError(f"spatial axes must be distinct and in 1..3, got {axes}")


def exact_rotation(i: int, j: int, cos_sin: tuple[Fraction, Fraction]) -> np.ndarray:
    """Rational rotation in the spatial (i, j) plane, i != j in {1, 2, 3}."""
    _check_axes(i, j)
    c, s = (_rational(x, "cos_sin") for x in cos_sin)
    if c * c + s * s != 1:
        raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    lam = _EYE4.array()
    lam[i, i] = c
    lam[j, j] = c
    lam[i, j] = -s
    lam[j, i] = s
    return lam


def exact_boost(axis: int, t: Fraction) -> np.ndarray:
    """Rational boost along a spatial axis in {1, 2, 3}, rapidity parameter |t| < 1."""
    _check_axes(axis)
    t = _rational(t, "t")
    if abs(t) >= 1:
        raise ValueError("|t| must be < 1")
    ch = (1 + t * t) / (1 - t * t)
    sh = 2 * t / (1 - t * t)
    lam = _EYE4.array()
    lam[0, 0] = ch
    lam[axis, axis] = ch
    lam[0, axis] = sh
    lam[axis, 0] = sh
    return lam


def _rotation_form(i: int, j: int, c: int, s: int, r: int) -> Scaled:
    """exact_rotation(i, j, (c/r, s/r)) as an integer form; c^2 + s^2 must be r^2."""
    if c * c + s * s != r * r:
        raise ValueError("c^2 + s^2 must equal r^2 exactly")
    num = _EYE4.num * r
    num[i, i] = num[j, j] = c
    num[i, j], num[j, i] = -s, s
    return Scaled(num, r)


def _boost_form(axis: int, k: int, n: int) -> Scaled:
    """exact_boost(axis, k/n) as an integer form; |k| < n, that is |t| < 1.

    cosh and sinh are (n^2 + k^2) / (n^2 - k^2) and 2 n k / (n^2 - k^2).
    """
    if not abs(k) < n:
        raise ValueError("|k| must be < n")
    num = _EYE4.num * (n * n - k * k)
    num[0, 0] = num[axis, axis] = n * n + k * k
    num[0, axis] = num[axis, 0] = 2 * n * k
    return Scaled(num, n * n - k * k)


def random_exact_element(rng) -> GroupElement:
    """Random exact group element: products of rational rotations and boosts.

    Each factor, a and b are built as integer Scaled forms (the factors
    equal exact_rotation's and exact_boost's matrices), so no Fraction is
    made; the rng draws are those of the Fraction construction.
    """
    lam = _EYE4
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            i, j = rng.sample([1, 2, 3], 2)
            factor = _rotation_form(min(i, j), max(i, j), *rng.choice(_PYTHAGOREAN))
        else:
            factor = _boost_form(rng.randint(1, 3), rng.randint(-3, 3), 7)
        lam = lam @ factor
    a = np.array([rng.randint(-6, 6) for _ in range(4)], dtype=object)
    v = np.array([rng.randint(-6, 6) for _ in PAIRS], dtype=object)
    b = np.zeros((4, 4), dtype=object)
    b[_MU, _NU], b[_NU, _MU] = v, -v
    return GroupElement(lam, Scaled(a, 3), Scaled(b, 2))


# [13/13] Pade approximant of exp: numerator coefficients b_0..b_13; the
# denominator has the odd ones negated.  theta_13 is the largest 1-norm at
# which its backward error stays under the double unit roundoff (Higham,
# SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005, degree 13).

    a is scaled by 2^-s so that its 1-norm is at most theta_13, the Pade
    approximant r = (V - U)^-1 (V + U) is evaluated from A^2, A^4 and A^6,
    and r is squared s times.  NaN or infinite input (or a 1-norm that
    overflows) is a ValueError naming a, so s is always finite.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"a must have a finite 1-norm, got {norm}")
    # no scaling at or below theta_13; comparing first keeps a subnormal norm
    # from underflowing norm / theta_13 to 0 and log2 from failing on it
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_float_lorentz(rng: np.random.Generator) -> np.ndarray:
    """Random proper Lorentz matrix: the exponential of a generator with N(0, 0.4) entries."""
    upper = rng.normal(0.0, 0.4, (4, 4))
    upper = upper - upper.T
    return expm(upper.dot(ETA))


# ---------------------------------------------------------------------------
# Casimir evaluations


def minkowski_dot(u, v) -> float:
    """u_mu v^mu; exact for exact (object) vectors."""
    u, v = Scaled.of(u, label="u"), Scaled.of(v, label="v")
    return (u @ (_eta(u) @ v)).array()[()]


def pair_dot(A, B) -> float:
    """A_{mu nu} B^{mu nu}, B's indices raised with the metric; A and B read by _finite."""
    A, B = _finite(A, "A", (4, 4)), _finite(B, "B", (4, 4))
    return float(np.einsum("mn,mn->", A, ETA @ B @ ETA))


def orbital_m1(x_ref, k) -> np.ndarray:
    """Orbital M1^{mu nu} = X^mu k^nu - X^nu k^mu at x_ref; x_ref and k read by _finite."""
    x_ref, k = _finite(x_ref, "x_ref", (4,)), _finite(k, "k", (4,))
    return np.outer(x_ref, k) - np.outer(k, x_ref)


def orbital_m2(theta_ref, K) -> np.ndarray:
    """Orbital M2^{mu nu} = -theta^{mu s} K_s^nu + theta^{nu s} K_s^mu."""
    theta_ref, K = Scaled.of(theta_ref, label="theta_ref"), Scaled.of(K, label="K")
    raw = theta_ref @ _eta(theta_ref) @ K
    return (raw.T - raw).array()


def matrix_to_text(m: np.ndarray, title: str) -> str:
    """Row-major text serialization for golden files.

    The header documents the antisymmetric basis ordering used by the d2/d4
    blocks and the d5 column layout.
    """
    lines = [
        f"# {title}",
        "# antisymmetric basis order: " + " ".join(f"({a},{b})" for a, b in PAIRS),
        "# d5 layout: rows/cols = 4 vector, 6 pairs, 1 translation",
    ]
    for row in np.asarray(m):
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@functools.cache
def _levi4() -> np.ndarray:
    """eps_{mu nu rho sigma} with eps_{0123} = +1."""
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = (-1) ** sum(p[a] > p[b] for a, b in combinations(range(4), 2))
    return eps


def pauli_lubanski(m1, k) -> np.ndarray:
    """s_mu = (1/2) eps_{mu nu rho sigma} M1^{nu rho} k^sigma (lower index); read by _finite."""
    m1, k = _finite(m1, "m1", (4, 4)), _finite(k, "k", (4,))
    return 0.5 * np.einsum("mnrs,nr,s->m", _levi4(), m1, k)


def casimirs(k, K, m1=None, m2=None, x_ref=None, theta_ref=None):
    """(C1, C2, C3, C4) evaluated on plane-wave data.

    k is a contravariant 4-vector, K an antisymmetric contravariant 4x4.
    C1 = k.k and C3 = (1/2) K_{mu nu} K^{mu nu} are intrinsic.  C2 = s.s
    needs an angular-momentum matrix m1 (defaults to the orbital one at
    x_ref, which makes the Pauli-Lubanski vector vanish); C4 = (1/2)
    M2^{mu nu} K_{mu nu} likewise uses m2 or the orbital value at theta_ref.
    The 1/2 in C3 and C4 is the independent-component normalization.  Every
    argument is read in floats, and a NaN or infinite entry is a ValueError.
    """
    k, K = _finite(k, "k", (4,)), antisymmetric(K, "K", exact=False)
    if m1 is None:
        m1 = orbital_m1(np.zeros(4) if x_ref is None else x_ref, k)
    m2 = (orbital_m2(np.zeros((4, 4)) if theta_ref is None else theta_ref, K) if m2 is None
          else _finite(m2, "m2", (4, 4)))
    s = pauli_lubanski(m1, k)
    c1, c2 = float(minkowski_dot(k, k)), float(minkowski_dot(s, s))
    return c1, c2, 0.5 * pair_dot(K, K), 0.5 * pair_dot(m2, K)


# ---------------------------------------------------------------------------
# scalar fields sampled on an (x, theta) grid


class StencilError(ValueError):
    """An axis the transform needs is too small for central differences."""


@dataclass(frozen=True)
class SampledField:
    """Scalar samples on a rectangular grid over (x^0..x^3, theta pairs).

    values has 10 axes: four x axes then six theta axes in PAIRS order.
    Size-1 axes mean the field is constant along that direction (the
    derivative is zero); size-2 axes cannot support the central stencil.
    origin and spacing are 10 floats each, read by _finite; each spacing must be > 0.
    """

    values: np.ndarray
    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if self.values.ndim != 10:
            raise ValueError("values must have 10 axes (4 x + 6 theta)")
        _finite(self.origin, "origin", (10,))
        if not (_finite(self.spacing, "spacing", (10,)) > 0).all():
            raise _refuse("spacing", self.spacing, "finite and positive")

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate along one axis, broadcastable against values."""
        n = self.values.shape[axis]
        shape = [1] * 10
        shape[axis] = n
        return (
            self.origin[axis] + self.spacing[axis] * np.arange(n)
        ).reshape(shape)

    def derivative(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        if n == 1:
            return np.zeros_like(self.values)
        if n == 2:
            raise StencilError(f"axis {axis} has 2 points; need 1 or >= 3")
        return np.gradient(self.values, self.spacing[axis], axis=axis, edge_order=2)


def scalar_field_transform(e: InfinitesimalElement, f: SampledField) -> np.ndarray:
    """delta phi = -(a + omega x)^mu d_mu phi - (1/2)(b + 2 omega theta)^{mu nu} d_{mu nu} phi.

    The two flows are the rows of the d5 generator G = generator_matrix(e)
    acting on y = (x, theta, 1), the pair sum running over the canonical
    basis, so delta phi = -sum_A (G y)_A d_A phi over the ten grid axes,
    evaluated by central differences.  An axis whose row of G is zero is
    skipped, so it needs no stencil.
    """
    g = np.asarray(generator_matrix(e), dtype=float)
    out = np.zeros_like(f.values)
    for axis, row in enumerate(g[:10]):
        if not row.any():
            continue
        flow = row[10]
        for k in np.flatnonzero(row[:10]):
            flow = flow + row[k] * f.coordinate(k)
        out = out - flow * f.derivative(axis)
    return out
