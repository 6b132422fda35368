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
    def of(m, exact: bool | None = None) -> "Scaled":
        """m over the least common denominator of its entries.

        exact defaults to whether m is an object array.  Exact entries are
        read with Fraction() (ints, Fractions and floats alike), the others
        as floats.  A Scaled form of the asked kind passes through.
        """
        if isinstance(m, Scaled):
            if exact in (None, m.exact):
                return m
            m = m.array()
        m = np.asarray(m)
        if exact is None:
            exact = m.dtype == object
        if not exact:
            return Scaled(np.asarray(m, dtype=float))
        q = [v if isinstance(v, Fraction) else Fraction(v) for v in m.flat]
        den = math.lcm(*(int(v.denominator) for v in q))
        num = [int(v.numerator) * (den // int(v.denominator)) for v in q]
        return Scaled(np.array(num, dtype=object).reshape(m.shape), den)

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
    """Antisymmetric 4x4 to 6-vector over the canonical basis."""
    return np.asarray(b)[_MU, _NU]


def vec_to_mat(v) -> np.ndarray:
    """6-vector back to an antisymmetric 4x4; an exact (object) one has Fraction(0) zeros."""
    v = np.asarray(v)
    out = np.full((4, 4), Fraction(0) if v.dtype == object else 0, v.dtype)
    out[_MU, _NU] = v
    out[_NU, _MU] = -v
    return out


def antisymmetric(m, label: str, n: int = 4, exact: bool = False) -> np.ndarray:
    """m as an n x n array, after checking that it is antisymmetric.

    exact=True reads the entries as Fractions.  Exact (object) arrays must
    be antisymmetric entry for entry; any other input is read as floats and
    checked with np.allclose at atol 1e-12.
    """
    if exact:
        m = np.array([[Fraction(v) for v in row] for row in m], dtype=object)
    elif not (isinstance(m, np.ndarray) and m.dtype == object):
        m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{label} must be {n}x{n}")
    if m.dtype == object:
        ok = all(m[i, j] == -m[j, i] for i in range(n) for j in range(n))
    else:
        ok = np.allclose(m, -m.T, atol=1e-12)
    if not ok:
        raise ValueError(f"{label} must be antisymmetric")
    return m


def _check_lorentz(lam: Scaled) -> None:
    if lam.num.shape != (4, 4):
        raise ValueError("lambda must be 4x4")
    eta = _eta(lam)
    kept = lam.T @ eta @ lam
    # exact: the integer identity N^T eta N == den^2 eta
    if lam.exact:
        ok = kept.equals(eta)
    else:
        ok = np.allclose((kept - eta).num, 0.0, atol=1e-12)
    if not ok:
        raise ValueError("lambda does not preserve the metric")


def _read_only(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


class _Element:
    """Three parts held only as Scaled forms in `scaled`, all exact when the
    first one is; the parts read out as Fraction object arrays (exact) or
    float arrays.  Immutable.
    """

    __slots__ = ("scaled",)

    def _store(self, first, a, b) -> Scaled:
        """Read and check a and b, store all three parts; the first one back.

        Float parts are kept as private read-only copies: a float array
        passes through Scaled.of, so writing to the caller's array (or to a
        read-out, which is the stored array) would change a checked element.
        """
        first = Scaled.of(first)
        a, b = Scaled.of(a, first.exact), Scaled.of(b, first.exact)
        if not first.exact:
            first, a, b = (Scaled(_read_only(s.num)) for s in (first, a, b))
        if a.num.shape != (4,):
            raise ValueError("a must be a 4-vector")
        antisymmetric(b.num, "b")
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
        _check_lorentz(self._store(lam, a, b))

    lam = property(lambda self: self.scaled[0].array(), doc="Lorentz matrix")

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(np.eye(4), np.zeros(4), np.zeros((4, 4)))

    @staticmethod
    def pure_lorentz(lam) -> "GroupElement":
        return GroupElement(lam, np.zeros(4), np.zeros((4, 4)))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group law: (L1 L2, L1 A2 + A1, D2(L1) B2 + B1)."""
    (l1, a1, b1), (l2, a2, b2) = g1.scaled, g2.scaled
    return GroupElement(l1 @ l2, l1 @ a2 + a1, l1 @ b2 @ l1.T + b1)


_MM, _NN, _MN, _NM = (np.ix_(r, c) for r, c in ((_MU, _MU), (_NU, _NU), (_MU, _NU), (_NU, _MU)))


def _minors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[r, c] = x[mu, al] y[nu, be] - x[mu, be] y[nu, al], r = (mu, nu), c = (al, be)."""
    return x[_MM] * y[_NN] - x[_MN] * y[_NM]


def _vec(b: Scaled) -> Scaled:
    return Scaled(mat_to_vec(b.num), b.den)


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


_X, _TH = slice(0, 4), slice(4, 10)


def _d2(g: GroupElement) -> Scaled:
    lam = g.scaled[0]
    return Scaled(_minors(lam.num, lam.num), lam.den**2)


def _d3(g: GroupElement) -> Scaled:
    lam, a, _ = g.scaled
    return _blocks(5, ((_X, _X, lam), (_X, 4, a)))


def _d4(g: GroupElement) -> Scaled:
    return _blocks(7, ((slice(0, 6), slice(0, 6), _d2(g)), (slice(0, 6), 6, _vec(g.scaled[2]))))


def _d5(g: GroupElement) -> Scaled:
    lam, a, b = g.scaled
    return _blocks(11, ((_X, _X, lam), (_TH, _TH, _d2(g)), (_X, 10, a), (_TH, 10, _vec(b))))


def d1(g: GroupElement) -> np.ndarray:
    return g.lam.copy()


def d2(g: GroupElement) -> np.ndarray:
    return _d2(g).array()


def d3(g: GroupElement) -> np.ndarray:
    return _d3(g).array()


def d4(g: GroupElement) -> np.ndarray:
    return _d4(g).array()


def d5(g: GroupElement) -> np.ndarray:
    return _d5(g).array()


def scaled_reps(g: GroupElement) -> tuple[Scaled, ...]:
    """d1..d5 of g as Scaled forms, for group-law checks without Fractions."""
    return (g.scaled[0], _d2(g), _d3(g), _d4(g), _d5(g))


# ---------------------------------------------------------------------------
# infinitesimal elements


class InfinitesimalElement(_Element):
    """(omega, a, b) with omega in the mixed-index convention omega^mu_nu.

    omega^{mu nu} = omega^mu_rho eta^{rho nu} must be antisymmetric.
    """

    __slots__ = ()

    def __init__(self, omega, a, b):
        omega = self._store(omega, a, b)
        if omega.num.shape != (4, 4):
            raise ValueError("omega must be 4x4")
        antisymmetric((omega @ _eta(omega)).num, "omega^{mu nu}")

    omega = property(lambda self: self.scaled[0].array(), doc="omega^mu_nu")

    @staticmethod
    def zero() -> "InfinitesimalElement":
        return InfinitesimalElement(np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)))

    @staticmethod
    def from_antisymmetric(omega_upper, a=None, b=None) -> "InfinitesimalElement":
        """Build from antisymmetric omega^{mu nu}, lowering the second index."""
        omega_upper = Scaled.of(omega_upper)
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


def d2_first_order(omega: np.ndarray) -> np.ndarray:
    """Derivative of d2 at the identity in direction omega (mixed indices)."""
    return _d2_first_order(Scaled.of(omega)).array()


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

_PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)),
                (Fraction(5, 13), Fraction(12, 13)),
                (Fraction(8, 17), Fraction(15, 17)),
                (Fraction(7, 25), Fraction(24, 25)))


def _check_axes(*axes: int) -> None:
    """Spatial axes must lie in {1, 2, 3} and differ from each other."""
    if any(ax not in (1, 2, 3) for ax in axes) or len(set(axes)) != len(axes):
        raise ValueError(f"spatial axes must be distinct and in 1..3, got {axes}")


def _rational(x, label: str) -> Fraction:
    """x read exactly as a Fraction; a float reads as its exact binary value."""
    try:
        return Fraction(x)
    except OverflowError:
        raise ValueError(f"{label} must be finite, got {x!r}") from None


def exact_rotation(i: int, j: int, cos_sin: tuple[Fraction, Fraction]) -> np.ndarray:
    """Rational rotation in the spatial (i, j) plane, i != j in {1, 2, 3}."""
    _check_axes(i, j)
    c, s = (_rational(x, "cos and sin") for x in cos_sin)
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


def random_exact_element(rng) -> GroupElement:
    """Random exact group element: products of rational rotations and boosts."""
    lam = _EYE4
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            i, j = rng.sample([1, 2, 3], 2)
            cs = rng.choice(_PYTHAGOREAN)
            factor = exact_rotation(min(i, j), max(i, j), cs)
        else:
            factor = exact_boost(rng.randint(1, 3), Fraction(rng.randint(-3, 3), 7))
        lam = lam @ Scaled.of(factor)
    a = np.array([Fraction(rng.randint(-6, 6), 3) for _ in range(4)], dtype=object)
    b = np.array([Fraction(rng.randint(-6, 6), 2) for _ in PAIRS], dtype=object)
    return GroupElement(lam, a, vec_to_mat(b))


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
    overflows) is a ValueError, so s is always finite.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("expm needs finite entries")
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


def random_float_lorentz(rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Random proper Lorentz matrix via the exponential of a generator."""
    upper = rng.normal(0.0, scale, (4, 4))
    upper = upper - upper.T
    return expm(upper.dot(ETA))


# ---------------------------------------------------------------------------
# Casimir evaluations


def minkowski_dot(u, v) -> float:
    """u_mu v^mu; exact for exact (object) vectors."""
    u, v = Scaled.of(u), Scaled.of(v)
    return (u @ (_eta(u) @ v)).array()[()]


def pair_dot(A, B) -> float:
    """A_{mu nu} B^{mu nu}, B's indices raised with the metric (floats)."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return float(np.einsum("mn,mn->", A, ETA @ B @ ETA))


def orbital_m1(x_ref, k) -> np.ndarray:
    """Orbital M1^{mu nu} = X^mu k^nu - X^nu k^mu at a reference point."""
    x_ref = np.asarray(x_ref)
    k = np.asarray(k)
    return np.outer(x_ref, k) - np.outer(k, x_ref)


def orbital_m2(theta_ref, K) -> np.ndarray:
    """Orbital M2^{mu nu} = -theta^{mu s} K_s^nu + theta^{nu s} K_s^mu."""
    theta_ref, K = Scaled.of(theta_ref), Scaled.of(K)
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
    """s_mu = (1/2) eps_{mu nu rho sigma} M1^{nu rho} k^sigma (lower index)."""
    m1 = np.asarray(m1, dtype=float)
    k = np.asarray(k, dtype=float)
    return 0.5 * np.einsum("mnrs,nr,s->m", _levi4(), m1, k)


def casimirs(k, K, m1=None, m2=None, x_ref=None, theta_ref=None):
    """(C1, C2, C3, C4) evaluated on plane-wave data.

    k is a contravariant 4-vector, K an antisymmetric contravariant 4x4.
    C1 = k.k and C3 = (1/2) K_{mu nu} K^{mu nu} are intrinsic.  C2 = s.s
    needs an angular-momentum matrix m1 (defaults to the orbital one at
    x_ref, which makes the Pauli-Lubanski vector vanish); C4 = (1/2)
    M2^{mu nu} K_{mu nu} likewise uses m2 or the orbital value at theta_ref.
    The 1/2 in C3 and C4 is the independent-component normalization.
    """
    k = np.asarray(k, dtype=float)
    K = antisymmetric(np.asarray(K, dtype=float), "K")
    if m1 is None:
        m1 = orbital_m1(np.zeros(4) if x_ref is None else x_ref, k)
    if m2 is None:
        m2 = orbital_m2(np.zeros((4, 4)) if theta_ref is None else theta_ref, K)
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
    """

    values: np.ndarray
    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if self.values.ndim != 10:
            raise ValueError("values must have 10 axes (4 x + 6 theta)")
        if len(self.origin) != 10 or len(self.spacing) != 10:
            raise ValueError("origin and spacing must have 10 entries")

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
