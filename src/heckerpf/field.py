"""Exact arithmetic over the trace field of the Hecke group G_p.

The ring Z[2cos(pi/p)] is represented by dense integer coefficient vectors
modulo the minimal polynomial of 2cos(pi/p) (computed from a cyclotomic
polynomial through the palindromic substitution y = x + 1/x). On top of the
ring sit field elements (ring numerator over a positive integer denominator,
kept in lowest terms), quadratic-extension elements (U + V*sqrt(D))/den in
standard representation, and certified signs through interval refinement.

Everything user-visible is exact. Floating point appears in exactly one
place - as a hint for bracketing the real roots of the minimal polynomial -
and every bracket is validated by exact sign evaluation before use.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from math import cos, gcd, isqrt, pi

__all__ = [
    "DomainError",
    "ZeroDivisor",
    "PrecisionError",
    "MinPoly",
    "minimal_polynomial",
    "RingElem",
    "FieldElem",
    "ExtElem",
    "fold_square",
    "RealInterval",
    "lambda_elem",
    "lambda_interval",
    "conjugate_intervals",
    "sign",
    "ring_sqrt",
    "ring_div_exact",
    "decimal_of",
    "poly_str",
    "poly_latex",
]

class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class ZeroDivisor(ArithmeticError):
    """Inversion of a formally nonzero element u + v*sqrt(D) with u^2 = v^2 D.

    This can only happen when D is a perfect square in Q(lambda) that has not
    been folded down. `witness` is the square root of D (normalized to be
    nonnegative) under which the offending element collapses to zero; callers
    can substitute sqrt(D) := witness everywhere and retry.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "zero divisor in quadratic extension; fold down with sqrt(D) = %r" % (witness,)
        )


class PrecisionError(AssertionError):
    """Exact validation of the float root hints failed in `_init_roots` (an
    internal bug), its only source: `_refine` has no precision cap."""


# ---------------------------------------------------------------------------
# minimal polynomial of 2cos(pi/p)
# ---------------------------------------------------------------------------


def _poly_div_exact(num, den):
    # exact division of integer polynomials (den monic, constant-first)
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        q[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    assert all(x == 0 for x in num), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def _cyclotomic(n):
    # x^n - 1 = product of the d-th cyclotomic polynomials over d | n
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, _cyclotomic(d))
    return tuple(num)


class MinPoly:
    """Monic minimal polynomial of 2cos(pi/p): integer coefficients, constant first."""

    __slots__ = ("p", "coeffs", "degree")

    def __init__(self, p, coeffs):
        self.p = p
        self.coeffs = tuple(coeffs)
        self.degree = len(self.coeffs) - 1

    def __repr__(self):
        return f"MinPoly(p={self.p}, {poly_str(self.coeffs)})"

    def __eq__(self, other):
        if isinstance(other, MinPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))


@lru_cache(maxsize=None)
def minimal_polynomial(p: int) -> MinPoly:
    """Minimal polynomial of 2cos(pi/p) over Q; degree phi(2p)/2."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 3:
        raise DomainError("p must be an integer >= 3")
    phi = _cyclotomic(2 * p)
    m = (len(phi) - 1) // 2
    # phi_{2p} is palindromic of even degree 2m; phi(x)/x^m rewrites as a
    # monic polynomial psi(y) in y = x + 1/x via the basis b_j = x^j + x^-j
    # with b_0 = 2, b_1 = y, b_{j+1} = y*b_j - b_{j-1}. 2cos(pi/p) is the
    # largest real root of psi.
    psi = [0] * (m + 1)
    psi[0] = phi[m]
    b_prev = [2] + [0] * m
    b_cur = [0, 1] + [0] * (m - 1)
    for j in range(1, m + 1):
        cj = phi[m + j]
        if cj:
            for i in range(m + 1):
                psi[i] += cj * b_cur[i]
        if j < m:
            b_next = [0] * (m + 1)
            for i in range(m):
                if b_cur[i]:
                    b_next[i + 1] += b_cur[i]
            for i in range(m + 1):
                b_next[i] -= b_prev[i]
            b_prev, b_cur = b_cur, b_next
    return MinPoly(p, psi)


@lru_cache(maxsize=None)
def _reduction_rows(p):
    # row e = fully reduced coefficient vector of x^(degree+e)
    mp = minimal_polynomial(p)
    d = mp.degree
    if d == 1:
        return ()
    base = tuple(-c for c in mp.coeffs[:d])
    rows = [base]
    for _ in range(d - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        if top:
            for i in range(d):
                shifted[i] += top * base[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_vec(p, vec):
    f = minimal_polynomial(p).coeffs
    d = len(f) - 1
    out = list(vec) + [0] * d
    for e in range(len(out) - 1, d - 1, -1):
        if out[e]:  # x^e = x^(e-d) (x^d - f(x)) modulo f
            for i in range(d):
                out[e - d + i] -= out[e] * f[i]
    return tuple(out[:d])


# ---------------------------------------------------------------------------
# coefficient-vector kernel
# ---------------------------------------------------------------------------
#
# Dense integer vectors of the ring degree d, constant first. The reduction
# table `red` is _reduction_rows(p): d-1 rows, row e the fully reduced vector
# of x^(d+e).


def _addv(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _subv(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _negv(a):
    return tuple(-x for x in a)


def _content(a):
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _mulmod(a, b, red):
    d = len(a)
    if d == 1:
        # degree-1 ring: plain integer multiplication, nothing to reduce
        return (a[0] * b[0],)
    prod = [0] * (2 * d - 1)
    for i in range(d):
        x = a[i]
        if x:
            for j in range(d):
                y = b[j]
                if y:
                    prod[i + j] += x * y
    # fold the high block down through the reduction rows
    for e in range(2 * d - 2, d - 1, -1):
        c = prod[e]
        if c:
            row = red[e - d]
            for i in range(d):
                r = row[i]
                if r:
                    prod[i] += c * r
    return tuple(prod[:d])


# ---------------------------------------------------------------------------
# ring and field elements
# ---------------------------------------------------------------------------


def _power(one, base, n):
    """base**n by square-and-multiply from `one`; 1 / base**(-n) for n < 0."""
    if not isinstance(n, int):
        raise DomainError("the exponent must be an integer")
    if n < 0:
        return 1 / _power(one, base, -n)
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class RingElem:
    """Element of Z[2cos(pi/p)] as an integer vector modulo the minimal polynomial."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        coeffs = _reduce_vec(p, coeffs)
        if not all(isinstance(c, int) for c in coeffs):
            raise DomainError("ring coefficients must be integers")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, p, n):
        el = cls.__new__(cls)
        el.p = p
        el.coeffs = (int(n),) + (0,) * (minimal_polynomial(p).degree - 1)
        return el

    @classmethod
    def _raw(cls, p, coeffs):
        el = cls.__new__(cls)
        el.p = p
        el.coeffs = coeffs
        return el

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.p != self.p:
                raise DomainError("mixed p in ring arithmetic")
            return other
        if isinstance(other, int):
            return RingElem.from_int(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem._raw(self.p, _addv(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem._raw(self.p, _subv(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem._raw(self.p, _subv(o.coeffs, self.coeffs))

    def __neg__(self):
        return RingElem._raw(self.p, _negv(self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem._raw(
            self.p, _mulmod(self.coeffs, o.coeffs, _reduction_rows(self.p))
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("ring exponent must be a nonnegative integer")
        return _power(RingElem.from_int(self.p, 1), self, n)

    def __truediv__(self, other):
        return FieldElem(self) / other

    def __rtruediv__(self, other):
        return other * _ring_inverse(self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def content(self):
        """gcd of the coefficients (0 for the zero element)."""
        return _content(self.coeffs)

    def interval(self, bits):
        """Enclosure at scale 2^-(bits + guard), on lambda's rounded bracket."""
        return _horner_ball(self.coeffs, lambda_interval(self.p, bits).at(bits + _BALL_GUARD))

    def __repr__(self):
        return f"RingElem(p={self.p}, {poly_str(self.coeffs, 'λ')})"


def lambda_elem(p) -> RingElem:
    """The ring element 2cos(pi/p) itself."""
    return RingElem(p, (0, 1))


def _bareiss(a: RingElem):
    """Bareiss fraction-free elimination (Math. Comp. 22, 1968) of [M_a | e_0]
    for a nonzero element a of a ring of degree d >= 2. Column j of the d x d
    integer matrix M_a holds the coefficients of a * lambda^j. Returns the
    rows, upper triangular in the first d columns; only integers appear.

    * det M_a is the norm N(a), which is nonzero for a != 0 because Q(lambda)
      is a field. Eliminating column k leaves the rows below k equal, up to
      the previous pivot, to a Schur complement of a nonsingular matrix, so
      some row k.. always holds a nonzero entry in column k; a zero pivot is
      swapped with the first such row.
    * Sylvester's identity makes every entry after step k a k+1 by k+1 minor
      of the (row-permuted) matrix, so each division by the previous pivot is
      exact. The last pivot is det of the row-permuted matrix: +-N(a), the
      sign flipped once per row swap.
    """
    coeffs = a.coeffs
    d = len(coeffs)
    # columns a * lambda^j: multiplying by lambda shifts up and folds the top
    # coefficient back through the reduced vector of lambda^d
    base = _reduction_rows(a.p)[0]
    cols = [coeffs]
    for _ in range(d - 1):
        col = cols[-1]
        top = col[d - 1]
        cols.append(tuple(s + top * b for s, b in zip((0,) + col[: d - 1], base)))
    m = [list(row) + [0] for row in zip(*cols)]
    m[0][d] = 1
    prev = 1
    for k in range(d - 1):
        if not m[k][k]:
            r = next(r for r in range(k + 1, d) if m[r][k])
            m[k], m[r] = m[r], m[k]
        rk = m[k]
        pk = rk[k]
        for i in range(k + 1, d):
            ri = m[i]
            f = ri[k]
            for j in range(k + 1, d + 1):
                ri[j] = (pk * ri[j] - f * rk[j]) // prev
        prev = pk
    return m


def _ring_inverse(a: RingElem) -> "FieldElem":
    """Inverse of a nonzero ring element, as a field element.

    The coefficient vector x of 1/a solves M_a x = e_0; `_bareiss` brings
    [M_a | e_0] to triangular form with last pivot D = +-N(a), and integer
    back-substitution finishes the solve:

    * By Cramer's rule y = D x is an integer vector, so each back-substitution
      division is exact, and 1/a = y / D.
    * FieldElem divides out gcd(content(y), D) and makes the denominator
      positive, so the result is the canonical representation of 1/a.
    """
    if a.is_zero():
        raise ZeroDivisionError("division by zero in Q(lambda)")
    coeffs = a.coeffs
    d = len(coeffs)
    if d == 1:
        return FieldElem(RingElem.from_int(a.p, 1), coeffs[0])
    m = _bareiss(a)
    det = m[d - 1][d - 1]
    y = [0] * d
    for i in range(d - 1, -1, -1):
        ri = m[i]
        acc = det * ri[d]
        for j in range(i + 1, d):
            acc -= ri[j] * y[j]
        y[i] = acc // ri[i]
    return FieldElem(RingElem._raw(a.p, tuple(y)), det)


class FieldElem:
    """Element of Q(2cos(pi/p)): ring numerator over a positive integer
    denominator, with gcd(content(num), den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            raise DomainError("FieldElem needs a RingElem numerator (use from_int)")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num.content(), den)
        if g > 1:
            num = RingElem._raw(num.p, tuple(c // g for c in num.coeffs))
            den //= g
        self.num = num
        self.den = den

    @property
    def p(self):
        return self.num.p

    @classmethod
    def from_int(cls, p, n):
        return cls(RingElem.from_int(p, n))

    @staticmethod
    def lift(p, x):
        """x as an element of Q(lambda_p): the one lift of a FieldElem,
        RingElem, int or Fraction into the field. None for any other type."""
        if isinstance(x, (FieldElem, RingElem)):
            if x.p != p:
                raise DomainError("mixed p in field arithmetic")
            return x if isinstance(x, FieldElem) else FieldElem(x)
        if isinstance(x, int):
            return FieldElem.from_int(p, x)
        if isinstance(x, Fraction):
            return FieldElem(RingElem.from_int(p, x.numerator), x.denominator)
        return None

    def __add__(self, other):
        o = FieldElem.lift(self.p, other)
        return NotImplemented if o is None else FieldElem(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return FieldElem(-self.num, self.den)

    def __mul__(self, other):
        o = FieldElem.lift(self.p, other)
        return NotImplemented if o is None else FieldElem(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FieldElem.lift(self.p, other)
        return NotImplemented if o is None else self * _ring_inverse(o.num) * o.den

    def __rtruediv__(self, other):
        return _ring_inverse(self.num) * self.den * other

    def __pow__(self, n):
        return _power(FieldElem.from_int(self.p, 1), self, n)

    def __eq__(self, other):
        o = FieldElem.lift(self.p, other)
        return NotImplemented if o is None else self.den == o.den and self.num == o.num

    def __hash__(self):
        r = self.as_fraction()  # a rational value hashes as its Fraction
        return hash((self.num, self.den)) if r is None else hash(r)

    def is_zero(self):
        return self.num.is_zero()

    def as_fraction(self):
        """The exact rational value, or None when the element is irrational
        (any nonzero coefficient beyond the constant one)."""
        if any(self.num.coeffs[1:]):
            return None
        return Fraction(self.num.coeffs[0], self.den)

    def interval(self, bits):
        iv = self.num.interval(bits)
        return RealInterval(iv.L // self.den, -(-iv.H // self.den), iv.s)

    def __repr__(self):
        if self.den == 1:
            return f"FieldElem(p={self.p}, {poly_str(self.num.coeffs, 'λ')})"
        return f"FieldElem(p={self.p}, ({poly_str(self.num.coeffs, 'λ')})/{self.den})"


class ExtElem:
    """Element (U + V sqrt(D)) / den of Q(lambda)(sqrt(D)) in standard
    representation (Cohen, GTM 138, 4.2): U, V integer vectors in the basis
    1, lambda, ..., lambda^(d-1), den > 0, gcd(content U, content V, den) = 1;
    `u` and `v` read the two parts back as field elements.

    Why `key()` = (U, V, den) is unique per value: over a non-square D a value
    fixes its 2d rational coordinates x, and (U, V) = den * x. The n > 0 with
    n * x integral are the multiples of the least, n0, so den = m * n0 with m
    dividing the gcd above: gcd 1 forces den = n0, then U and V. A value with
    V = 0 lies in Q(lambda), whatever its D tag. Over a square D the pair is
    formal: inverting a formally nonzero element raises ZeroDivisor with a
    fold-down witness, and `fold_square` collapses it into Q(lambda) first.
    """

    __slots__ = ("D", "U", "V", "den")

    def __init__(self, u, v, D):
        if not isinstance(D, RingElem):
            raise DomainError("D must be a RingElem")
        fu, fv = FieldElem.lift(D.p, u), FieldElem.lift(D.p, v)
        if fu is None or fv is None:
            raise DomainError(f"cannot lift {type(u if fu is None else v).__name__} into the extension")
        _ext(D, _scaled(fu.num.coeffs, fv.den), _scaled(fv.num.coeffs, fu.den), fu.den * fv.den, self)

    @property
    def p(self):
        return self.D.p

    @property
    def u(self) -> FieldElem:
        return FieldElem(RingElem._raw(self.D.p, self.U), self.den)

    @property
    def v(self) -> FieldElem:
        return FieldElem(RingElem._raw(self.D.p, self.V), self.den)

    def key(self):
        return self.U, self.V, self.den

    def _operand(self, other):
        """(D, U, V, den) of other and the tag of a result, or None; only V = 0 retags."""
        D = self.D
        if not isinstance(other, ExtElem):
            x = FieldElem.lift(D.p, other)
            return x and (D, x.num.coeffs, _zeros(len(self.U)), x.den)
        if other.D.p != D.p:
            raise DomainError("mixed p in extension arithmetic")
        if other.D is not D and any(other.V) and other.D != D:
            if any(self.V):
                raise DomainError("mixed discriminants in extension arithmetic")
            D = other.D
        return D, other.U, other.V, other.den

    def __add__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else _ext_sum(self, *o)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _ext(self.D, _negv(self.U), _negv(self.V), self.den)

    def __mul__(self, other):
        if type(other) is int:
            return _ext(self.D, _scaled(self.U, other), _scaled(self.V, other), self.den)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        D, U, V, den = o
        red, a, b = _reduction_rows(D.p), self.U, self.V
        uu, vv = _mulz(a, U, red), _mulz(a, V, red)
        if any(b):  # the radical part of self: b U sqrt(D) + b V D
            vv = _addv(vv, _mulmod(b, U, red)) if any(vv) else _mulmod(b, U, red)
            if any(V):
                uu = _addv(uu, _mulmod(_mulmod(b, V, red), D.coeffs, red))
        return _ext(D, uu, vv, self.den * den)

    __rmul__ = __mul__

    def conj(self):
        """The formal conjugate u - v*sqrt(D)."""
        return _ext(self.D, self.U, _negv(self.V), self.den)

    def _norm_num(self):  # U^2 - V^2 D: the norm times den^2
        red = _reduction_rows(self.D.p)
        return _subv(_mulz(self.U, self.U, red), _mulz(_mulz(self.V, self.V, red), self.D.coeffs, red))

    def norm(self) -> FieldElem:
        return FieldElem(RingElem._raw(self.D.p, self._norm_num()), self.den * self.den)

    def inverse(self):
        """den (U - V sqrt(D)) / (U^2 - V^2 D): one ring inversion (of U if V = 0)."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in the quadratic extension")
        U, V, red = self.U, self.V, _reduction_rows(self.D.p)
        n = self._norm_num() if any(V) else U
        if not any(n):  # u^2 = v^2 D, (u, v) != 0: D is a square, sqrt(D) = -u/v
            w = -self.u / self.v
            raise ZeroDivisor(-w if sign(w) < 0 else w)
        ninv = _ring_inverse(RingElem._raw(self.D.p, n))
        y = _scaled(ninv.num.coeffs, self.den)
        return _ext(self.D, y if n is U else _mulmod(U, y, red), _negv(_mulz(V, y, red)), ninv.den)

    def __truediv__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self * _ext(*o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        return _power(ExtElem(1, 0, self.D), self, n)

    def __eq__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else o[1:] == self.key()

    def __hash__(self):
        # a value in Q(lambda) hashes as its FieldElem, and so as a number
        return hash((self.key(), self.D)) if any(self.V) else hash(self.u)

    def is_zero(self):
        return not (any(self.U) or any(self.V))

    def __repr__(self):
        return f"ExtElem(p={self.p}, u={self.u!r}, v={self.v!r}, D={poly_str(self.D.coeffs, 'λ')})"


@lru_cache(maxsize=None)
def _zeros(d):
    return (0,) * d  # the zero vector of degree d, shared by every zero part


def _scaled(a, m):
    return a if m == 1 else tuple(m * x for x in a)


def _mulz(a, b, red):  # _mulmod, or the shared zero vector for a zero factor
    return _mulmod(a, b, red) if any(a) and any(b) else _zeros(len(a))


def _ext(D, U, V, den, x=None):
    """The canonical ExtElem (U + V sqrt(D)) / den, den > 0, filled into x if given."""
    g = gcd(den, *U, *V)
    if g != 1:
        U, V, den = tuple(c // g for c in U), tuple(c // g for c in V), den // g
    x, zero = x or object.__new__(ExtElem), _zeros(len(U))
    x.D, x.U, x.V, x.den = D, U if any(U) else zero, V if any(V) else zero, den
    return x


def _ext_sum(x, D, U, V, den):  # x + (U + V sqrt(D)) / den over the lcm of the dens
    g = gcd(x.den, den)
    m, n = den // g, x.den // g
    return _ext(D, _addv(_scaled(x.U, m), _scaled(U, n)), _addv(_scaled(x.V, m), _scaled(V, n)), x.den * m)


def fold_square(x: ExtElem) -> ExtElem:
    """x with sqrt(D) := ring_sqrt(D) when D is a perfect square, which
    collapses it into Q(lambda) and keeps its D tag; else x unchanged."""
    w = ring_sqrt(x.D) if any(x.V) else None
    return x if w is None else ExtElem(x.u + x.v * w, 0, x.D)


# ---------------------------------------------------------------------------
# intervals and certified signs
# ---------------------------------------------------------------------------


class RealInterval:
    """Closed interval [L/2^s, H/2^s], integer ends at one scale 2^-s: the
    enclosure of every certified decision. Operations round outward (floor
    on L, ceiling on H); `lo`, `hi` and `width()` read the exact ends."""

    __slots__ = ("L", "H", "s")

    def __init__(self, L, H, s):
        self.L = L
        self.H = H
        self.s = s

    @property
    def lo(self):
        return Fraction(self.L, 1 << self.s)

    @property
    def hi(self):
        return Fraction(self.H, 1 << self.s)

    def contains_zero(self):
        return self.L <= 0 <= self.H

    def width(self):
        return Fraction(self.H - self.L, 1 << self.s)

    def at(self, b):
        """The enclosure rounded outward to the scale 2^-b."""
        k = self.s - b
        if k <= 0:
            return RealInterval(self.L << -k, self.H << -k, b)
        return RealInterval(self.L >> k, -(-self.H >> k), b)

    def __repr__(self):
        return f"RealInterval({float(self.lo)}, {float(self.hi)}, s={self.s})"


def _horner_ball(coeffs, x: RealInterval) -> RealInterval:
    """Enclosure at x's scale of the integer polynomial `coeffs` (constant
    first) over all of x, by Horner's rule on the integer ends. The product
    of [lo, hi] and [L, H] is read at scale 2^-2s and floored / ceiled back
    to 2^-s, so each step adds less than 2 * 2^-s to the width."""
    L, H, s = x.L, x.H, x.s
    lo = hi = coeffs[-1] << s
    for c in reversed(coeffs[:-1]):
        if L >= 0:  # x >= 0: lo*L or lo*H is the least product, hi*H or hi*L the largest
            a, z = lo * (L if lo >= 0 else H), hi * (H if hi >= 0 else L)
        else:
            prods = (lo * L, lo * H, hi * L, hi * H)
            a, z = min(prods), max(prods)
        lo, hi = (a >> s) + (c << s), (c << s) - (-z >> s)
    return RealInterval(lo, hi, s)


def _ball_div(x: RealInterval, y: RealInterval) -> RealInterval:
    """x / y for enclosures at one scale, y not holding 0, rounded outward."""
    XL, XH, YL, YH = x.L, x.H, y.L, y.H
    if YL < 0:
        XL, XH, YL, YH = -XH, -XL, -YH, -YL  # x/y = (-x)/(-y) with -y > 0
    s = x.s
    # with y > 0 the least quotient is XL/YH or XL/YL, the largest XH/YL or XH/YH
    return RealInterval(
        (XL << s) // (YH if XL >= 0 else YL),
        -((-XH << s) // (YL if XH >= 0 else YH)),
        s,
    )


def _ball_sqrt(x: RealInterval) -> RealInterval:
    """sqrt(x) at x's scale: sqrt(n / 2^s) = sqrt(n * 2^s) / 2^s, floored at
    L and ceiled at H (ceil sqrt(n) = isqrt(n - 1) + 1 for n >= 1)."""
    if x.H < 0:
        raise DomainError("square root of a certified-negative interval")
    s = x.s
    n = x.H << s
    return RealInterval(isqrt(max(x.L, 0) << s), isqrt(n - 1) + 1 if n else 0, s)


# -- enclosures of 2cos(k*pi/p) for all conjugates ---------------------------

_roots_lock = threading.Lock()
_roots_cache: dict = {}

# bits an enclosure carries beyond its decision's precision: lambda's bracket
# is rounded outward to 2^-(bits + guard), far below its 2^-bits width
_BALL_GUARD = 32

# bits a Newton step gives up from the doubled precision, for the curvature
# term |f''/2f'| (up to 2^(guard+1)) and rounding; too small a margin only
# makes steps fail and fall back to halving, never an unsound bracket
_NEWTON_GUARD = 4


def _horner_scaled(coeffs, x, e):
    """2^(e*n) * f(x / 2^e) as an integer, for f of degree n with integer
    `coeffs` (constant first): the sign of f at the dyadic x / 2^e."""
    acc = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += e
        acc = acc * x + (c << shift)
    return acc


def _init_roots(p):
    mp = minimal_polynomial(p)
    d = mp.degree
    if d == 1:
        return {"brackets": [(-mp.coeffs[0], -mp.coeffs[0], 0)], "bits": None}
    ks = [k for k in range(1, p) if gcd(k, 2 * p) == 1]
    hints = sorted((2.0 * cos(pi * k / p) for k in ks), reverse=True)
    assert len(hints) == d
    gap = min(hints[i] - hints[i + 1] for i in range(d - 1))
    # grid step 2^-s <= gap/16: brackets four steps wide around hints at
    # least `gap` apart are disjoint (checked exactly below), and the float
    # hints are far closer to the roots than one grid step
    s = max(20, (16.0 / gap).__ceil__().bit_length())
    brackets = []
    for i, val in enumerate(hints):
        x = int(val * (1 << s))
        lo, hi = x - 2, x + 2
        # the i-th root from the top has f of sign (-1)^i just above it
        up = 1 if i % 2 == 0 else -1
        if not (
            _horner_scaled(mp.coeffs, hi, s) * up > 0
            and _horner_scaled(mp.coeffs, lo, s) * up < 0
            and (not brackets or hi < brackets[-1][0])
        ):
            raise PrecisionError(f"root bracket validation failed for p={p}")
        brackets.append((lo, hi, s))
    return {"brackets": brackets, "bits": 0}


def _refine_bracket(f, df, up, L, H, s, bits):
    """Refine the one-root bracket [L/2^s, H/2^s] of f, where f has sign `up`
    just above the root, until its width is at most 2^-bits (the argument is
    in `_refined_roots`). `df` is the derivative of f."""
    while (H - L) << bits > 1 << s:
        m, e = L + H, s + 1  # the midpoint m / 2^e
        fm = _horner_scaled(f, m, e)
        k = s - (H - L - 1).bit_length()  # width <= 2^-k
        t = min(2 * k - _NEWTON_GUARD, bits + 1)
        dm = _horner_scaled(df, m, e) if t > k + 1 else 0
        if dm:
            # Newton: x = m/2^e - f/f' = (m*dm - fm) / (dm * 2^e), taken to
            # the nearest multiple of 2^-t and bracketed by one step either side
            num, den = m * dm - fm, dm
            if t >= e:
                num <<= t - e
            else:
                den <<= e - t
            if den < 0:
                num, den = -num, -den
            x = (2 * num + den) // (2 * den)
            lo, hi = x - 1, x + 1
            if (
                lo << s >= L << t
                and hi << s <= H << t
                and _horner_scaled(f, hi, t) * up > 0
                and _horner_scaled(f, lo, t) * up < 0
            ):
                L, H, s = lo, hi, t
                continue
        if fm * up > 0:
            L, H, s = 2 * L, m, e
        else:
            L, H, s = m, 2 * H, e
    return L, H, s


def _refined_roots(p, bits):
    """Brackets (L, H, s) of every conjugate root, largest first, at the
    largest `bits` asked for so far for p.

    Each conjugate root of the minimal polynomial f (degree d >= 2) sits in
    a dyadic bracket [L/2^s, H/2^s] of integers, certified by one argument
    that every refinement keeps:

    * Start (`_init_roots`): d pairwise disjoint brackets, each with f of
      opposite nonzero signs at its two ends, so each holds an odd number of
      roots. f has only d roots, so each start bracket holds exactly one.
    * Step (`_refine_bracket`): a new bracket replaces the old one only when
      it lies inside the old one and exact scaled-integer Horner signs of f
      at its two ends still straddle zero. It then holds a root, which can
      only be the one root of the old bracket.
    * f is irreducible of degree >= 2, so it has no rational root: no dyadic
      end or midpoint evaluates to 0, and every sign taken is +-1.

    The steps are Newton steps from the midpoint, where the error squares and
    the precision about doubles, with halving at the midpoint (whose sign the
    Newton step has already computed) when a step lands outside the old
    bracket or fails to straddle. Newton brackets have H - L = 2, start
    brackets H - L = 4, and halving keeps H - L and raises s by one.
    Refinement to `bits` stops at the first bracket of width <= 2^-bits; a
    Newton step never aims finer than that and a halving step starts wider,
    so the width ends in (2^-(bits+1), 2^-bits] with s <= bits + 2.
    """
    with _roots_lock:
        state = _roots_cache.get(p)
        if state is None:
            state = _init_roots(p)
            _roots_cache[p] = state
        if state["bits"] is not None and state["bits"] < bits:
            f = minimal_polynomial(p).coeffs
            df = tuple(i * c for i, c in enumerate(f))[1:]
            state["brackets"] = [
                _refine_bracket(f, df, 1 if i % 2 == 0 else -1, L, H, s, bits)
                for i, (L, H, s) in enumerate(state["brackets"])
            ]
            state["bits"] = bits
        return state["brackets"]


def lambda_interval(p, bits) -> RealInterval:
    """Certified enclosure of 2cos(pi/p): p's finest bracket, width <= 2^-bits."""
    return RealInterval(*_refined_roots(p, bits)[0])


def conjugate_intervals(p, bits):
    """Certified enclosures of all real conjugates of 2cos(pi/p), largest first."""
    return [RealInterval(*b) for b in _refined_roots(p, bits)]


def _refine(decide):
    """The first result other than None of decide(bits) for bits = 128, 256,
    512, ... with no cap: the one precision schedule of every certified
    decision. It ends because every caller keeps two rules:

    * `decide` only separates from 0 a quantity already proved nonzero by an
      exact test (`is_zero`, `Surd.__eq__`, the Q != 0 check in
      `Surd.__init__`), or asks for the floor of a value that is irrational
      (`decimal_of`) or whose boundary case m*lambda it decides exactly
      (`cf._floor_triple`). What is left lies at a positive distance from 0
      or from the nearest boundary.
    * Every enclosure `decide(bits)` builds is a `RealInterval` at scale
      2^-b, b = bits + _BALL_GUARD, on lambda's bracket (at most 2^-bits
      wide) rounded outward to 2^-b. Each step rounds outward, so the value
      stays inside, and adds under 2 * 2^-b to a width it scales by a factor
      fixed by its operands: a Horner step maps the widths (u, w) of acc and
      x to |acc|*w + |x|*u + u*w, a quotient by y scales by (1 + |x|)/y^2
      once y excludes 0, and sqrt([L, H]) is at most sqrt(H - L) wide. So
      every width is at most C * 2^-(bits/2), C fixed by the operands, and
      some finite precision makes it narrower than that distance."""
    bits = 128
    while True:
        out = decide(bits)
        if out is not None:
            return out
        bits *= 2


def sign(x) -> int:
    """Certified sign (-1, 0, +1). Exact zero tests run first, so interval
    refinement is only ever asked to separate a provably nonzero quantity
    from zero and terminates."""
    if isinstance(x, int):
        return 0 if x == 0 else (1 if x > 0 else -1)
    if isinstance(x, Fraction):
        return 0 if x == 0 else (1 if x > 0 else -1)
    if isinstance(x, RingElem):
        if x.is_zero():
            return 0
        if minimal_polynomial(x.p).degree == 1:
            c = x.coeffs[0]
            return 1 if c > 0 else -1

        def decide(bits):
            iv = x.interval(bits)
            return 1 if iv.L > 0 else -1 if iv.H < 0 else None

        return _refine(decide)
    if isinstance(x, FieldElem):
        return sign(x.num)
    if isinstance(x, ExtElem):
        return _ext_sign(x)
    raise DomainError(f"sign is not defined for {type(x).__name__}")


def _ext_sign(x: ExtElem) -> int:
    """sign(u + v*sqrt(D)) by exact signs in Q(lambda). With M = v^2 D - u^2:
    M < 0 gives |u| > |v| sqrt(D), so u decides; M > 0 gives the reverse, so
    v decides; M = 0 gives equal sizes, so the sum is 0 unless u and v share
    their sign. `isp._nonnegative` is the case v = 1 on ring elements, with
    the sign of D - P^2 that `_is_simple` also takes."""
    if x.v.is_zero():
        return sign(x.u)
    if sign(x.D) < 0:
        raise DomainError("sign of an element with negative discriminant")
    m = -sign(x.norm())
    if m > 0:
        return sign(x.v)
    su = sign(x.u)
    return su if m < 0 or su == sign(x.v) else 0


# ---------------------------------------------------------------------------
# square detection
# ---------------------------------------------------------------------------


def _lagrange_coeffs(xs, ys):
    # coefficients (constant first) of the polynomial through (xs, ys)
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j != i:
                new = [Fraction(0)] * (len(num) + 1)
                for k, c in enumerate(num):
                    new[k] += c * (-xs[j])
                    new[k + 1] += c
                num = new
                den *= xs[i] - xs[j]
        w = ys[i] / den
        for k, c in enumerate(num):
            acc[k] += w * c
    return acc


def _round_frac(f: Fraction) -> int:
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def ring_sqrt(D: RingElem):
    """Exact square root of D in Z[lambda] if D is a perfect square, else None.

    The ring is the full ring of integers of its field, so a square root in
    the field already has integer coefficients; candidates are recovered from
    certified enclosures of all real embeddings and then verified exactly.
    The norm is multiplicative, N(w^2) = N(w)^2, so a D whose norm is not a
    perfect square is no square and returns None before any enclosure is
    refined. The test reads |N(D)| off the last Bareiss pivot, whose sign the
    row swaps of the elimination can flip; a D of negative norm that passes
    it is no square either, and the candidate search finds no root for it.
    """
    return _ring_sqrt(D.p, D.coeffs)


@lru_cache(maxsize=65536)
def _ring_sqrt(p, coeffs):
    # keyed on (p, coeffs), not on RingElem: equal hashes across p would call
    # RingElem.__eq__, which raises DomainError for mixed p
    D = RingElem._raw(p, coeffs)
    d = minimal_polynomial(p).degree
    if D.is_zero():
        return RingElem.from_int(p, 0)
    if d == 1:
        c = D.coeffs[0]
        if c < 0:
            return None
        s = isqrt(c)
        return RingElem.from_int(p, s) if s * s == c else None
    n = abs(_bareiss(D)[d - 1][d - 1])  # |N(D)|
    if isqrt(n) ** 2 != n:
        return None
    if sign(D) < 0:
        return None
    for bits in (320, 1280):
        roots = [r.at(bits + _BALL_GUARD) for r in conjugate_intervals(p, bits)]
        vals = [_horner_ball(D.coeffs, r) for r in roots]
        if any(v.H < 0 for v in vals):
            return None  # some real embedding of D is certified negative
        sqrts = [_ball_sqrt(v) for v in vals]
        root_mids = [(r.lo + r.hi) / 2 for r in roots]
        sqrt_mids = [(s.lo + s.hi) / 2 for s in sqrts]
        for pat in _iproduct((1, -1), repeat=d - 1):
            signs = (1,) + pat
            ys = [s * m for s, m in zip(signs, sqrt_mids)]
            coeffs = _lagrange_coeffs(root_mids, ys)
            cand = RingElem(p, [_round_frac(c) for c in coeffs])
            if cand * cand == D:
                return cand if sign(cand) >= 0 else -cand
    return None


def ring_div_exact(a: RingElem, b: RingElem):
    """a / b when the quotient lies in the ring, else None."""
    q = FieldElem(a) / b
    return q.num if q.den == 1 else None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _decimal_body(n: int, scale: int, digits: int) -> str:
    neg = n < 0
    mag = -n if neg else n
    int_part, frac_part = divmod(mag, scale)
    body = f"{int_part}.{str(frac_part).zfill(digits)}"
    return f"-{body}" if neg else body


def decimal_of(make_interval, digits: int, exact=None) -> str:
    """Deterministic decimal rendering: the value is floored to `digits`
    places once an enclosure pins that floor down. make_interval(bits)
    returns an enclosure, or None while it has none at that precision, and
    its enclosures' width goes to 0 as bits grows. An exactly rational value
    must come in as `exact`: it can sit on a flooring boundary, which no
    enclosure ever decides.

    Without `exact` the value is irrational, so value * 10^digits is not an
    integer and lies at a positive distance from the nearest flooring
    boundary. Once an enclosure is narrower than that distance its
    endpoints floor alike, so `_refine` ends for every digit count."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    scale = 10**digits
    if exact is not None:
        return _decimal_body((exact * scale).__floor__(), scale, digits)

    def decide(bits):
        iv = make_interval(bits)
        if iv is None:
            return None
        nlo = iv.L * scale >> iv.s
        return nlo if nlo == iv.H * scale >> iv.s else None

    return _decimal_body(_refine(decide), scale, digits)


def _poly_render(coeffs, var, power, gap) -> str:
    """The term loop of `poly_str` and `poly_latex`, which differ only in
    the power format and the gap after a coefficient."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c)) + gap
            body = head + (var if i == 1 else power % (var, i))
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def poly_str(coeffs, var="x") -> str:
    """Human form of an integer coefficient vector (constant first)."""
    return _poly_render(coeffs, var, "%s^%d", "")


def poly_latex(coeffs, var=r"\lambda") -> str:
    """LaTeX for an integer coefficient vector (constant first)."""
    return _poly_render(coeffs, var, "%s^{%d}", " ")
