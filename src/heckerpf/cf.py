"""Lambda continued fractions of quadratic surds.

A surd (P + sqrt(D))/Q over Z[lambda] is expanded by the map
alpha -> 1/(r*lambda - alpha) with r = floor(alpha/lambda) + 1, tracked
through exact state triples so that periodicity is detected by an exact
state repeat, never by numeric proximity. Discriminants that are perfect
squares in the ring are folded down up front and expanded through exact
field states instead; the two routes meet in the same CF type.

Also here: admissibility (run-length limits on partial quotients 1),
the parabolic-period test, the two-way translation between generator
words and periods, rebuilding a surd from its CF, and Moebius action on
surds in exact triple form.
"""

from __future__ import annotations

from .field import (
    DomainError,
    FieldElem,
    RealInterval,
    RingElem,
    _ball_div,
    _ball_sqrt,
    _refine,
    decimal_of,
    lambda_elem,
    lambda_interval,
    poly_str,
    ring_div_exact,
    ring_sqrt,
    sign,
)
from .group import GenWord, Mat, _product, canonical_rotation, classify
from .latex import surd_latex  # re-exported: the renderer lives in latex.py

__all__ = [
    "CF",
    "Surd",
    "Parabolic",
    "NotPeriodic",
    "cf_expand",
    "floor_over_lambda",
    "is_admissible",
    "is_parabolic_period",
    "parabolic_period",
    "word_to_period",
    "period_to_word",
    "surd_of_cf",
    "is_reduced",
    "mobius_apply",
    "surd_latex",
    "surd_str",
]


class Parabolic(DomainError):
    """The object belongs to a parabolic class, which has no hyperbolic
    fixed-point data (no reduced surd, no quadratic form)."""


class NotPeriodic(DomainError):
    """The expansion did not close up within the step bound; the input is
    not the fixed point of any group element (or the bound is too small)."""


class CF:
    """A lambda continued fraction [r_0; r_1, r_2, ...] that is eventually
    periodic: held as (preperiod, period). The leading preperiod entry is
    the integer part and may be any integer; later entries are >= 1."""

    __slots__ = ("p", "preperiod", "period")

    def __init__(self, p, preperiod, period):
        preperiod = tuple(int(r) for r in preperiod)
        period = tuple(int(r) for r in period)
        if not period:
            raise DomainError("a CF needs a nonempty period")
        self.p = p
        self.preperiod = preperiod
        self.period = period

    def __eq__(self, other):
        if not isinstance(other, CF):
            return NotImplemented
        return (
            self.p == other.p
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.p, self.preperiod, self.period))

    def __repr__(self):
        pre = ",".join(str(r) for r in self.preperiod)
        per = ",".join(str(r) for r in self.period)
        return f"CF(p={self.p}, [{pre}; ({per})*])"

    def to_json_dict(self):
        return {"preperiod": list(self.preperiod), "period": list(self.period)}


def _triple_interval(P, Q, D, bits):
    """Enclosure of (P + sqrt(D))/Q at `bits`, or None while Q's holds 0.
    The ring elements' enclosures share the scale 2^-(bits + guard)."""
    qiv = Q.interval(bits)
    if qiv.contains_zero():
        return None
    piv, root = P.interval(bits), _ball_sqrt(D.interval(bits))
    return _ball_div(RealInterval(piv.L + root.L, piv.H + root.H, piv.s), qiv)


class Surd:
    """Quadratic surd (P + sqrt(D))/Q with P, Q, D in Z[lambda], sqrt(D)
    the nonnegative root. Q must be nonzero and D nonnegative under the
    real embedding. Equality is by value, not by representation."""

    __slots__ = ("P", "Q", "D")
    __hash__ = None  # by-value equality across representations; use .key()

    def __init__(self, P, Q, D):
        p = None
        for x in (P, Q, D):
            if isinstance(x, RingElem):
                p = x.p
                break
        if p is None:
            raise DomainError("at least one of P, Q, D must be a RingElem")
        P = P if isinstance(P, RingElem) else RingElem.from_int(p, P)
        Q = Q if isinstance(Q, RingElem) else RingElem.from_int(p, Q)
        D = D if isinstance(D, RingElem) else RingElem.from_int(p, D)
        if not (P.p == Q.p == D.p):
            raise DomainError("mixed p in surd components")
        if Q.is_zero():
            raise DomainError("surd denominator must be nonzero")
        if sign(D) < 0:
            raise DomainError("surd discriminant must be nonnegative")
        self.P, self.Q, self.D = P, Q, D

    @property
    def p(self):
        return self.P.p

    @classmethod
    def make(cls, p, P, Q, D):
        """Build from plain integers (or ring elements) with an explicit p."""
        lift = lambda x: x if isinstance(x, RingElem) else RingElem.from_int(p, x)
        return cls(lift(P), lift(Q), lift(D))

    @classmethod
    def from_field(cls, x: FieldElem):
        return cls(x.num, RingElem.from_int(x.p, x.den), RingElem.from_int(x.p, 0))

    def folded_value(self):
        """The value as a FieldElem when sqrt(D) lies in the ring, else None."""
        w = ring_sqrt(self.D)
        if w is None:
            return None
        return (FieldElem(self.P) + w) / self.Q

    def conjugate(self) -> "Surd":
        """The algebraic conjugate (P - sqrt(D))/Q."""
        return Surd(-self.P, -self.Q, self.D)

    def normalized(self) -> "Surd":
        """Equal-value representative whose Q divides D - P^2."""
        if ring_div_exact(self.D - self.P * self.P, self.Q) is not None:
            return self
        m = self.Q if sign(self.Q) > 0 else -self.Q
        return Surd(m * self.P, m * self.Q, m * m * self.D)

    def key(self):
        """Representation key, unique per value among surds sharing one D."""
        n = self.normalized()
        return (n.P.coeffs, n.Q.coeffs, n.D.coeffs)

    def interval(self, bits):
        """An enclosure at `bits`, or None while Q's enclosure holds 0."""
        return _triple_interval(self.P, self.Q, self.D, bits)

    def _coerce(self, other):
        if isinstance(other, Surd):
            if other.p != self.p:
                raise DomainError("mixed p in surd comparison")
            return other
        if isinstance(other, FieldElem):
            if other.p != self.p:
                raise DomainError("mixed p in surd comparison")
            return Surd.from_field(other)
        if isinstance(other, RingElem):
            return Surd.from_field(FieldElem(other))
        if isinstance(other, int):
            return Surd.from_field(FieldElem.from_int(self.p, other))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f1, f2 = self.folded_value(), o.folded_value()
        if (f1 is None) != (f2 is None):
            return False  # one value is in Q(lambda), the other is not
        if f1 is not None:
            return f1 == f2
        # rational parts P/Q match and radical parts sqrt(D)/Q match
        if self.P * o.Q != o.P * self.Q:
            return False
        if sign(self.Q) != sign(o.Q):
            return False
        return self.D * o.Q * o.Q == o.D * self.Q * self.Q

    def _cmp(self, other) -> int:
        if self == other:
            return 0

        def decide(bits):
            a, b = self.interval(bits), other.interval(bits)
            if a is None or b is None:
                return None
            return 1 if a.L > b.H else -1 if a.H < b.L else None

        return _refine(decide)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def decimal(self, digits=30) -> str:
        folded = self.folded_value()
        exact = folded.as_fraction() if folded is not None else None
        return decimal_of(self.interval, digits, exact=exact)

    def to_json_dict(self):
        return {
            "P": list(self.P.coeffs),
            "Q": list(self.Q.coeffs),
            "D": list(self.D.coeffs),
        }

    def __repr__(self):
        return f"Surd(p={self.p}, {surd_str(self)})"


def surd_str(alpha: Surd) -> str:
    """One-line plain text (P + √(D)) / (Q), with λ for lambda."""
    P, Q, D = (poly_str(x.coeffs, "λ") for x in (alpha.P, alpha.Q, alpha.D))
    return f"({P} + √({D})) / ({Q})"


# ---------------------------------------------------------------------------
# floors against lambda
# ---------------------------------------------------------------------------


def _floor_triple(p, P, Q, D) -> int:
    """floor(alpha/lambda) for alpha = (P + sqrt(D))/Q; a field value
    num/den comes in as the triple (num, den, 0)."""
    lam = lambda_elem(p)

    def decide(bits):
        alpha = _triple_interval(P, Q, D, bits)
        if alpha is None:
            return None
        q = _ball_div(alpha, lambda_interval(p, bits).at(alpha.s))
        flo, fhi = q.L >> q.s, q.H >> q.s
        if flo == fhi:
            return flo
        if fhi == flo + 1:
            # alpha == fhi*lambda iff fhi*lambda*Q - P is the nonnegative root of D
            t = lam * (fhi * Q) - P
            if t * t == D and sign(t) >= 0:
                return fhi
        return None

    return _refine(decide)


def floor_over_lambda(alpha: Surd) -> int:
    """The exact floor of alpha/lambda. Interval refinement, with the
    boundary case alpha = m*lambda decided by an exact square test."""
    return _floor_triple(alpha.p, alpha.P, alpha.Q, alpha.D)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def _expand_states(p, first, step, floor_fn, max_steps):
    """Shared driver: iterate value -> 1/(r*lambda - value) on exact states,
    detect the first repeated state, split entries into (preperiod, period)."""
    seen = {}
    entries = []
    state = first
    while len(entries) <= max_steps:
        key = state[0]
        if key in seen:
            i = seen[key]
            return CF(p, entries[:i], entries[i:])
        seen[key] = len(entries)
        r = floor_fn(state[1]) + 1
        entries.append(r)
        state = step(state[1], r)
    raise NotPeriodic(
        f"no repeated state within {max_steps} steps; "
        "the input is not a group fixed point (or raise max_steps)"
    )


def cf_expand(alpha: Surd, max_steps: int = 10000) -> CF:
    """Preperiod and primitive period of the lambda-CF of a quadratic surd.

    States are exact: field elements when D is a perfect square, normalized
    (P, Q, D) triples otherwise, so cycle detection is an exact repeat."""
    p = alpha.p
    folded = alpha.folded_value()
    if folded is not None:
        lam = FieldElem(lambda_elem(p))
        zero = RingElem.from_int(p, 0)

        def step_f(value, r):
            nxt = 1 / (lam * r - value)
            return ((nxt.num.coeffs, nxt.den), nxt)

        return _expand_states(
            p, ((folded.num.coeffs, folded.den), folded), step_f,
            lambda x: _floor_triple(p, x.num, RingElem.from_int(p, x.den), zero), max_steps,
        )

    start = alpha.normalized()
    lam_r = lambda_elem(p)
    D = start.D
    # Carry R = (D - P^2)/Q alongside (P, Q); then the step needs no division:
    #   P1 = r*lambda*Q - P
    #   Q1 = (P1^2 - D)/Q = r*lambda*(r*lambda*Q - 2P) - R
    #   R1 = (D - P1^2)/Q1 = -Q
    R0 = ring_div_exact(D - start.P * start.P, start.Q)
    assert R0 is not None, "start triple violates the divisibility invariant"

    def step_t(value, r):
        P, Q, R = value
        t = lam_r * (r * Q)
        P1 = t - P
        Q1 = (lam_r * r) * (t - P - P) - R
        assert not Q1.is_zero(), "invariant broke during expansion"
        return ((P1.coeffs, Q1.coeffs), (P1, Q1, -Q))

    def floor_t(value):
        return _floor_triple(p, value[0], value[1], D)

    return _expand_states(
        p, ((start.P.coeffs, start.Q.coeffs), (start.P, start.Q, R0)), step_t,
        floor_t, max_steps,
    )


# ---------------------------------------------------------------------------
# admissibility and the parabolic period
# ---------------------------------------------------------------------------


def parabolic_period(p):
    """The unique (up to rotation) period of parabolic type: [2, 1 x (p-3)]."""
    return (2,) + (1,) * (p - 3)


def is_parabolic_period(cf: CF) -> bool:
    per = cf.period
    return canonical_rotation(per) == canonical_rotation(parabolic_period(cf.p))


def is_admissible(cf: CF) -> bool:
    """Run-length admissibility: partial quotients after the integer part
    are >= 1, with at most p-2 consecutive 1s at the very beginning of the
    tail and at most p-3 anywhere later; the period is treated cyclically
    (runs may wrap), and an all-ones period is never admissible."""
    p = cf.p
    if any(r < 1 for r in cf.preperiod[1:]) or any(r < 1 for r in cf.period):
        return False
    if all(r == 1 for r in cf.period):
        return False
    seq = list(cf.preperiod[1:]) + list(cf.period) * 3
    lead = 0
    for r in seq:
        if r != 1:
            break
        lead += 1
    if lead > p - 2:
        return False
    run = 0
    for r in seq[lead:]:
        if r == 1:
            run += 1
            if run > p - 3:
                return False
        else:
            run = 0
    return True


# ---------------------------------------------------------------------------
# words <-> periods
# ---------------------------------------------------------------------------


def _block_rotation(letters):
    """Lexicographically least rotation whose last letter is >= 2, so the
    word splits cleanly into blocks (run of 1s, then one letter >= 2)."""
    n = len(letters)
    cands = [
        letters[i:] + letters[:i] for i in range(n) if letters[(i + n - 1) % n] != 1
    ]
    if not cands:
        return None
    return min(cands)


def word_to_period(w: GenWord):
    """Period of the reduced surds of the class of w: each block of m 1s
    followed by a letter j contributes the entries (m+2, 1 x (j-2))."""
    p = w.p
    letters = w.letters
    if all(x == 1 for x in letters) or all(x == p - 1 for x in letters):
        raise Parabolic(f"word {list(letters)} generates a parabolic class")
    rot = _block_rotation(letters)
    period = []
    ones = 0
    for j in rot:
        if j == 1:
            ones += 1
        else:
            period.append(ones + 2)
            period.extend([1] * (j - 2))
            ones = 0
    return period


def period_to_word(p, period) -> GenWord:
    """Inverse of word_to_period: rotate the period to start at an entry
    >= 2; each entry e >= 2 followed by k 1s becomes the letters
    (1 x (e-2), k+2)."""
    period = tuple(int(r) for r in period)
    if canonical_rotation(period) == canonical_rotation(parabolic_period(p)):
        raise Parabolic("the parabolic period corresponds to no hyperbolic word")
    starts = [i for i, r in enumerate(period) if r >= 2]
    if not starts:
        raise DomainError("period has no entry >= 2 (inadmissible all-ones period)")
    i = starts[0]
    rot = period[i:] + period[:i]
    letters = []
    idx = 0
    n = len(rot)
    while idx < n:
        e = rot[idx]
        if e < 2:
            raise DomainError("malformed period: unexpected entry < 2")
        idx += 1
        k = 0
        while idx < n and rot[idx] == 1:
            k += 1
            idx += 1
        letters.extend([1] * (e - 2))
        letters.append(k + 2)
    return GenWord(p, letters)


# ---------------------------------------------------------------------------
# surd from CF, reducedness, Moebius action
# ---------------------------------------------------------------------------


def _step_entries(p, r):
    """Entries of S^r * T = [[1, r*lambda], [0, 1]] * [[0, -1], [1, 0]],
    the step z -> r*lambda - 1/z of one CF entry r."""
    return (
        lambda_elem(p) * r,
        RingElem.from_int(p, -1),
        RingElem.from_int(p, 1),
        RingElem.from_int(p, 0),
    )


def _steps_matrix(p, entries) -> Mat:
    return _product(p, [_step_entries(p, r) for r in entries])


def _fixed_point(m) -> Surd:
    """The attracting fixed point (a - d + sqrt(t^2 - 4)) / (2c) of a
    hyperbolic matrix with entries m = (a, b, c, d), trace t = a + d > 0
    and c != 0."""
    a, _, c, d = m
    t = a + d
    return Surd(a - d, 2 * c, t * t - 4)


def surd_of_cf(cf: CF) -> Surd:
    """The value of an admissible, non-parabolic CF: the attracting fixed
    point of V W V^{-1} where V comes from the preperiod and W from the
    period."""
    if not is_admissible(cf):
        raise DomainError("inadmissible CF")
    if is_parabolic_period(cf):
        raise Parabolic("parabolic period has a rational (cusp) value, not a surd")
    p = cf.p
    V = _steps_matrix(p, cf.preperiod)
    W = _steps_matrix(p, cf.period)
    M = V * W * V.inv()
    assert classify(M) == "hyperbolic", "admissible non-parabolic CF must be hyperbolic"
    assert not M.c.is_zero(), "finite CF value cannot be fixed at infinity"
    return _fixed_point(M.entries())


def is_reduced(alpha: Surd, max_steps: int = 10000) -> bool:
    """Purely periodic with a non-parabolic period."""
    cf = cf_expand(alpha, max_steps)
    return not cf.preperiod and not is_parabolic_period(cf)


def mobius_apply(m: Mat, alpha: Surd) -> Surd:
    """Exact image of a surd under a group matrix, computed on the
    normalized triple; raises if the image is the point at infinity."""
    if m.p != alpha.p:
        raise DomainError("mixed p in Moebius action")
    s = alpha.normalized()
    P, Q, D = s.P, s.Q, s.D
    a, b, c, d = m.a, m.b, m.c, m.d
    aPbQ = a * P + b * Q
    cPdQ = c * P + d * Q
    Pnum = aPbQ * cPdQ - a * c * D
    Nnum = cPdQ * cPdQ - c * c * D
    P2 = ring_div_exact(Pnum, Q)
    Q2 = ring_div_exact(Nnum, Q)
    assert P2 is not None and Q2 is not None, "Moebius image left the triple lattice"
    if Q2.is_zero():
        raise DomainError("Moebius image is the point at infinity")
    return Surd(P2, Q2, D)
