"""Exact construction and verification of pole-system rational functions.

The objects built here are rational functions q(z) whose finite poles sit
at the numbers of an irreducible pole system (together with algebraic
conjugates and possibly zero), subject to two functional equations of
weight 2k, written with M the product of the lambda-translation and the
inversion z -> -1/z:

    inversion:  q(z) + z^(-2k) q(-1/z) = 0
    rotation :  sum over j < p of (c_j z + d_j)^(-2k) q(M^j z) = 0

where (a_j, b_j; c_j, d_j) are the entries of M^j.  Everything is exact:
coefficients live in Q(lambda) adjoined with sqrt(D).  Square
discriminants are folded down to Q(lambda) by `field.fold_square` as each
pole term, zero part and tail entry is built, and `RPF.__init__` is the
one place where terms that share a pole and an order are summed.  Every
routine reads q in one form: a constant plus atoms c (z - beta)^(-n),
grouped by pole, with the zero part and the tail as atoms at the pole 0
(`_atoms`).  `verify` slashes
the atoms of both sides of each relation into partial fractions over that
field and proves that every merged coefficient is exactly zero, so a
"valid" answer is a proof of the identity and not a numerical impression.
`build_ansatz` solves for an unknown tail on the same merged coefficients,
which are linear in the tail.  `evaluate` and the two residuals sum the
atoms at points; sampling the residuals at more points than the degree of
any residual that could occur is kept only to find a witness point for an
invalid function.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, gcd

from .field import (
    DomainError,
    ExtElem,
    FieldElem,
    RingElem,
    fold_square,
    ring_sqrt,
    sign,
)
from .cf import Surd
from .group import generator
from .quadforms import QForm, _form_of_root, is_simple
from .isp import isp_of_word
from .latex import to_latex  # re-exported: the renderer lives in latex.py


class PoleHit(DomainError):
    """Raised when an evaluation point lands on a pole.

    The offending pole is kept on the `pole` attribute: the Surd of a pole
    term, 0 for the pole at the origin contributed by the zero/tail part,
    or, in a residual, the field value -d/c that a matrix (a b; c d) of the
    relation sends to infinity.
    """

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class NoSolution:
    """Marker result: the linear conditions admit no exact solution."""

    __slots__ = ()

    def __repr__(self):
        return "NoSolution()"

    def __eq__(self, other):
        return isinstance(other, NoSolution)

    def __hash__(self):
        return hash("NoSolution")


class SolutionFamily:
    """An affine family of solutions: basepoint + span of directions.

    `basepoint` is the solution with every free tail coordinate set to
    zero; `directions` are tail-only functions spanning the homogeneous
    solutions, so every member is basepoint + sum of scalar multiples of
    the directions.  No member is singled out as canonical.
    """

    __slots__ = ("basepoint", "directions")

    def __init__(self, basepoint, directions):
        self.basepoint = basepoint
        self.directions = tuple(directions)

    def __eq__(self, other):
        if not isinstance(other, SolutionFamily):
            return NotImplemented
        return (
            self.basepoint == other.basepoint
            and self.directions == other.directions
        )

    def __repr__(self):
        return (
            f"SolutionFamily(basepoint={self.basepoint!r}, "
            f"{len(self.directions)} free direction(s))"
        )


class VerifyResult:
    """Outcome of `verify`: valid, or invalid with a witness.

    The witness is a pair (point, relation) with relation either
    "inversion" or "rotation"; the named residual is exactly nonzero at
    the witness point.  A valid result carries its certificate in
    `checked`: the numbers of merged partial-fraction coefficients proved
    zero in the (inversion, rotation) relations.  It is None on an
    invalid result and on one decided by sampling.
    """

    __slots__ = ("valid", "witness", "_checked")

    def __init__(self, valid, witness=None, checked=None):
        self.valid = valid
        self.witness = witness
        self._checked = checked

    @property
    def checked(self):
        return self._checked

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "VerifyResult(valid)"
        point, relation = self.witness
        return f"VerifyResult(invalid at z={point} in the {relation} relation)"


# ---------------------------------------------------------------------------
# small exact-arithmetic helpers
# ---------------------------------------------------------------------------


# Values never change in place (RPF.__init__ only swaps in equal objects),
# so one object per p stands for each small ring value (every coefficient in
# -2..2) in every function built: the square tag 1 and, at p = 3..9, 55% of
# the builders' pole data. So do the constants 0, +-1 and an all-zero run.


@lru_cache(maxsize=1024)
def _small_ring(p, coeffs) -> RingElem:
    return RingElem._raw(p, coeffs)


@lru_cache(maxsize=None)
def _one_ring(p) -> RingElem:
    return _small_ring(p, RingElem.from_int(p, 1).coeffs)


@lru_cache(maxsize=None)
def _ext_const(p, n) -> ExtElem:
    return ExtElem(n, 0, _one_ring(p))


@lru_cache(maxsize=64)
def _zero_run(p, n) -> tuple:
    return (_ext_const(p, 0),) * n


def _ext_of(p, x) -> ExtElem:
    """Lift x into the extension with a harmless square tag when needed."""
    if isinstance(x, ExtElem):
        return x
    if type(x) is int and -1 <= x <= 1:
        return _ext_const(p, x)
    return ExtElem(x, 0, _one_ring(p))


def _as_field(p, z) -> FieldElem:
    """Coerce an evaluation point into the base field."""
    if isinstance(z, ExtElem) and z.v.is_zero():
        z = z.u
    x = FieldElem.lift(p, z)
    if x is None:
        raise DomainError("evaluation points must lie in the base field")
    return x


# ---------------------------------------------------------------------------
# the function type
# ---------------------------------------------------------------------------


class PoleTerm:
    """One summand coeff / (z - alpha)^order of the pole part."""

    __slots__ = ("alpha", "order", "coeff")

    def __init__(self, alpha: Surd, order: int, coeff):
        if not isinstance(alpha, Surd):
            raise DomainError("the pole location must be a Surd")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise DomainError("the pole order must be a positive integer")
        coeff = fold_square(_ext_of(alpha.p, coeff))
        if coeff.is_zero():
            raise DomainError("a pole term needs a nonzero coefficient")
        if coeff.p != alpha.p:
            raise DomainError("mixed lambda indices in a pole term")
        self.alpha, self.order, self.coeff = alpha, order, coeff

    @property
    def p(self):
        return self.alpha.p

    def __eq__(self, other):
        if not isinstance(other, PoleTerm):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.order == other.order
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.alpha.key(), self.order, self.coeff))

    def __repr__(self):
        return f"PoleTerm({self.alpha!r}, order={self.order}, coeff={self.coeff!r})"

    def to_json_dict(self):
        return {
            "alpha": self.alpha.to_json_dict(),
            "order": self.order,
            "coeff": _ext_json(self.coeff),
        }


class RPF:
    """A rational function built from pole terms, a zero-pole part and a tail.

    The value is

        sum of coeff/(z - alpha)^order over the pole terms
        + a0 (1 - z^(-2k)) + b1 z^(-1)
        + sum of tail[n-1] z^(-n) for n = 1 .. 2k-1,

    where k >= 1 is the half-weight.  b1 may be nonzero only when the
    weight 2k equals 2.  All irrational pole locations and coefficients
    must share a single non-square discriminant; square discriminants are
    folded into the base field on construction.
    """

    __slots__ = ("p", "k", "_terms", "zero_part", "tail", "_roots")

    def __init__(self, p, k, pole_terms=(), zero_part=None, tail=None, roots=None):
        if not isinstance(p, int) or isinstance(p, bool) or p < 3:
            raise DomainError("the group index must be an integer >= 3")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DomainError("the half-weight must be a positive integer")
        self.p, self.k = p, k
        merged = {}  # terms sharing a pole and an order become one term
        for t in pole_terms:
            if not isinstance(t, PoleTerm):
                raise DomainError("pole_terms must contain PoleTerm objects")
            if t.p != p:
                raise DomainError("a pole term has the wrong lambda index")
            if t.order > k:
                raise DomainError("a pole order exceeds the half-weight")
            key = (t.alpha.key(), t.order)
            prev = merged.get(key)
            if prev is not None:
                coeff = prev.coeff + t.coeff
                t = None if coeff.is_zero() else PoleTerm(prev.alpha, t.order, coeff)
            merged[key] = t
        terms = [merged[key] for key in sorted(merged) if merged[key] is not None]
        a0, b1 = (0, 0) if zero_part is None else zero_part
        a0, b1 = fold_square(_ext_of(p, a0)), fold_square(_ext_of(p, b1))
        if not b1.is_zero() and 2 * k != 2:
            raise DomainError("the z^(-1) part is only allowed at weight 2")
        tail = tuple(fold_square(_ext_of(p, c)) for c in tail or ())
        if len(tail) > 2 * k - 1:
            raise DomainError("the tail may only run up to z^(-(2k-1))")
        tail += (_ext_of(p, 0),) * (2 * k - 1 - len(tail))
        # one object per equal ring value (poles' P, Q, D, coefficients' D tags),
        # vector and coefficient, and no PoleTerm; `live` gathers non-square D's
        rings, vecs, coeffs, live = {}, {}, {}, set()

        def ring(r):
            if r.coeffs not in rings:
                rings[r.coeffs] = _small_ring(p, r.coeffs) if max(map(abs, r.coeffs)) <= 2 else r
                vecs.setdefault(r.coeffs, rings[r.coeffs].coeffs)
            return rings[r.coeffs]

        def share(c):
            if c.p != p:
                raise DomainError("a coefficient has the wrong lambda index")
            if any(c.V):
                live.add(c.D.coeffs)
            c.D, c.U, c.V = ring(c.D), vecs.setdefault(c.U, c.U), vecs.setdefault(c.V, c.V)
            return coeffs.setdefault((c.D.coeffs, *c.key()), c)

        zero, _, _ = (share(_ext_const(p, n)) for n in (0, 1, -1))
        for t in terms:
            a = t.alpha
            a.P, a.Q, a.D = ring(a.P), ring(a.Q), ring(a.D)
            if ring_sqrt(a.D) is None:
                live.add(a.D.coeffs)
        self._terms = tuple(x for t in terms for x in (t.alpha, t.order, share(t.coeff)))
        self.zero_part, self.tail = (
            run if any(c is not zero for c in run) else _zero_run(p, len(run))
            for run in (tuple(map(share, (a0, b1))), tuple(map(share, tail))))
        self._roots = None if roots is None else tuple(x for pair in roots for x in pair)
        if len(live) > 1:
            raise DomainError("all irrational poles and coefficients must share one discriminant")

    @property
    def pole_terms(self):
        """The pole terms by pole and order, rebuilt from the flat `_terms`."""
        t = self._terms
        return tuple(PoleTerm(*t[i:i + 3]) for i in range(0, len(t), 3))

    @property
    def weight(self):
        return 2 * self.k

    @property
    def _forms(self):
        """The (s, form) pairs of a form-power function, else None, from
        `_roots`, kept flat: s1, first root 1, s2, ... (poles hold the roots)."""
        if self._roots is None:
            return None
        return tuple((s, _form_of_root(a)) for s, a in zip(self._roots[::2], self._roots[1::2]))

    def has_zero_pole(self):
        a0, b1 = self.zero_part
        return (not a0.is_zero()) or (not b1.is_zero()) or any(
            not c.is_zero() for c in self.tail
        )

    def __eq__(self, other):
        if not isinstance(other, RPF):
            return NotImplemented
        return (
            self.p == other.p
            and self.k == other.k
            and self._terms == other._terms
            and self.zero_part == other.zero_part
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.p, self.k, self.pole_terms, self.zero_part, self.tail))

    def __repr__(self):
        bits = [f"p={self.p}", f"weight={2 * self.k}",
                f"{len(self.pole_terms)} pole term(s)"]
        if self.has_zero_pole():
            bits.append("zero-pole part")
        return "RPF(" + ", ".join(bits) + ")"

    def to_json_dict(self):
        a0, b1 = self.zero_part
        return {
            "p": self.p,
            "k": self.k,
            "pole_terms": [t.to_json_dict() for t in self.pole_terms],
            "zero_part": {"a0": _ext_json(a0), "b1": _ext_json(b1)},
            "tail": [_ext_json(c) for c in self.tail],
        }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _field_json(x: FieldElem):
    return {"num": list(x.num.coeffs), "den": x.den}


def _ext_json(x: ExtElem):
    return {"u": _field_json(x.u), "v": _field_json(x.v), "D": list(x.D.coeffs)}


def _json_int(value, what) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be a JSON integer")
    return value


def _json_list(value, what) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON list")
    return value


def _ring_degree(p) -> int:
    """The degree phi(2p)/2 of lambda_p, counted without building the
    minimal polynomial (quadratic in p)."""
    if p < 3:
        raise DomainError("p must be an integer >= 3")
    return sum(gcd(j, 2 * p) == 1 for j in range(2 * p)) // 2


def _ring_from_json(p, value, what) -> RingElem:
    # to_json writes every ring element with exactly degree(p) entries;
    # phi(m) >= sqrt(m/2) gives degree(p) >= sqrt(p)/2, so a short list is
    # refused before the O(p) count
    entries = len(_json_list(value, what))
    if 4 * entries * entries < p or entries != _ring_degree(p):
        raise DomainError(f"{what} has the wrong number of entries for p = {p}")
    return RingElem(p, [_json_int(c, f"a coefficient of {what}") for c in value])


def _field_from_json(p, d) -> FieldElem:
    return FieldElem(_ring_from_json(p, d["num"], "num"), _json_int(d["den"], "den"))


def _ext_from_json(p, d) -> ExtElem:
    return ExtElem(
        _field_from_json(p, d["u"]),
        _field_from_json(p, d["v"]),
        _ring_from_json(p, d["D"], "D"),
    )


def to_json(q: RPF) -> str:
    """Deterministic JSON text for q (same q -> same bytes)."""
    return json.dumps(q.to_json_dict(), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> RPF:
    """Rebuild a function from the output of `to_json`.

    The text comes from outside the program, so its shape is checked as
    `to_json` writes it: p, k, orders and denominators are JSON integers,
    `pole_terms` and `tail` are lists, and every ring element is a list of
    exactly degree(p) integers. A pole location must have D != 0: every
    pole is a hyperbolic fixed point, with D = t^2 - 4 > 0. A value of the
    wrong type or length raises DomainError rather than being coerced,
    truncated or reduced."""
    d = json.loads(text)
    p = _json_int(d["p"], "p")
    terms = []
    for td in _json_list(d["pole_terms"], "pole_terms"):
        ad = td["alpha"]
        alpha = Surd(
            _ring_from_json(p, ad["P"], "P"),
            _ring_from_json(p, ad["Q"], "Q"),
            _ring_from_json(p, ad["D"], "D"),
        )
        if alpha.D.is_zero():
            raise DomainError("a pole location must have a nonzero discriminant")
        terms.append(PoleTerm(alpha, _json_int(td["order"], "order"),
                              _ext_from_json(p, td["coeff"])))
    zero = (
        _ext_from_json(p, d["zero_part"]["a0"]),
        _ext_from_json(p, d["zero_part"]["b1"]),
    )
    tail = tuple(_ext_from_json(p, cd) for cd in _json_list(d["tail"], "tail"))
    return RPF(p, _json_int(d["k"], "k"), terms, zero, tail)


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def q_zero(p, k, a0, b1=0) -> RPF:
    """The function with its only pole at the origin:

        a0 (1 - z^(-2k))        for weight 2k != 2,
        a0 (1 - z^(-2)) + b1/z  for weight 2.

    It satisfies the inversion relation identically for every k.
    """
    return RPF(p, k, (), (a0, b1))


def principal_part(k, alpha: Surd):
    """Pole terms of the principal part at alpha of

        (alpha - alpha')^k / ((z - alpha)^k (z - alpha')^k),

    where alpha' is the algebraic conjugate.  The coefficient of
    (z - alpha)^(-(k-j)) is binom(k-1+j, j) (-1)^j (alpha - alpha')^(-j).
    Requires alpha != alpha'.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("the half-weight must be a positive integer")
    if not isinstance(alpha, Surd):
        raise DomainError("the pole location must be a Surd")
    if alpha.D.is_zero():
        raise DomainError("the pole has no distinct conjugate (D = 0)")
    p = alpha.p
    # alpha - alpha' = 2 sqrt(D) / Q
    two_over_q = FieldElem.from_int(p, 2) / FieldElem(alpha.Q)
    delta = ExtElem(0, two_over_q, alpha.D)
    step = -delta.inverse()
    terms = []
    cur = _ext_of(p, 1)
    for j in range(k):
        coeff = cur * comb(k - 1 + j, j)
        terms.append(PoleTerm(alpha, k - j, coeff))
        cur = cur * step
    return tuple(terms)


def _simple_form(alpha: Surd) -> QForm:
    """The quadratic form with positive leading coefficient whose first
    root is alpha (alpha must exceed 0 with a negative conjugate)."""
    f = _form_of_root(alpha)
    assert is_simple(f), "the pole is not simple"
    return f


def from_form_powers(k, terms) -> RPF:
    """The function  sum of s * Q(z,1)^(-k)  over pairs (s, Q).

    Each form power is expanded into exact pole terms through the
    principal parts at the form's two roots; each s and first root are
    remembered so `to_latex` can print the compact form-power shape.  Each
    s is folded once on entry (`fold_square`), so a scalar written over a
    square discriminant is a value in Q(lambda).  The expansion is
    re-checked against a direct evaluation at a sample point.
    """
    pairs = [(fold_square(_ext_of(f.p, s)), f) for s, f in terms]
    if not pairs:
        raise DomainError("at least one form power is required")
    p = pairs[0][1].p
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("the half-weight must be a positive integer")
    poles = []
    roots = []
    for s, f in pairs:
        if f.p != p:
            raise DomainError("mixed lambda indices among the forms")
        alpha = f.first_root()
        roots.append((s, alpha))
        if s.is_zero():
            continue
        # A (alpha - alpha') = sign(A) sqrt(disc)
        root_disc = fold_square(ExtElem(0, sign(f.A), f.disc()))
        scale = s * root_disc ** (-k)
        poles += _scaled_part(k, alpha, scale)
        poles += _scaled_part(k, alpha.conjugate(), -scale if k % 2 else scale)
    q = RPF(p, k, poles, roots=roots)
    _check_form_expansion(q, k, pairs)
    return q


def _scaled_part(k, alpha, scale):
    """The pole terms of `principal_part(k, alpha)` times scale."""
    return [PoleTerm(alpha, t.order, t.coeff * scale) for t in principal_part(k, alpha)]


def _check_form_expansion(q, k, pairs):
    """Assert the pole-term expansion reproduces the form powers exactly."""
    z = 2
    while True:
        zf = _as_field(q.p, z)
        try:
            direct = _ext_of(q.p, 0)
            for s, f in pairs:
                value = (f.A * zf + f.B) * zf + f.C
                if value.is_zero():
                    raise PoleHit("sample point is a root of a form")
                direct = direct + s * _ext_of(q.p, value) ** (-k)
            got = evaluate(q, zf)
        except PoleHit:
            z += 1
            continue
        assert got == direct, "pole-term expansion disagrees with the forms"
        return


# ---------------------------------------------------------------------------
# builders for the two pole-system shapes
# ---------------------------------------------------------------------------


def build_symmetric_odd(k, system) -> RPF:
    """For a self-conjugate pole system and odd half-weight k, the sum of
    Q_alpha(z,1)^(-k) over the system's numbers, as exact pole terms."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("the half-weight must be a positive integer")
    if k % 2 == 0:
        raise DomainError("this construction needs an odd half-weight")
    if not system.symmetric:
        raise DomainError("this construction needs a self-conjugate system")
    return from_form_powers(k, [(1, _simple_form(a)) for a in system.positives])


def build_union(k, system) -> RPF:
    """For a non-self-conjugate system, the signed sum over the system and
    its conjugate partner:

        sum over the system of Q(z,1)^(-k)
        - (-1)^k  sum over the partner system of Q(z,1)^(-k).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("the half-weight must be a positive integer")
    if system.symmetric:
        raise DomainError("this construction needs a non-self-conjugate system")
    partner = isp_of_word(system.conjugate_word)
    sign_k = -1 if k % 2 else 1
    terms = [(1, _simple_form(a)) for a in system.positives]
    terms += [(-sign_k, _simple_form(g)) for g in partner.positives]
    return from_form_powers(k, terms)


# ---------------------------------------------------------------------------
# the atom form of q, evaluation and the two relations
# ---------------------------------------------------------------------------


def _atoms(q: RPF):
    """q as atoms c (z - beta)^(-n) plus a constant: a tuple of groups
    (pole, beta, ((n, c), ...)), one per pole with its pairs sorted by
    order, and the constant a0.

    A pole term's beta = (P + sqrt(D))/Q is an ExtElem, folded into
    Q(lambda) when D is a square.  The zero part a0 (1 - z^(-2k)) + b1/z and
    the tail give the group at pole 0: b1 and tail entry t_n at orders 1
    and n, and -a0 at order 2k.  Orders may repeat within a group (b1 and
    t_1 at weight 2, or pole terms that share a pole and an order), so the
    pairs are sorted by order alone, as coefficients have no order;
    repeated atoms simply add."""
    groups = {}
    for t in q.pole_terms:
        key = t.alpha.key()
        if key not in groups:
            groups[key] = (t.alpha, [])
        groups[key][1].append((t.order, t.coeff))
    entries = []
    for alpha, pairs in groups.values():
        pairs.sort(key=lambda pair: pair[0])
        beta = fold_square(ExtElem(alpha.P, 1, alpha.D) / alpha.Q)
        entries.append((alpha, beta, tuple(pairs)))
    a0, b1 = q.zero_part
    at_zero = [(1, b1)] + list(enumerate(q.tail, start=1)) + [(2 * q.k, -a0)]
    at_zero = tuple((n, c) for n, c in at_zero if not c.is_zero())
    if at_zero:
        entries.append((0, _ext_of(q.p, 0), at_zero))
    return tuple(entries), a0


def _evaluate(atoms, z) -> ExtElem:
    """The sum of the atoms at z in the base field; PoleHit names the pole
    hit (z - beta is never zero over a non-square D)."""
    groups, total = atoms
    for pole, beta, pairs in groups:
        den = z - beta
        if den.is_zero():
            raise PoleHit(f"the point is the pole {pole!r}", pole=pole)
        inv = den.inverse()
        power = inv
        at = 1
        for order, coeff in pairs:
            while at < order:
                power = power * inv
                at += 1
            total = total + coeff * power
    return total


def evaluate(q: RPF, z) -> ExtElem:
    """The exact value q(z) for z in the base field, summed over the atoms
    of q (`_atoms`).  Raises PoleHit at any pole, which is 0 when the zero
    part or the tail is present."""
    return _evaluate(_atoms(q), _as_field(q.p, z))


@lru_cache(maxsize=None)
def _relation_matrices(p):
    """The matrices (a, b, c, d) over the field whose weight-2k slashes sum
    to each relation, the identity first: {I, T} for the inversion,
    {U^j : j < p} for the rotation."""
    def entries(m):
        return tuple(_ext_of(p, x) for x in (m.a, m.b, m.c, m.d))
    u = generator(p, "U")
    rotation = tuple(entries(u ** j) for j in range(p))
    return (rotation[0], entries(generator(p, "T"))), rotation


def _residual(q: RPF, atoms, matrices, z, value: ExtElem) -> ExtElem:
    """The sum of (cz + d)^(-2k) q(Mz) over one relation's matrices M,
    given value = q(z) for the identity that leads them.  A matrix with
    cz + d = 0 sends z to infinity; PoleHit then names z = -d/c."""
    total = value
    for a, b, c, d in matrices[1:]:
        den = z * c + d
        if den.is_zero():
            raise PoleHit("a matrix of the relation sends the point to infinity",
                          pole=(-d / c).u)
        den_inv = den.inverse()
        total = total + _evaluate(atoms, (z * a + b) * den_inv) * den_inv ** (2 * q.k)
    return total


def inversion_residual(q: RPF, z) -> ExtElem:
    """q(z) + z^(-2k) q(-1/z), exactly."""
    atoms, z = _atoms(q), _as_field(q.p, z)
    return _residual(q, atoms, _relation_matrices(q.p)[0], z, _evaluate(atoms, z))


def rotation_residual(q: RPF, z) -> ExtElem:
    """sum over j < p of (c_j z + d_j)^(-2k) q(M^j z), exactly."""
    atoms, z = _atoms(q), _as_field(q.p, z)
    return _residual(q, atoms, _relation_matrices(q.p)[1], z, _evaluate(atoms, z))


def _order_mass(q: RPF) -> int:
    """Pole-order mass entering the sample-point budget: the sum of the
    pole-term orders plus 2k for the zero/tail slot."""
    return sum(t.order for t in q.pole_terms) + 2 * q.k


def _point_budget(q: RPF) -> int:
    """Sample points that separate a nonzero residual from zero.

    Derivation.  q is a constant plus its atoms c (z - beta)^(-n)
    (`_atoms`), so it is bounded at infinity and its reduced denominator
    divides the product over the atom groups of (z - beta)^(n_beta), with
    n_beta the group's highest order: at most 2k at the pole 0, and at most
    the sum of the pole-term orders at any other pole; so q = A/B with
    deg A <= deg B <= m, where m = `_order_mass(q)`.  For M = (a b; c d)
    with c != 0, (cz + d)^(-2k) q(Mz) is A~/(B~ (cz + d)^(2k)) with A~, B~
    the polynomials (cz + d)^m A(Mz) and (cz + d)^m B(Mz), so its reduced
    denominator has degree at most m + 2k.  The inversion residual is a
    sum of two such terms (the identity and z -> -1/z), the rotation
    residual of p (the identity and p - 1 rotations), so each residual is
    N/E with E the product of the terms' reduced denominators and

        deg N <= deg E <= p m + (p - 1) 2k < (p + 1)(m + 2k).

    A point is counted only when every term evaluates, so E does not
    vanish there and the residual is zero there iff N is.  A nonzero N has
    at most deg N roots, so (p + 1)(m + 2k) distinct counted points at
    which both residuals vanish prove both relations; 8 more are margin.
    Only `_sampled_verify` counts points: `verify` and `build_ansatz` work
    on partial fractions, and the budget bounds `verify`'s walk for a
    witness point."""
    return 2 * q.k * (q.p + 1) + _order_mass(q) * (q.p + 1) + 8


def _sampled_verify(q: RPF) -> VerifyResult:
    """Check both relations at even integer points 2, 4, 6, ... (skipping
    any that land on a pole of a slashed copy) until `_point_budget` points
    are counted; every residual must vanish exactly.  A failure reports the
    first witness point, the inversion relation before the rotation one at
    each point.  Each residual composes q(Mz) from the atoms of q
    (`_atoms`), q(z) once per point, and never merges partial fractions,
    so the tests use this walk as a verifier independent of `verify`;
    `verify` uses it to find a witness."""
    atoms = _atoms(q)
    relations = tuple(zip(("inversion", "rotation"), _relation_matrices(q.p)))
    needed = _point_budget(q)
    used = 0
    point = 0
    while used < needed:
        point += 2
        z = _as_field(q.p, point)
        try:
            value = _evaluate(atoms, z)
            for relation, matrices in relations:
                if not _residual(q, atoms, matrices, z, value).is_zero():
                    return VerifyResult(False, (point, relation))
        except PoleHit:
            continue
        used += 1
    return VerifyResult(True, None)


# ---------------------------------------------------------------------------
# the two relations in partial fractions
# ---------------------------------------------------------------------------


def _add_atom(merged, key, c):
    prev = merged.get(key)
    merged[key] = c if prev is None else prev + c


def _powers(x, top):
    """[1, x, ..., x^top]."""
    out = [_ext_of(x.p, 1)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _slash_into(merged, k, groups, const, m):
    """Add the weight-2k slash (cz + d)^(-2k) f(Mz) of the atoms by
    M = (a b; c d) to `merged`, keyed by beta.key() + (n,) for
    c (z - beta)^(-n), and by None for the constant.

    With e = a - beta c, Mz - beta = (e z + b - beta d)/(cz + d), so an
    atom c0 (Mz - beta)^(-n) slashes to:
      c = 0:   c0 d^(n-2k) a^(-n) (z - beta')^(-n), beta' = (beta d - b)/a;
      e = 0:   c0 (b - beta d)^(-n) c^(n-2k) (z - rho)^(n-2k), rho = -d/c,
               a constant when n = 2k (beta = M(infinity));
      else:    c0 e^(-n) c^(n-2k) (z - rho)^(n-2k) (z - beta')^(-n),
               beta' = M^(-1) beta = (beta d - b)/e, split by the two-pole
               binomial formula as in `principal_part`.
    rho != beta' since M(rho) = infinity.  A constant c0 slashes to
    c0 d^(-2k) when c = 0, else to c0 c^(-2k) (z - rho)^(-2k).  Powers of
    1/c and of the gap (beta' - rho)^(-1) are built only as far as an atom
    or a nonzero constant uses them, so a large k with few atoms is cheap."""
    a, b, c, d = m
    two_k = 2 * k
    if c.is_zero():
        for _, beta, pairs in groups:
            image = (beta * d - b) / a
            for n, c0 in pairs:
                _add_atom(merged, image.key() + (n,), c0 * (d ** (n - two_k) / a ** n))
        if not const.is_zero():
            _add_atom(merged, None, const * d ** (-two_k))
        return
    rho = -d / c
    at_rho = rho.key()
    # pairs are sorted by order: a group's first order is its least
    c_inv = _powers(c.inverse(), max([two_k - pairs[0][0] for _, _, pairs in groups]
                               + [0 if const.is_zero() else two_k]))
    if not const.is_zero():
        _add_atom(merged, at_rho + (two_k,), const * c_inv[two_k])
    for _, beta, pairs in groups:
        e = a - beta * c
        if e.is_zero():
            s_pow = _powers((b - beta * d).inverse(), pairs[-1][0])
            for n, c0 in pairs:
                coeff = c0 * s_pow[n] * c_inv[two_k - n]
                _add_atom(merged, None if n == two_k else at_rho + (two_k - n,), coeff)
            continue
        e_pow = _powers(e.inverse(), pairs[-1][0])
        image = (beta * d - b) * e_pow[1]
        at_image = image.key()
        # (beta' - rho)^(-j), up to 2k - 1 when some atom splits
        gap_pow = _powers((image - rho).inverse(), two_k - 1 if pairs[0][0] < two_k else 0)
        for n, c0 in pairs:
            f = c0 * e_pow[n] * c_inv[two_k - n]
            r = two_k - n
            if r == 0:
                _add_atom(merged, at_image + (n,), f)
                continue
            # (z - rho)^(-r) (z - beta')^(-n): the coefficient of
            # (z - beta')^(-(n-j)) is binom(r-1+j, j) (-1)^j gap^(r+j), that
            # of (z - rho)^(-(r-j)) is binom(n-1+j, j) (-1)^n gap^(n+j)
            for j in range(n):
                scale = comb(r - 1 + j, j) * (-1 if j % 2 else 1)
                _add_atom(merged, at_image + (n - j,), f * gap_pow[r + j] * scale)
            for j in range(r):
                scale = comb(n - 1 + j, j) * (-1 if n % 2 else 1)
                _add_atom(merged, at_rho + (r - j,), f * gap_pow[n + j] * scale)


def _merged_relations(q: RPF):
    """Yield the merged partial-fraction coefficients of the inversion and
    then of the rotation relation, each a dict from `_slash_into` keys."""
    groups, const = _atoms(q)
    for matrices in _relation_matrices(q.p):
        merged = {}
        for m in matrices:
            _slash_into(merged, q.k, groups, const, m)
        yield merged


def verify(q: RPF) -> VerifyResult:
    """Exact proof or refutation of the inversion and rotation relations.

    Each relation is a finite sum of slashed atoms c (z - beta)^(-n) and
    constants (`_slash_into`); `verify` merges those sums by (pole value,
    order) and decides the relation by testing each merged coefficient
    for exact zero.  Why that decides it:
      - partial fractions are unique: over a field K holding every pole,
        the constant 1 and the functions (z - beta)^(-n) for distinct
        pairs (beta, n) are linearly independent in K(z), so a sum of
        atoms is the zero function iff its merged coefficients are zero;
        K is Q(lambda)(sqrt(D)) for the one non-square D a function may
        carry (`RPF.__init__`), or Q(lambda) when it has none;
      - every slashed atom is such a sum: the new pole rho = -d/c differs
        from beta' = M^(-1) beta, since M(rho) = infinity while
        M(beta') = beta is finite, so the binomial split is valid;
      - keys are unique per value: a pole beta is keyed by its canonical
        `ExtElem.key()`, whose V is 0 for values in Q(lambda) (square
        discriminants are folded), and with one D per function equal
        values have equal keys.
    Exact ExtElem arithmetic makes each zero test a proof.  When a
    relation fails, the even points 2, 4, 6, ... are walked as in
    `_sampled_verify` for the first witness; should that walk use up
    `_point_budget` without one, the two verifiers disagree, which is a
    bug, and AssertionError is raised rather than any answer."""
    checked = []
    for merged in _merged_relations(q):
        if not all(c.is_zero() for c in merged.values()):
            result = _sampled_verify(q)
            if result.valid:
                raise AssertionError("verifiers disagree")
            return result
        checked.append(len(merged))
    return VerifyResult(True, None, tuple(checked))


# ---------------------------------------------------------------------------
# the linear solver behind the general construction
# ---------------------------------------------------------------------------


def _gauss_jordan(p, rows, m):
    """Exact reduction of rows (coeffs, rhs) over the extension field.

    Returns None when inconsistent, else (solution with free coordinates
    zero, one direction per free coordinate)."""
    mat = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(m):
        sel = next(
            (i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None
        )
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(mat)):
        if not mat[i][m].is_zero():
            return None
    zero = _ext_of(p, 0)
    solution = [zero] * m
    for row_idx, col in enumerate(pivot_cols):
        solution[col] = mat[row_idx][m]
    free_cols = [c for c in range(m) if c not in pivot_cols]
    directions = []
    for f in free_cols:
        direction = [zero] * m
        direction[f] = _ext_of(p, 1)
        for row_idx, col in enumerate(pivot_cols):
            direction[col] = -mat[row_idx][f]
        directions.append(direction)
    return solution, directions


def build_ansatz(k, system, template):
    """Solve for the tail of the template attached to a pole system.

    template "symmetric" (for a self-conjugate system):

        sum over the system of [pp(alpha) - pp(alpha')] + tail

    template "nonsymmetric" (for a system with a distinct partner):

        sum over the system of pp(alpha)
        - sum over the partner system of pp(gamma') + tail

    where pp is `principal_part` of half-weight k and ' is the algebraic
    conjugate.  The tail coefficients c_1 .. c_(2k-1) solve the linear
    conditions that `verify` checks: the merged partial-fraction
    coefficients of both relations (`_merged_relations`) must vanish.
    Slashing and merging are linear, so at each key (pole value and order,
    or the constant) the merged coefficient of fixed + sum c_n z^(-n) is
    the fixed part's plus sum c_n times that of z^(-n), with 0 where a
    function lacks the key; each key of each relation gives one row.  By
    the uniqueness of partial fractions argued in `verify`, a tail
    satisfies every row iff the function satisfies both relations: the
    rows are the conditions themselves, and their number needs no bound
    of its own, unlike a count of sample points.  Returns the unique RPF, a SolutionFamily when tail coordinates
    remain free (expected at weight 2), or NoSolution when the conditions
    are inconsistent.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("the half-weight must be a positive integer")
    if template not in ("symmetric", "nonsymmetric"):
        raise DomainError('template must be "symmetric" or "nonsymmetric"')
    want_symmetric = template == "symmetric"
    if want_symmetric != system.symmetric:
        raise DomainError("the template does not match the system's symmetry")
    p = system.p
    poles = []
    for alpha in system.positives:
        poles += principal_part(k, alpha)
        if want_symmetric:
            poles += _scaled_part(k, alpha.conjugate(), -1)
    if not want_symmetric:
        partner = isp_of_word(system.conjugate_word)
        for gamma in partner.positives:
            poles += _scaled_part(k, gamma.conjugate(), -1)
    fixed = RPF(p, k, poles)
    m = 2 * k - 1
    basis = [RPF(p, k, (), None, [int(i == n) for i in range(m)]) for n in range(m)]
    zero = _ext_of(p, 0)
    rows = []
    for known, *cols in zip(*(_merged_relations(f) for f in [fixed] + basis)):
        for key in dict.fromkeys([*known, *(key for col in cols for key in col)]):
            rows.append(([col.get(key, zero) for col in cols], -known.get(key, zero)))
    solved = _gauss_jordan(p, rows, m)
    if solved is None:
        return NoSolution()
    solution, directions = solved
    # to_json prints the D tag of a value in Q(lambda), so a solved entry
    # over a square D is tagged 1, as the tail it solves for is
    solution, *directions = (
        [ExtElem(c.u, c.v, _one_ring(p)) if ring_sqrt(c.D) is not None else c for c in entries]
        for entries in (solution, *directions))
    base = RPF(p, k, fixed.pole_terms, None, solution)
    if not directions:
        return base
    family = tuple(RPF(p, k, (), None, d) for d in directions)
    return SolutionFamily(base, family)
