"""Binary quadratic forms over Z[lambda] and the matrix/form/fixed-point
correspondence.

A hyperbolic matrix [[a,b],[c,d]] owns the form [c, d-a, -b] (discriminant
trace^2 - 4) and the pair of fixed points (a-d +- sqrt(disc))/(2c), the
attracting one on the + branch once the trace is normalized positive. Forms
compose with matrices on the right, discriminant preserved; a form is
simple when its leading coefficient is positive and its trailing one
negative — equivalently its first root is positive and the conjugate root
negative, which is what makes the root a pole candidate for the rational
period functions downstream.
"""

from __future__ import annotations

from .cf import Parabolic, Surd, _fixed_point, _steps_matrix, cf_expand, is_parabolic_period, mobius_apply
from .field import DomainError, RingElem, poly_str, ring_div_exact, sign
from .group import Mat, classify, generator

__all__ = [
    "QForm",
    "form_of_matrix",
    "fixed_points",
    "act",
    "negate",
    "is_simple",
    "matrix_of_surd",
    "transpose_form_identity_check",
]


class QForm:
    """Binary quadratic form A x^2 + B xy + C y^2 with ring coefficients.

    Deliberately not content-normalized: the matrix correspondence is kept
    verbatim so that disc = trace^2 - 4 holds exactly."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        p = None
        for x in (A, B, C):
            if isinstance(x, RingElem):
                p = x.p
                break
        if p is None:
            raise DomainError("at least one form coefficient must be a RingElem")
        lift = lambda x: x if isinstance(x, RingElem) else RingElem.from_int(p, x)
        A, B, C = lift(A), lift(B), lift(C)
        if not (A.p == B.p == C.p):
            raise DomainError("mixed p in form coefficients")
        self.A, self.B, self.C = A, B, C

    @property
    def p(self):
        return self.A.p

    def disc(self) -> RingElem:
        return self.B * self.B - 4 * self.A * self.C

    def is_hyperbolic(self) -> bool:
        return sign(self.disc()) > 0

    def coefficients(self):
        return (self.A, self.B, self.C)

    def first_root(self) -> Surd:
        """The root (-B + sqrt(disc))/(2A)."""
        return Surd(-self.B, 2 * self.A, self.disc())

    def __eq__(self, other):
        if not isinstance(other, QForm):
            return NotImplemented
        if other.p != self.p:
            raise DomainError("mixed p in form comparison")
        return self.A == other.A and self.B == other.B and self.C == other.C

    def __hash__(self):
        return hash((self.A, self.B, self.C))

    def __repr__(self):
        parts = ", ".join(poly_str(x.coeffs, "λ") for x in (self.A, self.B, self.C))
        return f"QForm(p={self.p}, [{parts}])"

    def to_json_dict(self):
        return {
            "A": list(self.A.coeffs),
            "B": list(self.B.coeffs),
            "C": list(self.C.coeffs),
        }


def form_of_matrix(m: Mat) -> QForm:
    """The form [c, d-a, -b] of a hyperbolic matrix; its roots are the
    fixed points."""
    if classify(m) != "hyperbolic":
        raise DomainError("only hyperbolic matrices have hyperbolic forms")
    qf = QForm(m.c, m.d - m.a, -m.b)
    t = m.trace()
    assert qf.disc() == t * t - 4
    return qf


def _form_of_root(alpha: Surd) -> QForm:
    """The form [Q/2, -P, (P^2 - D)/(2Q)], of discriminant D, whose first
    root is alpha = (P + sqrt(D))/Q. Both divisions are exact for a matrix
    fixed point (a - d + sqrt(t^2 - 4))/(2c) and its lambda-translates."""
    P, Q = alpha.P, alpha.Q
    two = RingElem.from_int(alpha.p, 2)
    A, C = ring_div_exact(Q, two), ring_div_exact(P * P - alpha.D, two * Q)
    assert A is not None and C is not None, "root triple has no ring form"
    return QForm(A, -P, C)


def fixed_points(m: Mat):
    """(attracting, repelling) fixed points of a hyperbolic matrix; with
    the trace normalized positive the attracting point is the +sqrt branch
    (a - d + sqrt(trace^2 - 4)) / (2c)."""
    if classify(m) != "hyperbolic":
        raise DomainError("fixed-point surds exist only for hyperbolic matrices")
    if m.c.is_zero():
        raise DomainError("fixed point at infinity: matrix has c = 0")
    alpha = _fixed_point(m.entries())
    return alpha, alpha.conjugate()


def act(qf: QForm, m: Mat) -> QForm:
    """Right action (Q∘M)(x, y) = Q(ax + by, cx + dy); exact, discriminant
    preserved."""
    if qf.p != m.p:
        raise DomainError("mixed p in form action")
    A, B, C = qf.A, qf.B, qf.C
    a, b, c, d = m.a, m.b, m.c, m.d
    A2 = A * a * a + B * a * c + C * c * c
    B2 = 2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d
    C2 = A * b * b + B * b * d + C * d * d
    out = QForm(A2, B2, C2)
    assert out.disc() == qf.disc()
    return out


def negate(qf: QForm) -> QForm:
    """[-A, -B, -C]: same roots with their conjugacy roles swapped. No
    silent sign re-normalization — simplicity tests read the signs as-is."""
    return QForm(-qf.A, -qf.B, -qf.C)


def is_simple(qf: QForm) -> bool:
    """Leading coefficient positive and trailing negative; equivalently the
    first root is positive and its conjugate negative."""
    if not qf.is_hyperbolic():
        raise DomainError("simplicity is defined for hyperbolic forms")
    return sign(qf.A) > 0 and sign(qf.C) < 0


def matrix_of_surd(alpha: Surd) -> Mat:
    """A primitive hyperbolic matrix whose attracting fixed point is alpha,
    assembled from the CF expansion as V W V^{-1}."""
    cf = cf_expand(alpha)
    if is_parabolic_period(cf):
        raise Parabolic("parabolic CF period: the value is a cusp, not hyperbolic")
    p = alpha.p
    V = _steps_matrix(p, cf.preperiod)
    W = _steps_matrix(p, cf.period)
    m = V * W * V.inv()
    assert classify(m) == "hyperbolic"
    assert mobius_apply(m, alpha) == alpha, "constructed matrix does not fix its surd"
    return m


def transpose_form_identity_check(m: Mat) -> bool:
    """Exact check of the two transpose identities: the form of M-transpose is
    the negated form composed with the inversion generator, and the
    attracting point of M-transpose is the inversion applied to the
    conjugate fixed point."""
    if classify(m) != "hyperbolic":
        raise DomainError("transpose identities are about hyperbolic matrices")
    mt = m.transpose()
    T = generator(m.p, "T")
    forms_ok = form_of_matrix(mt) == negate(act(form_of_matrix(m), T))
    if m.c.is_zero() or m.b.is_zero():
        raise DomainError("degenerate transpose check: a fixed point sits at infinity")
    alpha, alpha_conj = fixed_points(m)
    alpha_t, _ = fixed_points(mt)
    points_ok = alpha_t == mobius_apply(T, alpha.conjugate())
    return forms_ok and points_ok
