"""LaTeX for everything the package prints: field and extension values,
quadratic surds, lambda continued fractions, rational period functions and
their solution families.

`field.poly_latex` renders the terms of a ring element.  Every printed sum
goes through one joiner, `_sum`, which turns a rendered term's own leading
"-" into the minus gap.  A pole term or form power c / denom goes through
one rule, `_over`, which puts the sign of c in front of the fraction (a tail
entry keeps its sign on top, as the pinned outputs print it).  Signs are
read off the values (the coefficient that `poly_latex` prints first), so
exactly one of c and -c renders with a leading minus.  A factor printed in
front of another is bracketed when it is a sum.
"""

from __future__ import annotations

from .field import poly_latex, sign

__all__ = ["cf_latex", "family_latex", "surd_latex", "to_latex"]


def _lead(coeffs) -> int:
    """The coefficient that `poly_latex` prints first: it carries the sign."""
    return next((c for c in reversed(coeffs) if c), 0)


def _nonzero(coeffs) -> int:
    return sum(map(bool, coeffs))


def _wrap(body: str, is_sum) -> str:
    return r"\left(%s\right)" % body if is_sum else body


def _sum(chunks, minus=" -") -> str:
    """The rendered terms joined by " + ", or by `minus` in place of a
    term's own leading "-"."""
    out = chunks[0] if chunks else "0"
    for c in chunks[1:]:
        out += minus + c[1:] if c.startswith("-") else " + " + c
    return out


def _frac(neg, top, bottom) -> str:
    return r"%s\frac{%s}{%s}" % ("-" if neg else "", top, bottom)


def _field(x) -> str:
    """A FieldElem num / den."""
    if x.den == 1:
        return poly_latex(x.num.coeffs)
    neg = _lead(x.num.coeffs) < 0
    return _frac(neg, poly_latex((-x.num if neg else x.num).coeffs), x.den)


def _ext(x) -> str:
    """An ExtElem u + v sqrt(D); a v other than +-1 is a factor in front of
    the radical, its sign moved in front of both."""
    if not any(x.V):
        return _field(x.u)
    v, neg = x.v, _lead(x.V) < 0
    v = -v if neg else v
    part = r"\sqrt{%s}" % poly_latex(x.D.coeffs)
    if v != 1:
        factor = _wrap(_field(v), v.den == 1 and _nonzero(v.num.coeffs) > 1)
        part = r"%s \cdot %s" % (factor, part)
    chunks = [_field(x.u)] if any(x.U) else []
    return _sum(chunks + [("-" if neg else "") + part])


def _over(c, denom: str) -> str:
    """The ExtElem c over denom, the sign of c in front of the fraction."""
    neg = _lead(c.U if any(c.U) else c.V) < 0
    return _frac(neg, _ext(-c if neg else c), denom)


def _times(c, body: str, gap: str) -> str:
    """c body for an ExtElem c: left out when it is 1, bracketed when it is
    a sum (u and v both nonzero, or a ring element of two or more terms)."""
    if c == 1:
        return body
    is_sum = any(c.U) and any(c.V) or c.den == 1 and _nonzero(c.U) > 1
    return _wrap(_ext(c), is_sum) + gap + body


def _power(body: str, n: int) -> str:
    return r"\left(%s\right)^{%d}" % (body, n) if n > 1 else body


def _surd(alpha):
    """(P + sqrt(D)) / Q as (negative, magnitude), the sign of Q moved to
    the top: a pure radical hoists it, a top that is a sum takes it in."""
    flip = sign(alpha.Q) < 0
    numer, denom = (-alpha.P, -alpha.Q) if flip else (alpha.P, alpha.Q)
    top = r"\sqrt{%s}" % poly_latex(alpha.D.coeffs)
    neg = flip and numer.is_zero()
    if not numer.is_zero():
        top = _sum([poly_latex(numer.coeffs), ("-" if flip else "") + top], " - ")
    if denom == 1:
        return neg, _wrap(top, not numer.is_zero())
    return neg, _frac(False, top, poly_latex(denom.coeffs))


def surd_latex(alpha) -> str:
    """LaTeX for the Surd (P + sqrt(D)) / Q, with the sign of Q moved to the top."""
    neg, body = _surd(alpha)
    return "-" + body if neg else body


def _pole(alpha) -> str:
    """z - alpha with the sign of alpha folded into the gap; a square
    discriminant prints the pole's field value, so -1 gives z + 1.  A field
    value whose numerator is a sum is bracketed."""
    folded = alpha.folded_value()
    if folded is None:
        neg, body = _surd(alpha)
    else:
        neg = _lead(folded.num.coeffs) < 0
        folded = -folded if neg else folded
        body = _wrap(_field(folded), _nonzero(folded.num.coeffs) > 1)
    return "z %s %s" % ("+" if neg else "-", body)


def _form(f) -> str:
    """A z^2 + B z + C: a coefficient that is a sum is bracketed before a
    power of z, and a constant splices its terms into the sum."""
    chunks = []
    for ring, power in ((f.A, "z^{2}"), (f.B, "z"), (f.C, "")):
        if ring.is_zero():
            continue
        body = poly_latex(ring.coeffs)
        if power:
            body = _wrap(body, _nonzero(ring.coeffs) > 1)
            body = body[:-1] + power if body in ("1", "-1") else body + " " + power
        chunks.append(body)
    return _sum(chunks, " - ")


def to_latex(q) -> str:
    """Deterministic LaTeX for the RPF q.

    Functions produced by the form-power builders print in the compact
    shape  s / (A z^2 + B z + C)^k;  everything else prints as explicit
    pole terms.  The zero part and the tail c z^(-n) = c / z^n follow.
    """
    if q._forms is not None:
        chunks = [_over(s, _power(_form(f), q.k)) for s, f in q._forms]
    else:
        chunks = [_over(t.coeff, _power(_pole(t.alpha), t.order)) for t in q.pole_terms]
    a0, b1 = q.zero_part
    if not a0.is_zero():
        chunks.append(_times(a0, r"\left(1 - z^{-%d}\right)" % (2 * q.k), " "))
    if not b1.is_zero():
        chunks.append(_times(b1, "z^{-1}", r" \, "))
    for n, c in enumerate(q.tail, start=1):
        if not c.is_zero():  # a tail entry keeps its sign on top, as pinned
            chunks.append(_frac(False, _ext(c), "z" if n == 1 else "z^{%d}" % n))
    return _sum(chunks)


def family_latex(family) -> str:
    """basepoint + t_1 [direction 1] + ... for a SolutionFamily."""
    return _sum([to_latex(family.basepoint)] + [
        r"t_{%d} \left[ %s \right]" % (i, to_latex(d))
        for i, d in enumerate(family.directions, start=1)])


def cf_latex(expansion) -> str:
    """[preperiod, \\overline{period}] for a CF expansion."""
    pre = "".join(f"{r}, " for r in expansion.preperiod)
    return r"\left[%s\overline{%s}\right]" % (pre, ", ".join(map(str, expansion.period)))
