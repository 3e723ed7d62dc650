"""Checks made apart from heckerpf.

Everything here works from the definitions, in mpmath at 50 or more digits
and with plain integer counting, on the serialized output of the program
(JSON dicts and printed text). No heckerpf object or function is used, so
a fault in the program cannot hide itself from these checks. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from math import gcd

import mpmath

DPS = 50
# residuals of 50-digit evaluations must vanish to this share of the
# largest term that went into them
REL_TOL = mpmath.mpf(10) ** -30


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def count_systems(p, n):
    """Pole systems with n positive poles: primitive necklaces of length n
    over the p-1 letters; for n = 1 the two parabolic letters drop out."""
    if n == 1:
        return p - 3
    total = sum(_mobius(d) * (p - 1) ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def _euler_phi(m):
    return sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)


def lam(p):
    return 2 * mpmath.cos(mpmath.pi / p)


def ring(coeffs, lv):
    """Value of an integer coefficient vector (constant first) at lambda."""
    acc = mpmath.mpf(0)
    for c in reversed(coeffs):
        acc = acc * lv + c
    return acc


def surd(d, lv, conj=False):
    """(P + sqrt(D)) / Q from a serialized surd {P, Q, D}; conj flips the root."""
    root = mpmath.sqrt(ring(d["D"], lv))
    return (ring(d["P"], lv) + (-root if conj else root)) / ring(d["Q"], lv)


def _field(d, lv):
    return ring(d["num"], lv) / d["den"]


def _ext(d, lv):
    return _field(d["u"], lv) + _field(d["v"], lv) * mpmath.sqrt(ring(d["D"], lv))


def _mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
         a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
    )


def _generators(p, lv):
    """Class generators U^(j-1) S, j = 1..p-1, with S: z -> z + lambda and
    U = S T, T: z -> -1/z, as (a, b, c, d)."""
    S = (mpmath.mpf(1), lv, mpmath.mpf(0), mpmath.mpf(1))
    U = (lv, mpmath.mpf(-1), mpmath.mpf(1), mpmath.mpf(0))
    gens, power = {}, (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1))
    for j in range(1, p):
        gens[j] = _mul(power, S)
        power = _mul(power, U)
    return gens


def rotation_fixed_points(p, letters, lv):
    """Attracting fixed point of the word matrix of every cyclic rotation of
    the word, and tr^2 - 4 of the class. Rotating g1 g2 .. gn to
    g2 .. gn g1 conjugates by g1, so each next point is g1^-1 of the last."""
    gens = _generators(p, lv)
    m = (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1))
    for j in letters:
        m = _mul(m, gens[j])
    a, b, c, d = m
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
    disc = (a + d) ** 2 - 4
    x = (a - d + mpmath.sqrt(disc)) / (2 * c)
    points = []
    for j in letters:
        points.append(x)
        ga, gb, gc, gd = gens[j]
        x = (gd * x - gb) / (-gc * x + ga)
    return points, disc


def _close(x, y, scale=1):
    return abs(x - y) <= REL_TOL * max(1, abs(scale), abs(x), abs(y))


def check_system(p, letters, system):
    """A serialized pole system of the class with these letters: n positive
    poles alpha > 0 > alpha', one shared D = tr(M)^2 - 4, pairwise
    distinct, and equal as a set to the attracting fixed points of the
    rotations of the word matrix."""
    with mpmath.workdps(DPS):
        lv = lam(p)
        out = []
        pos = system["positives"]
        if len(pos) != len(letters):
            out.append(f"{len(pos)} positive poles for a word of length {len(letters)}")
        if any(a["D"] != system["D"] for a in pos):
            out.append("poles do not share the system discriminant")
        want, disc = rotation_fixed_points(p, letters, lv)
        if not _close(ring(system["D"], lv), disc, disc):
            out.append("D differs from tr(M)^2 - 4")
        vals = []
        for a in pos:
            v, w = surd(a, lv), surd(a, lv, conj=True)
            if not v > 0 > w:
                out.append(f"pole {a} is not simple: alpha={mpmath.nstr(v, 12)} alpha'={mpmath.nstr(w, 12)}")
            vals.append(v)
        vals.sort()
        if any(_close(x, y) for x, y in zip(vals, vals[1:])):
            out.append("two poles coincide")
        want.sort()
        if len(vals) == len(want) and not all(_close(x, y) for x, y in zip(vals, want)):
            out.append("poles differ from the fixed points of the word's rotations")
        return out


def check_decimal(value_fn, printed, digits):
    """printed must be floor(x * 10^digits) / 10^digits, written out; value_fn
    gives x at the working precision."""
    with mpmath.workdps(digits + 100):
        scaled = value_fn() * mpmath.mpf(10) ** digits
        want = int(mpmath.nint(scaled))
        if abs(scaled - want) > mpmath.mpf(10) ** -70:
            want = int(mpmath.floor(scaled))
        # else the value sits on the grid: a rational pole (square D) whose
        # decimal expansion ends; a quadratic irrational of these heights
        # cannot come within 10^-70 of it
    neg = printed.startswith("-")
    body = printed[1:] if neg else printed
    head, _, tail = body.partition(".")
    if len(tail) != digits or not head.isdigit() or not tail.isdigit():
        return [f"decimal {printed[:40]}... is not written to {digits} places"]
    got = int(head + tail)
    if (-got if neg else got) != want:
        return [f"decimal {printed[:40]}... is not the floor at {digits} places"]
    return []


def check_cf(p, letters, reduced, decimal, digits):
    """The reduced number of a class sits one lambda above the attracting
    fixed point of the word matrix, and its decimal is the certified floor."""
    with mpmath.workdps(DPS):
        lv = lam(p)
        points, _ = rotation_fixed_points(p, letters, lv)
        out = []
        if not _close(surd(reduced, lv) - lv, points[0]):
            out.append("reduced number is not one lambda above the word's fixed point")
    return out + check_decimal(lambda: surd(reduced, lam(p)), decimal, digits)


def check_minpoly(p, coeffs):
    """Monic, of degree phi(2p)/2, with 2cos(pi/p) as a root."""
    out = []
    if coeffs[-1] != 1:
        out.append("minimal polynomial is not monic")
    if len(coeffs) - 1 != _euler_phi(2 * p) // 2:
        out.append(f"degree {len(coeffs) - 1} is not phi(2p)/2")
    with mpmath.workdps(DPS):
        lv = lam(p)
        scale = sum(abs(c) * abs(lv) ** i for i, c in enumerate(coeffs))
        if abs(ring(coeffs, lv)) > REL_TOL * scale:
            out.append("2cos(pi/p) is not a root")
    return out


def _rpf_value(q, lv, z):
    """q(z) for a serialized function, with the largest term's size."""
    total, big = mpmath.mpf(0), mpmath.mpf(0)
    for t in q["pole_terms"]:
        term = _ext(t["coeff"], lv) / (z - surd(t["alpha"], lv)) ** t["order"]
        total += term
        big = max(big, abs(term))
    k = q["k"]
    a0 = _ext(q["zero_part"]["a0"], lv)
    b1 = _ext(q["zero_part"]["b1"], lv)
    terms = [a0, -a0 * z ** (-2 * k), b1 / z]
    terms += [_ext(c, lv) * z ** (-n) for n, c in enumerate(q["tail"], start=1)]
    for term in terms:
        total += term
        big = max(big, abs(term))
    return total, big


def rpf_residuals(q, z):
    """Both relations of weight 2k at z, each as (residual, largest term):
        q(z) + z^(-2k) q(-1/z)
        sum over j < p of (c_j z + d_j)^(-2k) q(U^j z)."""
    p, k = q["p"], q["k"]
    lv = lam(p)
    v, big = _rpf_value(q, lv, z)
    w, big_w = _rpf_value(q, lv, -1 / z)
    inv = (v + z ** (-2 * k) * w, max(big, big_w * abs(z) ** (-2 * k)))
    U = (lv, mpmath.mpf(-1), mpmath.mpf(1), mpmath.mpf(0))
    m = U
    total, top = v, big
    for _ in range(1, p):
        a, b, c, d = m
        den = c * z + d
        val, big_j = _rpf_value(q, lv, (a * z + b) / den)
        total += den ** (-2 * k) * val
        top = max(top, big_j * abs(den) ** (-2 * k))
        m = _mul(m, U)
    return inv, (total, top)


def check_rpf(q, points):
    """A serialized function satisfies both relations at the given points
    (Fractions)."""
    out = []
    with mpmath.workdps(DPS):
        for x in points:
            z = mpmath.mpf(x.numerator) / x.denominator
            for name, (res, top) in zip(("inversion", "rotation"), rpf_residuals(q, z)):
                if abs(res) > REL_TOL * max(1, top):
                    out.append(f"{name} residual {mpmath.nstr(res, 5)} at z={x}")
    return out
