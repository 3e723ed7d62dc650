"""Tests for the exact arithmetic tower: ring, field, quadratic extension,
certified signs, square detection, decimal rendering."""

import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import sympy

from heckerpf import field
from heckerpf.cf import Surd, floor_over_lambda
from heckerpf.field import (
    DomainError,
    ExtElem,
    FieldElem,
    RingElem,
    ZeroDivisor,
    conjugate_intervals,
    decimal_of,
    fold_square,
    lambda_elem,
    lambda_interval,
    minimal_polynomial,
    poly_latex,
    poly_str,
    ring_sqrt,
    sign,
)

mp.mp.dps = 60


def mp_lambda(p, k=1):
    return 2 * mp.cos(mp.pi * k / p)


def mp_ring(x):
    """Embed a ring element at the principal real place, via mpmath."""
    lam = mp_lambda(x.p)
    acc = mp.mpf(0)
    for c in reversed(x.coeffs):
        acc = acc * lam + c
    return acc


def mp_ext(x):
    val = mp_ring(x.u.num) / x.u.den
    if not x.v.is_zero():
        val += (mp_ring(x.v.num) / x.v.den) * mp.sqrt(mp_ring(x.D))
    return val


def fib_pair(n):
    """(F_n, F_(n+1)), Fibonacci numbers."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


def rand_ring(rng, p):
    d = minimal_polynomial(p).degree
    return RingElem(p, [rng.randint(-9, 9) for _ in range(d)])


def test_minimal_polynomial_known_values():
    assert minimal_polynomial(3).coeffs == (-1, 1)
    assert minimal_polynomial(4).coeffs == (-2, 0, 1)
    assert minimal_polynomial(5).coeffs == (-1, -1, 1)
    assert minimal_polynomial(6).coeffs == (-3, 0, 1)
    assert minimal_polynomial(7).coeffs == (1, -2, -1, 1)
    assert minimal_polynomial(8).coeffs == (2, 0, -4, 0, 1)


def test_minimal_polynomial_degree_and_root():
    # degree phi(2p)/2, monic, and 2cos(pi/p) really is a root
    for p in range(3, 21):
        m = minimal_polynomial(p)
        assert m.degree == sympy.totient(2 * p) // 2
        assert m.coeffs[-1] == 1
        val = mp.mpf(0)
        lam = mp_lambda(p)
        for c in reversed(m.coeffs):
            val = val * lam + c
        assert abs(val) < mp.mpf(10) ** -40


def test_minimal_polynomial_rejects_bad_p():
    for bad in (2, 1, 0, -5):
        try:
            minimal_polynomial(bad)
            assert False, f"p={bad} accepted"
        except DomainError:
            pass


def test_ring_examples():
    lam6 = lambda_elem(6)
    assert lam6 * lam6 == 3
    lam5 = lambda_elem(5)
    assert lam5 * lam5 == lam5 + 1
    lam4 = lambda_elem(4)
    assert (lam4 + 1) * (lam4 - 1) == 1


def test_ring_mixed_p_rejected():
    a = lambda_elem(5)
    b = lambda_elem(6)
    for op in (lambda: a + b, lambda: a * b, lambda: a - b, lambda: a == b):
        try:
            op()
            assert False, "mixed-p operation accepted"
        except DomainError:
            pass


def test_ring_axioms_random():
    rng = random.Random(20260816)
    for p in (3, 4, 5, 6, 7, 8, 12):
        for _ in range(25):
            a, b, c = (rand_ring(rng, p) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - a == 0
            assert a * 1 == a
            # embedding respects the arithmetic
            assert abs(mp_ring(a * b) - mp_ring(a) * mp_ring(b)) < mp.mpf(10) ** -30


def test_ring_pow_and_content():
    rng = random.Random(7)
    for p in (5, 7):
        a = rand_ring(rng, p)
        assert a**3 == a * a * a
        assert a**0 == 1
    assert RingElem(6, (4, 6)).content() == 2
    assert RingElem.from_int(6, 0).content() == 0


def test_field_canonical_form():
    lam6 = lambda_elem(6)
    x = FieldElem(2 * lam6 + 4, -6)
    assert x.den == 3
    assert x.num == -(lam6 + 2)
    assert FieldElem.from_int(5, 0).den == 1


def test_field_arithmetic_random():
    rng = random.Random(99)
    for p in (3, 4, 5, 6, 7):
        for _ in range(15):
            a = FieldElem(rand_ring(rng, p), rng.randint(1, 12))
            b = FieldElem(rand_ring(rng, p), rng.randint(1, 12))
            if not b.is_zero():
                assert (a / b) * b == a
            assert a - a == 0
            assert (a + b) - b == a
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            assert (a + q) - a == q


def test_field_division_by_zero():
    lam5 = lambda_elem(5)
    try:
        FieldElem(lam5) / FieldElem.from_int(5, 0)
        assert False
    except ZeroDivisionError:
        pass


def test_ring_inverse_examples():
    lam5 = lambda_elem(5)
    assert 1 / lam5 == FieldElem(lam5 - 1)  # golden ratio: 1/lam = lam - 1
    lam4 = lambda_elem(4)
    assert 1 / lam4 == FieldElem(lam4, 2)
    lam7 = lambda_elem(7)
    inv = 1 / (lam7 + 2)
    assert inv * (lam7 + 2) == 1
    # zero pivots: 1/lam5 above has one at the first elimination step (zero
    # constant coefficient), lambda^2 - 2 at p=7 has one at the second
    assert 1 / (lam7 * lam7 - 2) * (lam7 * lam7 - 2) == 1
    rng = random.Random(20261018)
    for p in range(3, 16):
        d = minimal_polynomial(p).degree
        for size in (1, 9, 10**4, 10**12):
            for _ in range(8):
                a = RingElem(p, [rng.randint(-size, size) for _ in range(d)])
                if a.is_zero():
                    continue
                inv = 1 / a
                assert FieldElem(a) * inv == 1
                assert inv.den > 0 and gcd(inv.num.content(), inv.den) == 1
        try:
            1 / RingElem.from_int(p, 0)
            assert False, "inverse of zero accepted"
        except ZeroDivisionError:
            pass


def test_sign_examples(own_root_brackets):
    lam6 = lambda_elem(6)
    assert sign(lam6 - 1) == 1
    assert sign(lam6 - 2) == -1
    lam5 = lambda_elem(5)
    assert sign(lam5 * lam5 - lam5 - 1) == 0
    assert sign(FieldElem(lam5 - 2, 7)) == -1
    D2 = RingElem.from_int(4, 2)
    assert sign(ExtElem(0, 1, D2)) == 1
    assert sign(ExtElem(1, -1, D2)) == -1
    assert sign(ExtElem(2, -1, RingElem.from_int(4, 4))) == 0  # 2 - sqrt(4)
    # past 8192 bits: at p=5 lambda is the golden ratio phi, and
    # F_12001 - F_12000 * phi = phi^-12000 is about 2^-8331
    f0, f1 = fib_pair(12000)
    assert sign(RingElem(5, (f1, -f0))) == 1
    # L_n - F_n * sqrt5 = 2 (-1/phi)^n
    for n in (12000, 12001):
        fn, fn1 = fib_pair(n)
        assert sign(ExtElem(2 * fn1 - fn, -fn, RingElem.from_int(3, 5))) == (-1) ** n


def test_sign_matches_embedding():
    rng = random.Random(31415)
    for p in (3, 4, 5, 6, 7, 8):
        for _ in range(30):
            a = rand_ring(rng, p)
            s = sign(a)
            v = mp_ring(a)
            if s == 0:
                assert a.is_zero()
            else:
                assert v * s > 0
            b = rand_ring(rng, p)
            assert sign(a * b) == sign(a) * sign(b)
    # u + v*sqrt(D) with D = r^2 + c*lambda, c >= 0, and u = +-v*r plus a
    # perturbation that is often 0: on or near the diagonal u^2 = v^2 D
    seen = set()
    for p in (3, 4, 5, 6, 7, 8):
        lam = lambda_elem(p)
        for _ in range(40):
            r = rand_ring(rng, p)
            D = r * r + rng.choice((0, 0, 1, 2)) * lam
            v = FieldElem(rand_ring(rng, p), rng.randint(1, 9))
            e = FieldElem(rand_ring(rng, p), rng.randint(1, 99)) if rng.random() < 0.5 else 0
            x = ExtElem(rng.choice((1, -1)) * v * r + e, v, D)
            s = sign(x)
            val = mp_ext(x)
            if s == 0:
                assert abs(val) < mp.mpf(10) ** -40
            else:
                assert val * s > 0
            seen.add((s, x.u * x.u == x.v * x.v * FieldElem(D)))
    assert seen == {(s, diag) for s in (-1, 0, 1) for diag in (True, False)} - {(0, False)}


def test_lambda_interval():
    for p in (3, 4, 5, 6, 7, 8, 11):
        iv = lambda_interval(p, 200)
        assert iv.width() <= Fraction(1, 2**200)
        v = mp_lambda(p)
        assert mp.mpf(float(iv.lo)) - 1e-15 <= v <= mp.mpf(float(iv.hi)) + 1e-15
        # exact containment check via rationals
        assert iv.lo <= Fraction(str(mp.nstr(v, 40))) + Fraction(1, 10**35)


def test_conjugate_intervals():
    import math

    for p in (4, 5, 6, 7, 8, 9):
        ivs = conjugate_intervals(p, 100)
        assert len(ivs) == minimal_polynomial(p).degree
        ks = [k for k in range(1, p) if math.gcd(k, 2 * p) == 1]
        vals = sorted((float(mp_lambda(p, k)) for k in ks), reverse=True)
        for iv, v in zip(ivs, vals):
            assert float(iv.lo) - 1e-12 <= v <= float(iv.hi) + 1e-12


def _bracket_fails(p, order):
    """What is wrong with the root brackets of p, with the enclosures asked
    for at the precisions of `order` one after another. Each read must be
    the bracket of the largest precision asked so far."""
    mp_ = minimal_polynomial(p)
    n = mp_.degree
    fails, finest = [], 0
    for bits in order:
        finest = max(finest, bits)
        ivs = conjugate_intervals(p, bits)
        assert ivs[0].lo == lambda_interval(p, bits).lo
        for i, iv in enumerate(ivs):
            # den^n f(num/den), which has the sign of f(num/den)
            f_lo, f_hi = (
                sum(c * x.numerator**j * x.denominator ** (n - j) for j, c in enumerate(mp_.coeffs))
                for x in (iv.lo, iv.hi)
            )
            if n == 1:
                ok = iv.lo == iv.hi and f_lo == 0
            else:
                # the i-th root from the top has f of sign (-1)^i just above it
                up = (-1) ** i
                ok = (
                    f_hi * up > 0
                    and f_lo * up < 0
                    and Fraction(1, 2 ** (finest + 1)) < iv.width() <= Fraction(1, 2**finest)
                )
            for end in (iv.lo, iv.hi):
                den = end.denominator
                ok = ok and den & (den - 1) == 0 and den <= 2 ** (finest + 2)
            if not ok:
                fails.append((p, order, bits, i))
    return fails


def test_root_brackets_certified_in_any_order(own_root_brackets):
    # Newton and halving steps keep dyadic brackets whose ends straddle the
    # root; a read returns the bracket of the finest precision asked so far
    rng = random.Random(2026)
    fails = []
    for p in range(3, 31):
        for order in ((64, 1280, 4096), tuple(rng.sample((64, 1280, 4096), 3))):
            with field._roots_lock:
                field._roots_cache.pop(p, None)
            fails += _bracket_fails(p, order)
    assert not fails


def test_decisions_after_deep_refinement_match_mpmath(own_root_brackets):
    # lambda's brackets refined to 4096 bits are rounded to each decision's
    # own precision; the answers must not change. x = round(2^k lambda^j) -
    # 2^k lambda^j cancels about k bits, so each decision needs k + bits.
    rng = random.Random(4096)
    checked = 0
    for p in range(4, 31):
        conjugate_intervals(p, 4096)
        d = minimal_polynomial(p).degree
        e = lambda_elem(p) + 3
        for k in (40, 150, 400):
            j, m = rng.randrange(1, d + 2) | 1, rng.randint(1, 9)  # odd j: lambda^j is irrational
            with mp.workdps(k // 3 + 80):
                lam, root = mp_lambda(p), mp.sqrt(mp_ring(e))
                n = int(mp.nint(2**k * lam**j))
                x = RingElem.from_int(p, n) - (2**k) * lambda_elem(p) ** j
                # alpha = P/2^k + sqrt(e) sits within 2^-k of m*lambda
                P = RingElem.from_int(p, int(mp.nint(2**k * (m * lam - root))))
                alpha = Surd(P, RingElem.from_int(p, 2**k), e * 4**k)
                a_val = mp_ring(P) / 2**k + root
                x_val = mp_ring(x)
                assert abs(x_val) > mp.mpf(2) ** -40
                assert sign(x) == (1 if x_val > 0 else -1), (p, k, j)
                assert (alpha < m * lambda_elem(p)) == (a_val < m * lam), (p, k, m)
                assert (Surd.from_field(FieldElem(x)) > alpha) == (x_val > a_val)
                assert floor_over_lambda(alpha) == int(mp.floor(a_val / lam)), (p, k, m)
                digits = k // 4
                want = int(mp.floor(a_val * 10**digits))
                got = alpha.decimal(digits)
                assert int(got.replace(".", "")) == want, (p, k, m)
                checked += 1
    assert checked == 27 * 3


def test_enclosures_hold_exact_values(own_root_brackets):
    # outward rounding on lambda's 4096-bit brackets rounded to bits + guard:
    # a rational value on or next to an end, or a square root checked by
    # squaring the ends, shows an inward rounding of one unit. lambda^2 - 2 = sqrt(3) at p = 12
    # takes Horner steps that round products.
    ps = (3, 4, 5, 7, 12)
    for p in ps:
        conjugate_intervals(p, 4096)
    exact = [(x, x.as_fraction()) for p in ps for x in (
        FieldElem.from_int(p, 3), FieldElem(RingElem.from_int(p, -1), 4),
        FieldElem(RingElem.from_int(p, 1), 3))]
    exact += [(Surd.make(p, 1, 4, 9), 1) for p in ps]
    roots = [(Surd.make(p, 0, q, 2), 2) for p in ps for q in (1, -1)]
    roots += [(lambda_elem(4), 2), (lambda_elem(12) ** 2 - 2, 3)]
    for bits in (64, 128, 300):
        for x, value in exact:
            iv = x.interval(bits)
            assert iv.lo <= value <= iv.hi, (x, bits)
        for x, square in roots:
            iv = x.interval(bits)
            assert iv.lo * iv.hi > 0, (x, bits)
            assert min(iv.lo ** 2, iv.hi ** 2) <= square <= max(iv.lo ** 2, iv.hi ** 2), (x, bits)
    # Horner at a single dyadic point in [-1, 1], of either sign, against
    # the exact value: a step scales the width by |x| <= 1 and its floor and
    # ceiling add less than two units
    rng = random.Random(65)
    for _ in range(200):
        coeffs = [rng.randint(-99, 99) for _ in range(rng.randint(2, 8))]
        s = rng.choice((8, 40, 100))
        m = rng.randint(-(1 << s), 1 << s)
        iv = field._horner_ball(coeffs, field.RealInterval(m, m, s))
        value = sum(c * Fraction(m, 1 << s) ** i for i, c in enumerate(coeffs))
        assert iv.lo <= value <= iv.hi and iv.width() < Fraction(2 * len(coeffs), 1 << s)


def test_ext_examples():
    D2 = RingElem.from_int(4, 2)
    one = ExtElem(1, 1, D2) * ExtElem(-1, 1, D2)
    assert one == 1
    # golden ratio at p=3 with D=5
    D5 = RingElem.from_int(3, 5)
    phi = ExtElem(Fraction(1, 2), Fraction(1, 2), D5)
    assert phi.inverse() == ExtElem(Fraction(-1, 2), Fraction(1, 2), D5)
    assert phi * phi == phi + 1


def test_ext_zero_divisor_witness():
    D4 = RingElem.from_int(4, 4)
    z = ExtElem(2, -1, D4)
    try:
        z.inverse()
        assert False, "zero divisor inverted"
    except ZeroDivisor as e:
        assert e.witness == 2
        assert fold_square(z).is_zero()


def test_ext_mixed_discriminants_rejected():
    D2 = RingElem.from_int(4, 2)
    D3 = RingElem.from_int(4, 3)
    a = ExtElem(0, 1, D2)
    b = ExtElem(0, 1, D3)
    try:
        a + b
        assert False
    except DomainError:
        pass
    # scalars retag freely
    assert ExtElem(5, 0, D2) + b == ExtElem(5, 1, D3)


def test_ext_random_identities():
    rng = random.Random(777)
    for p in (3, 4, 5, 6):
        lam = lambda_elem(p)
        D = lam + 2  # positive non-square-ish; fine either way for identities
        for _ in range(15):
            u = FieldElem(rand_ring(rng, p), rng.randint(1, 9))
            v = FieldElem(rand_ring(rng, p), rng.randint(1, 9))
            x = ExtElem(u, v, D)
            assert x * x.conj() == ExtElem(x.norm(), 0, D)
            if not x.is_zero() and not x.norm().is_zero():
                assert x * x.inverse() == 1
            assert abs(mp_ext(x * x) - mp_ext(x) ** 2) < mp.mpf(10) ** -25


def _canonical(x):
    return x.den > 0 and gcd(x.den, *x.U, *x.V) == 1


def test_ext_standard_representation_matches_field_pairs():
    # + - * / inverse and norm on the integer vectors (U, V) over den agree
    # with the same formulas on FieldElem pairs (u, v), over a non-square D
    # and two squares, and every result is canonical
    rng = random.Random(16)
    for p in range(3, 16):
        lam = lambda_elem(p)
        for D in (lam + 2, RingElem.from_int(p, 4), (lam + 1) * (lam + 1)):
            Df = FieldElem(D)

            def rand():
                v = FieldElem(rand_ring(rng, p), rng.randint(1, 12)) if rng.random() < 0.7 else 0
                return FieldElem(rand_ring(rng, p), rng.randint(1, 12)), FieldElem.lift(p, v)

            for _ in range(4):
                a, b = rand(), rand()
                x, y = ExtElem(*a, D), ExtElem(*b, D)
                norm = b[0] * b[0] - b[1] * b[1] * Df
                want = [
                    (x + y, (a[0] + b[0], a[1] + b[1])),
                    (x - y, (a[0] - b[0], a[1] - b[1])),
                    (x * y, (a[0] * b[0] + a[1] * b[1] * Df, a[0] * b[1] + a[1] * b[0])),
                    (x * 3 - 2, (a[0] * 3 - 2, a[1] * 3)),
                    (-x, (-a[0], -a[1])),
                ]
                if not norm.is_zero():
                    inv = (b[0] / norm, -b[1] / norm)
                    want += [(y.inverse(), inv),
                             (x / y, (a[0] * inv[0] + a[1] * inv[1] * Df, a[0] * inv[1] + a[1] * inv[0]))]
                for got, (u, v) in want:
                    assert got.u == u and got.v == v and got.D is D and _canonical(got)
                assert y.norm() == norm


def test_ext_key_is_equal_exactly_for_equal_values():
    rng = random.Random(17)
    for p in (3, 4, 5, 7, 9):
        lam = lambda_elem(p)
        D = lam + 2
        pool = [ExtElem(FieldElem(lam * rng.randint(-2, 2) + rng.randint(-2, 2), rng.randint(1, 3)),
                        Fraction(rng.randint(-1, 1), rng.randint(1, 2)), D) for _ in range(12)]
        # the same values built another way: scaled, summed and divided back
        pool += [(x * 6 + ExtElem(0, 1, D)) / 6 - ExtElem(0, Fraction(1, 6), D) for x in pool[:6]]
        for x in pool:
            assert _canonical(x)
            for y in pool:
                assert (x.key() == y.key()) == (x == y)
        # a value in Q(lambda) keys alike under any D tag
        assert ExtElem(lam, 0, D).key() == ExtElem(lam, 0, RingElem.from_int(p, 1)).key()


def test_ext_mixed_tags_and_witness():
    D2, D3 = RingElem.from_int(4, 2), RingElem.from_int(4, 3)
    b = ExtElem(0, 1, D3)
    # a value with v = 0 takes the other operand's tag; two such keep the left one
    assert (ExtElem(5, 0, D2) + b).D is D3 and (b * ExtElem(5, 0, D2)).D is D3
    assert (ExtElem(5, 0, D2) - ExtElem(1, 0, D3)).D is D2
    # 3 = lambda^2 at p = 6: lambda - sqrt(3) is a zero divisor with witness lambda
    lam6 = lambda_elem(6)
    try:
        ExtElem(FieldElem(lam6), -1, RingElem.from_int(6, 3)).inverse()
        assert False, "zero divisor inverted"
    except ZeroDivisor as e:
        assert e.witness == FieldElem(lam6)


def test_equal_values_hash_equal():
    assert len({2, FieldElem.from_int(5, 2), ExtElem(2, 0, RingElem.from_int(5, 3))}) == 1
    rng = random.Random(18)
    for p in (3, 4, 5, 7):
        lam = lambda_elem(p)
        D = lam + 2

        def rand():
            q = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            num = RingElem(p, [q.numerator, rng.choice((0, 0, 1))])
            kind = rng.randrange(5)
            if kind == 0:
                return q.numerator if q.denominator == 1 else q
            if kind == 1:
                return q
            if kind == 2:
                return FieldElem(num, q.denominator)
            # the tag is any equal D, or any D at all when v = 0
            tag = RingElem(p, D.coeffs) if rng.random() < 0.5 else D
            return ExtElem(FieldElem(num, q.denominator), rng.choice((0, 0, 1)) if kind == 4 else 0,
                           tag if kind == 4 else RingElem.from_int(p, rng.randint(1, 9)))

        values = [rand() for _ in range(40)]
        equal = 0
        for x in values:
            for y in values:
                if x == y:
                    equal += 1
                    assert hash(x) == hash(y), (x, y)
        assert equal > 2 * len(values)


def test_fold_square_folds_squares():
    D4 = RingElem.from_int(4, 4)
    root = fold_square(ExtElem(0, 1, D4))
    assert root == 2 and root.v.is_zero() and root.D is D4  # the D tag stays
    assert fold_square(ExtElem(2, -1, D4)).is_zero()
    lam6 = lambda_elem(6)
    D3 = RingElem.from_int(6, 3)  # 3 = lambda^2 at p=6
    assert fold_square(ExtElem(0, 1, D3)) == ExtElem(FieldElem(lam6), 0, D3)
    D2 = RingElem.from_int(6, 2)  # 2 is not a square here
    x = ExtElem(1, 1, D2)
    assert fold_square(x) is x and not x.v.is_zero()


def test_ring_sqrt_examples():
    assert ring_sqrt(RingElem.from_int(6, 3)) == lambda_elem(6)
    assert ring_sqrt(RingElem.from_int(6, 4)) == 2
    assert ring_sqrt(RingElem.from_int(6, 2)) is None
    assert ring_sqrt(RingElem.from_int(4, 5)) is None
    lam5 = lambda_elem(5)
    assert ring_sqrt(lam5 + 1) == lam5  # lam^2 = lam + 1
    assert ring_sqrt(lam5 + 2) is None
    assert ring_sqrt(lam5 - 3) is None  # negative
    assert ring_sqrt(RingElem.from_int(5, 0)) == 0
    assert ring_sqrt(RingElem.from_int(3, 49)) == 7


def test_ring_sqrt_random_roundtrip():
    rng = random.Random(424242)
    for p in range(3, 16):
        for _ in range(10):
            w = rand_ring(rng, p)
            r = ring_sqrt(w * w)
            assert r is not None
            assert r * r == w * w
            assert sign(r) >= 0


def test_ring_sqrt_norm_filter(monkeypatch):
    # N(3) = 9 at p = 4 and N(7) = 49 at p = 5 are squares, so these reach
    # the candidate search, which finds no root; N(lambda) = -2 at p = 4 is
    # no square and stops at the norm. 1 + lambda at p = 4 has norm -1: |N|
    # passes the filter and the candidate search rejects it.
    calls = []
    real = field.conjugate_intervals
    monkeypatch.setattr(field, "conjugate_intervals", lambda p, bits: calls.append(p) or real(p, bits))
    for D, searched in (
        (RingElem.from_int(4, 3), True),
        (RingElem.from_int(5, 7), True),
        (lambda_elem(4), False),
        (lambda_elem(4) + 1, True),
    ):
        calls.clear()
        assert field._ring_sqrt.__wrapped__(D.p, D.coeffs) is None
        assert bool(calls) == searched, D


def test_decimal_rendering():
    # golden ratio, truncated (floored) at 30 places
    s = decimal_of(lambda bits: lambda_interval(5, bits), 30)
    ref = mp.nstr(mp_lambda(5), 45)
    assert s == ref[: len(s)]
    # floor semantics for negatives: -1/4 at one digit renders as -0.3
    neg = FieldElem(RingElem.from_int(3, -1), 4)
    assert decimal_of(lambda bits: neg.interval(bits), 1) == "-0.3"
    two = FieldElem.from_int(3, 2)
    assert decimal_of(lambda bits: two.interval(bits), 4) == "2.0000"


def test_poly_str():
    assert poly_str((-2, 0, 1)) == "x^2 - 2"
    assert poly_str((1, -2, -1, 1)) == "x^3 - x^2 - 2x + 1"
    assert poly_str((0,)) == "0"
    assert poly_str((0, 1), "λ") == "λ"
    assert poly_latex((-2, 0, 1), "x") == "x^{2} - 2"
    assert poly_latex((1, -2, -1, 1), "x") == "x^{3} - x^{2} - 2 x + 1"
    assert poly_latex((0,)) == "0"
    assert poly_latex((0, -1)) == r"-\lambda"
