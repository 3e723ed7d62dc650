"""Tests for building and verifying pole-system rational functions."""

import hashlib
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

from heckerpf.cf import Surd
from heckerpf.field import (
    DomainError,
    ExtElem,
    FieldElem,
    RingElem,
    fold_square,
    lambda_elem,
    minimal_polynomial,
)
from heckerpf.group import GenWord
from heckerpf.isp import enumerate_isps, isp_of_word
from heckerpf.quadforms import QForm
from heckerpf.rpf import (
    NoSolution,
    PoleHit,
    PoleTerm,
    RPF,
    SolutionFamily,
    _atoms,
    _merged_relations,
    _relation_matrices,
    _ring_degree,
    _sampled_verify,
    _simple_form,
    _slash_into,
    _small_ring,
    build_ansatz,
    build_symmetric_odd,
    build_union,
    evaluate,
    from_form_powers,
    from_json,
    inversion_residual,
    principal_part,
    q_zero,
    rotation_residual,
    to_json,
    to_latex,
    verify,
)

mp.mp.dps = 50


def mp_ring(x):
    lam = 2 * mp.cos(mp.pi / x.p)
    return sum(c * lam**i for i, c in enumerate(x.coeffs))


def mp_field(x):
    return mp_ring(x.num) / x.den


def mp_ext(x):
    return mp_field(x.u) + mp_field(x.v) * mp.sqrt(mp_ring(x.D))


def mp_surd(a):
    return (mp_ring(a.P) + mp.sqrt(mp_ring(a.D))) / mp_ring(a.Q)


def ext_int(p, n):
    return ExtElem(n, 0, RingElem.from_int(p, 1))


def ring3(n):
    return RingElem.from_int(3, n)


def test_q_zero_examples():
    q = q_zero(4, 2, 1)
    assert q.k == 2 and q.weight == 4
    assert evaluate(q, 2) == Fraction(15, 16)  # 1 - 2^-4
    assert evaluate(q, -1) == 0

    q = q_zero(3, 1, 0, 1)  # plain z^-1 at weight 2
    assert evaluate(q, 4) == Fraction(1, 4)
    assert evaluate(q, Fraction(2, 3)) == Fraction(3, 2)

    try:
        q_zero(3, 2, 0, 1)
        assert False, "b1 must be rejected away from weight 2"
    except DomainError:
        pass


def test_q_zero_inversion_relation():
    for p in (3, 5):
        for k in (1, 2, 3, 4):
            q = q_zero(p, k, 3)
            for z in (2, 3, 7, Fraction(5, 2)):
                assert inversion_residual(q, z).is_zero(), (p, k, z)
    # the weight-2 value z^-1 is a full solution of both relations: it is
    # the free direction of every weight-2 family
    assert verify(q_zero(5, 1, 0, 1)).valid
    assert verify(q_zero(3, 1, 2, -7)).valid


def test_evaluate_zero_pole():
    q = q_zero(4, 2, 1)
    try:
        evaluate(q, 0)
        assert False, "0 must be a pole once the zero part is present"
    except PoleHit as err:
        assert err.pole == 0


def test_principal_part_first_orders():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    golden = sys3.positives[0]  # (1 + sqrt 5)/2

    terms = principal_part(1, golden)
    assert terms == (PoleTerm(golden, 1, 1),)

    terms = principal_part(2, golden)
    # 1/(z-a)^2 - (2/sqrt(5))/(z-a): the conjugate gap is sqrt(5)
    gap_inv_scaled = ExtElem(0, Fraction(-2, 5), ring3(5))
    assert terms == (
        PoleTerm(golden, 2, 1),
        PoleTerm(golden, 1, gap_inv_scaled),
    )

    try:
        principal_part(1, Surd.make(3, 1, 2, 0))
        assert False, "a pole equal to its conjugate must be rejected"
    except DomainError:
        pass


def test_principal_part_against_symbolic_oracle():
    # brute force: the order-(k-j) coefficient is the j-th Taylor
    # coefficient of (a - a')^k (z - a')^(-k) at z = a
    z = sympy.Symbol("z")
    a = (1 + sympy.sqrt(5)) / 2
    ac = (1 - sympy.sqrt(5)) / 2
    golden = isp_of_word(GenWord(3, [1, 2])).positives[0]
    for k in (1, 2, 3):
        g = (a - ac) ** k * (z - ac) ** (-k)
        terms = principal_part(k, golden)
        assert len(terms) == k
        for j in range(k):
            expected = sympy.diff(g, z, j).subs(z, a) / sympy.factorial(j)
            coeff = terms[j].coeff
            got = sympy.Rational(
                coeff.u.num.coeffs[0], coeff.u.den
            ) + sympy.Rational(coeff.v.num.coeffs[0], coeff.v.den) * sympy.sqrt(5)
            assert sympy.simplify(got - expected) == 0, (k, j)
            assert terms[j].order == k - j


def test_principal_part_rational_pole_oracle():
    # at p = 4 the system [2] has the rational pole 1 with conjugate -1
    pole = isp_of_word(GenWord(4, [2])).positives[0]
    z = sympy.Symbol("z")
    for k in (2, 3):
        expansion = sympy.apart(2**k / ((z - 1) ** k * (z + 1) ** k), z)
        terms = principal_part(k, pole)
        for t in terms:
            expected = expansion.coeff((z - 1) ** (-t.order))
            assert t.coeff.v.is_zero()
            got = sympy.Rational(t.coeff.u.num.coeffs[0], t.coeff.u.den)
            assert got == expected, (k, t.order)


def test_symmetric_builder_examples():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    q = build_symmetric_odd(1, sys3)
    forms = [f for _, f in q._forms]
    assert forms == [
        QForm(ring3(1), ring3(-1), ring3(-1)),
        QForm(ring3(1), ring3(1), ring3(-1)),
    ]
    assert evaluate(q, 2) == Fraction(6, 5)
    assert evaluate(q, 3) == Fraction(1, 5) + Fraction(1, 11)

    sys4 = isp_of_word(GenWord(4, [2]))
    q4 = build_symmetric_odd(1, sys4)
    assert evaluate(q4, 3) == Fraction(1, 8)
    one4 = RingElem.from_int(4, 1)
    assert [f for _, f in q4._forms] == [QForm(one4, 0 * one4, -one4)]

    try:
        build_symmetric_odd(2, sys3)
        assert False, "even half-weight must be rejected"
    except DomainError:
        pass
    try:
        build_symmetric_odd(1, isp_of_word(GenWord(5, [2])))
        assert False, "a non-self-conjugate system must be rejected"
    except DomainError:
        pass


def test_three_pole_builder_and_leading_form():
    lam = lambda_elem(6)
    sys6 = isp_of_word(GenWord(6, [1, 3, 5]))
    q = build_symmetric_odd(1, sys6)
    assert len(q._forms) == 3
    lead = q._forms[0][1]
    # the leading form is 3 (lam z^2 - 4 z - lam) with lam = sqrt(3)
    assert lead == QForm(3 * lam, RingElem.from_int(6, -12), -3 * lam)
    # numeric cross-check of the whole sum at an exact point
    z = Fraction(7, 3)
    zf = mp.mpf(z.numerator) / z.denominator
    total = sum(
        1 / (mp_ring(f.A) * zf**2 + mp_ring(f.B) * zf + mp_ring(f.C))
        for _, f in q._forms
    )
    assert abs(mp_ext(evaluate(q, z)) - total) < mp.mpf("1e-38")


def test_union_examples():
    lam5 = lambda_elem(5)
    one5 = RingElem.from_int(5, 1)
    sys5 = isp_of_word(GenWord(5, [2]))
    for k in (1, 2, 3):
        q = build_union(k, sys5)
        (s1, f1), (s2, f2) = q._forms
        assert f1 == QForm(one5, 0 * one5, -lam5)  # z^2 - lam
        assert f2 == QForm(lam5, 0 * lam5, -one5)  # lam z^2 - 1
        assert s1 == 1
        assert s2 == (1 if k % 2 else -1)
        assert verify(q).valid, k

    lam6 = lambda_elem(6)
    one6 = RingElem.from_int(6, 1)
    q = build_union(2, isp_of_word(GenWord(6, [2])))
    (s1, f1), (s2, f2) = q._forms
    assert f1 == QForm(one6, 0 * one6, RingElem.from_int(6, -2))  # z^2 - 2
    assert f2 == QForm(RingElem.from_int(6, 2), 0 * one6, -one6)  # 2 z^2 - 1
    assert s2 == -1
    assert evaluate(q, 2) == Fraction(1, 4) - Fraction(1, 49)

    # the two-letter family: [2] joins [p-2] with forms built on lam^2 - 1
    lam7 = lambda_elem(7)
    one7 = RingElem.from_int(7, 1)
    mu = lam7 * lam7 - one7
    q = build_union(1, isp_of_word(GenWord(7, [2])))
    (s1, f1), (s2, f2) = q._forms
    assert f1 == QForm(one7, 0 * one7, -mu)
    assert f2 == QForm(mu, 0 * mu, -one7)

    try:
        build_union(1, isp_of_word(GenWord(6, [3])))
        assert False, "a self-conjugate system must be rejected"
    except DomainError:
        pass


def test_reconstruction_from_principal_parts():
    # pp(alpha) + (-1)^k pp(alpha') rebuilds (sqrt D)^k / Q(z,1)^k exactly
    for p, letters in ((3, [1, 2]), (4, [2]), (6, [3])):
        system = isp_of_word(GenWord(p, letters))
        alpha = system.positives[0]
        f = _simple_form(alpha)
        for k in (1, 2, 3):
            sgn = 1 if k % 2 == 0 else -1
            terms = list(principal_part(k, alpha))
            terms += [
                PoleTerm(t.alpha, t.order, t.coeff * sgn)
                for t in principal_part(k, alpha.conjugate())
            ]
            q = RPF(p, k, terms)
            root_d = ExtElem(0, 1, f.disc())
            checked = 0
            z = 2
            while checked < 10:
                zf = FieldElem.from_int(p, z)
                value = (f.A * zf + f.B) * zf + f.C
                z += 1
                if value.is_zero():
                    continue
                try:
                    got = evaluate(q, zf)
                except PoleHit:
                    continue
                expected = (root_d**k) * (ext_int(p, 1) * value) ** (-k)
                assert fold_square(got) == fold_square(expected), (p, k, z)
                checked += 1


def test_form_power_linearity():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    from heckerpf.rpf import _simple_form

    f = _simple_form(sys3.positives[0])
    g = _simple_form(sys3.positives[1])
    for k in (1, 2):
        combined = from_form_powers(k, [(2, f), (3, g)])
        single_f = from_form_powers(k, [(1, f)])
        single_g = from_form_powers(k, [(1, g)])
        for z in (2, Fraction(5, 2), -3):
            lhs = evaluate(combined, z)
            rhs = evaluate(single_f, z) * 2 + evaluate(single_g, z) * 3
            assert lhs == rhs, (k, z)


def test_ansatz_solves_the_underdetermined_constants():
    # weight 4 over the two-pole system at p = 3: the tail is forced to
    # c_1 = 8/sqrt(5), c_2 = c_3 = 0
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    q = build_ansatz(2, sys3, "symmetric")
    assert isinstance(q, RPF)
    assert q.tail[0] == ExtElem(0, Fraction(8, 5), ring3(5))
    assert q.tail[1].is_zero() and q.tail[2].is_zero()
    assert verify(q).valid

    # weight 4 over the one-pole system at p = 4: the tail is c_1 = 2
    sys4 = isp_of_word(GenWord(4, [2]))
    q = build_ansatz(2, sys4, "symmetric")
    assert isinstance(q, RPF)
    assert q.tail[0] == 2
    assert q.tail[1].is_zero() and q.tail[2].is_zero()
    assert verify(q).valid


def test_ansatz_weight_two_family():
    # at weight 2 the coefficient of z^-1 stays free: an affine family
    lam = lambda_elem(5)
    sys5 = isp_of_word(GenWord(5, [2]))
    fam = build_ansatz(1, sys5, "nonsymmetric")
    assert isinstance(fam, SolutionFamily)

    sqrt_lam = sys5.positives[0]
    partner = isp_of_word(sys5.conjugate_word)
    minus_inv = partner.positives[0].conjugate()  # -1/sqrt(lam)
    assert sqrt_lam == Surd(0 * lam, RingElem.from_int(5, 2), 4 * lam)
    expected = RPF(
        5,
        1,
        (PoleTerm(sqrt_lam, 1, 1), PoleTerm(minus_inv, 1, -1)),
    )
    assert fam.basepoint == expected
    assert fam.directions == (RPF(5, 1, (), None, (1,)),)
    assert verify(fam.basepoint).valid
    assert verify(fam.directions[0]).valid

    # a symmetric system at weight 2 behaves the same way
    fam4 = build_ansatz(1, isp_of_word(GenWord(4, [2])), "symmetric")
    assert isinstance(fam4, SolutionFamily)
    assert fam4.basepoint.tail[0].is_zero()
    assert len(fam4.directions) == 1
    assert verify(fam4.basepoint).valid


def test_ansatz_rejects_mismatched_template():
    sys5 = isp_of_word(GenWord(5, [2]))
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    for system, template in ((sys5, "symmetric"), (sys3, "nonsymmetric")):
        try:
            build_ansatz(1, system, template)
            assert False, "template/symmetry mismatch must be rejected"
        except DomainError:
            pass
    try:
        build_ansatz(1, sys3, "both")
        assert False, "unknown template must be rejected"
    except DomainError:
        pass


def test_verify_examples():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    assert verify(build_symmetric_odd(1, sys3)).valid

    # an even power of a single symmetric form fails the inversion
    # relation: the residual is (1 + (-1)^k) / (z^2 - 1)^k
    from heckerpf.rpf import _simple_form

    sys4 = isp_of_word(GenWord(4, [2]))
    f4 = _simple_form(sys4.positives[0])
    bad = from_form_powers(2, [(1, f4)])
    result = verify(bad)
    assert not result.valid
    point, relation = result.witness
    assert relation == "inversion"
    assert inversion_residual(bad, point) == 2 * Fraction(1, (point**2 - 1) ** 2)

    # dropping the forced tail from a weight-4 solution breaks it
    solved = build_ansatz(2, sys3, "symmetric")
    headless = RPF(3, 2, solved.pole_terms)
    assert not verify(headless).valid

    # hand-built weight-2 pair over p = 6: 1/(z - sqrt 2) - sqrt2/(sqrt2 z + 1)
    sys6 = isp_of_word(GenWord(6, [2]))
    partner = isp_of_word(sys6.conjugate_word)
    q = RPF(
        6,
        1,
        (
            PoleTerm(sys6.positives[0], 1, 1),
            PoleTerm(partner.positives[0].conjugate(), 1, -1),
        ),
    )
    assert verify(q).valid


def test_pole_hits_name_the_pole():
    sys4 = isp_of_word(GenWord(4, [2]))
    q4 = build_symmetric_odd(1, sys4)
    try:
        evaluate(q4, 1)
        assert False, "1 is a pole of 1/(z^2-1)"
    except PoleHit as err:
        assert err.pole == sys4.positives[0]
    try:
        evaluate(q4, -1)
        assert False, "-1 is a pole of 1/(z^2-1)"
    except PoleHit as err:
        assert err.pole == sys4.positives[0].conjugate()

    # irrational poles cannot be hit from the base field
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    q3 = build_symmetric_odd(1, sys3)
    for z in (0, 1, Fraction(8, 5), -2):
        evaluate(q3, z)

    solved = build_ansatz(2, sys3, "symmetric")
    try:
        evaluate(solved, 0)
        assert False, "0 must be a pole once a tail is present"
    except PoleHit as err:
        assert err.pole == 0


def test_builders_verify_on_enumerated_systems():
    # self-conjugate systems with at most two poles, odd half-weights
    for p in (3, 4, 6):
        for n in (1, 2):
            for system in enumerate_isps(p, n):
                if not system.symmetric:
                    continue
                for k in (1, 3):
                    assert verify(build_symmetric_odd(k, system)).valid, (p, n, k)
    # one-pole unions
    for p in (5, 6):
        for system in enumerate_isps(p, 1):
            if system.symmetric:
                continue
            for k in (1, 2):
                assert verify(build_union(k, system)).valid, (p, k)


def test_ansatz_output_always_verifies():
    rng = random.Random(99)
    cases = []
    for p, n in ((3, 2), (4, 1), (4, 2), (5, 1)):
        pool = enumerate_isps(p, n)
        if pool:
            cases.append(rng.choice(pool))
    for system in cases:
        template = "symmetric" if system.symmetric else "nonsymmetric"
        for k in (1, 2):
            got = build_ansatz(k, system, template)
            if isinstance(got, RPF):
                assert verify(got).valid, (system.word.letters, k)
            elif isinstance(got, SolutionFamily):
                assert verify(got.basepoint).valid, (system.word.letters, k)
                for d in got.directions:
                    assert verify(d).valid, (system.word.letters, k)
            else:
                assert isinstance(got, NoSolution)
    # an inconsistent system: weight 8 on the p = 4 system of word 2
    assert build_ansatz(4, isp_of_word(GenWord(4, (2,))), "symmetric") == NoSolution()


def _verdicts_agree(q):
    """The partial-fraction verify and the sampling walk give the same
    verdict and the same witness; returns the verdict."""
    exact, sampled = verify(q), _sampled_verify(q)
    assert (exact.valid, exact.witness) == (sampled.valid, sampled.witness), q
    assert (exact.checked is not None) == exact.valid
    return exact.valid


def _corrupted(q, rng):
    """q with one seeded mutation: a pole coefficient scaled by 3/2, a
    pole term dropped, a pole coefficient negated, or 1 added to a0."""
    terms = list(q.pole_terms)
    a0, b1 = q.zero_part
    kind = rng.randrange(4) if terms else 3
    if kind == 3:
        return RPF(q.p, q.k, terms, (a0 + 1, b1), q.tail)
    i = rng.randrange(len(terms))
    t = terms[i]
    if kind == 0:
        terms[i] = PoleTerm(t.alpha, t.order, t.coeff * Fraction(3, 2))
    elif kind == 1:
        del terms[i]
    else:
        terms[i] = PoleTerm(t.alpha, t.order, -t.coeff)
    return RPF(q.p, q.k, terms, q.zero_part, q.tail)


def test_verifiers_agree_on_builders_and_corruptions():
    outputs = []
    for p in (3, 4, 5, 6):
        for n in (1, 2):
            for system in enumerate_isps(p, n):
                if system.symmetric:
                    outputs.append(build_symmetric_odd(1, system))
                    got = build_ansatz(1, system, "symmetric")
                else:
                    outputs.append(build_union(1, system))
                    got = build_ansatz(1, system, "nonsymmetric")
                outputs += [got.basepoint, *got.directions]
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    outputs.append(build_ansatz(2, sys3, "symmetric"))
    # even powers of forms fail: the p = 4 one in the inversion relation
    f, g = (_simple_form(a) for a in sys3.positives)
    assert not _verdicts_agree(from_form_powers(2, [(2, f), (3, g)]))
    f4 = _simple_form(isp_of_word(GenWord(4, [2])).positives[0])
    assert not _verdicts_agree(from_form_powers(2, [(1, f4)]))
    rng = random.Random(2024)
    outcomes = set()
    for q in outputs:
        assert _verdicts_agree(q)
        outcomes.add(_verdicts_agree(_corrupted(q, rng)))
    assert outcomes == {True, False}


def test_terms_sharing_a_pole_and_order_add_up():
    # a valid function with one coefficient c split into c/3 and 2c/3: the
    # two terms share a pole and an order, so both verifiers see c again,
    # and the constructor merges them into the one term of q
    q = build_union(1, isp_of_word(GenWord(5, [2])))
    t, *rest = q.pole_terms
    third = t.coeff * Fraction(1, 3)
    split = RPF(q.p, q.k, [PoleTerm(t.alpha, t.order, third),
                           PoleTerm(t.alpha, t.order, t.coeff - third), *rest])
    assert evaluate(split, 3) == evaluate(q, 3)
    assert _verdicts_agree(split)
    assert verify(split).checked == verify(q).checked
    assert split == q and hash(split) == hash(q)
    assert len(split.pole_terms) == len(q.pole_terms)
    # q renders through its form powers; its pole terms alone give the
    # term-by-term LaTeX that split must match
    assert to_json(split) == to_json(q)
    assert to_latex(split) == to_latex(RPF(q.p, q.k, q.pole_terms))
    # a term and its negative sum to zero and leave no term behind
    cancelled = RPF(q.p, q.k, [*q.pole_terms, PoleTerm(t.alpha, t.order, -t.coeff)])
    assert cancelled == RPF(q.p, q.k, rest)


def test_residuals_against_a_direct_sum():
    # weight 2 with every kind of atom: an irrational pole pair with
    # coefficients in Q(lambda)(sqrt(14)), the square-D pole 1, and a0, b1
    # and t1, where b1 and t1 share the order 1 at the pole 0
    alpha = isp_of_word(GenWord(4, [1, 2])).positives[0]
    square = isp_of_word(GenWord(4, [2])).positives[0]
    terms = (
        PoleTerm(alpha, 1, ExtElem(1, 2, alpha.D)),
        PoleTerm(alpha.conjugate(), 1, ExtElem(Fraction(3, 5), -1, alpha.D)),
        PoleTerm(square, 1, 5),
    )
    q = RPF(4, 1, terms, (2, -3), (Fraction(1, 2),))

    def direct(x):
        poles = sum(mp_ext(t.coeff) / (x - mp_surd(t.alpha)) for t in terms)
        return poles + 2 * (1 - x**-2) - 3 / x + 1 / (2 * x)

    lam = 2 * mp.cos(mp.pi / 4)
    rotations = [mp.eye(2)]
    for _ in range(3):
        rotations.append(rotations[-1] * mp.matrix([[lam, -1], [1, 0]]))
    for z in (Fraction(3, 2), Fraction(-7, 3), Fraction(5)):
        x = mp.mpf(z.numerator) / z.denominator
        expected = (
            (evaluate, direct(x)),
            (inversion_residual, direct(x) + x**-2 * direct(-1 / x)),
            (rotation_residual, sum(
                (m[1, 0] * x + m[1, 1]) ** -2
                * direct((m[0, 0] * x + m[0, 1]) / (m[1, 0] * x + m[1, 1]))
                for m in rotations)),
        )
        for f, want in expected:
            got = f(q, z)
            assert abs(want) > 1e-3 and abs(mp_ext(got) - want) < mp.mpf("1e-35"), (f, z)

    # 0 is a pole of a slashed copy in both relations, with no zero part too
    bare = RPF(4, 1, terms)
    with pytest.raises(PoleHit) as hit:
        inversion_residual(bare, 0)
    assert hit.value.pole == 0
    for f in (bare, q):
        with pytest.raises(PoleHit):
            rotation_residual(f, 0)


def test_ansatz_outputs_are_pinned():
    # sha256 over the to_json bytes of every build_ansatz output, basepoint
    # then directions, with a marker for NoSolution: 94 inputs, p = 3..7
    # with n <= 2 at k = 1 and 2, the three self-conjugate systems of the
    # weight-4 benchmark, and the inconsistent p = 4 word 2 at k = 4
    inputs = [(k, system) for p in range(3, 8) for n in (1, 2)
              for system in enumerate_isps(p, n) for k in (1, 2)]
    inputs += [(2, isp_of_word(GenWord(p, w))) for p, w in ((3, [1, 2]), (4, [2]), (6, [3]))]
    inputs.append((4, isp_of_word(GenWord(4, [2]))))
    assert len(inputs) == 94
    # the second digest is over to_latex of the same outputs: the pole-term
    # branch of the renderer, with zero parts and tails
    digest, latex = hashlib.sha256(), hashlib.sha256()
    for k, system in inputs:
        got = build_ansatz(k, system, "symmetric" if system.symmetric else "nonsymmetric")
        if isinstance(got, NoSolution):
            digest.update(b"NoSolution\n")
            latex.update(b"NoSolution\n")
            continue
        for f in [got] if isinstance(got, RPF) else [got.basepoint, *got.directions]:
            digest.update(to_json(f).encode() + b"\n")
            latex.update(to_latex(f).encode() + b"\n")
    assert digest.hexdigest() == (
        "7f9a0fc27717f67f53213757346edce1feed20e3f2b08a2e4adce0c338ff0bae")
    assert latex.hexdigest() == (
        "5f4b8454f0cb8c768932105ea08326b5dfcf05f247e680a701cdb4d1b0d05888")


def test_builder_outputs_are_pinned():
    # sha256 over to_json and to_latex of every form-power builder output:
    # p = 3..9, n <= 2, k = 1..3, build_symmetric_odd for self-conjugate
    # systems at odd k and build_union for the others (self-conjugate
    # systems at even k are the ansatz digest's); the second digest is over
    # to_latex of the same outputs rebuilt as bare pole terms, which print
    # term by term instead of in the form-power shape
    digest, poles = hashlib.sha256(), hashlib.sha256()
    count = 0
    for p in range(3, 10):
        for n in (1, 2):
            for system in enumerate_isps(p, n):
                for k in (1, 2, 3):
                    if system.symmetric and k % 2 == 0:
                        continue
                    build = build_symmetric_odd if system.symmetric else build_union
                    q = build(k, system)
                    digest.update(to_json(q).encode() + b"\n" + to_latex(q).encode() + b"\n")
                    poles.update(to_latex(RPF(q.p, q.k, q.pole_terms)).encode() + b"\n")
                    count += 1
    assert count == 296
    assert digest.hexdigest() == (
        "a5773e65ec4583b5c97fe4253afc8463f71179b06e45d58148c8672809de4308")
    assert poles.hexdigest() == (
        "8973bb66863583b1017059c8fd3fec74a25d9f22d8d018f534ec969a37f44530")


def test_form_power_scalar_over_a_square_discriminant():
    # sqrt(4) = 2 at p = 3 is a value in Q(lambda): it scales a form of
    # discriminant 5 as the integer 2 does
    f = _simple_form(isp_of_word(GenWord(3, (1, 2))).positives[0])
    root_four = ExtElem(0, 1, RingElem.from_int(3, 4))
    got = from_form_powers(1, [(root_four, f)])
    two = from_form_powers(1, [(2, f)])
    assert got == two
    assert to_json(got) == to_json(two)
    assert to_latex(got) == to_latex(two) == r"\frac{2}{z^{2} - z - 1}"
    # a scalar that folds to zero adds nothing
    zero = ExtElem(2, -1, RingElem.from_int(3, 4))
    assert from_form_powers(1, [(zero, f), (2, f)]) == two


def test_slash_branches_merge_exactly():
    one4 = RingElem.from_int(4, 1)
    lam4 = FieldElem(lambda_elem(4))
    identity, inversion = _relation_matrices(4)[0]

    def at(pole, n):
        # the merge key of (z - pole)^-n for a pole in Q(lambda)
        return ExtElem(pole, 0, one4).key() + (n,)

    def slashed(q, m):
        groups, const = _atoms(q)
        merged = {}
        _slash_into(merged, q.k, groups, const, m)
        return merged

    # 1 - z^-4: the constant atom and an order-2k atom at 0. gamma = 0 (the
    # identity) keeps both; under z -> -1/z, beta = 0 is T(infinity), so
    # e = 0 and n = 2k give a constant, and the constant 1 becomes z^-4
    q = q_zero(4, 2, 1)
    assert slashed(q, identity) == {None: 1, at(0, 4): -1}
    assert slashed(q, inversion) == {None: -1, at(0, 4): 1}
    inv, rot = list(_merged_relations(q))
    assert set(inv) == {None, at(0, 4)}
    assert all(c.is_zero() for c in inv.values()) and verify(q).checked == (2, len(rot))

    # e = 0 with n < 2k: z^-4 (-1/z)^-1 = -z^-3
    q = RPF(4, 2, (), None, (1,))
    assert slashed(q, inversion) == {at(0, 3): -1}

    # gamma = 0 away from the identity: 1/z under z -> z + lambda at weight 2
    q = RPF(4, 1, (), None, (1,))
    translation = tuple(ExtElem(x, 0, one4) for x in (1, lam4, 0, 1))
    assert slashed(q, translation) == {at(-lam4, 1): 1}

    # the general branch: (z^2 - 1)^-2 is invariant under z -> -1/z at
    # weight 4, so the inversion relation doubles every coefficient at
    # +-1, while the terms split off at rho = 0 (orders 1 to 3) cancel
    f4 = _simple_form(isp_of_word(GenWord(4, [2])).positives[0])
    q = from_form_powers(2, [(1, f4)])
    inv, _ = list(_merged_relations(q))
    coeff = {at(t.alpha.folded_value(), t.order): t.coeff for t in q.pole_terms}
    assert len(coeff) == 4
    at_zero = set()
    for key, c in inv.items():
        U, V, den, n = key
        assert not any(V)
        if not any(U):
            at_zero.add(n)
            assert c.is_zero()
        else:
            assert c == 2 * coeff[key]
    assert at_zero == {1, 2, 3} and len(inv) == 7


def test_built_functions_hold_one_object_per_value():
    # the slots of the rpf-verify benchmark workload: (p, k, n, symmetric)
    slots = ((3, 3, 2, True), (3, 1, 4, False), (5, 2, 1, False), (6, 1, 1, True),
             (7, 1, 1, False), (8, 1, 1, True), (9, 1, 1, False))
    for p, k, n, symmetric in slots:
        systems = [s for s in enumerate_isps(p, n) if s.symmetric == symmetric][:3]
        assert systems
        for system in systems:
            q = (build_symmetric_odd if symmetric else build_union)(k, system)
            rings = [r for t in q.pole_terms
                     for r in (t.alpha.P, t.alpha.Q, t.alpha.D, t.coeff.D)]
            assert len({id(r) for r in rings}) == len({r.coeffs for r in rings})
            # a small value is one object across all functions of this p
            assert all(r is _small_ring(p, r.coeffs) for r in rings if max(map(abs, r.coeffs)) <= 2)
            coeffs = [t.coeff for t in q.pole_terms]
            assert len({id(c) for c in coeffs}) == len({(c.D.coeffs, c.key()) for c in coeffs})


def test_verify_at_a_large_half_weight_is_fast():
    # the zero function read with k = 16000: no atom needs a power of 1/c
    q = from_json(to_json(RPF(5, 16000)))
    start = time.perf_counter()
    assert verify(q).valid
    assert time.perf_counter() - start < 3


def test_json_roundtrip():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    sys5 = isp_of_word(GenWord(5, [2]))
    samples = [
        build_symmetric_odd(1, sys3),
        build_union(2, sys5),
        build_ansatz(2, sys3, "symmetric"),
        q_zero(4, 2, 1),
        q_zero(3, 1, 2, -7),
        build_ansatz(1, sys5, "nonsymmetric").basepoint,
    ]
    for q in samples:
        text = to_json(q)
        back = from_json(text)
        assert back == q
        assert to_json(back) == text  # byte-deterministic
    assert to_json(samples[0]) != to_json(samples[1])
    # from_json counts ring entries by phi(2p)/2 instead of the polynomial
    for p in range(3, 80):
        assert _ring_degree(p) == minimal_polynomial(p).degree, p


def test_latex_rendering():
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    text = to_latex(build_symmetric_odd(1, sys3))
    assert r"\frac{1}{z^{2} - z - 1}" in text
    assert r"\frac{1}{z^{2} + z - 1}" in text

    sys4 = isp_of_word(GenWord(4, [2]))
    assert to_latex(build_symmetric_odd(1, sys4)) == r"\frac{1}{z^{2} - 1}"

    text = to_latex(build_union(2, isp_of_word(GenWord(5, [2]))))
    assert r"^{2}" in text and r"\lambda" in text and "-\\frac" in text

    solved = build_ansatz(2, sys3, "symmetric")
    text = to_latex(solved)
    assert r"\sqrt{5}" in text and r"\frac" in text and "z" in text

    assert to_latex(q_zero(4, 2, 1)) == r"\left(1 - z^{-4}\right)"
    assert to_latex(q_zero(3, 1, 0, 1)) == r"z^{-1}"
    assert to_latex(q_zero(3, 1, 2, 3)) == r"2 \left(1 - z^{-2}\right) + 3 \, z^{-1}"

    # a factor that is a sum is bracketed: a0 and b1 in front of their
    # powers of z, v in front of the radical
    lam = lambda_elem(5)
    assert to_latex(q_zero(5, 2, lam + 1)) == r"\left(\lambda + 1\right) \left(1 - z^{-4}\right)"
    assert to_latex(q_zero(5, 1, 0, lam + 1)) == r"\left(\lambda + 1\right) \, z^{-1}"
    root_five = ExtElem(1, 1, RingElem.from_int(3, 5))
    assert to_latex(q_zero(3, 2, root_five)) == r"\left(1 + \sqrt{5}\right) \left(1 - z^{-4}\right)"
    three = RingElem.from_int(5, 3)
    term = PoleTerm(Surd(0, 1, three), 1, ExtElem(2, 1 - lam, three))
    assert to_latex(RPF(5, 1, [term])) == r"\frac{2 -\left(\lambda - 1\right) \cdot \sqrt{3}}{z - \sqrt{3}}"
    # the sign of a scalar goes in front of its fraction
    form = _simple_form(sys3.positives[0])
    assert to_latex(from_form_powers(1, [(-2, form)])) == r"-\frac{2}{z^{2} - z - 1}"


def test_numeric_cross_check():
    # exact evaluation against 50-digit floating point, two ways
    sys3 = isp_of_word(GenWord(3, [1, 2]))
    q = build_symmetric_odd(3, sys3)
    for z in (Fraction(7, 3), Fraction(-4, 5), 6):
        zf = mp.mpf(z.numerator if isinstance(z, Fraction) else z) / (
            z.denominator if isinstance(z, Fraction) else 1
        )
        direct = sum(
            mp_ext(ext_int(3, 1))
            / (mp_ring(f.A) * zf**2 + mp_ring(f.B) * zf + mp_ring(f.C)) ** 3
            for _, f in q._forms
        )
        assert abs(mp_ext(evaluate(q, z)) - direct) < mp.mpf("1e-35")

    # and through the pole terms of the weight-2 basepoint at p = 5
    fam = build_ansatz(1, isp_of_word(GenWord(5, [2])), "nonsymmetric")
    base = fam.basepoint
    for z in (Fraction(3, 2), 5):
        zf = mp.mpf(z.numerator if isinstance(z, Fraction) else z) / (
            z.denominator if isinstance(z, Fraction) else 1
        )
        direct = sum(
            mp_ext(t.coeff) / (zf - mp_surd(t.alpha)) ** t.order
            for t in base.pole_terms
        )
        assert abs(mp_ext(evaluate(base, z)) - direct) < mp.mpf("1e-35")
