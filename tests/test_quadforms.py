"""Tests for binary quadratic forms and the matrix/form/fixed-point bridge."""

import random

import mpmath as mp

from heckerpf.cf import (
    CF,
    Parabolic,
    Surd,
    floor_over_lambda,
    mobius_apply,
    surd_of_cf,
    word_to_period,
)
from heckerpf.field import DomainError, RingElem, lambda_elem
from heckerpf.group import (
    GenWord,
    Mat,
    class_generator,
    enumerate_words,
    generator,
    identity,
    word_of_matrix,
    word_to_matrix,
)
from heckerpf.quadforms import (
    QForm,
    act,
    fixed_points,
    form_of_matrix,
    is_simple,
    matrix_of_surd,
    negate,
    transpose_form_identity_check,
)

mp.mp.dps = 50


def mp_ring(x):
    lam = 2 * mp.cos(mp.pi / x.p)
    return sum(c * lam**i for i, c in enumerate(x.coeffs))


def mp_surd(a):
    return (mp_ring(a.P) + mp.sqrt(mp_ring(a.D))) / mp_ring(a.Q)


def random_group_element(p, rng, length=4):
    g = identity(p)
    for _ in range(rng.randint(1, length)):
        g = g * rng.choice([generator(p, "S"), generator(p, "T")])
    return g


def test_form_of_matrix_examples():
    f = form_of_matrix(class_generator(4, 2))
    one = RingElem.from_int(4, 1)
    assert f.coefficients() == (one, 0 * one, -one)

    m = word_to_matrix(GenWord(3, [1, 2]))
    assert m.entries() == tuple(RingElem.from_int(3, v) for v in (2, 1, 1, 1))
    f = form_of_matrix(m)
    one = RingElem.from_int(3, 1)
    assert f.coefficients() == (one, -one, -one)
    assert f.disc() == 5 * one
    assert f.is_hyperbolic()


def test_form_of_matrix_rejects_non_hyperbolic():
    for p in (3, 5):
        for bad in (generator(p, "S"), generator(p, "T"), identity(p)):
            try:
                form_of_matrix(bad)
                assert False, "expected DomainError"
            except DomainError:
                pass


def test_fixed_points_examples():
    a, b = fixed_points(class_generator(4, 2))
    assert a == Surd.make(4, 0, 2, 4) == 1
    assert b == -1

    golden, golden_conj = fixed_points(word_to_matrix(GenWord(3, [1, 2])))
    assert golden == Surd.make(3, 1, 2, 5)
    assert golden_conj == Surd.make(3, 1, 2, 5).conjugate()
    assert golden_conj < 0 < golden

    # hyperbolic with c = 0: the fixed point escapes to infinity
    lam = lambda_elem(4)
    diag = Mat(1 + lam, 0 * lam, 0 * lam, lam - 1)
    assert diag.trace() == 2 * lam
    try:
        fixed_points(diag)
        assert False, "expected DomainError"
    except DomainError:
        pass


def test_first_fixed_point_is_attracting():
    rng = random.Random(31)
    for p in (3, 4, 5, 6):
        for w in rng.sample(enumerate_words(p, 3), min(4, len(enumerate_words(p, 3)))):
            m = word_to_matrix(w)
            alpha, alpha_conj = fixed_points(m)
            a, b, c, d = (mp_ring(x) for x in m.entries())
            z = mp.mpf("0.2468")
            for _ in range(80):
                z = (a * z + b) / (c * z + d)
            assert abs(z - mp_surd(alpha)) < mp.mpf("1e-30")
            assert abs(z - mp_surd(alpha_conj)) > mp.mpf("0.01")


def test_form_roots_are_fixed_points():
    rng = random.Random(8)
    for p in (3, 4, 5, 6, 7):
        for w in rng.sample(enumerate_words(p, 3), min(4, len(enumerate_words(p, 3)))):
            m = word_to_matrix(w)
            f = form_of_matrix(m)
            alpha, alpha_conj = fixed_points(m)
            assert f.first_root() == alpha
            assert negate(f).first_root() == alpha_conj
            # root in the exact sense: with alpha = (P + sqrt(D))/Q, the
            # equation A alpha^2 + B alpha + C = 0 splits into a radical part
            # 2AP + BQ = 0 and a rational part A(P^2 + D) + BPQ + CQ^2 = 0
            P, Q, D = alpha.P, alpha.Q, alpha.D
            assert (2 * f.A * P + f.B * Q).is_zero()
            assert (f.A * (P * P + D) + f.B * P * Q + f.C * Q * Q).is_zero()


def test_act_is_a_right_action():
    rng = random.Random(53)
    for p in (3, 4, 5, 6):
        words = enumerate_words(p, 3)
        for _ in range(8):
            f = form_of_matrix(word_to_matrix(rng.choice(words)))
            M = random_group_element(p, rng)
            N = random_group_element(p, rng)
            assert act(f, identity(p)) == f
            assert act(act(f, M), N) == act(f, M * N)
            assert act(f, M).disc() == f.disc()


def test_act_transports_roots_and_conjugation():
    rng = random.Random(54)
    for p in (3, 4, 5, 6):
        words = enumerate_words(p, 3)
        for _ in range(10):
            M = word_to_matrix(rng.choice(words))
            V = random_group_element(p, rng)
            f = form_of_matrix(M)
            conj = V * M * V.inv()
            assert form_of_matrix(conj) == act(f, V.inv())
            assert fixed_points(conj)[0] == mobius_apply(V, fixed_points(M)[0])


def test_negate_and_conjugate():
    f = form_of_matrix(word_to_matrix(GenWord(3, [1, 2])))
    assert negate(negate(f)) == f
    assert negate(f).first_root() == f.first_root().conjugate()
    assert negate(f).disc() == f.disc()

    # the inverse matrix swaps attracting and repelling points
    m = word_to_matrix(GenWord(5, [1, 3]))
    a, b = fixed_points(m)
    a_inv, b_inv = fixed_points(m.inv())
    assert (a_inv, b_inv) == (b, a)


def test_is_simple_examples_and_root_equivalence():
    one = RingElem.from_int(3, 1)
    golden_form = QForm(one, -one, -one)
    assert is_simple(golden_form)
    assert not is_simple(negate(golden_form))

    rng = random.Random(55)
    for p in (3, 4, 5, 6):
        words = enumerate_words(p, 3)
        for _ in range(10):
            f = form_of_matrix(word_to_matrix(rng.choice(words)))
            f = act(f, random_group_element(p, rng))
            if rng.random() < 0.5:
                f = negate(f)
            root = f.first_root()
            assert is_simple(f) == (root > 0 and root.conjugate() < 0)


def test_is_simple_requires_hyperbolic():
    one = RingElem.from_int(4, 1)
    try:
        is_simple(QForm(one, 0 * one, one))  # disc -4
        assert False, "expected DomainError"
    except DomainError:
        pass


def test_matrix_of_surd_examples():
    m = matrix_of_surd(Surd.make(4, 0, 2, 4))  # the surd is just 1
    assert m.trace() == 2 * lambda_elem(4)
    assert mobius_apply(m, Surd.make(4, 1, 1, 0)) == 1

    golden = Surd.make(3, 1, 2, 5)
    assert word_of_matrix(matrix_of_surd(golden)) == GenWord(3, [1, 2])

    # cusps have parabolic expansions, so no hyperbolic matrix exists
    for p in (4, 5, 6):
        try:
            matrix_of_surd(Surd.make(p, 0, 1, 0))
            assert False, "expected Parabolic"
        except Parabolic:
            pass


def test_matrix_of_surd_roundtrip():
    rng = random.Random(56)
    for p in (3, 4, 5, 6, 7):
        for w in rng.sample(enumerate_words(p, 3), min(4, len(enumerate_words(p, 3)))):
            alpha = fixed_points(word_to_matrix(w))[0]
            m = matrix_of_surd(alpha)
            assert fixed_points(m)[0] == alpha
            assert word_of_matrix(m) == w


def test_transpose_identities_on_word_matrices():
    for p in (3, 4, 5, 6, 7):
        for n in (2, 3, 4):
            for w in enumerate_words(p, n):
                assert transpose_form_identity_check(word_to_matrix(w))
    assert transpose_form_identity_check(word_to_matrix(GenWord(6, [1, 2, 5])))


def test_simple_translate_window():
    # pulling a reduced fixed point left by i*lambda keeps the form simple
    # exactly while the root stays positive: i = 1 .. floor(alpha/lambda)
    for p, n in ((3, 2), (4, 2), (5, 3), (6, 2), (7, 2)):
        S = generator(p, "S")
        for w in enumerate_words(p, n):
            beta = surd_of_cf(CF(p, [], word_to_period(w)))
            f = form_of_matrix(matrix_of_surd(beta))
            steps = floor_over_lambda(beta)
            assert steps >= 1
            assert not is_simple(f)  # both roots positive before translating
            for i in range(1, steps + 1):
                assert is_simple(act(f, S**i))
            assert not is_simple(act(f, S ** (steps + 1)))


def test_reduced_root_bounds():
    # fixed points of pure-period step matrices are reduced: the conjugate
    # lands in (0, lambda), the point itself beyond lambda. Attracting points
    # of plain letter products need not be reduced: the [1, 2] class at p = 3
    # surfaces the golden ratio, whose conjugate is negative.
    for p in (3, 4, 5, 6):
        lam = lambda_elem(p)
        for w in enumerate_words(p, 2):
            beta = surd_of_cf(CF(p, [], word_to_period(w)))
            assert beta > lam
            assert 0 < beta.conjugate() < lam

    golden = fixed_points(word_to_matrix(GenWord(3, [1, 2])))[0]
    assert golden.conjugate() < 0


def test_form_json_dict():
    f = form_of_matrix(word_to_matrix(GenWord(3, [1, 2])))
    assert f.to_json_dict() == {"A": [1], "B": [-1], "C": [-1]}
