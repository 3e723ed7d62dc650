"""Tests for lambda continued fractions: expansion, admissibility, the
word/period translation, surd reconstruction, and reducedness."""

import random

from heckerpf.cf import (
    CF,
    NotPeriodic,
    Parabolic,
    Surd,
    _steps_matrix,
    cf_expand,
    floor_over_lambda,
    is_admissible,
    is_parabolic_period,
    is_reduced,
    mobius_apply,
    parabolic_period,
    period_to_word,
    surd_of_cf,
    word_to_period,
)
from heckerpf.field import DomainError, FieldElem, RingElem, lambda_elem
from heckerpf.group import (
    GenWord,
    enumerate_words,
    generator,
    identity,
    letters_to_matrix,
)


def rotations(seq):
    seq = tuple(seq)
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def same_up_to_rotation(a, b):
    return tuple(b) in rotations(a)


def sine_ratio_point(p, m):
    """The m-th image of 0 under the rotation generator, a field value
    a_m / a_{m-1} (infinite for m = 1, which callers treat separately)."""
    lam = lambda_elem(p)
    seq = [RingElem.from_int(p, 0), RingElem.from_int(p, 1)]
    for _ in range(m):
        seq.append(lam * seq[-1] - seq[-2])
    return FieldElem(seq[m]) / seq[m - 1]


def reduced_by_inequalities(beta: Surd) -> bool:
    """Oracle for reducedness: some j in 0..p-3 puts the surd and its
    conjugate into the chain 0 < beta' < (U^{j+2})(0) < beta < (U^{j+1})(0),
    the j = 0 case having no finite upper bound."""
    p = beta.p
    conj = beta.conjugate()
    if not (conj > 0):
        return False
    for j in range(0, p - 2):
        mid = sine_ratio_point(p, j + 2)
        if not (conj < mid and mid < beta):
            continue
        if j == 0:
            return True
        if beta < sine_ratio_point(p, j + 1):
            return True
    return False


def near_three_lambda(n):
    """3*lambda - (1 - sqrt2)^n at p = 5, as the surd 3*lambda - a + sqrt(2 b^2)
    with (1 + sqrt2)^n = a + b*sqrt2. Below 3*lambda for even n, above it for
    odd n; at n = 6600 the gap is about 2^-8392."""
    a, b = 1, 0
    for _ in range(n):
        a, b = a + 2 * b, a + b
    return Surd(3 * lambda_elem(5) - a, 1, RingElem.from_int(5, 2 * b * b))


def test_cf_expand_examples():
    assert cf_expand(Surd.make(3, 3, 2, 5)) == CF(3, [], [3])
    assert cf_expand(Surd.make(4, 1, 1, 2)) == CF(4, [], [2])
    got = cf_expand(Surd.from_field(FieldElem.from_int(6, 1)))
    assert got.preperiod == (1,)
    assert same_up_to_rotation(got.period, (1, 2))


def test_floor_over_lambda_examples(own_root_brackets):
    assert floor_over_lambda(Surd.make(3, 3, 2, 5)) == 2
    # exact boundary: sqrt2 / lambda = 1 in the p=4 group
    assert floor_over_lambda(Surd.make(4, 0, 1, 2)) == 1
    assert floor_over_lambda(Surd.make(6, 0, 1, 2)) == 0
    # negatives floor downward
    assert floor_over_lambda(Surd.make(6, 0, -1, 2)) == -1
    assert floor_over_lambda(Surd.make(4, 0, -1, 2)) == -1
    # separating alpha from 3*lambda takes more than 8192 bits
    assert floor_over_lambda(near_three_lambda(6600)) == 2
    assert floor_over_lambda(near_three_lambda(6601)) == 3


def test_admissibility_examples():
    assert is_admissible(CF(3, [], [3]))
    assert not is_parabolic_period(CF(3, [], [3]))
    assert is_parabolic_period(CF(5, [], [2, 1, 1]))
    assert is_parabolic_period(CF(5, [], [1, 2, 1]))  # rotation counts
    assert not is_admissible(CF(4, [], [1, 1]))
    assert is_admissible(CF(6, [1], [1, 1, 2]))
    assert not is_admissible(CF(6, [1], [1, 1, 1, 1, 2]))  # run of 4 > p-3
    assert is_admissible(CF(6, [0, 1, 1, 1, 1, 2], [3]))  # leading run may hit p-2
    assert not is_admissible(CF(6, [0, 1, 1, 1, 1, 1, 2], [3]))
    assert parabolic_period(3) == (2,)
    assert parabolic_period(6) == (2, 1, 1, 1)


def test_word_to_period_examples():
    assert word_to_period(GenWord(6, [1, 3, 5])) == [3, 1, 2, 1, 1, 1]
    for p in (4, 5, 6, 7):
        assert word_to_period(GenWord(p, [1, p - 1])) == [3] + [1] * (p - 3)
    assert word_to_period(GenWord(6, [1, 2, 5])) == [3, 2, 1, 1, 1]


def test_word_to_period_parabolic_words():
    for letters in ([1], [1, 1], [5], [5, 5]):
        try:
            word_to_period(GenWord(6, letters))
            assert False, letters
        except Parabolic:
            pass


def test_period_to_word_errors():
    try:
        period_to_word(5, [2, 1, 1])
        assert False
    except Parabolic:
        pass
    try:
        period_to_word(6, [1, 1])
        assert False
    except DomainError:
        pass


def test_word_period_roundtrip():
    for p in range(3, 8):
        for n in range(1, 6):
            for w in enumerate_words(p, n):
                if all(x == 1 for x in w.letters) or all(x == p - 1 for x in w.letters):
                    continue
                per = word_to_period(w)
                assert period_to_word(p, per) == w
                assert is_admissible(CF(p, [], per))
                assert not is_parabolic_period(CF(p, [], per))


def test_surd_of_cf_examples():
    assert surd_of_cf(CF(3, [], [3])) == Surd.make(3, 3, 2, 5)
    lam5 = lambda_elem(5)
    assert surd_of_cf(CF(5, [], [2])) == Surd(lam5, RingElem.from_int(5, 1), lam5)
    assert surd_of_cf(CF(6, [1], [1, 1, 2])) == Surd.make(6, 0, 2, 2)


def test_steps_matrix_matches_generator_powers():
    # the closed form S^r * T = [[r*lambda, -1], [1, 0]], multiplied out and
    # validated once, against the chain of S**r * T products; r may be any
    # integer in a preperiod's leading entry
    rng = random.Random(405)
    for p in range(3, 13):
        S, T = generator(p, "S"), generator(p, "T")
        for _ in range(10):
            entries = [rng.randint(-3, p) for _ in range(rng.randint(0, 8))]
            chained = identity(p)
            for r in entries:
                chained = chained * S**r * T
            assert _steps_matrix(p, entries).entries() == chained.entries(), (p, entries)


def test_surd_of_cf_rejects():
    try:
        surd_of_cf(CF(5, [], [2, 1, 1]))
        assert False
    except Parabolic:
        pass
    try:
        surd_of_cf(CF(4, [], [1, 1]))
        assert False
    except DomainError:
        pass


def test_reduced_examples():
    assert is_reduced(Surd.make(4, 1, 1, 2))
    assert not is_reduced(Surd.from_field(FieldElem.from_int(4, 1)))
    assert not is_reduced(Surd.make(3, 1, 2, 5))


def test_expand_roundtrip_all_short_words():
    # the value of every short word's period expands right back
    for p in range(3, 8):
        for n in range(1, 5):
            for w in enumerate_words(p, n):
                per = tuple(word_to_period(w))
                beta = surd_of_cf(CF(p, [], per))
                cf = cf_expand(beta)
                assert cf.preperiod == ()
                assert same_up_to_rotation(per, cf.period)
                assert is_admissible(cf)
                assert surd_of_cf(cf) == beta


def test_rotated_periods_share_class():
    rng = random.Random(6021023)
    for p in (3, 4, 5, 6, 7):
        words = [w for n in (2, 3) for w in enumerate_words(p, n)]
        for w in rng.sample(words, min(4, len(words))):
            per = tuple(word_to_period(w))
            periods = set()
            for rot in rotations(per):
                beta = surd_of_cf(CF(p, [], rot))
                cf = cf_expand(beta)
                assert cf.preperiod == ()
                periods.add(min(rotations(cf.period)))
            assert len(periods) == 1


def test_not_periodic_when_bound_too_small():
    # the bound is honored: a value needing more steps raises instead of
    # returning a truncated expansion
    beta = surd_of_cf(CF(6, [], word_to_period(GenWord(6, [1, 3, 5]))))
    shifted = mobius_apply(generator(6, "S") ** 3, beta)
    try:
        cf_expand(shifted, max_steps=2)
        assert False, "step bound was ignored"
    except NotPeriodic:
        pass
    assert cf_expand(shifted).period  # and succeeds with the default bound


def test_reduced_versus_inequality_oracle():
    rng = random.Random(90210)
    for p in range(3, 8):
        words = [w for n in (1, 2, 3) for w in enumerate_words(p, n)]
        S = generator(p, "S")
        T = generator(p, "T")
        checked = 0
        while checked < 500:
            w = rng.choice(words)
            beta = surd_of_cf(CF(p, [], word_to_period(w)))
            m = S ** rng.randint(-2, 2)
            if rng.random() < 0.5:
                m = m * T * S ** rng.randint(-1, 2)
            try:
                alpha = mobius_apply(m, beta)
            except DomainError:
                continue
            assert is_reduced(alpha) == reduced_by_inequalities(alpha)
            checked += 1


def test_surd_equality_and_order(own_root_brackets):
    # sqrt8/2 equals sqrt2 despite different triples
    assert Surd.make(6, 0, 2, 8) == Surd.make(6, 0, 1, 2)
    assert Surd.make(6, 0, -2, 8) == Surd.make(6, 0, -1, 2)
    assert Surd.make(6, 0, 2, 8) != Surd.make(6, 0, -1, 2)
    assert Surd.make(4, 1, 1, 2) != Surd.make(4, 1, 1, 3)
    assert Surd.make(3, 1, 2, 5) < Surd.make(3, 3, 2, 5)
    assert Surd.make(3, -1, 2, 5) > 0
    assert Surd.make(3, -1, 2, 5) < 1
    lam6 = lambda_elem(6)
    assert Surd.make(6, 0, 1, 2) < FieldElem(lam6)  # sqrt2 < sqrt3
    three_lam5 = 3 * lambda_elem(5)
    assert near_three_lambda(6600) < three_lam5
    assert not near_three_lambda(6601) < three_lam5
    # square-D surd equals its folded field value
    assert Surd.make(4, 1, 1, 2) == Surd.from_field(FieldElem(lambda_elem(4) + 1))


def test_mobius_apply():
    s2 = Surd.make(4, 0, 1, 2)
    T = generator(4, "T")
    S = generator(4, "S")
    assert mobius_apply(T, s2) == Surd.make(4, 0, -2, 2)
    assert mobius_apply(S, s2) == Surd.make(4, 0, 1, 8)
    # group action: (MN)(x) = M(N(x))
    rng = random.Random(4)
    for p in (3, 5, 6):
        beta = surd_of_cf(CF(p, [], word_to_period(enumerate_words(p, 2)[0])))
        for _ in range(10):
            letters = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))]
            m = letters_to_matrix(p, letters)
            n = generator(p, "T") if rng.random() < 0.5 else generator(p, "S")
            assert mobius_apply(m * n, beta) == mobius_apply(m, mobius_apply(n, beta))
    try:
        mobius_apply(generator(3, "T"), Surd.make(3, 0, 1, 0))
        assert False
    except DomainError:
        pass


def test_fixed_point_is_fixed():
    for p, letters in ((3, [1, 2]), (5, [2]), (6, [1, 3, 5]), (7, [2, 4])):
        w = GenWord(p, letters)
        beta = surd_of_cf(CF(p, [], word_to_period(w)))
        cf = cf_expand(beta)
        assert mobius_apply(_period_matrix(p, cf.period), beta) == beta


def _period_matrix(p, period):
    S = generator(p, "S")
    T = generator(p, "T")
    from heckerpf.group import identity

    m = identity(p)
    for r in period:
        m = m * S**r * T
    return m
