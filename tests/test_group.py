"""Tests for group matrices, generator words, and necklace enumeration."""

import functools
import random

import pytest

from heckerpf.field import DomainError, RingElem, lambda_elem
from heckerpf.group import (
    GenWord,
    Mat,
    NonPrimitive,
    canonical_rotation,
    class_generator,
    classify,
    enumerate_words,
    generator,
    identity,
    is_primitive_word,
    letters_to_matrix,
    transpose_word,
    word_of_matrix,
    word_to_matrix,
)


def test_generator_relations():
    for p in range(3, 11):
        S = generator(p, "S")
        T = generator(p, "T")
        U = generator(p, "U")
        assert S * T == U
        assert T * T == identity(p)
        assert U**p == identity(p)


def test_class_generator_closed_forms():
    for p in (3, 4, 5, 6, 7, 8):
        lam = lambda_elem(p)
        one = RingElem.from_int(p, 1)
        zero = RingElem.from_int(p, 0)
        assert class_generator(p, 1) == generator(p, "S")
        assert class_generator(p, 2).entries() == (lam, lam * lam - 1, one, lam)
        assert class_generator(p, p - 1).entries() == (one, zero, lam, one)
        # sanity: U^(j-1) * S really is the j-th generator
        U = generator(p, "U")
        for j in range(1, p):
            assert class_generator(p, j) == U ** (j - 1) * generator(p, "S")


def test_class_generator_range():
    for bad in (0, -1, 6):
        try:
            class_generator(6, bad) if bad >= 6 else class_generator(3, bad)
            assert False
        except DomainError:
            pass


def test_letters_to_matrix_matches_chained_products():
    # the product validated once at the end has the entries of a chain of
    # validated Mat products, and determinant 1
    rng = random.Random(404)
    for p in range(3, 13):
        assert letters_to_matrix(p, []) == identity(p)
        for _ in range(12):
            letters = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 8))]
            m = letters_to_matrix(p, letters)
            chained = functools.reduce(Mat.__mul__, [class_generator(p, j) for j in letters])
            assert m.entries() == chained.entries(), (p, letters)
            assert m.a * m.d - m.b * m.c == 1


def test_word_product_example():
    m = letters_to_matrix(3, [1, 2])
    assert [e.coeffs[0] for e in m.entries()] == [2, 1, 1, 1]


def test_determinant_one_random_words():
    rng = random.Random(2024)
    for p in range(3, 11):
        for _ in range(8):
            n = rng.randint(1, 8)
            letters = [rng.randint(1, p - 1) for _ in range(n)]
            m = letters_to_matrix(p, letters)
            assert m.a * m.d - m.b * m.c == 1


def test_sign_normalization():
    # the projective representative is unique: M and "-M" collapse
    p = 5
    m = letters_to_matrix(p, [2, 3])
    neg = Mat(-m.a, -m.b, -m.c, -m.d)
    assert neg == m
    # trace 0: tie broken by making c positive
    T = generator(p, "T")
    assert T.c == 1 and T.b == -1


def test_classify():
    assert classify(generator(4, "S")) == "parabolic"
    assert classify(generator(4, "T")) == "elliptic"
    assert classify(letters_to_matrix(3, [1, 2])) == "hyperbolic"
    assert classify(generator(7, "U")) == "elliptic"
    # letters other than 1 and p-1 give hyperbolic products; pure parabolic
    # letters give parabolic powers
    for p in (4, 5, 6):
        for j in range(2, p - 1):
            assert classify(class_generator(p, j)) == "hyperbolic"
        assert classify(letters_to_matrix(p, [1, 1])) == "parabolic"
        assert classify(letters_to_matrix(p, [p - 1])) == "parabolic"


def test_mixed_letters_hyperbolic():
    rng = random.Random(55)
    for p in (4, 5, 6, 7):
        for _ in range(10):
            n = rng.randint(2, 6)
            letters = [rng.randint(1, p - 1) for _ in range(n)]
            if all(x == 1 for x in letters) or all(x == p - 1 for x in letters):
                continue
            assert classify(letters_to_matrix(p, letters)) == "hyperbolic"


def test_canonical_rotation_and_primitivity():
    assert canonical_rotation([2, 1]) == (1, 2)
    assert canonical_rotation([3, 1, 2]) == (1, 2, 3)
    assert not is_primitive_word([1, 2, 1, 2])
    assert is_primitive_word([1, 1, 2])
    w = GenWord(6, [5, 1, 3])
    assert w.letters == (1, 3, 5)


def test_genword_validation():
    for bad_letters in ([], [0], [6], [1, 7]):
        try:
            GenWord(6, bad_letters)
            assert False, bad_letters
        except DomainError:
            pass


def test_transpose_word():
    assert transpose_word(GenWord(6, [2])).letters == (4,)
    assert transpose_word(GenWord(3, [1, 2])).letters == (1, 2)
    assert transpose_word(GenWord(5, [2])).letters == (3,)
    rng = random.Random(808)
    for p in (3, 4, 5, 6, 7):
        for _ in range(12):
            n = rng.randint(1, 6)
            w = GenWord(p, [rng.randint(1, p - 1) for _ in range(n)])
            assert transpose_word(transpose_word(w)) == w
            # same trace: the transposed product is the matrix transpose up
            # to conjugation
            assert word_to_matrix(transpose_word(w)).trace() == word_to_matrix(w).trace()


def test_enumerate_words_examples():
    assert [list(w.letters) for w in enumerate_words(3, 2)] == [[1, 2]]
    assert [list(w.letters) for w in enumerate_words(4, 1)] == [[2]]
    assert enumerate_words(3, 1) == []
    assert [list(w.letters) for w in enumerate_words(6, 1)] == [[2], [3], [4]]


def test_enumerate_words_are_canonical_primitive_sorted():
    for p in (3, 4, 5, 6, 7):
        for n in range(1, 7):
            words = enumerate_words(p, n)
            assert len(set(words)) == len(words)
            for w in words:
                assert w.is_primitive
                assert w.letters == canonical_rotation(w.letters)
                assert len(w) == n
            assert [w.letters for w in words] == sorted(w.letters for w in words)


def test_enumerate_words_complete():
    # brute force: every primitive necklace shows up exactly once
    from itertools import product

    for p, n in ((3, 4), (4, 3), (5, 3), (6, 2)):
        brute = set()
        for tup in product(range(1, p), repeat=n):
            if is_primitive_word(tup):
                brute.add(canonical_rotation(tup))
        assert {w.letters for w in enumerate_words(p, n)} == brute


def test_matrix_inverse_and_transpose():
    rng = random.Random(99)
    for p in (3, 5, 6):
        for _ in range(6):
            letters = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 5))]
            m = letters_to_matrix(p, letters)
            assert m * m.inv() == identity(p)
            assert m.transpose().transpose() == m
            assert (m * m).trace() == m.trace() * m.trace() - 2


def test_word_of_matrix_examples():
    w = GenWord(3, [1, 2])
    assert word_of_matrix(word_to_matrix(w)) == w

    # conjugate representatives land on the same canonical word
    w = GenWord(6, [1, 3, 5])
    s = generator(6, "S")
    m = s * word_to_matrix(w) * s.inv()
    assert word_of_matrix(m) == w


def test_word_of_matrix_power_reports_primitive_core():
    v2 = class_generator(4, 2)
    try:
        word_of_matrix(v2 * v2)
        raised = False
    except NonPrimitive as e:
        raised = True
        assert e.word == GenWord(4, [2])
        assert e.exponent == 2
    assert raised

    m = word_to_matrix(GenWord(5, [1, 2]))
    try:
        word_of_matrix(m * m * m)
    except NonPrimitive as e:
        assert e.word == GenWord(5, [1, 2])
        assert e.exponent == 3


def test_word_of_matrix_high_powers():
    # the trace walk has no cap on the exponent
    for p, letters in ((5, [2]), (4, [1, 3]), (7, [1, 2, 3])):
        w = GenWord(p, letters)
        m = word_to_matrix(w)
        assert word_of_matrix(m) == w
        for e in (2, 129, 200):
            with pytest.raises(NonPrimitive) as info:
                word_of_matrix(m ** e)
            assert info.value.word == w and info.value.exponent == e, (p, letters, e)


def test_word_of_matrix_rejects_non_hyperbolic():
    for p in (3, 5, 6):
        for bad in (generator(p, "T"), generator(p, "S"), identity(p)):
            try:
                word_of_matrix(bad)
                assert False, "expected DomainError"
            except DomainError:
                pass


def test_word_of_matrix_roundtrip_sweep():
    for p in (3, 4, 5, 6, 7):
        for n in range(1, 5):
            for w in enumerate_words(p, n):
                assert word_of_matrix(word_to_matrix(w)) == w


def test_word_of_matrix_random_conjugates():
    rng = random.Random(2024)
    for p in (3, 4, 5, 6):
        words = enumerate_words(p, 3)
        for _ in range(8):
            w = rng.choice(words)
            g = identity(p)
            for _ in range(rng.randint(1, 4)):
                g = g * rng.choice([generator(p, "S"), generator(p, "T")])
            assert word_of_matrix(g * word_to_matrix(w) * g.inv()) == w
