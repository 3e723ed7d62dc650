"""Tests for irreducible pole systems: construction, counting, symmetry."""

import random

import mpmath as mp

from heckerpf.cf import (
    CF,
    Parabolic,
    Surd,
    cf_expand,
    floor_over_lambda,
    is_reduced,
    surd_of_cf,
    word_to_period,
)
from heckerpf.field import DomainError, RingElem, lambda_elem
from heckerpf.group import GenWord, NonPrimitive, canonical_rotation, enumerate_words
from heckerpf.isp import (
    _block_points,
    _floor_is,
    _is_simple,
    _positives_of_rotation,
    conjugate_isp,
    count_isps,
    enumerate_isps,
    is_hecke_symmetric,
    isp_of_word,
    symmetry_via_numbers,
)

mp.mp.dps = 50


def mp_ring(x):
    lam = 2 * mp.cos(mp.pi / x.p)
    return sum(c * lam**i for i, c in enumerate(x.coeffs))


def mp_surd(a):
    return (mp_ring(a.P) + mp.sqrt(mp_ring(a.D))) / mp_ring(a.Q)


def test_two_pole_system():
    isp = isp_of_word(GenWord(3, [1, 2]))
    assert isp.p == 3
    assert isp.D == RingElem.from_int(3, 5)
    assert isp.beta1 == Surd.make(3, 3, 2, 5)
    assert isp.positives == (Surd.make(3, 1, 2, 5), Surd.make(3, -1, 2, 5))
    assert isp.symmetric
    assert isp.conjugate_word == isp.word


def test_single_pole_systems():
    isp = isp_of_word(GenWord(4, [2]))
    assert len(isp.positives) == 1
    assert isp.positives[0] == 1

    lam = lambda_elem(5)
    isp = isp_of_word(GenWord(5, [3]))
    assert isp.positives[0] == Surd(0 * lam, 2 * lam, 4 * lam)  # 1/sqrt(lambda)
    assert abs(mp_surd(isp.positives[0]) - 1 / mp.sqrt(2 * mp.cos(mp.pi / 5))) < mp.mpf("1e-40")


def test_three_pole_system():
    lam = lambda_elem(6)
    isp = isp_of_word(GenWord(6, [1, 3, 5]))
    expected = (
        Surd(RingElem.from_int(6, 12), 6 * lam, RingElem.from_int(6, 252)),
        Surd(RingElem.from_int(6, -6), 6 * lam, RingElem.from_int(6, 252)),
        Surd(RingElem.from_int(6, -6), 12 * lam, RingElem.from_int(6, 252)),
    )
    assert isp.positives == expected
    # decimal cross-check: (2+sqrt7)/sqrt3 and friends
    want = [
        (2 + mp.sqrt(7)) / mp.sqrt(3),
        (-1 + mp.sqrt(7)) / mp.sqrt(3),
        (-1 + mp.sqrt(7)) / (2 * mp.sqrt(3)),
    ]
    for a, w in zip(isp.positives, want):
        assert abs(mp_surd(a) - w) < mp.mpf("1e-40")
    assert isp.symmetric


def test_length_one_enumeration():
    assert enumerate_isps(3, 1) == []

    isps = enumerate_isps(4, 1)
    assert len(isps) == 1
    assert isps[0].positives[0] == 1

    isps = enumerate_isps(6, 1)
    assert [w.word.letters for w in isps] == [(2,), (3,), (4,)]
    sqrt2 = Surd.make(6, 0, 1, 2)
    assert isps[0].positives[0] == sqrt2
    assert isps[1].positives[0] == 1
    assert isps[2].positives[0] == Surd.make(6, 0, 2, 2)  # 1/sqrt(2)


def test_isp_errors():
    for p in (3, 5, 6):
        for letters in ([1], [p - 1], [1, 1]):
            try:
                isp_of_word(GenWord(p, letters))
                assert False, "expected Parabolic"
            except Parabolic:
                pass
    try:
        isp_of_word(GenWord(5, [2, 2]))
        assert False, "expected NonPrimitive"
    except NonPrimitive as e:
        assert e.word == GenWord(5, [2])
        assert e.exponent == 2


def test_count_table():
    expected = {
        3: [0, 1, 2, 3, 6, 9, 18, 30],
        4: [1, 3, 8, 18, 48, 116, 312, 810],
        5: [2, 6, 20, 60, 204, 670, 2340, 8160],
        6: [3, 10, 40, 150, 624, 2580, 11160, 48750],
        7: [4, 15, 70, 315, 1554, 7735, 39990, 209790],
    }
    for p, row in expected.items():
        assert [count_isps(p, n) for n in range(1, 9)] == row


def test_count_matches_word_enumeration():
    for p in (3, 4, 5, 6):
        for n in range(1, 7):
            assert count_isps(p, n) == len(enumerate_words(p, n))


def test_count_rejects_bad_arguments():
    for bad in ((2, 1), (3, 0), (3.0, 1), (3, True)):
        try:
            count_isps(*bad)
            assert False, "expected DomainError"
        except DomainError:
            pass


def test_enumerate_sizes_and_pole_counts():
    for p in (3, 4, 5, 6):
        for n in (1, 2, 3):
            isps = enumerate_isps(p, n)
            assert len(isps) == count_isps(p, n)
            for isp in isps:
                assert len(isp.positives) == n
                assert all(a.D == isp.D for a in isp.positives)
                for a in isp.positives:
                    assert a.conjugate() < 0 < a


def test_system_holds_one_discriminant_object():
    # every positive is built on the system's one D object, and beta1 is
    # derived from the first positive: the reduced point of block 1
    for p, n in ((4, 3), (5, 3), (7, 2), (9, 2)):
        for s in enumerate_isps(p, n):
            assert all(a.D is s.D for a in s.positives), s.word
            beta, _ = _block_points(p, s.word.letters)[0]
            assert s.beta1.to_json_dict() == beta.to_json_dict(), s.word


def test_word_to_poles_is_injective():
    for p in (3, 4, 5, 6):
        seen = {}
        for n in (1, 2, 3, 4):
            for isp in enumerate_isps(p, n):
                fingerprint = tuple(sorted(a.key() for a in isp.positives))
                assert fingerprint not in seen, (isp.word, seen[fingerprint])
                seen[fingerprint] = isp.word


def test_symmetry_examples():
    assert is_hecke_symmetric(GenWord(3, [1, 2]))
    assert is_hecke_symmetric(GenWord(6, [3]))
    assert not is_hecke_symmetric(GenWord(5, [2]))
    assert conjugate_isp(GenWord(5, [2])) == GenWord(5, [3])
    assert conjugate_isp(GenWord(6, [2])) == GenWord(6, [4])
    for w in (GenWord(5, [2]), GenWord(6, [1, 2, 5]), GenWord(4, [1, 2, 3])):
        assert conjugate_isp(conjugate_isp(w)) == w


def test_symmetry_via_numbers_examples():
    assert symmetry_via_numbers(isp_of_word(GenWord(4, [2])))
    assert not symmetry_via_numbers(isp_of_word(GenWord(6, [2])))


def test_symmetry_oracles_agree():
    for p in (3, 4, 5, 6):
        for n in (1, 2, 3):
            for isp in enumerate_isps(p, n):
                assert symmetry_via_numbers(isp) == isp.symmetric, isp.word


def test_union_with_conjugate_is_symmetric():
    # the union of a system and its conjugate system is closed under
    # algebraic conjugation, read off on CF periods
    rng = random.Random(77)
    def canon(a):
        return canonical_rotation(tuple(cf_expand(a).period))

    for p in (3, 4, 5, 6):
        words = [w for n in (1, 2, 3) for w in enumerate_words(p, n)]
        for w in rng.sample(words, min(5, len(words))):
            union = list(isp_of_word(w).positives)
            union += list(isp_of_word(conjugate_isp(w)).positives)
            direct = sorted(canon(a) for a in union)
            conjugated = sorted(canon(a.conjugate()) for a in union)
            assert direct == conjugated, w


def test_positives_are_reduced_translates():
    # every positive pole is S^{-i} of a reduced point of its own class
    for p, n in ((3, 2), (4, 2), (5, 2), (6, 3)):
        lam = lambda_elem(p)
        for isp in enumerate_isps(p, n):
            for alpha in isp.positives:
                period = canonical_rotation(tuple(cf_expand(alpha).period))
                found = False
                i = 1
                while True:
                    beta = Surd(alpha.P + (i * alpha.Q) * lam, alpha.Q, alpha.D)
                    if beta.conjugate() > 0 and is_reduced(beta):
                        assert canonical_rotation(tuple(cf_expand(beta).period)) == period
                        assert 1 <= i <= floor_over_lambda(beta)
                        found = True
                        break
                    i += 1
                    assert i <= 64, "no reduced translate found"
                assert found


def test_exact_decisions_match_interval_route():
    # Block points by conjugation against surd_of_cf of each rotated period,
    # and the exact simplicity and floor decisions against Surd comparison
    # and floor_over_lambda on intervals. The translates i = 0 .. count + 1
    # and the floors count - 1 .. count + 1 give both outcomes.
    outcomes = set()
    for p, n in ((3, 4), (4, 3), (5, 2), (6, 2), (7, 2), (8, 1), (9, 1), (12, 1)):
        lam = lambda_elem(p)
        for w in enumerate_words(p, n):
            period = tuple(word_to_period(w))
            starts = [k for k, r in enumerate(period) if r >= 2]
            points = _block_points(p, w.letters)
            assert len(points) == len(starts) == len(w.letters) - w.letters.count(1)
            for (beta, count), k in zip(points, starts):
                direct = surd_of_cf(CF(p, (), period[k:] + period[:k]))
                assert beta.to_json_dict() == direct.to_json_dict(), (w, k)
                P, Q, D = beta.P, beta.Q, beta.D
                for m in (count - 1, count, count + 1):
                    exact = _floor_is(P, Q, D, lam, m)
                    assert exact == (floor_over_lambda(beta) == m), (w, k, m)
                    outcomes.add(("floor", exact))
                for i in range(count + 2):
                    alpha = Surd(P - (i * Q) * lam, Q, D)
                    exact = _is_simple(alpha.P, Q, D)
                    assert exact == (alpha.conjugate() < 0 < alpha), (w, k, i)
                    outcomes.add(("simple", exact))
    assert outcomes == {(kind, b) for kind in ("floor", "simple") for b in (True, False)}


def test_rotation_choice_does_not_change_poles():
    rng = random.Random(78)
    for p in (3, 4, 5, 6):
        words = [w for n in (2, 3, 4) for w in enumerate_words(p, n)]
        for w in rng.sample(words, min(5, len(words))):
            letters = w.letters
            reference = None
            for s in range(len(letters)):
                rot = letters[s:] + letters[:s]
                if rot[-1] == 1:
                    continue
                positives = _positives_of_rotation(p, list(rot))
                fingerprint = tuple(sorted(a.key() for a in positives))
                if reference is None:
                    reference = fingerprint
                else:
                    assert fingerprint == reference, (w, rot)


def test_isp_json_dict():
    isp = isp_of_word(GenWord(3, [1, 2]))
    assert isp.to_json_dict() == {
        "p": 3,
        "word": [1, 2],
        "D": [5],
        "positives": [
            {"P": [1], "Q": [2], "D": [5]},
            {"P": [-1], "Q": [2], "D": [5]},
        ],
        "symmetric": True,
        "conjugate_word": [1, 2],
    }
