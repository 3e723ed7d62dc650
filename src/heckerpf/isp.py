"""Irreducible systems of poles for rational period functions.

Each primitive hyperbolic conjugacy class, named by its canonical generator
word, owns one irreducible system of poles: rotate the word so every run of
1-letters is closed by a bigger letter, expand the matching purely periodic
continued fraction once per block, and translate each block's reduced fixed
point left by lambda until the root goes negative. The positive poles
collected this way all share the discriminant trace^2 - 4 of the word's
matrix; the full pole set is the positives together with their images under
the inversion generator. Counting systems with n positive poles is counting
primitive necklaces over the alphabet of letters, Moebius-style.
"""

from __future__ import annotations

from functools import lru_cache

from .cf import (
    CF,
    Parabolic,
    Surd,
    _fixed_point,
    _steps_matrix,
    cf_expand,
    is_admissible,
    is_parabolic_period,
)
from .field import DomainError, lambda_elem, sign
from .group import (
    GenWord,
    NonPrimitive,
    _mul_entries,
    _primitive_core,
    _product,
    canonical_rotation,
    classify,
    enumerate_words,
    identity,
    transpose_word,
    word_to_matrix,
)

__all__ = [
    "ISP",
    "isp_of_word",
    "count_isps",
    "enumerate_isps",
    "is_hecke_symmetric",
    "conjugate_isp",
    "symmetry_via_numbers",
]


class ISP:
    """An irreducible system of poles: the positive poles of one class.

    positives is ordered block-major (block 1's translates first, each run
    ordered by translation distance), so serialized output is deterministic.
    All positives share the one D object of the system. The system holds
    only its word, D and positives; the rest is derived from them.
    """

    __slots__ = ("word", "D", "positives")

    def __init__(self, word, D, positives):
        self.word = word
        self.D = D
        self.positives = tuple(positives)

    @property
    def p(self):
        return self.word.p

    @property
    def beta1(self):
        """The reduced point of block 1, whose first translate is positives[0]."""
        a = self.positives[0]
        return Surd(a.P + lambda_elem(self.p) * a.Q, a.Q, a.D)

    @property
    def symmetric(self):
        return is_hecke_symmetric(self.word)

    @property
    def conjugate_word(self):
        return conjugate_isp(self.word)

    def __eq__(self, other):
        if not isinstance(other, ISP):
            return NotImplemented
        return (
            self.word == other.word
            and self.D == other.D
            and self.positives == other.positives
        )

    def __repr__(self):
        return (
            f"ISP(p={self.p}, word={list(self.word.letters)}, "
            f"{len(self.positives)} positive poles, symmetric={self.symmetric})"
        )

    def to_json_dict(self):
        return {
            "p": self.p,
            "word": list(self.word.letters),
            "D": list(self.D.coeffs),
            "positives": [a.to_json_dict() for a in self.positives],
            "symmetric": self.symmetric,
            "conjugate_word": list(self.conjugate_word.letters),
        }


def _blocks(letters):
    """Split a rotation whose last letter is not 1 into (ones, closer) runs."""
    out = []
    ones = 0
    for j in letters:
        if j == 1:
            ones += 1
        else:
            out.append((ones, j))
            ones = 0
    assert ones == 0, "rotation does not end every block with a letter > 1"
    return out


def _nonnegative(P, D) -> bool:
    """Whether P + sqrt(D) >= 0, decided by two exact ring signs.

    If P >= 0 both terms are >= 0. If P < 0, then P + sqrt(D) >= 0 iff
    sqrt(D) >= -P > 0 iff D >= P^2, both sides of the square being
    nonnegative. So P + sqrt(D) >= 0 iff D - P^2 >= 0 or P >= 0. This is
    `field._ext_sign`'s rule for v = 1, kept on ring elements in the
    orientation D - P^2 that `_is_simple` also tests."""
    return sign(D - P * P) >= 0 or sign(P) >= 0


def _is_simple(P, Q, D) -> bool:
    """Whether alpha' < 0 < alpha for alpha = (P + sqrt(D))/Q and its
    conjugate alpha' = (P - sqrt(D))/Q, decided by two exact ring signs.

    alpha' < 0 < alpha iff alpha * alpha' < 0 and alpha - alpha' > 0. The
    product is (P^2 - D)/Q^2, negative iff D - P^2 > 0; then D > 0, and the
    difference 2 sqrt(D)/Q is positive iff Q > 0. So the test is
    sign(Q) > 0 and sign(D - P^2) > 0."""
    return sign(Q) > 0 and sign(D - P * P) > 0


def _floor_is(P, Q, D, lam, m) -> bool:
    """Whether floor(beta/lambda) == m for beta = (P + sqrt(D))/Q with
    Q > 0, decided by exact ring signs.

    floor(beta/lambda) == m iff beta - m*lambda >= 0 > beta - (m+1)*lambda.
    beta - k*lambda = (P - k*lambda*Q + sqrt(D))/Q, and with Q > 0 its sign
    is the sign of P_k + sqrt(D), P_k = P - k*lambda*Q, which _nonnegative
    decides."""
    lq = lam * Q
    return _nonnegative(P - m * lq, D) and not _nonnegative(P - (m + 1) * lq, D)


@lru_cache(maxsize=None)
def _block_steps(p, ones, closer):
    """Entries of the step product of one block: the CF entries m+2 and
    j-2 ones of a run of m 1s closed by the letter j."""
    return _steps_matrix(p, (ones + 2,) + (1,) * (closer - 2)).entries()


def _block_points(p, letters):
    """(beta_t, count_t) for each block t of a block-aligned rotation.

    The continued-fraction period is assembled block by block — a run of m
    1s closed by letter j becomes the entry m+2 followed by j-2 ones — so
    the rotation is honored as given, without re-canonicalizing. beta_t is
    the value of the purely periodic CF that starts at block t, and
    count_t = m + 1 is floor(beta_t / lambda).

    The period matrix W is built once from the block step products B_t.
    The CF starting at block t has the matrix X_t^-1 W X_t with
    X_t = B_1 ... B_(t-1), the steps before that block, since a rotation of
    a product is a conjugate of it. Conjugation keeps the trace, and W has
    trace > 0, so X_t^-1 W X_t is already the normalized representative
    that surd_of_cf builds for the rotated period (the sign of X_t cancels),
    and the fixed-point triples agree entry for entry."""
    blocks = _blocks(letters)
    period = []
    for ones, closer in blocks:
        period.append(ones + 2)
        period.extend([1] * (closer - 2))
    cf = CF(p, (), period)
    assert is_admissible(cf) and not is_parabolic_period(cf), "block period is not hyperbolic"
    steps = [_block_steps(p, ones, closer) for ones, closer in blocks]
    W = _product(p, steps)
    assert classify(W) == "hyperbolic", "admissible non-parabolic CF must be hyperbolic"
    W = W.entries()
    X = identity(p).entries()
    out = []
    for (ones, _), B in zip(blocks, steps):
        a, b, c, d = X
        conj = _mul_entries(_mul_entries((d, -b, -c, a), W), X)
        assert not conj[2].is_zero(), "finite CF value cannot be fixed at infinity"
        out.append((_fixed_point(conj), ones + 1))
        X = _mul_entries(X, B)
    return out


def _positives_of_rotation(p, letters):
    """Positive poles read off one block-aligned rotation of a word: the
    translates beta_t - i*lambda, i = 1 .. count_t, of each block point.

    Every check is an exact ring sign: Q > 0 and the floor of beta_t/lambda
    through _floor_is, and each translate's simplicity through _is_simple.
    Conjugation keeps the trace t, so every block point has the same
    D = t^2 - 4, and all translates are built on block 1's D object."""
    lam = lambda_elem(p)
    points = _block_points(p, letters)
    D = points[0][0].D
    positives = []
    for beta, count in points:
        P, Q = beta.P, beta.Q
        assert beta.D == D and sign(Q) > 0 and _floor_is(P, Q, D, lam, count)
        lq = lam * Q
        for _ in range(count):
            P = P - lq
            assert _is_simple(P, Q, D), "translate is not simple"
            positives.append(Surd(P, Q, D))
    return positives


def isp_of_word(w: GenWord) -> ISP:
    """The irreducible system of poles of a primitive hyperbolic word.

    The word is used in its canonical rotation (lexicographically least,
    which always closes each run of 1s with a bigger letter); per block the
    purely periodic continued fraction starting there gives a reduced point
    beta_t, contributing the simple poles beta_t - i*lambda for
    i = 1 .. floor(beta_t / lambda)."""
    p = w.p
    letters = w.letters
    if all(j == 1 for j in letters) or all(j == p - 1 for j in letters):
        raise Parabolic("pure powers of the parabolic letters have no pole system")
    core, k = _primitive_core(letters)
    if k > 1:
        raise NonPrimitive(GenWord(p, core), k)
    assert letters[-1] != 1, "canonical rotation should close its final block"
    positives = _positives_of_rotation(p, letters)
    assert len(positives) == len(letters)
    t = word_to_matrix(w).trace()
    D = positives[0].D
    assert D == t * t - 4, "pole discriminant must match the word matrix"
    return ISP(word=w, D=D, positives=positives)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _primitive_necklaces(q: int, n: int) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


def count_isps(p: int, n: int) -> int:
    """How many irreducible pole systems have exactly n positive poles.

    Primitive-necklace count over the p-1 letters, except that single
    letters lose the two parabolic generators."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 3:
        raise DomainError("p must be an integer >= 3")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError("n must be an integer >= 1")
    if n == 1:
        return p - 3
    return _primitive_necklaces(p - 1, n)


def enumerate_isps(p: int, n: int):
    """All irreducible pole systems with n positive poles, in word order."""
    return [isp_of_word(w) for w in enumerate_words(p, n)]


def is_hecke_symmetric(w: GenWord) -> bool:
    """Whether the pole system is its own conjugate: the transposed word
    lands back on the same canonical word."""
    return transpose_word(w) == w


def conjugate_isp(w: GenWord) -> GenWord:
    """Canonical word of the conjugate pole system (the transposed class)."""
    return transpose_word(w)


def symmetry_via_numbers(isp: ISP) -> bool:
    """Symmetry checked on the numbers instead of the words: every positive
    pole's algebraic conjugate must expand to the same continued-fraction
    period up to rotation. Independent of the word transpose route, so the
    two are test oracles for each other."""
    for alpha in isp.positives:
        a = cf_expand(alpha)
        b = cf_expand(alpha.conjugate())
        if canonical_rotation(tuple(a.period)) != canonical_rotation(tuple(b.period)):
            return False
    return True
