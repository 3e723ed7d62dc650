"""Matrices of the Hecke group over Z[2cos(pi/p)] and generator words.

A hyperbolic conjugacy class of the group is identified by a cyclic word in
the letters 1..p-1, each letter j standing for the class generator
U^(j-1)*S. This module provides the exact matrices, products of generator
words, canonical (lexicographically least) rotations, the transpose
involution on words, primitive-necklace enumeration, and recovery of the
word from a hyperbolic matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .field import DomainError, RingElem, _power, lambda_elem, sign

__all__ = [
    "Mat",
    "GenWord",
    "NonPrimitive",
    "generator",
    "class_generator",
    "identity",
    "word_to_matrix",
    "letters_to_matrix",
    "classify",
    "canonical_rotation",
    "is_primitive_word",
    "transpose_word",
    "enumerate_words",
    "word_of_matrix",
]


class NonPrimitive(DomainError):
    """The matrix is a proper power; carries the primitive word and exponent."""

    def __init__(self, word, exponent):
        self.word = word
        self.exponent = exponent
        super().__init__(
            f"matrix is the {exponent}-th power of the class with word {list(word.letters)}"
        )


class Mat:
    """Projective 2x2 matrix over Z[lambda] with determinant 1.

    The representative of {M, -M} is pinned down by: trace > 0, or if the
    trace is 0 then the first nonzero entry among (c, a) is positive.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        p = a.p
        if not (b.p == p and c.p == p and d.p == p):
            raise DomainError("mixed p in matrix entries")
        if a * d - b * c != 1:
            raise DomainError("matrix determinant must be exactly 1")
        t = a + d
        st = sign(t)
        if st < 0 or (st == 0 and sign(c if not c.is_zero() else a) < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def p(self):
        return self.a.p

    def trace(self) -> RingElem:
        return self.a + self.d

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat":
        return Mat(self.d, -self.b, -self.c, self.a)

    def transpose(self) -> "Mat":
        return Mat(self.a, self.c, self.b, self.d)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise DomainError("matrix exponent must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return _power(identity(self.p), self, n)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.p != self.p:
            raise DomainError("mixed p in matrix comparison")
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Mat(p={self.p}, [[{self.a.coeffs}, {self.b.coeffs}], [{self.c.coeffs}, {self.d.coeffs}]])"


def identity(p) -> Mat:
    one = RingElem.from_int(p, 1)
    zero = RingElem.from_int(p, 0)
    return Mat(one, zero, zero, one)


def generator(p, which) -> Mat:
    """The standard generators: "S" translates by lambda, "T" is the
    inversion z -> -1/z, "U" is their product S*T."""
    lam = lambda_elem(p)
    one = RingElem.from_int(p, 1)
    zero = RingElem.from_int(p, 0)
    if which == "S":
        return Mat(one, lam, zero, one)
    if which == "T":
        return Mat(zero, -one, one, zero)
    if which == "U":
        return Mat(lam, -one, one, zero)
    raise DomainError(f"unknown generator {which!r} (use S, T, U, or class_generator)")


@lru_cache(maxsize=None)
def _sine_ratios(p, upto):
    # a_0 = 0, a_1 = 1, a_{j+1} = lambda*a_j - a_{j-1}
    lam = lambda_elem(p)
    seq = [RingElem.from_int(p, 0), RingElem.from_int(p, 1)]
    while len(seq) <= upto:
        seq.append(lam * seq[-1] - seq[-2])
    return tuple(seq)


def _class_entries(p, j):
    if not 1 <= j <= p - 1:
        raise DomainError(f"class generator index {j} outside 1..{p - 1}")
    a = _sine_ratios(p, j + 1)
    return (a[j], a[j + 1], a[j - 1], a[j])


def class_generator(p, j) -> Mat:
    """The j-th conjugacy-class generator U^(j-1)*S, for 1 <= j <= p-1."""
    return Mat(*_class_entries(p, j))


def _mul_entries(x, y):
    """Entries of the product of two 2x2 matrices given as (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _product(p, factors) -> Mat:
    """The Mat of a left-to-right product of entry tuples, validated once.

    A chain of Mat products checks det = 1 and takes a certified sign of
    the trace at every factor. The determinant is multiplicative, and the
    representative of {M, -M} depends only on the final trace, since
    normalizing +-X gives the same Mat. So multiplying raw entries and
    building one Mat at the end gives the same entries as the chain, with
    one determinant check and one certified sign."""
    m = None
    for f in factors:
        m = f if m is None else _mul_entries(m, f)
    return identity(p) if m is None else Mat(*m)


def letters_to_matrix(p, letters) -> Mat:
    """Exact left-to-right product of class generators, no canonicalization."""
    return _product(p, [_class_entries(p, j) for j in letters])


def classify(m: Mat) -> str:
    """hyperbolic / parabolic / elliptic by the certified sign of trace^2 - 4."""
    t = m.trace()
    s = sign(t * t - 4)
    if s > 0:
        return "hyperbolic"
    if s == 0:
        return "parabolic"
    return "elliptic"


def canonical_rotation(letters):
    """Lexicographically least cyclic rotation (naive scan; words are short)."""
    letters = tuple(letters)
    n = len(letters)
    return min(letters[i:] + letters[:i] for i in range(n))


def _primitive_core(letters):
    """(core, k) with letters == core * k and core not itself a repetition."""
    letters = tuple(letters)
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return letters[:d], n // d
    return letters, 1


def is_primitive_word(letters) -> bool:
    """No proper sub-period: the word is not a repetition of a shorter block."""
    return _primitive_core(letters)[1] == 1


class GenWord:
    """Canonical cyclic word over {1..p-1}: letters are stored as the
    lexicographically least rotation."""

    __slots__ = ("p", "letters")

    def __init__(self, p, letters):
        if not isinstance(p, int) or p < 3:
            raise DomainError("p must be an integer >= 3")
        letters = tuple(int(x) for x in letters)
        if not letters:
            raise DomainError("a generator word needs at least one letter")
        if any(not 1 <= x <= p - 1 for x in letters):
            raise DomainError(f"letters must lie in 1..{p - 1}")
        self.p = p
        self.letters = canonical_rotation(letters)

    @property
    def is_primitive(self) -> bool:
        return is_primitive_word(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, GenWord):
            return NotImplemented
        return self.p == other.p and self.letters == other.letters

    def __lt__(self, other):
        if not isinstance(other, GenWord) or other.p != self.p:
            raise DomainError("can only order words over the same group")
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __hash__(self):
        return hash((self.p, self.letters))

    def __repr__(self):
        return f"GenWord(p={self.p}, {list(self.letters)})"

    def rotations(self):
        n = len(self.letters)
        return [self.letters[i:] + self.letters[:i] for i in range(n)]

    def to_json_dict(self):
        return {"p": self.p, "letters": list(self.letters)}


def word_to_matrix(w: GenWord) -> Mat:
    return letters_to_matrix(w.p, w.letters)


def transpose_word(w: GenWord) -> GenWord:
    """Reverse the letters and replace each j by p-j (the word of the
    transposed matrix product), re-canonicalized."""
    return GenWord(w.p, [w.p - j for j in reversed(w.letters)])


def _lyndon_words(q, n):
    # Duval's algorithm: all Lyndon words of length <= n over 0..q-1, lex order
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == q - 1:
            w.pop()


def enumerate_words(p, n):
    """All canonical primitive cyclic words of length n over {1..p-1}, sorted;
    for n = 1 the two parabolic letters 1 and p-1 are left out."""
    if p < 3 or n < 1:
        raise DomainError("need p >= 3 and n >= 1")
    out = []
    for lw in _lyndon_words(p - 1, n):
        if len(lw) != n:
            continue
        letters = tuple(x + 1 for x in lw)
        if n == 1 and letters[0] in (1, p - 1):
            continue
        out.append(GenWord(p, letters))
    return out


def word_of_matrix(m: Mat) -> GenWord:
    """Canonical word of the conjugacy class of a primitive hyperbolic matrix.

    Found through the attracting fixed point: its continued-fraction period
    is the class invariant, and the period translates back to letters. If m
    is a proper power, NonPrimitive reports the primitive word and exponent.

    The exponent is found by walking the traces t_k of the powers of the
    primitive matrix, t_0 = 2, t_1 = t and t_(k+1) = t t_k - t_(k-1), until
    they reach the trace of m. They rise strictly: t > 2 for a hyperbolic
    matrix of positive trace, and t_(k+1) - t_k = (t - 2) t_k + (t_k -
    t_(k-1)) is positive once t_k > 0 and t_k > t_(k-1), which holds at
    k = 1. So the walk stops at the exponent, or at the first trace beyond
    the target, which no power has.
    """
    if classify(m) != "hyperbolic":
        raise DomainError("only hyperbolic matrices have generator words")
    from .cf import cf_expand, period_to_word
    from .quadforms import fixed_points

    n = m
    for _ in range(3):
        if not n.c.is_zero():
            break
        # move the fixed point away from infinity
        t = generator(n.p, "T") if not n.b.is_zero() else generator(n.p, "U")
        n = t * n * t.inv()
    assert not n.c.is_zero()
    alpha, _ = fixed_points(n)
    cf = cf_expand(alpha)
    word = period_to_word(m.p, cf.period)
    # exponent: traces of powers follow t_{k+1} = t*t_k - t_{k-1}
    t = word_to_matrix(word).trace()
    target = m.trace()
    t_prev, t_cur, k = RingElem.from_int(m.p, 2), t, 1
    while t_cur != target:
        if sign(target - t_cur) < 0:
            raise AssertionError("trace of input not reached by powers of its primitive class")
        t_prev, t_cur, k = t_cur, t * t_cur - t_prev, k + 1
    if k == 1:
        return word
    raise NonPrimitive(word, k)
