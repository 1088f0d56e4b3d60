"""Braid groups with an exact word problem.

Elements are Artin words (signed generator indices, ``+i`` for the i-th
elementary crossing), written as text in comma form, ``1,2,-1``: each letter
costs at least one character, and no syntax expands.  On three strands
equality is decided by the integer key ``b3_key`` (below), and on any other
strand count by Dynnikov coordinates: B_n acts faithfully on Z^2n through
the piecewise-linear action on the coordinates (x_1, ..., x_n; y_1, ..., y_n)
of integral laminations (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering
Braids*, 2008, ch. XII).  ``normal_form`` walks a word's letters once from
the lamination E = (0, ..., 0; 1, ..., 1), each letter changing four
coordinates, so equal tuples mean equal braids.  The action is faithful on
B_n itself, not only modulo the centre (the full twist moves E), so no index
sum is needed.  A coordinate's bit length grows at most linearly with the
word, so the walk is linear in the letters up to big-integer arithmetic.
The Garside normal form in ``tests/garside_helpers.py`` is the independent
oracle for both keys.  Either key is cached in the word's ``_key`` slot,
and off three strands a keyed u times v walks only v's letters on from u's
coordinates, which is the walk of u * v whatever cancels where they meet.

The rank-3 group also carries the exact integer-matrix homomorphism onto
SL(2,Z) sending the two generators to [[1,1],[0,1]] and [[1,0],[-1,1]].  Its
kernel is generated by D^4 (the full twist D^2 maps to -I), on which the
index sum (12 per D^4) is injective.  So the index sum together with the
matrix is an exact equality key, ``b3_key``.  The key is a homomorphism, so
every 3-strand word carries it: products, inverses and powers compose the
keys of their operands with 2x2 integer products (powers by repeated
squaring), and only a word built from letters, such as one parsed from
text, has its letters walked once, on first use.  Reduced mod 2 the matrix
is the permutation of the braid (SL(2,Z/2) is the symmetric group on three
letters), so the key also decides ``is_pure``, and it checks the output of
the pure-braid coordinate splitting ``p3_coordinates``
(Kassel and Turaev, *Braid Groups*, GTM 247, 2008).
"""

from __future__ import annotations

from collections.abc import Hashable

from .groups import FreeGroup, GroupContext, GroupHom
from .words import Frozen, StepFailure, Word, invert_letters, multiply_letters, parse_ints


class BraidWord(Frozen):
    """An Artin word in the braid group on n strands.

    ``_key`` caches the word's key (None until it is known): ``b3_key`` on 3
    strands, else its Dynnikov coordinates.  It is a cache, not a field, so
    equality, hash, repr and copies ignore it.
    """

    __slots__ = ("n", "letters", "_key")
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters: tuple[int, ...]) -> None:
        _set_n(self, n)
        _set_letters(self, letters)
        _set_key(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("braid group needs at least 2 strands")
        for l in self.letters:
            if l == 0 or abs(l) > self.n - 1:
                raise ValueError(f"crossing index {l} out of range for {self.n} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        n = self.n
        if n != other.n:
            raise ValueError(f"strand count mismatch: {n} vs {other.n}")
        if n == 3:
            key = _key_mul(b3_key(self), b3_key(other))
        else:
            key = self._key
            if key is not None:
                key = _dynnikov_walk(list(key[:n]), list(key[n:]), other.letters)
        return _braid_word(n, multiply_letters(self.letters, other.letters), key)

    def __invert__(self) -> "BraidWord":
        key = _key_inv(b3_key(self)) if self.n == 3 else None
        return _braid_word(self.n, invert_letters(self.letters), key)

    def __pow__(self, m: int) -> "BraidWord":
        base = self if m >= 0 else ~self
        key = _key_pow(b3_key(base), abs(m)) if self.n == 3 else None
        return _braid_word(self.n, base.letters * abs(m), key)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid(self)


# the slot descriptors set the fields of a frozen instance directly
_new = object.__new__
_set_n = BraidWord.n.__set__
_set_letters = BraidWord.letters.__set__
_set_key = BraidWord._key.__set__


def _braid_word(n: int, letters: tuple[int, ...], key: tuple[int, ...] | None = None) -> BraidWord:
    """A BraidWord from letters already known to be valid for n strands,
    with its key when known; skips the range check of ``__post_init__``."""
    b = _new(BraidWord)
    _set_n(b, n)
    _set_letters(b, letters)
    _set_key(b, key)
    return b


def braid(text: str, n: int) -> BraidWord:
    """Parse the comma form that ``format_braid`` prints: signed generator
    indices, with whitespace around each ignored.

    >>> braid("1,2,-1", 3).letters
    (1, 2, -1)
    """
    return BraidWord(n, tuple(parse_ints(filter(str.strip, text.split(",")))))


def format_braid(b: BraidWord) -> str:
    return ",".join(map(str, b.letters))


def normal_form(b: BraidWord) -> tuple[int, ...]:
    """Dynnikov coordinates (x_1, ..., x_n, y_1, ..., y_n) of the image of
    the lamination E = (0, ..., 0; 1, ..., 1) under b, in one walk over its
    letters: equal exactly for equal braids.  With a+ = max(a, 0) and
    a- = min(a, 0), sigma_i (i 1-based) changes only x_i, y_i, x_{i+1} and
    y_{i+1}:

        z = x_i - y_i- - x_{i+1} + y_{i+1}+
        x_i' = x_i + y_i+ + (y_{i+1}+ - z)+        y_i' = y_{i+1} - z+
        x_{i+1}' = x_{i+1} + y_{i+1}- + (y_i- + z)-  y_{i+1}' = y_i + z+

    and sigma_i^-1 is sigma_i conjugated by the sign change of every x_j.
    """
    return _dynnikov_walk([0] * b.n, [1] * b.n, b.letters)


def _dynnikov_walk(x: list[int], y: list[int], letters: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates (x; y) moved in place by the letters, one at a time.
    A letter's sign s multiplies the x it reads and writes, and a+ and a-
    are comparisons, since calls to max and min took most of a step's time."""
    for l in letters:
        i, s = abs(l) - 1, (1 if l > 0 else -1)
        xi, yi, xj, yj = s * x[i], y[i], s * x[i + 1], y[i + 1]
        yi_minus, yj_plus = (yi if yi < 0 else 0), (yj if yj > 0 else 0)
        z = xi - yi_minus - xj + yj_plus
        t, u = yj_plus - z, yi_minus + z
        x[i] = s * (xi + yi - yi_minus + (t if t > 0 else 0))
        x[i + 1] = s * (xj + yj - yj_plus + (u if u < 0 else 0))
        z = z if z > 0 else 0
        y[i], y[i + 1] = yj - z, yi + z
    return (*x, *y)


def cached_normal_form(b: BraidWord) -> tuple[int, ...]:
    """``normal_form`` of a word off 3 strands, kept in its ``_key`` slot; the
    name stays while the benchmark tracer wraps it (ROADMAP item 29)."""
    if b._key is None:
        _set_key(b, normal_form(b))
    return b._key


def is_pure(b: BraidWord) -> bool:
    """Whether a 3-strand braid induces the identity permutation: whether
    its SL(2,Z) image is the identity mod 2 (the determinant is 1, so even
    off-diagonal entries force odd diagonal ones).  ``b3_key`` refuses
    other strand counts with ValueError."""
    _, _, q, r, _ = b3_key(b)
    return q % 2 == 0 and r % 2 == 0


def index_sum(b: BraidWord) -> int:
    """Signed crossing count: the homomorphism onto Z sending every
    generator to 1."""
    return sum(1 if l > 0 else -1 for l in b.letters)


def half_twist(n: int) -> BraidWord:
    letters = []
    for size in range(n - 1, 0, -1):
        letters.extend(range(1, size + 1))
    return BraidWord(n, tuple(letters))


def full_twist(n: int) -> BraidWord:
    d = half_twist(n)
    return BraidWord(n, d.letters * 2)


class BraidGroup(GroupContext):
    """Braid group context.

    Canonical keys, cached in each word, are ``b3_key`` on 3 strands and the
    Dynnikov coordinates otherwise.  Balls come in breadth-first discovery
    order, so on 3 strands ``normal_form`` never runs.
    """

    def __init__(self, n: int):
        self.n = n
        self.name = f"braid:{n}"
        self.rests_on = ("b3-key",) if n == 3 else ("dynnikov",)

    def mul(self, a: BraidWord, b: BraidWord) -> BraidWord:
        return a * b

    def inv(self, a: BraidWord) -> BraidWord:
        return ~a

    @property
    def identity(self) -> BraidWord:
        return BraidWord(self.n, ())

    def power(self, a: BraidWord, m: int) -> BraidWord:
        return a**m

    def canonical(self, a: BraidWord) -> Hashable:
        if a.n == 3:
            return b3_key(a)
        return cached_normal_form(a)

    def text(self, a: BraidWord) -> str:
        return format_braid(a)

    def parse(self, s: str) -> BraidWord:
        return braid(s, self.n)

    def generators(self) -> list[BraidWord]:
        return [BraidWord(self.n, (i,)) for i in range(1, self.n)]


# --- the rank-3 matrix homomorphism and pure-braid coordinates ----------

Matrix = tuple[tuple[int, int], tuple[int, int]]
Key = tuple[int, int, int, int, int]


def b3_key(w: BraidWord) -> Key:
    """Exact equality key of a 3-strand braid: (index sum, a, b, c, d), where
    [[a, b], [c, d]] is its SL(2,Z) image.  A word carries its key; only a
    word without one has its letters walked, once.  Other strand counts are
    refused before the slot is read, since there it holds Dynnikov coordinates.

    The matrix map kills exactly the powers of D^4 (the full twist D^2 maps
    to -I), and the index sum is 12 on D^4, so together they are injective.
    D^4 and the identity share the matrix; only the index sum separates them:

    >>> b3_key(full_twist(3) ** 2), b3_key(BraidWord(3, ()))
    ((12, 1, 0, 0, 1), (0, 1, 0, 0, 1))
    """
    if w.n != 3:
        raise ValueError("the matrix homomorphism is defined on 3 strands")
    key = w._key
    if key is None:
        key = _walk_key(w.letters)
        _set_key(w, key)
    return key


def _walk_key(letters: tuple[int, ...]) -> Key:
    """``b3_key`` of a letter sequence, in one pass over the letters."""
    s, a, b, c, d = 0, 1, 0, 0, 1
    for l in letters:
        if l == 1:  # right factor [[1, 1], [0, 1]]
            b += a
            d += c
            s += 1
        elif l == -1:  # [[1, -1], [0, 1]]
            b -= a
            d -= c
            s -= 1
        elif l == 2:  # [[1, 0], [-1, 1]]
            a -= b
            c -= d
            s += 1
        else:  # -2: [[1, 0], [1, 1]]
            a += b
            c += d
            s -= 1
    return s, a, b, c, d


def _key_mul(x: Key, y: Key) -> Key:
    s, a, b, c, d = x
    t, e, f, g, h = y
    return s + t, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _key_inv(x: Key) -> Key:
    s, a, b, c, d = x
    return -s, d, -b, -c, a


def _key_pow(x: Key, m: int) -> Key:
    """Key of the m-th power, m >= 0, by repeated squaring of the matrix."""
    result: Key = (0, 1, 0, 0, 1)
    square = x
    while m:
        if m & 1:
            result = _key_mul(result, square)
        m >>= 1
        if m:
            square = _key_mul(square, square)
    return result


def sl2_image(b: BraidWord) -> Matrix:
    """Exact image of a 3-strand braid in SL(2,Z)."""
    _, p, q, r, t = b3_key(b)
    return (p, q), (r, t)


X = 24
Y = 25


class P3Coordinates(Frozen):
    """Splitting of a pure 3-strand braid as (free part, centre exponent).

    The pure braid group on 3 strands is generated by x = s1^2, y = s2^2 and
    the central full twist z, with ``braid = embed(f2_part) * z^k`` exactly.
    The free part is a word in the letters x, y.
    """

    __slots__ = ("f2_part", "center_exponent")
    f2_part: Word
    center_exponent: int


def p3_embed_letters(w: Word) -> tuple[int, ...]:
    """Letters of the braid word for a free-group element in x, y."""
    strand = {X: 1, Y: 2}
    out: list[int] = []
    for l in w.letters:
        g = strand.get(abs(l))
        if g is None:
            raise ValueError("free part must be a word in the letters x, y")
        s = 1 if l > 0 else -1
        out.extend((s * g, s * g))
    return tuple(out)


_FULL_TWIST_3 = full_twist(3).letters
_FULL_TWIST_3_INVERSE = invert_letters(_FULL_TWIST_3)


def p3_assemble(w: Word, k: int) -> BraidWord:
    """Braid word embed(w) * fulltwist^k on 3 strands.

    Every letter is +-1 or +-2 by construction, so the result skips the
    validation of a public ``BraidWord``.
    """
    twist = _FULL_TWIST_3 if k >= 0 else _FULL_TWIST_3_INVERSE
    return _braid_word(3, p3_embed_letters(w) + twist * abs(k))


# Reidemeister-Schreier rewriting over the six cosets of P3 in B3, whose
# representatives T_0..T_5 are (), s1, s2, s1 s2, s2 s1 and s1 s2 s1
# (Lyndon and Schupp, *Combinatorial Group Theory*, ch. II.4).  Row i maps
# each letter l to (j, free part, z exponent): T_i * l lies in coset j, and
# the pure braid T_i * l * T_j^-1 is embed(free part) * z^(z exponent).
_COSET_STEPS = (
    {1: (1, (), 0), -1: (1, (-X,), 0), 2: (2, (), 0), -2: (2, (-Y,), 0)},
    {1: (0, (X,), 0), -1: (0, (), 0), 2: (3, (), 0), -2: (3, (X, Y), -1)},
    {1: (4, (), 0), -1: (4, (Y, X), -1), 2: (0, (Y,), 0), -2: (0, (), 0)},
    {1: (5, (), 0), -1: (5, (-Y,), 0), 2: (1, (-Y, -X), 1), -2: (1, (), 0)},
    {1: (2, (-X, -Y), 1), -1: (2, (), 0), 2: (5, (), 0), -2: (5, (-X,), 0)},
    {1: (3, (Y,), 0), -1: (3, (), 0), 2: (4, (X,), 0), -2: (4, (), 0)},
)

# the walk reads the table flat: coset i, letter l at 5 * i + 2 + l; j as 5 * j + 2
_P3_WALK = [
    (5 * step[0] + 2,) + step[1:] if step else None
    for row in _COSET_STEPS
    for step in map(row.get, range(-2, 3))
]


def p3_coordinates(b: BraidWord) -> P3Coordinates:
    """Coordinates (f2_part, center_exponent) of a pure 3-strand braid, in
    one walk through the coset table; the braid is pure iff the walk ends in
    coset 0.  Reassembling embed(w) * z^k must reproduce the input's
    ``b3_key``, so the extraction certifies itself: a failure raises
    StepFailure at "p3 coordinates", which ``verify`` reports like any other
    failed check.
    """
    if b.n != 3:
        raise ValueError("coordinates are defined for 3-strand braids")
    walk = _P3_WALK
    at, raw, k = 2, [], 0
    for l in b.letters:
        at, free, z = walk[at + l]
        raw += free
        k += z
    if at != 2:
        raise ValueError("coordinates are defined for pure braids only")
    w = Word.from_raw(raw)
    if b3_key(p3_assemble(w, k)) != b3_key(b):
        raise StepFailure("p3 coordinates", "reassembled coordinates do not reproduce the input")
    return P3Coordinates(w, k)


def pr1() -> GroupHom:
    """Projection of pure 3-strand braids onto the free factor in x, y."""
    return GroupHom(
        BraidGroup(3),
        FreeGroup.on("xy"),
        lambda b: p3_coordinates(b).f2_part,
        "pr1",
        is_pure,
        "pr1",
    )
