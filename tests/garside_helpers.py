"""Braid helpers that only the tests call.

``braid_equal`` decides the word problem through normal forms on any strand
count, the independent oracle for ``b3_key`` on three strands;
``nf_to_letters`` writes a normal form back as an Artin word, for round
trips; ``is_left_weighted`` checks the shape ``normal_form`` promises.
``underlying_permutation`` walks a word's letters to the permutation it
induces, the independent oracle for ``is_pure`` and for the cosets of the
walk in ``p3_coordinates``.  ``sanov_coordinates`` peels a pure braid's
SL(2,Z) image into powers of [[1,2],[0,1]] and [[1,0],[-2,1]], the images of
x and y, the independent oracle for ``p3_coordinates`` and so for ``pr1``.
``plant_extra_syllable`` breaks the coset walk, whose self-check must then
fail.
"""

from sclkit import braids
from sclkit.braids import (
    X,
    Y,
    BraidWord,
    GarsideNormalForm,
    P3Coordinates,
    _descents,
    _tables,
    b3_key,
    cached_normal_form,
)
from sclkit.groups import perm_compose, perm_inverse
from sclkit.words import Word


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Image in the symmetric group (0-indexed position images)."""
    # each letter swaps two values of the image, i.e. two entries of its inverse
    inv = list(range(b.n))
    for l in b.letters:
        i = abs(l) - 1
        inv[i], inv[i + 1] = inv[i + 1], inv[i]
    return perm_inverse(tuple(inv))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Exact word-problem solution via normal forms."""
    if a.n != b.n:
        raise ValueError(f"strand count mismatch: {a.n} vs {b.n}")
    return cached_normal_form(a).key() == cached_normal_form(b).key()


def nf_to_letters(nf: GarsideNormalForm) -> tuple[int, ...]:
    """An Artin word representing the normal form (for round trips)."""
    n = nf.n
    ident, _, taus = _tables(n)
    half = []
    for size in range(n - 1, 0, -1):
        half.extend(range(1, size + 1))
    letters: list[int] = []
    if nf.delta_power >= 0:
        letters.extend(half * nf.delta_power)
    else:
        letters.extend([-l for l in reversed(half)] * (-nf.delta_power))
    for f in nf.factors:
        p = f
        while p != ident:
            i = _descents(p)[0]
            letters.append(i + 1)
            p = perm_compose(taus[i], p)
    return tuple(letters)


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """No factor is trivial or the half twist, and every adjacent pair of
    factors is left-weighted."""
    ident, delta, _ = _tables(nf.n)
    if any(f in (ident, delta) for f in nf.factors):
        return False
    for a, b in zip(nf.factors, nf.factors[1:]):
        fin = set(_descents(perm_inverse(a)))
        if any(i not in fin for i in _descents(b)):
            return False
    return True


def _round_nearest(p: int, q: int) -> int:
    """Nearest integer to p/q; callers guarantee ties cannot occur."""
    if q < 0:
        p, q = -p, -q
    quotient, r = divmod(p, q)
    return quotient + (1 if 2 * r > q else 0)


def sanov_coordinates(b: BraidWord) -> P3Coordinates:
    """Coordinates of a pure 3-strand braid read off its ``b3_key``.

    The matrix, congruent to the identity mod 2, is peeled as
    +-X^a1 Y^b1 ... with X = [[1,2],[0,1]] and Y = [[1,0],[-2,1]]: each step
    strictly shrinks the first column, and parity rules out boundary ties.
    The sign and the index sum then give the centre exponent, since z maps
    to -I and has index sum 6 while x and y have index sum 2.
    """
    s, p, q, r, t = b3_key(b)
    letters: list[int] = []
    while r != 0:
        if abs(p) > abs(r):
            a = _round_nearest(p, 2 * r)
            assert a != 0, "column reduction stalled"
            letters += [X if a > 0 else -X] * abs(a)
            p, q = p - 2 * a * r, q - 2 * a * t
        else:
            c = _round_nearest(r, 2 * p)
            assert c != 0, "column reduction stalled"
            letters += [-Y if c > 0 else Y] * abs(c)
            r, t = r - 2 * c * p, t - 2 * c * q
    assert abs(p) == 1 and p * t == 1 and (p * q) % 2 == 0
    letters += [X if p * q > 0 else -X] * abs(p * q // 2)
    w = Word(tuple(letters))
    k, rem = divmod(s - 2 * sum(1 if l > 0 else -1 for l in letters), 6)
    assert rem == 0 and p == (-1) ** (k % 2)
    return P3Coordinates(w, k)


def plant_extra_syllable(monkeypatch) -> None:
    """Make every step of the coset walk in ``p3_coordinates`` emit one
    letter x too many."""
    walk = [step and (step[0], step[1] + (X,), step[2]) for step in braids._P3_WALK]
    monkeypatch.setattr(braids, "_P3_WALK", walk)
