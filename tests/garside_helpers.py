"""Braid helpers that only the tests call, and the Garside normal form,
the oracle for both equality keys of ``sclkit.braids``.

``garside_normal_form`` is the left-greedy normal form ``D^k p_1 ... p_l``:
a power of the half twist followed by a left-weighted sequence of
permutation braids, each recorded as the permutation it induces on strand
positions.  ``braid_equal`` decides the word problem through it on any
strand count, the independent oracle for ``b3_key`` on three strands and for
the Dynnikov coordinates of ``braids.normal_form`` on the others.

Conventions.  Permutations are 0-indexed image tuples acting on positions;
composition ``compose(p, q)`` applies p first.  A braid word maps to the
composition of its letters' transpositions, so the half twist corresponds to
the order-reversing permutation.  For a permutation braid P with permutation
``pi``:

* ``sigma_{i+1}`` is a prefix of P   iff  pi has a descent at i,
* ``sigma_{i+1}`` is a suffix of P   iff  pi^-1 has a descent at i,
* appending ``sigma_{i+1}`` keeps P a permutation braid iff pi^-1 has no
  descent at i (the strands ending at positions i, i+1 have not crossed yet).

A pair (A, B) of permutation braids is left-weighted when every prefix
generator of B is a suffix generator of A; the local repair move slides one
crossing from the front of B to the back of A and strictly shrinks B, so it
terminates.  Normalisation is one left-to-right pass: each factor is
appended and adjacent pairs are repaired leftwards until one is already
left-weighted (Epstein et al., *Word Processing in Groups*, ch. 9).  The
pair repair is memoised, which makes long words on few strands cheap.

``nf_to_letters`` writes a normal form back as an Artin word, for round
trips; ``is_left_weighted`` checks the shape ``garside_normal_form``
promises.  ``underlying_permutation`` walks a word's letters to the
permutation it induces, the independent oracle for ``is_pure`` and for the
cosets of the walk in ``p3_coordinates``.  ``sanov_coordinates`` peels a
pure braid's SL(2,Z) image into powers of [[1,2],[0,1]] and [[1,0],[-2,1]],
the images of x and y, the independent oracle for ``p3_coordinates`` and so
for ``pr1``.  ``plant_extra_syllable`` breaks the coset walk, whose
self-check must then fail.
"""

import functools
from collections.abc import Hashable

from sclkit import braids
from sclkit.braids import X, Y, BraidWord, P3Coordinates, b3_key
from sclkit.groups import perm_compose, perm_identity, perm_inverse
from sclkit.words import Frozen, Word


@functools.cache
def _tables(n: int):
    """Per-strand-count permutations (identity, half twist, transpositions)."""
    taus = []
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = images[i + 1], images[i]
        taus.append(tuple(images))
    return perm_identity(n), tuple(range(n - 1, -1, -1)), tuple(taus)


def _descents(p: tuple[int, ...]) -> list[int]:
    return [i for i in range(len(p) - 1) if p[i] > p[i + 1]]


@functools.cache
def _flip(n: int, p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation of a permutation braid by the half twist."""
    _, delta, _ = _tables(n)
    return perm_compose(perm_compose(delta, p), delta)


@functools.cache
def _lw_pair(n: int, a: tuple[int, ...], b: tuple[int, ...]):
    """Left-weight an adjacent factor pair, preserving the product a*b."""
    _, _, taus = _tables(n)
    while True:
        ainv = perm_inverse(a)
        move = next((i for i in _descents(b) if ainv[i] < ainv[i + 1]), None)
        if move is None:
            return a, b
        a = perm_compose(a, taus[move])
        b = perm_compose(taus[move], b)


def _normalize_factors(n: int, k: int, factors: list[tuple[int, ...]]):
    """Left-weight a positive factor list, extracting half-twist powers.

    Each factor is appended to a left-weighted list and repaired leftwards
    until a pair is already left-weighted; the list stays left-weighted, so
    half twists can only sit at its front and trivial factors at its back.
    """
    ident, delta, _ = _tables(n)
    fs: list[tuple[int, ...]] = []
    for f in factors:
        fs.append(f)
        i = len(fs) - 1
        while i > 0:
            a, b = _lw_pair(n, fs[i - 1], fs[i])
            if a == fs[i - 1]:
                break
            fs[i - 1], fs[i] = a, b
            i -= 1
        while fs and fs[-1] == ident:
            fs.pop()
    lead = 0
    while lead < len(fs) and fs[lead] == delta:
        lead += 1
    return k + lead, tuple(fs[lead:])


class GarsideNormalForm(Frozen):
    """Normal form D^k p_1 ... p_l; no factor is trivial or the half twist."""

    __slots__ = ("n", "delta_power", "factors")
    n: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        parts = " ".join(",".join(str(v + 1) for v in f) for f in self.factors)
        return f"D^{self.delta_power} | {parts}" if parts else f"D^{self.delta_power} |"

    def key(self) -> Hashable:
        return (self.n, self.delta_power, self.factors)


def garside_normal_form(b: BraidWord) -> GarsideNormalForm:
    """Left-greedy normal form of an Artin word."""
    _, delta, taus = _tables(b.n)
    exps = []
    factors = []
    for l in b.letters:
        if l > 0:
            exps.append(0)
            factors.append(taus[l - 1])
        else:
            exps.append(-1)
            factors.append(perm_compose(delta, taus[-l - 1]))
    # every half twist moves to the front, flipping the factors it crosses
    flipped = []
    suffix = 0
    for e, f in zip(reversed(exps), reversed(factors)):
        flipped.append(_flip(b.n, f) if suffix % 2 else f)
        suffix += e
    flipped.reverse()
    k, fs = _normalize_factors(b.n, sum(exps), flipped)
    return GarsideNormalForm(b.n, k, fs)


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Image in the symmetric group (0-indexed position images)."""
    # each letter swaps two values of the image, i.e. two entries of its inverse
    inv = list(range(b.n))
    for l in b.letters:
        i = abs(l) - 1
        inv[i], inv[i + 1] = inv[i + 1], inv[i]
    return perm_inverse(tuple(inv))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Exact word-problem solution via Garside normal forms."""
    if a.n != b.n:
        raise ValueError(f"strand count mismatch: {a.n} vs {b.n}")
    return garside_normal_form(a).key() == garside_normal_form(b).key()


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
