"""The value types against frozen-dataclass twins.

Word, BraidWord, GarsideNormalForm, P3Coordinates and CertifiedValue are
plain slotted classes with hand-written equality, hash and repr.  Each twin
below is the frozen dataclass the type used to be, with the same name, so
its generated ``==``, ``hash`` and ``repr`` are the reference; the Word twin
keeps Word's hash of the bare letter tuple.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from sclkit import braids, quasimorphisms, words


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]

    def __hash__(self):
        return hash(self.letters)


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple[int, ...]


@dataclass(frozen=True)
class GarsideNormalForm:
    n: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class P3Coordinates:
    f2_part: words.Word
    center_exponent: int


@dataclass(frozen=True)
class CertifiedValue:
    value: Fraction
    radius: Fraction | None


def twin(value):
    if isinstance(value, words.Word):
        return Word(value.letters)
    if isinstance(value, braids.BraidWord):
        return BraidWord(value.n, value.letters)
    if isinstance(value, braids.GarsideNormalForm):
        return GarsideNormalForm(value.n, value.delta_power, value.factors)
    if isinstance(value, braids.P3Coordinates):
        # the free part stays the sclkit Word, which the Word twin covers
        return P3Coordinates(value.f2_part, value.center_exponent)
    return CertifiedValue(value.value, value.radius)


def seeded_values(seed):
    """Small samples of every type, so that equal pairs built apart occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        gens = tuple(range(1, rng.randint(1, 3) + 1))
        out.append(words.Word(words.random_reduced(rng, gens, rng.randint(0, 3))))
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        b = braids.BraidWord(n, letters)
        out.append(b)
        out.append(braids.normal_form(b))
    xy = words.Word(())
    for _ in range(30):
        letters = words.random_reduced(rng, (braids.X, braids.Y), rng.randint(0, 3))
        k = rng.randint(-1, 1)
        out.append(braids.p3_coordinates(braids.p3_assemble(words.Word(letters), k)))
        out.append(braids.P3Coordinates(xy, k))
    for _ in range(30):
        value = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        radius = rng.choice([None, Fraction(0), Fraction(1, rng.randint(1, 2))])
        out.append(quasimorphisms.CertifiedValue(value, radius))
    return out


def test_value_types_agree_with_their_dataclass_twins():
    for seed in (1, 2, 3):
        values = seeded_values(seed)
        twins = [twin(v) for v in values]
        equal_pairs = unequal_pairs = 0
        for v, t in zip(values, twins):
            assert repr(v) == repr(t)
            assert hash(v) == hash(t)
            assert v == v and not v != v
        for v, t in zip(values, twins):
            for w, u in zip(values, twins):
                assert (v == w) == (t == u), (v, w)
                assert (v != w) == (t != u), (v, w)
                if v == w:
                    assert hash(v) == hash(w)
                    equal_pairs += v is not w
                else:
                    unequal_pairs += 1
        # the samples exercise both outcomes, also across types
        assert equal_pairs > 50 and unequal_pairs > 10_000
