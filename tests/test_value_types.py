"""The value types against frozen-dataclass twins, and their copies.

Word, BraidWord, GarsideNormalForm, P3Coordinates and CertifiedValue are
slotted ``words.Frozen`` subclasses: equality, hash, repr, copying and
pickling come from their annotated fields.  Each twin below is the frozen
dataclass the type used to be, with the same name, so its generated
``==``, ``hash`` and ``repr`` are the reference; the Word twin keeps
Word's hash of the bare letter tuple.  Copies, deep copies and pickle
round trips must give equal values with equal hashes, as the dataclasses
did.
"""

import copy
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

from sclkit import braids, extension, scl, suite, words


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
        out.append(words.Word(extension.random_reduced(rng, gens, rng.randint(0, 3))))
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        b = braids.BraidWord(n, letters)
        out.append(b)
        out.append(braids.normal_form(b))
    xy = words.Word(())
    for _ in range(30):
        letters = extension.random_reduced(rng, (braids.X, braids.Y), rng.randint(0, 3))
        k = rng.randint(-1, 1)
        out.append(braids.p3_coordinates(braids.p3_assemble(words.Word(letters), k)))
        out.append(braids.P3Coordinates(xy, k))
    for _ in range(30):
        value = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        radius = rng.choice([None, Fraction(0), Fraction(1, rng.randint(1, 2))])
        out.append(extension.CertifiedValue(value, radius))
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


def test_value_types_survive_copy_deepcopy_and_pickle():
    for v in seeded_values(4):
        for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(clone) is type(v)
            assert clone == v and hash(clone) == hash(v)
            assert repr(clone) == repr(v)


def test_a_copied_braid_word_keeps_its_key_out_of_its_fields():
    b = braids.BraidWord(3, (1, 2, 1))
    braids.b3_key(b)
    clone = pickle.loads(pickle.dumps(b))
    assert clone._key is None and braids.b3_key(clone) == braids.b3_key(b)


def test_copies_are_rebuilt_through_the_validating_init():
    assert words.word("ab").__reduce__() == (words.Word, ((1, 2),))
    assert braids.braid("1,-2", 3).__reduce__() == (braids.BraidWord, (3, (1, -2)))


def test_deepcopy_of_a_flip_certificate_keeps_its_claim():
    pair = scl.braid_pure_pair()
    alpha = suite.alpha_braid()
    d = scl.conjugate_flip_decomposition(pair, alpha, braids.half_twist(3), 2)
    cert = scl.upper_from_decomposition(d, "")
    clone = copy.deepcopy(d)
    assert clone.target == d.target and clone.target is not d.target
    assert scl.upper_from_decomposition(clone, "") == cert
    assert cert["bound"] == "1/4"
