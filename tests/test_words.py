"""Reduced-word algebra, checked against brute-force oracles."""

import random
import subprocess
import sys

import pytest

import ball_reference
from sclkit.braids import braid, normal_form
from sclkit.groups import FreeGroup
from sclkit.words import (
    Word,
    commutator,
    cyclic_reduce_letters,
    format_letters,
    invert_letters,
    is_reduced,
    multiply_letters,
    parse_letters,
    random_reduced,
    reduce_letters,
    word,
    words_of_length,
)
from value_helpers import cyclic_reduce


def naive_reduce(raw):
    # repeated single-pass cancellation to a fixpoint; slow but obviously right
    out = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def test_reduce_matches_naive_oracle():
    rng = random.Random(100)
    for _ in range(2000):
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(0, 20))]
        got = reduce_letters(raw)
        assert got == naive_reduce(raw)
        assert is_reduced(got)


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        reduce_letters((1, 27))
    with pytest.raises(ValueError):
        reduce_letters((-27,))
    with pytest.raises(ValueError):
        reduce_letters((0,))


def test_multiply_and_invert_letters():
    rng = random.Random(101)
    for _ in range(500):
        a = random_reduced(rng, (1, 2), rng.randrange(0, 10))
        b = random_reduced(rng, (1, 2), rng.randrange(0, 10))
        assert multiply_letters(a, b) == naive_reduce(a + b)
        assert multiply_letters(a, invert_letters(a)) == ()


def test_group_axioms_on_random_words():
    rng = random.Random(102)
    e = Word(())
    for _ in range(500):
        u = Word(random_reduced(rng, (1, 2), rng.randrange(0, 8)))
        v = Word(random_reduced(rng, (1, 2), rng.randrange(0, 8)))
        w_ = Word(random_reduced(rng, (1, 2), rng.randrange(0, 8)))
        assert (u * v) * w_ == u * (v * w_)
        assert u * ~u == e
        assert u * e == u

    assert (Word((1, 2)) ** 3).letters == (1, 2, 1, 2, 1, 2)
    assert (Word((1, 2)) ** -2) == ~(Word((1, 2)) ** 2)
    assert (Word((1,)) ** 0).letters == ()


def test_words_are_equal_and_hash_by_their_letters():
    # a word does not record the group it was built in
    xy = FreeGroup.on("xy").parse("xyX")
    assert xy == FreeGroup(26).parse("xyX") == word("xyX") == Word((24, 25, -24))
    assert hash(xy) == hash(Word.from_raw([24, 25, 1, -1, -24]))
    assert FreeGroup(2).parse("ab") == FreeGroup.on("ab").parse("ab")
    assert Word((1,)) != Word((2,)) and Word((1,)) != Word((-1,))
    assert len({Word((1, 2)), word("ab"), Word.from_raw([1, 2]), Word(())}) == 2


def test_parse_and_format_round_trip():
    assert parse_letters("abAB") == [1, 2, -1, -2]
    assert format_letters((1, 2, -1, -2)) == "abAB"
    assert str(word("x yy X")) == "xyyX"
    assert word("aA").letters == ()
    rng = random.Random(103)
    for _ in range(300):
        w = Word(random_reduced(rng, (1, 2, 3), rng.randrange(0, 12)))
        assert word(str(w)) == w


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_letters("a1b")
    with pytest.raises(ValueError):
        parse_letters("a^")
    with pytest.raises(ValueError):
        format_letters((27,))


def test_cyclic_reduce_is_a_conjugation():
    assert cyclic_reduce_letters((1, 2, -1)) == ((2,), (1,))
    rng = random.Random(104)
    for _ in range(500):
        w = Word(random_reduced(rng, (1, 2), rng.randrange(0, 14)))
        core, conj = cyclic_reduce(w)
        assert conj * core * ~conj == w
        # core is cyclically reduced: first and last letters do not cancel
        if len(core) >= 2:
            assert core.letters[0] != -core.letters[-1]


def test_commutator_and_exponent_sum():
    a, b = word("a"), word("b")
    assert str(commutator(a, b)) == "abAB"
    assert commutator(a, b).exponent_sum() == 0
    assert word("aab").exponent_sum() == 3
    assert word("aaB").exponent_sum() == 1


def test_words_of_length_enumeration_counts():
    # 2r * (2r-1)^(L-1) reduced words of length L in rank r
    for rank, length in [(1, 3), (2, 1), (2, 4), (3, 3)]:
        count = sum(1 for _ in words_of_length(range(1, rank + 1), length))
        assert count == 2 * rank * (2 * rank - 1) ** (length - 1)
    assert list(words_of_length((1, 2), 0)) == [()]
    for letters in words_of_length((1, 2), 5):
        assert is_reduced(letters)


def test_words_of_length_respects_gen_indices():
    seen = set(words_of_length((24, 25), 2))
    assert len(seen) == 4 * 3
    assert all(abs(l) in (24, 25) for w in seen for l in w)


@pytest.mark.parametrize(
    "rank, gen_indices", [(1, None), (2, None), (3, None), (26, (24, 25)), (3, (1, 3))]
)
def test_words_of_length_matches_the_recursive_enumerator(rank, gen_indices):
    # the same tuples in the same order, which fixes the free-group sphere
    # order and so the pair order of the defect searches; without
    # gen_indices the generators are those of FreeGroup(rank)
    gens = gen_indices if gen_indices is not None else FreeGroup(rank).gen_indices
    for length in range(8):
        assert list(words_of_length(gens, length)) == list(
            ball_reference.words_of_length(gens, length)
        )


def test_free_group_spheres_match_the_recursive_enumerator():
    for ctx in (FreeGroup(1), FreeGroup(2), FreeGroup(3), FreeGroup.on("xy"), FreeGroup.on("ac")):
        for k in range(7):
            sphere = list(ctx.sphere(k))
            assert [ctx.canonical(g) for g in sphere] == list(
                ball_reference.words_of_length(ctx.gen_indices, k)
            )


def test_random_reduced_respects_length_and_reduction():
    rng = random.Random(105)
    for _ in range(200):
        n = rng.randrange(0, 15)
        letters = random_reduced(rng, (1, 2, 3), n)
        assert len(letters) == n
        assert is_reduced(letters)


def _filtered_random_reduced(rng, gen_indices, length):
    # random_reduced before it read a successor table: the oracle
    alphabet = [i for g in gen_indices for i in (g, -g)]
    if not alphabet or length == 0:
        return ()
    out = []
    for _ in range(length):
        choices = [l for l in alphabet if not out or out[-1] != -l]
        out.append(rng.choice(choices))
    return tuple(out)


@pytest.mark.parametrize("seed", [0, 7, 1009, 2024])
def test_random_reduced_draws_are_bit_for_bit_the_filtered_draws(seed):
    old, new = random.Random(seed), random.Random(seed)
    for gen_indices in ((), (1,), (1, 2), (1, 2, 3), (24, 25)):
        for length in range(41):
            expected = _filtered_random_reduced(old, gen_indices, length)
            assert random_reduced(new, gen_indices, length) == expected
    assert new.getstate() == old.getstate()


def _validated(w):
    # the public constructor checks the range and the reduction
    checked = Word(w.letters)
    assert checked == w
    assert is_reduced(w.letters)
    return checked


def test_internal_words_match_validated_construction():
    rng = random.Random(106)
    for rank in (1, 2, 3, 4):
        letters = [l for i in range(1, rank + 1) for l in (i, -i)]
        ctx = FreeGroup(rank)
        _validated(ctx.identity)
        for k in range(4):
            for w in ctx.sphere(k):
                _validated(w)
        for _ in range(300):
            raw = [rng.choice(letters) for _ in range(rng.randrange(0, 16))]
            u = Word.from_raw(raw)
            assert _validated(u).letters == naive_reduce(raw)
            top = rng.randint(1, rank)
            v = Word.from_raw([l for l in raw[::-1] if abs(l) <= top])
            _validated(ctx.sample(rng, rng.randrange(0, 10)))
            assert _validated(u * v).letters == naive_reduce(u.letters + v.letters)
            assert _validated(v * u).letters == naive_reduce(v.letters + u.letters)
            assert _validated(~u).letters == naive_reduce(invert_letters(raw))
            n = rng.randint(-3, 3)
            base = u.letters if n >= 0 else invert_letters(u.letters)
            assert _validated(u**n).letters == naive_reduce(base * abs(n))
            core, conj = cyclic_reduce(u)
            _validated(core)
            _validated(conj)


def test_public_construction_still_validates():
    with pytest.raises(ValueError):
        Word((1, 2, -2))
    with pytest.raises(ValueError):
        Word((-27,))
    with pytest.raises(ValueError):
        Word.from_raw((1, 0))
    with pytest.raises(ValueError):
        FreeGroup(1).parse("ab")
    assert Word((26, -1)) == Word.from_raw((26, 2, -2, -1)) == word("zA")


def _eval_c_on_free_2_in_a_fresh_process():
    r = subprocess.run(
        [sys.executable, "-m", "sclkit", "eval", "--group", "free:2", "--qm", "brooks(w=ab)", "--word", "c"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 2 and "Traceback" not in r.stderr and not r.stdout
    raise ValueError(r.stderr)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Word((0,)), "letter 0 is not a generator index"),
        (lambda: Word((27,)), "letter 27 is not a generator index"),
        (lambda: Word((1, -1)), "freely reduced"),
        (lambda: Word.from_raw([27]), "letter 27 is not a generator index"),
        (lambda: FreeGroup(2).parse("c"), "letters 'c' are not generators of free:2"),
        (lambda: FreeGroup.on("xy").parse("a"), "letters 'a' are not generators of free:xy"),
        (_eval_c_on_free_2_in_a_fresh_process, "^error: letters 'c' are not generators of free:2$"),
    ],
    ids=["zero", "past-z", "unreduced", "raw-past-z", "free-2", "free-xy", "cli-eval"],
)
def test_the_alphabet_is_checked_at_the_public_boundary(build, message):
    # a word accepts any letter a..z; which of them are generators is the
    # group's question, asked when text is parsed in it
    with pytest.raises(ValueError, match=message):
        build()


def test_word_is_slotted_and_frozen():
    w = word("ab")
    with pytest.raises(AttributeError):
        w.letters = ()
    with pytest.raises(AttributeError):
        (w * w).letters = ()
    b = braid("1,2,-1", 3)
    values = (
        (w, ("letters",)),
        (w * w, ("letters",)),
        (b, ("n", "letters")),
        (b**3, ("n", "letters")),
        (normal_form(b), ("n", "delta_power", "factors")),
    )
    for value, fields in values:
        assert not hasattr(value, "__dict__")
        before = tuple(getattr(value, name) for name in fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert tuple(getattr(value, name) for name in fields) == before
    assert w.letters == (1, 2) and Word.__slots__ == ("letters",)
