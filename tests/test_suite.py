"""Suite runner plumbing and module doctest examples."""

import doctest
import random

import pytest

from garside_helpers import plant_extra_syllable
import sclkit.braids
import sclkit.certio
import sclkit.extension
import sclkit.groups
import sclkit.norms
import sclkit.quasimorphisms
import sclkit.scl
import sclkit.specs
import sclkit.suite
import sclkit.words
from sclkit.braids import X, Y
from sclkit.groups import FreeGroup
from sclkit.suite import (
    _ALGEBRA_GENS,
    DEFAULT_SEED,
    ITEMS,
    Item,
    _random_raw,
    find_item,
    run_item,
)
from sclkit.words import (
    StepFailure,
    Word,
    invert_letters,
    multiply_letters,
    random_reduced,
    reduce_letters,
)


def test_item_registry_shape():
    assert [it.key for it in ITEMS] == [str(k) for k in range(1, 12)]
    assert len({it.slug for it in ITEMS}) == 11
    assert all(it.budget > 0 for it in ITEMS)
    assert DEFAULT_SEED == 7


def test_find_item_by_key_and_slug():
    assert find_item("4").slug == "duality-lower"
    assert find_item("duality-lower").key == "4"
    with pytest.raises(ValueError) as exc:
        find_item("nope")
    assert "counting-values" in str(exc.value)


def test_run_item_captures_crashes(monkeypatch):
    def boom(rng, shared):
        raise RuntimeError("injected failure")

    broken = Item(key="99", slug="broken", budget=1.0, fn=boom)
    result = run_item(broken, seed=7, shared={})
    assert not result.ok
    assert "crashed" in result.detail
    assert "injected failure" in result.detail
    assert result.line().startswith("FAIL 99 broken")

    def failed_check(rng, shared):
        raise StepFailure("restriction", "planted mismatch")

    failing = Item(key="98", slug="failing", budget=1.0, fn=failed_check)
    result = run_item(failing, seed=7, shared={})
    assert not result.ok
    assert result.detail == "restriction: planted mismatch"
    assert result.line().startswith("FAIL 98 failing")

    def passing_check(rng, shared):
        return "planted pass", ["certificate"]

    passing = Item(key="97", slug="passing", budget=1.0, fn=passing_check)
    result = run_item(passing, seed=7, shared={})
    assert (result.ok, result.detail, result.certificates) == (True, "planted pass", ["certificate"])

    # a P3 coordinate extraction that fails its own reassembly is a failed
    # step of item 9, not a crash
    plant_extra_syllable(monkeypatch)
    result = run_item(find_item("9"), seed=7, shared={})
    assert not result.ok
    assert result.detail.startswith("p3 coordinates: ")


def test_run_item_line_format():
    result = run_item(find_item("2"), seed=7, shared={})
    assert result.ok
    line = result.line()
    assert line.startswith("PASS  2 flip-identity (")
    assert line.endswith(result.detail)


def _choice_raw(rng, gens):
    # item 10's draw before its rejection loops were written out: the oracle
    return tuple(rng.choice(gens) for _ in range(rng.randrange(0, 9)))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 42, 2024])
def test_word_algebra_draws_are_bit_for_bit_the_choice_draws(seed):
    gens = [i for i in range(1, 4)] + [-i for i in range(1, 4)]
    assert list(_ALGEBRA_GENS) == gens
    # run_item's generator for item 10; every triple of the default seed
    triples = 100_000 if seed == DEFAULT_SEED else 5_000
    old = random.Random(seed * 1009 + 10)
    new = random.Random(seed * 1009 + 10)
    bits = new.getrandbits
    for _ in range(3 * triples):
        assert _random_raw(bits) == _choice_raw(old, gens)
    assert new.getstate() == old.getstate()


def _word_level_sides(ra, rb, rc):
    # item 10's loop body before it called the letter kernels: the oracle
    u = Word.from_raw(ra)
    v = Word.from_raw(rb)
    t = Word.from_raw(rc)
    once = v.letters
    return ((u * v) * t).letters, (u * (v * t)).letters, (u * ~u).letters, once, reduce_letters(once)


def _kernel_sides(ra, rb, rc):
    u, v, t = reduce_letters(ra), reduce_letters(rb), reduce_letters(rc)
    mul = multiply_letters
    return mul(mul(u, v), t), mul(u, mul(v, t)), mul(u, invert_letters(u)), v, reduce_letters(v)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
def test_word_algebra_kernels_match_the_word_level_loop(seed):
    rng = random.Random(seed * 1009 + 10)
    bits = rng.getrandbits
    for _ in range(5_000):
        raw = _random_raw(bits), _random_raw(bits), _random_raw(bits)
        assert _kernel_sides(*raw) == _word_level_sides(*raw), raw


def test_suite_samples_draw_what_the_validated_words_drew():
    # items 4, 6 and 9 sample through their free groups
    for ctx, gen_indices in ((FreeGroup.on("xy"), (X, Y)), (FreeGroup(2), (1, 2))):
        old, new = random.Random(17), random.Random(17)
        for _ in range(300):
            expected = Word(random_reduced(old, gen_indices, old.randrange(0, 41)))
            assert ctx.sample(new, new.randrange(0, 41)) == expected
        assert new.getstate() == old.getstate()


def test_word_algebra_still_checks_100000_triples():
    result = run_item(find_item("10"), seed=DEFAULT_SEED, shared={})
    assert result.ok
    assert result.detail.startswith("100000 random triples: ")


@pytest.mark.parametrize(
    "module",
    [
        sclkit.words,
        sclkit.groups,
        sclkit.braids,
        sclkit.quasimorphisms,
        sclkit.norms,
        sclkit.scl,
        sclkit.extension,
        sclkit.specs,
        sclkit.certio,
        sclkit.suite,
    ],
    ids=lambda m: m.__name__.split(".")[-1],
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
