"""Helpers on sclkit's value types that only the tests call.

``cyclic_reduce`` splits a Word as conjugator * core * conjugator^-1 with a
cyclically reduced core; ``contains`` asks whether a CertifiedValue's
interval holds an exact value; ``sample_element`` draws seeded elements of
every context, the permutation and swap-product ones too, which
``extension.sample`` refuses.
"""

from fractions import Fraction

from sclkit.extension import CertifiedValue, sample
from sclkit.groups import DirectProduct, SymmetricGroup
from sclkit.suite import SwapProduct
from sclkit.words import Word, cyclic_reduce_letters


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """(core, conjugator) with w = conjugator * core * conjugator^-1."""
    core, conj = cyclic_reduce_letters(w.letters)
    return Word(core), Word(conj)


def contains(cv: CertifiedValue, exact: Fraction) -> bool:
    """Whether exact lies within the certified radius of the value."""
    return abs(cv.value - exact) <= cv.radius


def sample_element(ctx, rng, size: int):
    """A seeded element of ctx of word-length about size: a shuffle of the
    points of a permutation group, both coordinates and the flag of a swap
    product, each factor of a direct product by this function, with size
    split as ``extension.sample`` splits it, and ``extension.sample`` on
    every other context."""
    if isinstance(ctx, SymmetricGroup):
        images = list(range(ctx.n))
        rng.shuffle(images)
        return tuple(images)
    if isinstance(ctx, SwapProduct):
        pair = (sample_element(ctx.inner, rng, size), sample_element(ctx.inner, rng, size))
        return pair, rng.randint(0, 1)
    if isinstance(ctx, DirectProduct):
        i = rng.randint(0, size)
        return (sample_element(ctx.left, rng, i), sample_element(ctx.right, rng, size - i))
    return sample(ctx, rng, size)
