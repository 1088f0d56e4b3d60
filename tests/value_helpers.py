"""Helpers on sclkit's value types that only the tests call.

``cyclic_reduce`` splits a Word as conjugator * core * conjugator^-1 with a
cyclically reduced core; ``contains`` asks whether a CertifiedValue's
interval holds an exact value.
"""

from fractions import Fraction

from sclkit.quasimorphisms import CertifiedValue
from sclkit.words import Word, cyclic_reduce_letters


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """(core, conjugator) with w = conjugator * core * conjugator^-1."""
    core, conj = cyclic_reduce_letters(w.letters)
    return Word(core), Word(conj)


def contains(cv: CertifiedValue, exact: Fraction) -> bool:
    """Whether exact lies within the certified radius of the value; never,
    when no radius is certified."""
    if cv.radius is None:
        return False
    return abs(cv.value - exact) <= cv.radius
