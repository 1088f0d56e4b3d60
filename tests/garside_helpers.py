"""Garside normal-form helpers that only the tests call.

``braid_equal`` decides the word problem through normal forms on any strand
count, the independent oracle for ``b3_key`` on three strands;
``nf_to_letters`` writes a normal form back as an Artin word, for round
trips; ``is_left_weighted`` checks the shape ``normal_form`` promises.
``plant_extra_syllable`` breaks the P3 coordinate extraction, whose
self-check must then fail.
"""

from sclkit import braids
from sclkit.braids import (
    BraidWord,
    GarsideNormalForm,
    _descents,
    _tables,
    cached_normal_form,
)
from sclkit.groups import perm_compose, perm_inverse


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


def plant_extra_syllable(monkeypatch) -> None:
    """Make every SL(2,Z) peel return one syllable X too many."""
    real = braids._peel_sanov

    def one_syllable_too_many(m, guard):
        sign, syllables = real(m, guard)
        return sign, syllables + [(1, 1)]

    monkeypatch.setattr(braids, "_peel_sanov", one_syllable_too_many)
