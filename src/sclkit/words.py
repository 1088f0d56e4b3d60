"""Exact word algebra for finitely generated free groups.

A word is an immutable sequence of signed generator indices: ``+i`` is the
i-th generator and ``-i`` its inverse, with ``1 <= i <= ALPHABET_SIZE``.  The
empty sequence is the identity.  Every operation returns freely reduced
output, so two words are equal in the group iff their letter tuples are
equal.  Which generators a word may use is the business of the group it is
an element of (``groups.FreeGroup``), not of the word.

Text syntax: lowercase ``a``..``z`` name generators 1..26, uppercase letters
their inverses, whitespace is ignored, and ``x^3`` / ``x^-2`` powers are
accepted on input.  Printing always emits plain letters, so
``parse -> format -> parse`` is the identity.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# Generators are named by the letters a..z, so a letter is a nonzero integer
# in -ALPHABET_SIZE..ALPHABET_SIZE.
ALPHABET_SIZE = 26


def reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence with a single stack scan.

    >>> reduce_letters([1, 2, -2, -1])
    ()
    >>> reduce_letters([1, 2, -2, 1])
    (1, 1)
    """
    top = ALPHABET_SIZE
    stack: list[int] = []
    for letter in raw:
        # a letter that cancels the top of the stack is in range, as the top is
        if stack and stack[-1] == -letter:
            stack.pop()
        elif letter and -top <= letter <= top:
            stack.append(letter)
        else:
            raise ValueError(_bad_letter(letter))
    return tuple(stack)


def _bad_letter(letter: int) -> str:
    return f"letter {letter} is not a generator index in +-1..{ALPHABET_SIZE}"


def is_reduced(letters: Iterable[int]) -> bool:
    seq = tuple(letters)
    return all(seq[i] != -seq[i + 1] for i in range(len(seq) - 1))


def invert_letters(letters: Iterable[int]) -> tuple[int, ...]:
    return tuple([-l for l in reversed(tuple(letters))])


def multiply_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two reduced words; cancellation happens at the junction only.

    >>> multiply_letters((1, 2), (-2, 3))
    (1, 3)
    """
    if not a or not b or a[-1] != -b[0]:
        return a + b
    na = len(a)
    n = min(na, len(b))
    i = 1  # letters cancelled so far
    while i < n and a[na - 1 - i] == -b[i]:
        i += 1
    return a[: na - i] + b[i:]


def cyclic_reduce_letters(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a reduced word into (core, conjugator) with w = u * core * u^-1.

    The core is cyclically reduced.  For a reduced input the core is empty
    only when the input is empty.

    >>> cyclic_reduce_letters((1, 2, -1))
    ((2,), (1,))
    """
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return letters[lo:hi], letters[:lo]


_ORD_A = ord("a")
_ORD_CAP_A = ord("A")

# Most letters a word or braid text may expand to, checked before a power is
# expanded.  In a fresh process, eval of brooks(w=ab) on a^1000000 takes 0.9
# to 1.5 s at 40 MB peak and hom(indexsum) on braid:3 at s1^1000000 0.8 s at
# 100 MB; a^999999999 asked for gigabytes.  Verify reads at most 20,000
# characters of element text, with no powers.
MAX_WORD_LETTERS = 10**6


def format_letters(letters: Iterable[int]) -> str:
    """Render letters in a..z / A..Z text form."""
    out = []
    for l in letters:
        idx = abs(l)
        if not 1 <= idx <= ALPHABET_SIZE:
            raise ValueError(f"letter {l} has no single-character name")
        out.append(chr(_ORD_A + idx - 1) if l > 0 else chr(_ORD_CAP_A + idx - 1))
    return "".join(out)


def parse_letters(text: str) -> list[int]:
    """Parse text form into a raw (unreduced) letter list.

    >>> parse_letters("abAB")
    [1, 2, -1, -2]
    >>> parse_letters("a^3 B^-2")
    [1, 1, 1, 2, 2]
    """
    raw: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "a" <= ch <= "z":
            letter = (ord(ch) - _ORD_A) + 1
        elif "A" <= ch <= "Z":
            letter = -((ord(ch) - _ORD_CAP_A) + 1)
        else:
            raise ValueError(f"unexpected character {ch!r} in word text")
        i += 1
        power = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i or not text[i:j].lstrip("+-"):
                raise ValueError(f"malformed power in word text at position {i}")
            power = int(text[i:j])
            i = j
        if power < 0:
            letter = -letter
            power = -power
        if len(raw) + power > MAX_WORD_LETTERS:
            raise ValueError(f"word text expands to more than {MAX_WORD_LETTERS} letters")
        raw.extend([letter] * power)
    return raw


class Frozen:
    """Base of the immutable value types: slotted, read-only after
    construction, with a ``Name(field=value, ...)`` repr over ``__slots__``;
    a slot named with a leading underscore is a cache, not a field.

    Subclasses write their own ``__init__``, ``__eq__`` and ``__hash__`` and
    set fields through the slot descriptors, which bypass ``__setattr__``.
    Plain classes keep ``dataclasses`` off the import path: every command is
    a fresh process, and the decorator costs it about 30 ms.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__qualname__}({fields})"


class Word(Frozen):
    """A freely reduced word: its letters are the whole value.

    Public construction validates that every letter names a generator a..z
    and that the letters are reduced; results of the group operations are
    reduced and in range by construction and skip the check.
    """

    __slots__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: tuple[int, ...]) -> None:
        _set_letters(self, letters)
        self.__post_init__()

    def __post_init__(self) -> None:
        for l in self.letters:
            if l == 0 or abs(l) > ALPHABET_SIZE:
                raise ValueError(_bad_letter(l))
        if not is_reduced(self.letters):
            raise ValueError("Word requires freely reduced letters; use word() or from_raw()")

    @staticmethod
    def from_raw(raw: Iterable[int]) -> "Word":
        w = _new(Word)
        _set_letters(w, reduce_letters(raw))
        return w

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    # __mul__, __invert__ and from_raw build the instance inline: they are
    # the inner loop of defect_search and of suite item 10
    def __mul__(self, other: "Word") -> "Word":
        w = _new(Word)
        _set_letters(w, multiply_letters(self.letters, other.letters))
        return w

    def __invert__(self) -> "Word":
        w = _new(Word)
        _set_letters(w, invert_letters(self.letters))
        return w

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        return _word(reduce_letters(base.letters * abs(n)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def exponent_sum(self) -> int:
        """Signed letter count over all generators."""
        return sum(1 if l > 0 else -1 for l in self.letters)


# the slot descriptors set the fields of a frozen instance directly
_new = object.__new__
_set_letters = Word.letters.__set__


def _word(letters: tuple[int, ...]) -> Word:
    """A Word from letters already known to be reduced and in range; skips
    the checks of ``__post_init__``."""
    w = _new(Word)
    _set_letters(w, letters)
    return w


def word(text: str) -> Word:
    """Parse text into a Word.

    >>> str(word("x y^2 X"))
    'xyyX'
    """
    return Word.from_raw(parse_letters(text))


def commutator(a: Word, b: Word) -> Word:
    return a * b * ~a * ~b


def words_of_length(gen_indices: Iterable[int], length: int) -> Iterator[tuple[int, ...]]:
    """One pass over every reduced letter tuple of exactly the given length
    over the given generators, in lexicographic order over the alphabet
    g1, -g1, g2, -g2, ... of the generators in turn.

    Level k is generated from level k - 1 by extending each tuple by the
    alphabet in order, so no level is ever stored.

    >>> list(words_of_length((1,), 2))
    [(1, 1), (-1, -1)]
    """
    alphabet = [i for g in gen_indices for i in (g, -g)]
    level: Iterator[tuple[int, ...]] = iter([()])
    for _ in range(length):
        level = (w + (l,) for w in level for l in alphabet if not w or w[-1] != -l)
    return level


def random_reduced(rng, gen_indices: Iterable[int], length: int) -> tuple[int, ...]:
    """Uniform random reduced letter tuple of the given length over the given
    generators."""
    alphabet = [i for g in gen_indices for i in (g, -g)]
    if not alphabet or length == 0:
        return ()
    out: list[int] = []
    for _ in range(length):
        choices = [l for l in alphabet if not out or out[-1] != -l]
        out.append(rng.choice(choices))
    return tuple(out)
