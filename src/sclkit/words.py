"""Exact word algebra for finitely generated free groups.

A word is an immutable sequence of signed generator indices: ``+i`` is the
i-th generator and ``-i`` its inverse, with ``1 <= i <= ALPHABET_SIZE``.  The
empty sequence is the identity.  Every operation returns freely reduced
output, so two words are equal in the group iff their letter tuples are
equal.  Which generators a word may use is the business of the group it is
an element of (``groups.FreeGroup``), not of the word.

Text syntax: lowercase ``a``..``z`` name generators 1..26, uppercase letters
their inverses, and whitespace is ignored.  Text is its letters: no syntax
expands, so a word has at most as many letters as its text has characters,
and ``parse -> format -> parse`` is the identity.
"""

from __future__ import annotations

from operator import attrgetter
from collections.abc import Iterable, Iterator

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
            raise ValueError(f"letter {letter} is not a generator index in +-1..{ALPHABET_SIZE}")
    return tuple(stack)


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
    >>> parse_letters("a b A")
    [1, 2, -1]
    """
    raw: list[int] = []
    for ch in text:
        if "a" <= ch <= "z":
            raw.append(ord(ch) - _ORD_A + 1)
        elif "A" <= ch <= "Z":
            raw.append(-(ord(ch) - _ORD_CAP_A + 1))
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in word text")
    return raw


def parse_ints(tokens: Iterable[str]) -> list[int]:
    """The integers the tokens write, each read only as ``str`` prints it,
    whitespace around it aside: ``+1``, ``01``, ``1_0`` and digits other
    than ASCII are refused.

    >>> parse_ints([" -12 ", "3"])
    [-12, 3]
    """
    tokens = list(tokens)
    values = list(map(int, tokens))
    # a form that int() reads and str() does not print holds a +, _, 0 or
    # non-ASCII digit; without one, a braid's thousands of tokens skip the loop
    text = "".join(tokens)
    if not text.isascii() or "+" in text or "_" in text or "0" in text:
        for n, token in zip(values, tokens):
            if str(n) != token.strip():
                raise ValueError(f"integer {token!r} is not in printed form: write {n}")
    return values


class Frozen:
    """Base of every record and value type: a class's fields are the names
    it annotates in its own body, in order.

    From them come an ``__init__`` taking every field by position or by
    name, with no defaults; ``==`` and ``hash`` over the field tuple; a
    ``Name(field=value, ...)`` repr; and pickling and copying, which rebuild
    through ``__init__``.  Instances are read-only after construction.  A
    class may keep ``__slots__`` for its fields; a slot named with a leading
    underscore is a cache, not a field.

    Plain classes keep ``dataclasses`` off the import path: every command is
    a fresh process, and the decorator costs it about 30 ms.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field tuple, read in C; attrgetter gives a bare value for one name
        # and refuses a class that annotates none
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for field, value in zip(fields, args):
            _setattr(self, field, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


_setattr = object.__setattr__


class StepFailure(Exception):
    """A check found a counterexample: the step that broke, and how.

    Every check in the package raises this at its first counterexample and
    returns only what its callers read when it passes; a certificate file
    that cannot be read, or is not a well-formed document, fails at step
    ``schema``.  ``str()`` gives ``"step: detail"``.  It is not a
    ValueError, which the command line reads as refused input (exit 2): a
    failed check exits 1.
    """

    def __init__(self, step: str, detail: str):
        super().__init__(f"{step}: {detail}")
        self.step = step
        self.detail = detail


class PreconditionError(ValueError):
    """A stated hypothesis failed; the check refuses to run rather than skip."""


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call to ``cls`` in field order; a missing,
    unknown or repeated field is a TypeError, as for a plain ``__init__``."""
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} were given")
    values = dict(zip(fields, args))
    for field, value in kwargs.items():
        if field not in fields:
            raise TypeError(f"{name} has no field {field!r}")
        if field in values:
            raise TypeError(f"{name} got field {field!r} twice")
        values[field] = value
    missing = [repr(f) for f in fields if f not in values]
    if missing:
        raise TypeError(f"{name} is missing fields {', '.join(missing)}")
    return tuple(values[f] for f in fields)


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
        # reduce_letters refuses the first letter out of range
        if reduce_letters(self.letters) != self.letters:
            raise ValueError("Word requires freely reduced letters; use word() or from_raw()")

    @staticmethod
    def from_raw(raw: Iterable[int]) -> "Word":
        w = _new(Word)
        _set_letters(w, reduce_letters(raw))
        return w

    # the hash of the bare letter tuple, not of the field tuple: the
    # iteration order of sets of words stays what it was
    def __hash__(self) -> int:
        return hash(self.letters)

    # __mul__, __invert__ and from_raw build the instance inline: every
    # product, inverse and parse of a free-group word goes through them
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

    >>> str(word("x yy X"))
    'xyyX'
    """
    return Word.from_raw(parse_letters(text))


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
