"""Parsers turning short text specs into live objects.

The grammar is exactly the set of names the objects themselves print, so
``parse_group_pair(pair.name)`` and ``parse_qm(qm.name)`` round-trip.  These
strings are the interchange format shared by the command line and by
certificate files; a verifier rebuilds everything it checks from them.
"""

from __future__ import annotations

from .braids import BraidGroup, index_sum, pr1
from .groups import (
    CyclicZ,
    DirectProduct,
    FreeGroup,
    GroupContext,
    SymmetricGroup,
    proj_left,
    proj_right,
)
from .quasimorphisms import (
    Quasimorphism,
    brooks,
    brooks_homogenized,
    hom_qm,
    pullback,
    zero_qm,
)
from .scl import (
    GroupPair,
    braid_commutator_pair,
    braid_pure_pair,
    ordinary_pair,
    product_left_pair,
    pure_ordinary_pair,
)
from .words import word


class SpecError(ValueError):
    """A malformed or unsupported spec string."""


# Largest strand count a braid group spec may name.  Braid equality on four
# or more strands is one walk over the letters (Dynnikov coordinates), whose
# cost hardly depends on the strand count: one upper item at the verify
# witness budget (a 7200-letter commutator, or a 40-letter one at power 202)
# verifies in about 0.1 s in a fresh process on braid:4 and on braid:8, and
# a 7200-letter walk takes about 11 ms on 8 strands and on 16.  So equality
# no longer sets the cap; the searches, whose balls grow with the number of
# generators, are to decide a larger one through their work budget.
MAX_BRAID_STRANDS = 8

# Largest degree a permutation group spec may name.  Its generators are
# n - 1 permutations of n points, so the smallest search holds about n^2
# entries.  scl-bounds at --radius 1 --cap 1 --n-max 1 on a 3-cycle, in a
# fresh process: perm:1000 0.7 s and 88 MB peak, perm:2000 2.7 s and 338 MB,
# perm:3000 7.0 s and 767 MB, perm:10000 a MemoryError under a 2 GB limit.
MAX_PERM_DEGREE = 1000

# Deepest nesting of products a group spec may name.  Products nest through
# their left factor only, and parsing, every group operation and every element
# text recurse once per level, so a spec 1000 deep ends in a RecursionError.
# The paper's pairs nest two deep.
MAX_PRODUCT_DEPTH = 16


def _count(rest: str) -> int | None:
    """The number a spec writes in ASCII digits as ``str`` prints it, or
    None.  Nine digits are more than any group here can use; int() refuses
    past 4300."""
    if rest.isascii() and rest.isdigit() and len(rest) <= 9 and (rest == "0" or rest[0] != "0"):
        return int(rest)
    return None


def parse_group(text: str) -> GroupContext:
    """Group spec -> context.

    >>> parse_group("free:2").name
    'free:2'
    >>> str(parse_group("free:xy").generators()[0])
    'x'
    >>> parse_group("product:free:2,z").name
    'product:free:2,z'
    """
    spec = text.strip()
    if spec == "z":
        return CyclicZ()
    head, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise SpecError(f"unknown group spec {text!r}")
    count = _count(rest)
    if head == "free":
        try:
            if count is not None:
                return FreeGroup(count)
            if rest.isascii() and rest.isalpha() and rest.islower():
                return FreeGroup.on(rest)
        except ValueError as exc:
            raise SpecError(f"{exc}: {text!r}") from exc
        raise SpecError(
            f"free group spec needs a rank or lowercase generator letters: {text!r}"
        )
    if head == "braid":
        if count is None or not 2 <= count <= MAX_BRAID_STRANDS:
            raise SpecError(
                f"braid group spec needs a strand count from 2 to {MAX_BRAID_STRANDS}: {text!r}"
            )
        return BraidGroup(count)
    if head == "perm":
        if count is None or not 1 <= count <= MAX_PERM_DEGREE:
            raise SpecError(
                f"permutation group spec needs a degree from 1 to {MAX_PERM_DEGREE}: {text!r}"
            )
        return SymmetricGroup(count)
    if head == "product":
        depth, inner = 0, spec
        while inner.startswith("product:"):
            depth, inner = depth + 1, inner[len("product:"):].lstrip()
        if depth > MAX_PRODUCT_DEPTH:
            raise SpecError(
                f"product specs nest at most {MAX_PRODUCT_DEPTH} deep, found {depth}"
            )
        left_text, comma, right_text = rest.rpartition(",")
        if not comma:
            raise SpecError(f"product spec needs two comma-separated factors: {text!r}")
        return DirectProduct(parse_group(left_text), parse_group(right_text))
    raise SpecError(f"unknown group spec {text!r}")


_PAIR_SUFFIXES = ("pure", "pure-ordinary", "comm", "left")


def parse_group_pair(text: str) -> GroupPair:
    """Pair spec -> group pair.

    A group spec with no ``/`` means the ordinary pair (G, G); otherwise the
    text after the last ``/`` must be a suffix naming one of the built-in
    normal subgroups.
    """
    spec = text.strip()
    base, slash, suffix = spec.rpartition("/")
    if not slash:
        return ordinary_pair(parse_group(spec))
    if suffix not in _PAIR_SUFFIXES:
        raise SpecError(
            f"unknown pair suffix {suffix!r} in {text!r}; expected one of {', '.join(_PAIR_SUFFIXES)}"
        )
    ctx = parse_group(base)
    if suffix in ("pure", "pure-ordinary"):
        if ctx.name != "braid:3":
            raise SpecError("the pure-braid pair is only built on 3 strands")
        return braid_pure_pair() if suffix == "pure" else pure_ordinary_pair()
    if suffix == "comm":
        if not isinstance(ctx, BraidGroup):
            raise SpecError("the commutator-subgroup pair is only built on braid groups")
        return braid_commutator_pair(ctx.n)
    if not isinstance(ctx, DirectProduct) or not isinstance(ctx.right, CyclicZ):
        raise SpecError("the left-factor pair needs a product group with right factor z")
    return product_left_pair(ctx.left)


def parse_qm(text: str, group: GroupContext | None = None) -> Quasimorphism:
    """Quasimorphism spec -> quasimorphism.

    Grammar, with whitespace allowed around every token:

        qm   := "zero" | "hom(indexsum)" | "brooks(w=" word ")"
              | "homog(brooks(w=" word "))" | "pullback(" qm "," map ")"
        map  := "pr1" | "proj-left" | "proj-right"

    ``word`` is word text as ``words.word`` reads it, such as ``xyXY``.
    A spec splits at its first ``(``, and a pullback's arguments at their
    last ``,``, since no map name holds one.  Exact homogenisation exists only
    for the counting quasimorphisms, so ``homog`` wraps ``brooks`` only.  A
    pullback resolves its map first and parses its inner spec on the map's
    codomain, so nesting stays bounded: ``pr1`` nests once and ``proj-*`` as
    deep as the product group.

    ``group`` pins the domain where the spec alone does not determine it
    (zero, hom, projections).  Every defect bound is derived from the
    construction, never supplied.

    >>> parse_qm("homog(brooks(w=xyXY))").defect_upper
    Fraction(6, 1)
    >>> parse_qm("pullback(homog(brooks(w=xyXY)), pr1)").name
    'pullback(homog(brooks(w=xyXY)), pr1)'
    """
    spec = text.strip()
    if spec == "zero":
        if group is None:
            raise SpecError("the zero quasimorphism needs a group")
        return zero_qm(group)
    head, paren, rest = spec.partition("(")
    head = head.rstrip()
    if head not in ("hom", "brooks", "homog", "pullback"):
        raise SpecError(
            f"expected zero, hom(...), brooks(...), homog(...) or pullback(...), not {text!r}"
        )
    if not paren or not rest.endswith(")"):
        raise SpecError(f"expected {head}(...) closed at position {len(text.rstrip())} in {text!r}")
    args = rest[:-1]
    if head == "hom":
        if args.strip() != "indexsum":
            raise SpecError(f"unknown homomorphism {args.strip()!r}; only 'indexsum' is built in")
        ctx = group if group is not None else BraidGroup(3)
        if not isinstance(ctx, BraidGroup):
            raise SpecError(f"hom(indexsum) lives on braid groups, not {ctx.name}")
        return hom_qm(ctx, index_sum, "indexsum")
    if head == "pullback":
        inner, comma, name = args.rpartition(",")
        name = name.strip()
        if not comma:
            raise SpecError(f"pullback takes a quasimorphism and a map: {text!r}")
        if name == "pr1":
            if group is not None and group.name != "braid:3":
                raise SpecError(f"pr1 is the pure-braid projection on braid:3, not {group.name}")
            hom = pr1()
        elif name in ("proj-left", "proj-right"):
            if not isinstance(group, DirectProduct):
                raise SpecError(f"{name} needs a product group, got "
                                f"{group.name if group is not None else 'none'}")
            hom = proj_left(group) if name == "proj-left" else proj_right(group)
        else:
            raise SpecError(f"unknown map {name!r} in {text!r}")
        return pullback(parse_qm(inner, group=hom.codomain), hom)
    homogenized = head == "homog"
    if homogenized:
        inner, paren, rest = args.strip().partition("(")
        if inner.rstrip() != "brooks" or not rest.endswith(")"):
            raise SpecError(f"exact homogenisation only wraps brooks(w=<word>): {text!r}")
        args = rest[:-1]
    key, equals, body = args.partition("=")
    if key.strip() != "w" or not equals:
        raise SpecError(f"counting quasimorphisms take a single argument w=<word>: {text!r}")
    if group is not None and not isinstance(group, FreeGroup):
        raise SpecError(f"counting quasimorphisms live on free groups, not {group.name}")
    try:
        pattern = word(body.strip()) if group is None else group.parse(body.strip())
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    if not pattern.letters:
        raise SpecError("the counting pattern must be a nonempty word")
    return (brooks_homogenized if homogenized else brooks)(pattern, context=group)
