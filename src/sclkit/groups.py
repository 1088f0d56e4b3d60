"""Group contexts: a uniform element-agnostic interface over the concrete
groups the library computes in.

A context bundles multiplication, inversion, identity and exact equality via
canonical forms.  Every context also enumerates its balls
deterministically; the seeded elements the acceptance suite draws come
from ``extension.sample``, outside the verifier kernel.  Elements themselves
stay plain immutable values (words, ints, tuples, permutations), so
everything here is safe to evaluate concurrently and to use as dict keys via
``canonical``.

Every Cayley-graph walk in the library goes through two helpers here:
``ProductSearch``, the shortest product of a fixed list of moves, and
``BallValues``, which enumerates a ball once, keeps a function's nonzero
values on it as exact integers over a common denominator, and yields the
pairs (g, h) by total length with the rows of g, h and gh that the defect
searches compare.  ``sphere`` is the one enumeration primitive: the free
group generates its spheres on demand, one pass each, and the other
contexts hand out the layers of their cached breadth-first search.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence

from .words import (
    ALPHABET_SIZE,
    Frozen,
    Word,
    _word,
    format_letters,
    multiply_letters,
    parse_ints,
    word,
    words_of_length,
)


class ProductSearch:
    """Breadth-first search for shortest products of moves from the identity.

    ``info`` maps the canonical key of every element reached to (depth,
    parent key, move index); layer k of the search is the set of elements
    whose shortest product has exactly k moves.  ``frontier`` holds the
    elements of the last layer in discovery order.  The first product found
    for an element is the one kept, so the witness is deterministic.  ``grow``
    stores whole layers; ``reach`` finds one target and looks the last two
    layers it needs up instead of storing them.
    """

    def __init__(self, ctx: "GroupContext", moves: Sequence[object]):
        self.ctx = ctx
        self.moves = list(moves)
        self.info: dict[Hashable, tuple[int, Hashable, int]] = {
            ctx.canonical(ctx.identity): (0, None, -1)
        }
        self.frontier = [ctx.identity]
        self.depth = 0
        self._inverse_moves = [ctx.inv(c) for c in self.moves]

    def grow(self, max_depth: int | None = None) -> None:
        """Add whole layers until ``max_depth`` layers exist or a layer adds
        nothing new."""
        ctx, info, moves = self.ctx, self.info, self.moves
        while self.frontier:
            if max_depth is not None and self.depth >= max_depth:
                break
            self.depth += 1
            nxt = []
            for a in self.frontier:
                a_key = ctx.canonical(a)
                for idx, c in enumerate(moves):
                    b = ctx.mul(a, c)
                    key = ctx.canonical(b)
                    if key not in info:
                        info[key] = (self.depth, a_key, idx)
                        nxt.append(b)
            self.frontier = nxt

    def reach(self, target: object, max_depth: int) -> list[int] | None:
        """Move indices of the shortest product equal to ``target`` with at
        most ``max_depth`` moves, or None.

        The last two layers a query can need are looked up, never stored.
        With layer k the last one stored, target * m1^-1 is looked up in
        layer k for every move m1.  On a miss with k >= 1 and
        k + 2 == max_depth, layer k + 1 is not grown either: b = target * m1^-1
        lies in it exactly when some b * m2^-1 is in layer k.  The witness is
        the one ``grow`` followed by the one-step lookup would give: the b
        placed first in layer k + 1, that is the least (``frontier`` position
        of b * m2^-1, m2's index), then the smallest m1 for it.  So a search
        exhausted at ``max_depth`` stores layers up to ``max_depth - 2``
        only, and layer 1 when ``max_depth`` is 2; layer 1 costs |moves|
        products, which is less than the |moves|^2 of a two-step lookup.

        >>> f2 = FreeGroup(2)
        >>> search = ProductSearch(f2, [f2.parse(t) for t in ("a", "b", "A", "B")])
        >>> search.reach(f2.parse("aaaa"), 3) is None
        True
        >>> search.depth
        1
        """
        ctx, info = self.ctx, self.info
        key = ctx.canonical(target)
        if key in info:
            return self.path(key)
        inverse_moves = self._inverse_moves
        # the elements one move short of the target, target * m1^-1
        befores = [ctx.mul(target, c_inv) for c_inv in inverse_moves]
        before_keys = [ctx.canonical(b) for b in befores]
        while self.frontier and self.depth < max_depth:
            # each stored a one or two moves short of the target, with the
            # least move indices from a to it; the target is in no stored
            # layer, so every such a is in the last
            hits: dict[Hashable, list[int]] = {}
            for i1, a_key in enumerate(before_keys):
                if a_key in info and a_key not in hits:
                    hits[a_key] = [i1]
            two_step = not hits and self.depth >= 1 and self.depth + 2 == max_depth
            if two_step:
                # a stored b would have been a hit, so b is in layer k + 1
                # exactly when some a = b * m2^-1 is stored; m2 before m1 in
                # the loops keeps the least (m2, m1) for each a
                for i2, c_inv in enumerate(inverse_moves):
                    for i1, b in enumerate(befores):
                        a_key = ctx.canonical(ctx.mul(b, c_inv))
                        if a_key in info and a_key not in hits:
                            hits[a_key] = [i2, i1]
            if hits:
                if len(hits) == 1:
                    a_key = next(iter(hits))
                else:
                    a_key = next(k for k in map(ctx.canonical, self.frontier) if k in hits)
                return self.path(a_key) + hits[a_key]
            if two_step or self.depth + 1 >= max_depth:
                return None
            self.grow(max_depth=self.depth + 1)
        return None

    def path(self, key: Hashable) -> list[int]:
        """Move indices of the shortest product found for ``key``, in order."""
        rev = []
        while True:
            depth, parent, idx = self.info[key]
            if depth == 0:
                return rev[::-1]
            rev.append(idx)
            key = parent


class BallValues:
    """``fn`` once per element of the ball of ``radius``, stored sparse as
    integers over one common denominator, with the pairs of ball elements.

    ``fn`` returns a rational, or a tuple of rationals of one length.  It
    runs over the spheres 0..radius of ``ctx.sphere``, one pass each; they
    partition the ball, so ``fn`` runs once per canonical key.  No sphere is
    kept: ``pairs`` takes the spheres afresh.  ``values`` holds only the
    nonzero rows, keyed by canonical form, each rational times ``scale`` in
    the same shape; a key missing from it reads as ``zero`` (0, or a tuple
    of zeros).  ``scale`` is the lcm of every denominator, positive, so
    scaled values compare as the rationals do.  A product of a pair from
    ``pairs`` lies in the ball too, since |gh| <= |g| + |h|.

    >>> from fractions import Fraction
    >>> table = BallValues(CyclicZ(), 2, lambda g: Fraction(max(g, 0), 2))
    >>> table.values, table.scale
    ({1: 1, 2: 2}, 2)
    """

    def __init__(self, ctx: "GroupContext", radius: int, fn: Callable[[object], object]):
        canonical = ctx.canonical
        values: dict[Hashable, object] = {}
        zero = None
        for k in range(radius + 1):
            for g in ctx.sphere(k):
                row = fn(g)
                if zero is None:
                    zero = (0,) * len(row) if isinstance(row, tuple) else 0
                if row != zero:
                    values[canonical(g)] = row
        denominators = set()
        for row in values.values():
            for v in row if isinstance(row, tuple) else (row,):
                denominators.add(v.denominator)
        scale = math.lcm(*denominators)
        # overwritten in place, and a single value stays unwrapped: a second
        # dict or a tuple per row would raise the peak memory of a large ball
        for key, row in values.items():
            if isinstance(row, tuple):
                values[key] = tuple(v.numerator * (scale // v.denominator) for v in row)
            else:
                values[key] = row.numerator * (scale // row.denominator)
        self.ctx = ctx
        self.radius = radius
        self.values = values
        self.zero = zero
        self.scale = scale

    def pairs(self) -> Iterator[tuple]:
        """Every pair (g, h) with |g| + |h| <= radius, with the scaled rows
        of g, h and gh: (g, h, row_g, row_h, row_gh).

        Pairs come by total length, then by |g|, then in sphere order; gh's
        row is looked up by ``ctx.product_key``.  Only the spheres up to
        radius // 2 are held, as lists: in every block one of |g| and |h| is
        at most that, and a longer sphere is taken afresh, once per block on
        the g side and once per g on the h side.
        """
        ctx, radius, value, zero = self.ctx, self.radius, self.values.get, self.zero
        canonical, product_key = ctx.canonical, ctx.product_key
        half = radius // 2
        short = [list(ctx.sphere(k)) for k in range(half + 1)]

        def sphere(k: int) -> Iterable:
            return short[k] if k <= half else ctx.sphere(k)

        for total in range(radius + 1):
            for i in range(total + 1):
                for g in sphere(i):
                    row_g = value(canonical(g), zero)
                    for h in sphere(total - i):
                        yield g, h, row_g, value(canonical(h), zero), value(product_key(g, h), zero)


class GroupContext:
    """Shared interface; subclasses fill in the primitive operations."""

    name: str = "group"

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def canonical(self, a) -> Hashable:
        """Hashable canonical form; equal elements get equal forms."""
        raise NotImplementedError

    def product_key(self, a, b) -> Hashable:
        """The canonical form of a * b."""
        return self.canonical(self.mul(a, b))

    def eq(self, a, b) -> bool:
        return self.canonical(a) == self.canonical(b)

    def is_identity(self, a) -> bool:
        return self.eq(a, self.identity)

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv(a), -n)
        result = self.identity
        square = a
        while n:
            if n & 1:
                result = self.mul(result, square)
            square = self.mul(square, square)
            n >>= 1
        return result

    def conjugate(self, g, a):
        """g * a * g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def commutator(self, a, b):
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def text(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def generators(self) -> list:
        """Standard generators (without inverses)."""
        raise NotImplementedError

    # --- deterministic enumeration -------------------------------------

    def sphere(self, k: int) -> Iterable:
        """Elements at word-length exactly k from the standard generators,
        deduplicated by canonical form, in breadth-first discovery order.

        An iterable to be iterated once: here the cached layer of the
        breadth-first search, on the free group a fresh generator."""
        return self._bfs_spheres(k)[k]

    def ball(self, radius: int) -> list:
        return [g for k in range(radius + 1) for g in self.sphere(k)]

    def _bfs_spheres(self, radius: int) -> list[list]:
        cache = getattr(self, "_sphere_cache", None)
        if cache is None:
            cache = self._sphere_cache = [[self.identity]]
            gens = self.generators()
            self._sphere_search = ProductSearch(self, gens + [self.inv(g) for g in gens])
        search = self._sphere_search
        while len(cache) <= radius:
            search.grow(max_depth=len(cache))
            cache.append(search.frontier)
        return cache


class FreeGroup(GroupContext):
    """Free group on a chosen set of named generators; elements are Word
    values.

    ``FreeGroup(2)`` is the free group on ``a, b``.  ``FreeGroup.on("xy")``
    is the free group on the letters ``x, y``: words still carry their full
    alphabet indices (x is generator 24), but enumeration and sampling range
    over the two chosen letters only.  ``gen_indices`` is the group's
    alphabet, and ``parse`` is where text is checked against it.
    """

    def __init__(self, rank: int | None = None, *, gen_indices: tuple[int, ...] | None = None):
        if gen_indices is not None:
            if not all(1 <= i <= ALPHABET_SIZE for i in gen_indices):
                raise ValueError(f"generator indices must be in 1..{ALPHABET_SIZE}")
            if len(set(gen_indices)) != len(gen_indices):
                raise ValueError("generator indices must be distinct")
            self.gen_indices = tuple(sorted(gen_indices))
            self.name = f"free:{format_letters(self.gen_indices)}"
        else:
            if rank is None or not 0 <= rank <= ALPHABET_SIZE:
                raise ValueError(f"rank must be in 0..{ALPHABET_SIZE}")
            self.gen_indices = tuple(range(1, rank + 1))
            self.name = f"free:{rank}"

    @classmethod
    def on(cls, letters: str) -> "FreeGroup":
        """Free group on the given lowercase letters, e.g. ``on("xy")``."""
        return cls(gen_indices=tuple(ord(c) - ord("a") + 1 for c in letters))

    # plain methods, not Word's own: a tracer's wrapper gets the context as self
    def mul(self, a: Word, b: Word) -> Word:
        return a * b

    def inv(self, a: Word) -> Word:
        return ~a

    @property
    def identity(self) -> Word:
        return _word(())

    def power(self, a: Word, n: int) -> Word:
        return a**n

    def canonical(self, a: Word) -> Hashable:
        return a.letters

    def product_key(self, a: Word, b: Word) -> Hashable:
        return multiply_letters(a.letters, b.letters)

    def text(self, a: Word) -> str:
        return str(a)

    def parse(self, s: str) -> Word:
        w = word(s)
        bad = sorted({abs(l) for l in w.letters} - set(self.gen_indices))
        if bad:
            names = format_letters(tuple(bad))
            raise ValueError(f"letters {names!r} are not generators of {self.name}")
        return w

    def generators(self) -> list[Word]:
        return [_word((i,)) for i in self.gen_indices]

    def sphere(self, k: int) -> Iterator[Word]:
        """One pass over the reduced words of length k, generated directly
        and never stored.

        The breadth-first ball would give the same sets in another order,
        and would keep its visited set alive for the life of the context.
        """
        return (_word(ls) for ls in words_of_length(self.gen_indices, k))


class CyclicZ(GroupContext):
    """The integers under addition; elements are plain ints."""

    name = "z"

    def mul(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    @property
    def identity(self) -> int:
        return 0

    def power(self, a: int, n: int) -> int:
        return a * n

    def canonical(self, a: int) -> Hashable:
        return a

    def text(self, a: int) -> str:
        return str(a)

    def parse(self, s: str) -> int:
        return parse_ints([s])[0] if s.strip() else 0

    def generators(self) -> list[int]:
        return [1]


def _split_product(s: str) -> list[str]:
    """Split a product element ``(left;right)`` at the ``;`` outside inner
    parentheses; factor texts may contain commas (braids, permutations)."""
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"product element must look like (left;right): {s!r}")
    inner = body[1:-1]
    parts = []
    depth = start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    if len(parts) != 2:
        raise ValueError(
            f"product element must look like (left;right), found {len(parts) - 1} "
            f"top-level ';': {s!r}"
        )
    return parts


class DirectProduct(GroupContext):
    """Direct product of two contexts; elements are (left, right) pairs,
    written ``(left;right)``."""

    def __init__(self, left: GroupContext, right: GroupContext):
        self.left = left
        self.right = right
        self.name = f"product:{left.name},{right.name}"

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    @property
    def identity(self):
        return (self.left.identity, self.right.identity)

    def power(self, a, n: int):
        return (self.left.power(a[0], n), self.right.power(a[1], n))

    def canonical(self, a) -> Hashable:
        return (self.left.canonical(a[0]), self.right.canonical(a[1]))

    def text(self, a) -> str:
        return f"({self.left.text(a[0])};{self.right.text(a[1])})"

    def parse(self, s: str):
        left, right = _split_product(s)
        return (self.left.parse(left), self.right.parse(right))

    def generators(self) -> list:
        gl = [(g, self.right.identity) for g in self.left.generators()]
        gr = [(self.left.identity, g) for g in self.right.generators()]
        return gl + gr


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class SymmetricGroup(GroupContext):
    """Symmetric group on n points; elements are 0-indexed image tuples."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("degree must be positive")
        self.n = n
        self.name = f"perm:{n}"

    def mul(self, a, b):
        return perm_compose(a, b)

    def inv(self, a):
        return perm_inverse(a)

    @property
    def identity(self):
        return perm_identity(self.n)

    def canonical(self, a) -> Hashable:
        return a

    def text(self, a) -> str:
        return ",".join(str(v + 1) for v in a)

    def parse(self, s: str):
        """One-line notation, 1-indexed images: '2,1,3'."""
        images = [v - 1 for v in parse_ints(filter(str.strip, s.split(",")))]
        if sorted(images) != list(range(self.n)):
            raise ValueError(f"not a permutation of 1..{self.n}: {s!r}")
        return tuple(images)

    def generators(self) -> list:
        gens = []
        for i in range(self.n - 1):
            images = list(range(self.n))
            images[i], images[i + 1] = images[i + 1], images[i]
            gens.append(tuple(images))
        return gens


class GroupHom(Frozen):
    """A homomorphism between contexts, carried as an explicit function.

    ``defined_on`` tests membership of the subgroup of the domain where the
    map is defined (pr1: the pure braids of braid:3), None for all of it.
    """

    domain: GroupContext
    codomain: GroupContext
    fn: Callable[[object], object]
    name: str
    defined_on: Callable[[object], bool] | None

    def __call__(self, a):
        return self.fn(a)


def proj_left(product: DirectProduct) -> GroupHom:
    return GroupHom(product, product.left, lambda a: a[0], "proj-left", None)


def proj_right(product: DirectProduct) -> GroupHom:
    return GroupHom(product, product.right, lambda a: a[1], "proj-right", None)
