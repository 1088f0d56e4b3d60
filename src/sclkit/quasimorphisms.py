"""Counting quasimorphisms and defect bookkeeping.

The counting function ``c_w(g)`` is the maximal number of pairwise disjoint
copies of a reduced pattern w inside the reduced word g.  All copies have
equal length, so the greedy left-to-right packing is optimal (earliest
finishing interval first); the test suite checks this against exhaustive
enumeration.  The counting quasimorphism is the difference

    h_w(g) = c_w(g) - c_{w^-1}(g),

whose defect admits a small certified bound:

Junction bound.  Write a product of reduced words as g = g't, h = t^-1 h',
g h = g'h' with maximal cancellation t; each concatenation here is reduced
as written.  For any pattern v, disjoint copies transfer across a reduced
concatenation u = u1 u2 with loss at most one copy (the single copy that can
straddle the junction), giving

    c_v(u1) + c_v(u2)  <=  c_v(u)  <=  c_v(u1) + c_v(u2) + 1.

Expanding h_w(gh) - h_w(g) - h_w(h) with these inequalities, the counts of w
and of w^-1 inside t cancel against each other (copies of w^-1 in t^-1 are
exactly inverted copies of w in t), and the three junction-straddling copies
are all that survives:

    |h_w(gh) - h_w(g) - h_w(h)| <= 3.

For a single-letter pattern the counting difference is the exponent-sum
homomorphism, so the defect is zero.  Homogenisation at most doubles a
defect bound, which is how ``brooks_homogenized`` certifies its constant.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .groups import BallValues, FreeGroup, GroupContext, GroupHom
from .words import Frozen, StepFailure, Word, cyclic_reduce_letters, invert_letters


def _match_starts(pattern: tuple[int, ...], text: Sequence[int]) -> list[int]:
    """Start of every copy of a nonempty pattern in text, overlapping copies
    included, in increasing order: one prefix-function (KMP) pass, linear in
    |pattern| + |text|."""
    L = len(pattern)
    # fail[i]: length of the longest proper border of pattern[: i + 1]
    fail = [0] * L
    k = 0
    for i in range(1, L):
        letter = pattern[i]
        while k and letter != pattern[k]:
            k = fail[k - 1]
        if letter == pattern[k]:
            k += 1
        fail[i] = k
    starts = []
    k = 0
    for i, letter in enumerate(text):
        while k and letter != pattern[k]:
            k = fail[k - 1]
        if letter == pattern[k]:
            k += 1
            if k == L:
                starts.append(i + 1 - L)
                k = fail[k - 1]
    return starts


def count_copies(w: Word, g: Word) -> int:
    """Maximal number of disjoint copies of w inside g: the greedy packing
    takes each copy that starts past the end of the last one taken.

    Only the letter sequences matter, so pattern and target need not come
    from the same free group.
    """
    if not w.letters:
        raise ValueError("counting pattern must be nonempty")
    L = len(w.letters)
    count = next_free = 0
    for s in _match_starts(w.letters, g.letters):
        if s >= next_free:
            count += 1
            next_free = s + L
    return count


def _cyclic_rate(pattern: tuple[int, ...], core: tuple[int, ...]) -> tuple[int, int]:
    """Asymptotic disjoint-copy count per period of the bi-infinite word
    ``...core core core...``, as (copies, periods) with periods >= 1.

    The greedy scan over the periodic word has finitely many carry states
    (the overhang of the last copy into the next period), so its increment
    sequence is eventually periodic; the exact rate is read off one cycle.
    The starts of copies in one period come from one ``_match_starts``
    pass, and each greedy step jumps to the first start at or after the
    carry, so the work is linear in |core| + |pattern| up to a log factor.
    """
    p, L = len(core), len(pattern)
    if p == 0 or L == 0:
        return 0, 1
    # every window of length L starting in the first period lies in the
    # first p + L - 1 letters of the periodic word
    matches = _match_starts(pattern, (core * -(-(p + L - 1) // p))[: p + L - 1])
    if not matches:
        return 0, 1
    n = len(matches)
    next_free = 0
    count = 0
    seen: dict[int, tuple[int, int]] = {}
    k = 0
    while True:
        state = max(next_free - k * p, 0)
        if state in seen:
            k0, c0 = seen[state]
            return count - c0, k - k0
        seen[state] = (k, count)
        j = bisect_left(matches, state)
        while j < n:
            s = matches[j]
            count += 1
            next_free = k * p + s + L
            j = bisect_left(matches, s + L, j + 1)
        k += 1


def homogenize_counting_exact(w: Word, g: Word) -> Fraction:
    """Exact value of the homogenised counting quasimorphism at g.

    Powers of g stabilise to the periodic word over the cyclically reduced
    core, conjugation and boundary effects being O(1); the limit is the
    per-period packing rate of w minus that of w^-1.
    """
    core, _ = cyclic_reduce_letters(g.letters)
    if not w.letters:
        raise ValueError("counting pattern must be nonempty")
    copies, periods = _cyclic_rate(w.letters, core)
    copies_inv, periods_inv = _cyclic_rate(invert_letters(w.letters), core)
    return Fraction(copies * periods_inv - copies_inv * periods, periods * periods_inv)


def defect_bound_counting(w: Word) -> Fraction:
    """Certified defect upper bound for h_w from the junction argument.

    Single letters give the exponent-sum homomorphism (defect zero); any
    longer pattern is covered by the three-junction bound derived in the
    module docstring.
    """
    if not w.letters:
        raise ValueError("counting pattern must be nonempty")
    return Fraction(0) if len(w.letters) == 1 else Fraction(3)


class Quasimorphism(Frozen):
    """A rational-valued function on a group context with defect records.

    ``defect_upper`` is a certified bound (with its provenance).
    ``invariant`` says the function is invariant under conjugation by its
    whole context, by construction: a homogeneous quasimorphism defined on
    the whole context is, and a pullback along a homomorphism defined on
    the whole domain keeps it.
    """

    name: str
    context: GroupContext
    eval_fn: Callable[[Any], Fraction]
    homogeneous: bool
    defect_upper: Fraction
    defect_provenance: str
    invariant: bool

    def __call__(self, g) -> Fraction:
        value = self.eval_fn(g)
        return value if isinstance(value, Fraction) else Fraction(value)


def _default_free_context(w: Word) -> GroupContext:
    return FreeGroup(gen_indices=tuple({abs(l) for l in w.letters}))


def brooks(w: Word, context: GroupContext | None = None) -> Quasimorphism:
    """The counting quasimorphism h_w on the free group w lives in.

    Without an explicit context the domain is the free group on the letters
    that actually occur in w, so ball enumeration stays small.
    """
    ctx = context if context is not None else _default_free_context(w)
    bound = defect_bound_counting(w)
    w_inv = ~w
    return Quasimorphism(
        name=f"brooks(w={w})",
        context=ctx,
        eval_fn=lambda g: Fraction(count_copies(w, g) - count_copies(w_inv, g)),
        homogeneous=False,
        defect_upper=bound,
        defect_provenance="junction-argument",
        invariant=False,
    )


def brooks_homogenized(w: Word, context: GroupContext | None = None) -> Quasimorphism:
    """The homogenised counting quasimorphism, evaluated exactly through the
    cyclic core.  The certified defect is twice the junction bound."""
    ctx = context if context is not None else _default_free_context(w)
    return Quasimorphism(
        name=f"homog(brooks(w={w}))",
        context=ctx,
        eval_fn=lambda g: homogenize_counting_exact(w, g),
        homogeneous=True,
        defect_upper=2 * defect_bound_counting(w),
        defect_provenance="junction-argument doubled by homogenisation",
        invariant=True,
    )


def zero_qm(context: GroupContext) -> Quasimorphism:
    return Quasimorphism(
        name="zero",
        context=context,
        eval_fn=lambda g: Fraction(0),
        homogeneous=True,
        defect_upper=Fraction(0),
        defect_provenance="identically zero",
        invariant=True,
    )


def hom_qm(context: GroupContext, fn: Callable[[Any], int], name: str) -> Quasimorphism:
    """A homomorphism viewed as a quasimorphism with defect zero."""
    return Quasimorphism(
        name=f"hom({name})",
        context=context,
        eval_fn=lambda g: Fraction(fn(g)),
        homogeneous=True,
        defect_upper=Fraction(0),
        defect_provenance="homomorphism",
        invariant=True,
    )


def pullback(qm: Quasimorphism, hom: GroupHom) -> Quasimorphism:
    """Pull a quasimorphism back along a homomorphism.

    Pairs map to pairs, so the defect bound carries over unchanged.
    Conjugation invariance carries over only when the map is defined on its
    whole domain: then qm(h(c x c^-1)) = qm(h(c) h(x) h(c)^-1) = qm(h(x)).
    """
    return Quasimorphism(
        name=f"pullback({qm.name}, {hom.name})",
        context=hom.domain,
        eval_fn=lambda g: qm(hom(g)),
        homogeneous=qm.homogeneous,
        defect_upper=qm.defect_upper,
        defect_provenance=f"{qm.defect_provenance}; pulled back along {hom.name}",
        invariant=qm.invariant and hom.total,
    )


class DefectSearchResult(Frozen):
    lower: Fraction
    witness: tuple | None
    pairs_checked: int


def defect_search(qm: Quasimorphism, radius: int) -> DefectSearchResult:
    """Searched lower bound for the defect of qm.

    Enumerates every pair (g, h) with |g| + |h| <= radius in the word metric
    of qm's context and maximises |qm(gh) - qm(g) - qm(h)|.  Monotone in
    the radius.
    """
    ctx = qm.context
    table = BallValues(ctx, radius, qm)
    value = table.values.get
    canonical, product_key = ctx.canonical, ctx.product_key
    best = 0
    witness: tuple | None = None
    pairs = 0
    for g, sphere in table.pairs():
        vg = value(canonical(g), 0)
        for h in sphere:
            pairs += 1
            gap = abs(value(product_key(g, h), 0) - vg - value(canonical(h), 0))
            if gap > best:
                best = gap
                witness = (g, h)
    return DefectSearchResult(Fraction(best, table.scale), witness, pairs)


def invariance_check(qm: Quasimorphism, conjugators: Iterable, targets: Iterable) -> int:
    """Check conjugation invariance on every (conjugator, target) pair of the
    sample; return the number of pairs checked.

    Conjugators may live in a larger ambient group than the targets; the
    caller supplies elements of the quasimorphism's own context.  The first
    violation raises StepFailure at "invariance sample".
    """
    ctx = qm.context
    checked = 0
    targets = list(targets)
    for c in conjugators:
        for t in targets:
            checked += 1
            expected = qm(t)
            got = qm(ctx.conjugate(c, t))
            if got != expected:
                raise StepFailure(
                    "invariance sample",
                    f"{qm.name}({ctx.text(t)}) = {expected}, but {got} at its "
                    f"conjugate by {ctx.text(c)}",
                )
    return checked
