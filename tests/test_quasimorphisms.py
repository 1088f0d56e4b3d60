"""Counting quasimorphisms against a dynamic-programming oracle."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from ball_reference import scaled_ball_values, sphere_pairs
from sclkit.braids import BraidGroup, b3_key, half_twist
from sclkit.groups import CyclicZ, DirectProduct, FreeGroup, proj_left
from sclkit.quasimorphisms import (
    CertifiedValue,
    _cyclic_rate,
    Quasimorphism,
    brooks,
    brooks_homogenized,
    count_copies,
    defect_bound_counting,
    defect_search,
    hom_qm,
    homogenize,
    homogenize_counting_exact,
    invariance_check,
    pullback,
    zero_qm,
)
from sclkit.scl import alpha_braid
from sclkit.specs import parse_group, parse_qm
from sclkit.words import StepFailure, Word, commutator, random_reduced, word
from value_helpers import contains, cyclic_reduce


def dp_count(pattern, text):
    """Max number of disjoint occurrences of pattern in text, by DP."""
    m, n = len(pattern), len(text)
    if m == 0 or m > n:
        return 0
    best = [0] * (n + 1)
    for i in range(1, n + 1):
        best[i] = best[i - 1]
        if i >= m and text[i - m : i] == pattern:
            best[i] = max(best[i], best[i - m] + 1)
    return best[n]


def test_count_copies_matches_dp_oracle_exhaustively():
    from sclkit.words import words_of_length

    for pattern in [word("ab"), word("aba"), word("abA")]:
        for length in range(0, 7):
            for letters in words_of_length((1, 2), length):
                g = Word(letters)
                assert count_copies(pattern, g) == dp_count(pattern.letters, letters)


def test_count_copies_matches_dp_oracle_random():
    rng = random.Random(400)
    for _ in range(800):
        p = Word(random_reduced(rng, (1, 2), rng.randrange(1, 5)))
        g = Word(random_reduced(rng, (1, 2), rng.randrange(0, 30)))
        assert count_copies(p, g) == dp_count(p.letters, g.letters)


def test_brooks_antisymmetry():
    rng = random.Random(401)
    h = brooks(word("abAB"))
    for _ in range(300):
        g = Word(random_reduced(rng, (1, 2), rng.randrange(0, 16)))
        assert h(~g) == -h(g)


def test_brooks_known_values():
    h = brooks(word("xyXY"))
    c = commutator(word("x"), word("y"))
    for n in (1, 2, 5):
        assert h(c**n) == n
    assert h(word("xy")) == 0


def test_defect_bound_counting():
    assert defect_bound_counting(word("a")) == 0
    assert defect_bound_counting(word("x")) == 0
    assert defect_bound_counting(word("ab")) == 3
    assert defect_bound_counting(word("xyXY")) == 3


def test_homogenized_exact_known_values():
    w = word("xyXY")
    c = commutator(word("x"), word("y"))
    assert homogenize_counting_exact(w, c) == 1
    assert homogenize_counting_exact(w, word("x")) == 0
    assert homogenize_counting_exact(w, c**3) == 3


def test_homogenized_qm_is_homogeneous():
    rng = random.Random(402)
    h = brooks_homogenized(word("abAB"))
    ctx = h.context
    for _ in range(60):
        g = Word(random_reduced(rng, (1, 2), rng.randrange(0, 8)))
        base = h(g)
        for n in (-2, 0, 3):
            assert h(ctx.power(g, n)) == n * base


def test_homogenize_interval_contains_exact_value():
    w = word("xyXY")
    h = brooks(w)
    c = commutator(word("x"), word("y"))
    exact = homogenize_counting_exact(w, c)
    for n_max in (4, 16, 48):
        cv = homogenize(h, c, n_max)
        assert cv.radius == Fraction(3, n_max)
        assert contains(cv, exact)


def test_homogenize_of_homogeneous_is_exact():
    h = brooks_homogenized(word("abAB"))
    g = commutator(word("a"), word("b"))
    cv = homogenize(h, g, 5)
    assert cv == CertifiedValue(Fraction(1), Fraction(0))


def test_homogenize_rejects_bad_truncation():
    with pytest.raises(ValueError):
        homogenize(brooks(word("ab")), word("a"), 0)


def test_defect_search_monotone_and_below_certified_bound():
    h = brooks(word("ab"))
    prev = Fraction(0)
    for radius in (2, 4, 6):
        res = defect_search(h, radius)
        assert res.lower >= prev
        assert res.lower <= h.defect_upper
        prev = res.lower
    assert res.pairs_checked > 0
    if res.witness is not None:
        g, hh = res.witness
        assert abs(h(g * hh) - h(g) - h(hh)) == res.lower


def test_defect_search_finds_a_positive_gap():
    h = brooks_homogenized(word("abAB"))
    res = defect_search(h, 6)
    assert 0 < res.lower <= h.defect_upper


def test_homogeneous_qm_is_conjugation_invariant_in_own_group():
    h = brooks_homogenized(word("abAB"))
    ctx = h.context
    checked = invariance_check(
        h, conjugators=ctx.ball(2), targets=[ctx.parse("abAB"), ctx.parse("ab")]
    )
    assert checked == len(ctx.ball(2)) * 2


def test_pullback_carries_values_defect_and_provenance():
    prod = DirectProduct(FreeGroup(2), CyclicZ())
    base = brooks_homogenized(word("abAB"))
    phi = pullback(base, proj_left(prod))
    assert phi.context is prod
    assert phi.defect_upper == base.defect_upper
    assert phi.defect_provenance.endswith("; pulled back along proj-left")
    g = (FreeGroup(2).parse("abAB"), 7)
    assert phi(g) == base(FreeGroup(2).parse("abAB")) == 1
    assert phi.homogeneous
    assert phi.invariant


# (group, quasimorphism spec, invariant under conjugation by the group)
INVARIANCE_TABLE = [
    ("free:2", "zero", True),
    ("braid:3", "hom(indexsum)", True),
    ("free:2", "homog(brooks(w=abAB))", True),
    ("free:2", "brooks(w=abAB)", False),
    ("product:free:2,z", "pullback(homog(brooks(w=abAB)), proj-left)", True),
    ("product:free:2,z", "pullback(brooks(w=abAB), proj-left)", False),
    # pr1 is defined on the pure braids only
    ("braid:3", "pullback(homog(brooks(w=xyXY)), pr1)", False),
    ("product:braid:3,z", "pullback(pullback(homog(brooks(w=xyXY)), pr1), proj-left)", False),
]


@pytest.mark.parametrize("group,spec,invariant", INVARIANCE_TABLE)
def test_invariance_rule_truth_table(group, spec, invariant):
    qm = parse_qm(spec, group=parse_group(group))
    assert qm.invariant is invariant


def test_invariance_rule_agrees_with_sampled_conjugation():
    # the sampled check as an oracle: no violation where the rule says
    # invariant, and the half twist's sign flip where it says not
    alpha = alpha_braid()
    ctx = BraidGroup(3)
    cases = [
        ("free:2", "homog(brooks(w=abAB))", ["abAB", "aab", "abABab"]),
        ("product:free:2,z", "pullback(homog(brooks(w=abAB)), proj-left)", ["(abAB;3)", "(aBAb;0)"]),
    ]
    for group, spec, targets in cases:
        qm = parse_qm(spec, group=parse_group(group))
        gctx = qm.context
        assert qm.invariant
        assert invariance_check(qm, gctx.ball(2), [gctx.parse(t) for t in targets]) > 0
    qm = parse_qm("pullback(homog(brooks(w=xyXY)), pr1)", group=ctx)
    assert not qm.invariant
    with pytest.raises(StepFailure) as flipped:
        invariance_check(qm, [half_twist(3)], [alpha])
    assert flipped.value.step == "invariance sample"


def test_zero_and_hom_qms():
    z = CyclicZ()
    zq = zero_qm(z)
    assert zq(17) == 0 and zq.defect_upper == 0 and zq.homogeneous
    hq = hom_qm(z, lambda k: 3 * k, "triple")
    assert hq(4) == 12
    assert defect_search(hq, 5).lower == 0


def reference_defect_search(qm, radius, ctx):
    """The Fraction loop the integer search replaced, kept as its oracle."""
    memo = {}

    def ev(g):
        key = ctx.canonical(g)
        if key not in memo:
            memo[key] = qm(g)
        return memo[key]

    best = Fraction(0)
    witness = None
    pairs = 0
    for g, sphere in sphere_pairs(ctx, radius):
        vg = ev(g)
        for h in sphere:
            pairs += 1
            gap = abs(ev(ctx.mul(g, h)) - vg - ev(h))
            if gap > best:
                best = gap
                witness = (g, h)
    return best, witness, pairs


def _same_as_reference(qm, radius):
    ctx = qm.context
    res = defect_search(qm, radius)
    best, witness, pairs = reference_defect_search(qm, radius, ctx)
    assert (res.lower, res.pairs_checked) == (best, pairs)
    assert res.lower <= qm.defect_upper
    if witness is None:
        assert res.witness is None
    else:
        assert [ctx.canonical(x) for x in res.witness] == [ctx.canonical(x) for x in witness]
    return res


def test_defect_search_matches_fraction_reference_on_free_groups():
    f2 = FreeGroup(2)
    for qm in (brooks(word("ab"), context=f2), brooks_homogenized(word("abAB"), context=f2)):
        for radius in range(7):
            _same_as_reference(qm, radius)


def test_defect_search_matches_reference_with_a_nontrivial_scale():
    f2 = FreeGroup(2)
    ab, ba = word("ab"), word("bA")
    qm = Quasimorphism(
        "thirds-and-quarters",
        f2,
        lambda g: Fraction(count_copies(ab, g) - count_copies(~ab, g), 3)
        - Fraction(count_copies(ba, g) - count_copies(~ba, g), 4),
        False,
        # h_ab/3 - h_bA/4, and each counting quasimorphism h_w has defect at most 3,
        # so 3/3 + 3/4
        Fraction(7, 4),
        "junction-argument",
        False,
    )
    assert scaled_ball_values(f2, 5, qm)[1] == 12
    res = _same_as_reference(qm, 5)
    assert res.lower.denominator > 1


def test_suite_defect_search_stays_under_its_memory_pin():
    # suite item 4's search: 13,121 elements, 139,969 pairs.  Building the
    # ball twice and a Fraction per element, zeros included, peaked at
    # 3.5 MB traced; one sparse table holding every sphere at 1.6 MB.  Held
    # to the spheres up to radius 4, with the longer ones generated afresh,
    # it peaks at 0.17 MB, while its 1,632 nonzero values are gathered.
    qm = brooks_homogenized(word("xyXY"))
    defect_search(qm, 8)
    tracemalloc.start()
    try:
        res = defect_search(qm, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.lower, res.pairs_checked) == (2, 139969)
    assert peak < 0.5 * 2**20


def test_defect_search_matches_reference_off_free_groups():
    prod = DirectProduct(FreeGroup(2), CyclicZ())
    _same_as_reference(pullback(brooks(word("ab")), proj_left(prod)), 4)
    b3 = BraidGroup(3)
    assert _same_as_reference(parse_qm("hom(indexsum)", group=b3), 4).lower == 0
    # a bounded function is a quasimorphism; it is read off the exact key,
    # so every word for one braid gets one value
    clamped = Quasimorphism(
        "clamped-corner",
        b3,
        lambda b: Fraction(max(-2, min(2, b3_key(b)[1])), 3),
        False,
        # every value lies in [-2/3, 2/3], so the defect is at most 3 * 2/3
        Fraction(2),
        "bounded",
        False,
    )
    assert _same_as_reference(clamped, 4).lower > 0


def _reference_rate(pattern, core):
    """Reference packing rate: the modular-index matcher the library used
    before it matched with slices of the repeated core, and the greedy scan
    that rescans every match in every period.  Both are quadratic; the
    library's prefix-function matcher and jumping scan replaced them."""
    p, L = len(core), len(pattern)
    if p == 0 or L == 0:
        return Fraction(0)
    matches = [s for s in range(p) if all(core[(s + t) % p] == pattern[t] for t in range(L))]
    if not matches:
        return Fraction(0)
    next_free = 0
    count = 0
    seen = {}
    k = 0
    while True:
        state = max(next_free - k * p, 0)
        if state in seen:
            k0, c0 = seen[state]
            return Fraction(count - c0, k - k0)
        seen[state] = (k, count)
        for s in matches:
            t = k * p + s
            if t >= next_free:
                count += 1
                next_free = t + L
        k += 1


def _reference_homogenized(w, g):
    core, _ = cyclic_reduce(g)
    return _reference_rate(w.letters, core.letters) - _reference_rate((~w).letters, core.letters)


def test_homogenize_counting_exact_matches_modular_matcher():
    cases = [
        (word("a"), word("a")),  # core length 1, a match
        (word("ab"), word("a")),  # core length 1, L > p
        (word("aaa"), word("a")),  # L > p, a copy in every period
        (word("ababa"), word("ab")),  # L > p, overlapping copies
        (word("abAB"), word("aaB")),  # no match
        (word("ab"), word("")),  # the identity
        (word("abAB"), word("baBAB")),  # a conjugate of the one-letter core B
    ]
    rng = random.Random(1201)
    for _ in range(1500):
        core, _ = cyclic_reduce(Word(random_reduced(rng, (1, 2), rng.randrange(1, 7))))
        pattern = Word(random_reduced(rng, (1, 2), rng.randrange(1, 9)))
        conj = Word(random_reduced(rng, (1, 2), rng.randrange(0, 3)))
        cases.append((pattern, conj * core * ~conj))
        # a pattern cut from the periodic word, so that it does occur
        start = rng.randrange(len(core))
        cut = (core.letters * 4)[start : start + rng.randrange(1, 3 * len(core) + 1)]
        cases.append((Word(cut), core))
    # long periodic cores: a pattern that is a power of the core's root,
    # shorter or longer than the core, and long cuts of the periodic word
    for j, k in ((99, 100), (100, 99), (37, 50), (50, 37), (64, 64)):
        cases.append((word("ab" * j), word("ab" * k)))
    for _ in range(30):
        root, _ = cyclic_reduce(Word(random_reduced(rng, (1, 2), rng.randrange(1, 5))))
        core = root ** rng.randrange(10, 41)
        start = rng.randrange(len(core))
        cut = (core.letters * 3)[start : start + rng.randrange(1, 2 * len(core) + 1)]
        cases.append((Word(cut), core))
    for w, g in cases:
        assert homogenize_counting_exact(w, g) == _reference_homogenized(w, g), (w, g)
        core, _ = cyclic_reduce(g)
        copies, periods = _cyclic_rate(w.letters, core.letters)
        assert periods >= 1
        assert Fraction(copies, periods) == _reference_rate(w.letters, core.letters), (w, g)
    assert any(_reference_homogenized(w, g) != 0 for w, g in cases if len(w) > len(cyclic_reduce(g)[0]))
    # the quadratic reference is too slow at the size of the text budget:
    # copy j starts at letter 19982 j, and 10000 copies end a cycle of 9991
    # periods of 20000 letters, as 9991 and 10000 are coprime
    assert homogenize_counting_exact(word("ab" * 9991), word("ab" * 10000)) == Fraction(10000, 9991)
