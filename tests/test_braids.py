"""Braid equality keys, their Garside oracle, and the pure-braid coordinate
splitting.

The core oracle: the Dynnikov coordinates of ``normal_form`` and the
Garside normal forms of ``garside_helpers`` must be invariant under random
applications of the defining relations (far commutation, the braid relation,
free insertion/cancellation), since those generate all equalities, and the
two must agree on which words are equal.
"""

import random

import pytest

import garside_helpers
from garside_helpers import (
    braid_equal,
    garside_normal_form,
    is_left_weighted,
    nf_to_letters,
    plant_extra_syllable,
    sanov_coordinates,
    underlying_permutation,
)
from sclkit import braids
from sclkit.braids import (
    BraidGroup,
    BraidWord,
    P3Coordinates,
    b3_key,
    braid,
    format_braid,
    full_twist,
    half_twist,
    index_sum,
    is_pure,
    normal_form,
    p3_assemble,
    p3_coordinates,
    pr1,
    sl2_image,
)
from sclkit.extension import index_section, random_reduced, sample
from sclkit.groups import perm_compose, perm_identity
from sclkit.words import StepFailure, Word


def random_braid(rng, n, length):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n)
        letters.append(i if rng.random() < 0.5 else -i)
    return braid(",".join(str(l) for l in letters), n)


def fixpoint_normalize_factors(n, k, factors):
    """Reference left-weighting: move every half twist to the front and
    sweep all adjacent pairs until a sweep changes nothing."""
    ident, delta, _ = garside_helpers._tables(n)
    fs = [f for f in factors if f != ident]
    while True:
        out = []
        for f in fs:
            if f == delta:
                k += 1
                out = [garside_helpers._flip(n, g) for g in out]
            elif f != ident:
                out.append(f)
        fs = out
        changed = False
        for i in range(len(fs) - 1):
            a, b = fs[i], fs[i + 1]
            a2, b2 = garside_helpers._lw_pair(n, a, b)
            if a2 != a:
                fs[i], fs[i + 1] = a2, b2
                changed = True
        if not changed:
            return k, tuple(fs)


def rewrite_once(rng, letters, n):
    """Apply one random defining relation or free move to a letter list."""
    letters = list(letters)
    moves = ["insert"]
    if letters:
        moves.append("cancel_site" if len(letters) >= 2 else "insert")
    if len(letters) >= 2:
        moves.append("commute")
    if len(letters) >= 3:
        moves.append("braid_rel")
    move = rng.choice(moves)
    if move == "insert":
        pos = rng.randrange(0, len(letters) + 1)
        i = rng.randrange(1, n)
        sign = 1 if rng.random() < 0.5 else -1
        letters[pos:pos] = [sign * i, -sign * i]
    elif move == "cancel_site":
        sites = [
            j for j in range(len(letters) - 1) if letters[j] == -letters[j + 1]
        ]
        if sites:
            j = rng.choice(sites)
            del letters[j : j + 2]
    elif move == "commute":
        sites = [
            j
            for j in range(len(letters) - 1)
            if abs(abs(letters[j]) - abs(letters[j + 1])) >= 2
        ]
        if sites:
            j = rng.choice(sites)
            letters[j], letters[j + 1] = letters[j + 1], letters[j]
    elif move == "braid_rel":
        sites = []
        for j in range(len(letters) - 2):
            a, b, c = letters[j : j + 3]
            if a > 0 and b > 0 and c > 0 and a == c and abs(a - b) == 1:
                sites.append(j)
        if sites:
            j = rng.choice(sites)
            a, b = letters[j], letters[j + 1]
            letters[j : j + 3] = [b, a, b]
    return letters


@pytest.mark.parametrize("n", [3, 4])
def test_normal_form_invariant_under_relations(n):
    rng = random.Random(300 + n)
    for _ in range(60):
        b = random_braid(rng, n, rng.randrange(0, 10))
        nf = normal_form(b)
        letters = list(b.letters)
        for _ in range(12):
            letters = rewrite_once(rng, letters, n)
        rewritten = braid(",".join(str(l) for l in letters), n)
        assert normal_form(rewritten) == nf
        assert braid_equal(b, rewritten)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_normal_forms_are_left_weighted(n):
    # the oracle for any change to how _normalize_factors left-weights
    rng = random.Random(310 + n)
    for _ in range(300):
        b = random_braid(rng, n, rng.randrange(0, 121))
        assert is_left_weighted(garside_normal_form(b))


def test_one_pass_normal_form_matches_fixpoint(monkeypatch):
    rng = random.Random(309)
    words = [random_braid(rng, n, rng.randrange(0, 61)) for n in range(2, 7) for _ in range(40)]
    alpha = BraidGroup(3).commutator(braid("1,1", 3), braid("2,2", 3))
    words += [alpha**m for m in range(1, 65)]
    fast = [garside_normal_form(b) for b in words]
    monkeypatch.setattr(garside_helpers, "_normalize_factors", fixpoint_normalize_factors)
    for b, nf in zip(words, fast):
        ref = garside_normal_form(b)
        assert (nf.delta_power, nf.factors) == (ref.delta_power, ref.factors), format_braid(b)


def test_normal_form_round_trip():
    rng = random.Random(301)
    for _ in range(100):
        b = random_braid(rng, 3, rng.randrange(0, 12))
        back = braid(",".join(str(l) for l in nf_to_letters(garside_normal_form(b))), 3)
        assert braid_equal(b, back)


def _agreement_pairs(rng, n):
    """Pairs of words on n strands, equal and unequal: seeded words against
    short ones, relation-rewritten copies (also one letter off), long
    syllables on either side, and the centre's Delta^2 and Delta^4 as
    prefixes (equal to the same suffixes, unequal to the bare word)."""
    a = random_braid(rng, n, rng.randrange(0, 31))
    letters = list(a.letters)
    for _ in range(rng.randrange(1, 10)):
        letters = rewrite_once(rng, letters, n)
    copy = BraidWord(n, tuple(letters))
    i = rng.randrange(1, n)
    s = BraidWord(n, (rng.choice((-i, i)),) * rng.randint(5, 40))
    twist = full_twist(n) ** rng.choice((1, 2))
    return [
        (a, random_braid(rng, n, rng.randrange(0, 5))),
        (a, copy),
        (a, copy * BraidWord(n, (rng.choice((-i, i)),))),
        (s * a, s * copy),
        (s * a, a * s),
        (twist * a, copy * twist),
        (twist * a, copy),
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_dynnikov_coordinates_agree_with_garside(n):
    # Garside is the oracle: equal coordinates exactly for equal braids
    rng = random.Random(5500 + n)
    outcomes = {True: 0, False: 0}
    for _ in range(450):
        for a, b in _agreement_pairs(rng, n):
            same = braid_equal(a, b)
            assert (normal_form(a) == normal_form(b)) == same, (format_braid(a), format_braid(b))
            outcomes[same] += 1
    # 3150 pairs on each strand count, 22,050 over n = 2..8, both outcomes common
    assert sum(outcomes.values()) == 3150
    assert min(outcomes.values()) > 900


@pytest.mark.parametrize("n", range(2, 9))
def test_every_braid_relation_gives_the_identity_coordinates(n):
    identity = normal_form(BraidWord(n, ()))
    assert identity == (0,) * n + (1,) * n
    relators = []
    for i in range(1, n):
        relators += [(i, -i), (-i, i)]
        for j in range(1, n):
            if abs(i - j) >= 2:
                relators.append((i, j, -i, -j))
            elif abs(i - j) == 1:
                relators.append((i, j, i, -j, -i, -j))
    # inside a longer word a relator changes nothing either
    prefix, suffix = (1, -(n - 1), 1), (n - 1,) * 3
    around = normal_form(BraidWord(n, prefix + suffix))
    for r in relators:
        word = BraidWord(n, r)
        assert normal_form(word) == identity, r
        assert normal_form(~word) == identity, r
        assert normal_form(BraidWord(n, prefix + r + suffix)) == around, r
    assert len(relators) == 2 * (n - 1) + (n - 2) * (n - 3) + 2 * (n - 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_powers_of_the_full_twist_are_not_the_identity(n):
    # the action is faithful on B_n itself: the centre moves the lamination
    ctx = BraidGroup(n)
    keys = {normal_form(full_twist(n) ** k) for k in range(-3, 4)}
    assert len(keys) == 7
    for k in range(1, 4):
        assert normal_form(full_twist(n) ** k) != normal_form(ctx.identity)
        assert not ctx.is_identity(ctx.power(full_twist(n), k))
    for g in ctx.generators():
        assert normal_form(full_twist(n) * g) == normal_form(g * full_twist(n))


def test_braid_parse_and_format():
    b = braid("1,2,-1", 3)
    assert format_braid(b) == "1,2,-1"
    assert braid("", 3).letters == ()
    with pytest.raises(ValueError):
        braid("3", 3)
    with pytest.raises(ValueError):
        braid("0", 3)
    # empty tokens are skipped and spaces around a token are allowed
    for text in ("1,,2", " 1 , 2 ", "1,2,", ",1,2"):
        assert braid(text, 3).letters == (1, 2), text
    with pytest.raises(ValueError, match="invalid literal"):
        braid("1,x", 3)
    # an index is read only as format_braid prints it
    for text in ("+1,2", "1,\u0662", "1_0", "01", "1,-0"):
        with pytest.raises(ValueError, match="not in printed form"):
            braid(text, 12)
    # the range check names the first bad letter
    for letters, bad in (((1, 5, 0), 5), ((-1, 0, 3), 0), ((2, -3), -3)):
        with pytest.raises(ValueError, match=f"crossing index {bad} out of range for 3 strands"):
            BraidWord(3, letters)


def test_b3_key_agrees_with_normal_forms():
    # Garside normal forms are the oracle: equal keys exactly for equal braids
    rng = random.Random(311)
    ctx = BraidGroup(3)
    d4 = full_twist(3) ** 2
    equal = 0
    for _ in range(2000):
        a = random_braid(rng, 3, rng.randrange(0, 41))
        letters = list(a.letters)
        for _ in range(rng.randrange(0, 8)):
            letters = rewrite_once(rng, letters, 3)
        for b in (
            random_braid(rng, 3, rng.randrange(0, 5)),
            braid(",".join(str(l) for l in letters), 3),
            ctx.mul(a, d4),
        ):
            same = braid_equal(a, b)
            assert (b3_key(a) == b3_key(b)) == same, (format_braid(a), format_braid(b))
            equal += same
    assert equal >= 2000


def test_b3_key_separates_the_centre():
    # the full twist maps to -I, so D^4 maps to I and only the index sum tells
    # its powers from the identity
    keys = {b3_key(full_twist(3) ** k) for k in range(-3, 4)}
    assert len(keys) == 7
    assert sl2_image(full_twist(3) ** 2) == sl2_image(braid("", 3)) == ((1, 0), (0, 1))


def test_b3_key_refuses_other_strand_counts():
    # on 4 strands sigma_3 would otherwise be read as sigma_2^-1
    for b in (braid("3", 4), braid("-2", 4), braid("1", 2)):
        for key_of in (b3_key, sl2_image):
            with pytest.raises(ValueError, match="defined on 3 strands"):
                key_of(b)
        assert b._key is None
    # a keyed 4-strand word holds its Dynnikov coordinates, not a b3_key
    keyed = braid("3,-1", 4)
    BraidGroup(4).canonical(keyed)
    with pytest.raises(ValueError, match="defined on 3 strands"):
        b3_key(keyed)
    assert keyed._key == normal_form(keyed)


def test_b3_key_matches_normal_form_round_trip():
    ctx = BraidGroup(3)
    alpha = ctx.commutator(braid("1,1", 3), braid("2,2", 3))
    for m in range(1, 65):
        word_m = alpha**m
        back = BraidWord(3, nf_to_letters(garside_normal_form(word_m)))
        assert b3_key(back) == b3_key(word_m)


def _walked_key(b):
    """The oracle: ``b3_key`` of the same letters in a fresh word, which
    walks them."""
    fresh = BraidWord(3, b.letters)
    assert fresh._key is None
    return b3_key(fresh)


def test_carried_keys_equal_the_keys_of_the_letters():
    rng = random.Random(321)
    ctx = BraidGroup(3)
    powers = (-70, -64, -3, -1, 0, 1, 2, 64, 65, 100)
    acc = ctx.identity
    for _ in range(200):
        a = random_braid(rng, 3, rng.randrange(0, 12))
        b = random_braid(rng, 3, rng.randrange(0, 12))
        acc = acc * a if rng.random() < 0.5 else ~acc
        built = [a * b, ~a, ctx.conjugate(a, b), ctx.commutator(a, b), ctx.inv(acc)]
        m = rng.choice(powers)
        built += [a**m, ctx.power(ctx.commutator(acc, b), m), ctx.conjugate(acc, b) ** m]
        for c in built:
            # composed from the operands' keys, never walked
            assert c._key is not None
            assert c._key == _walked_key(c), (format_braid(c), m)
    parsed = braid("1,2,-1", 3)
    assert parsed._key is None
    assert b3_key(parsed) == parsed._key == (1, 0, 1, -1, 2)
    # off 3 strands a product is keyed only when its left factor is
    assert (braid("1,3", 4) * braid("2", 4))._key is None
    left = braid("1,3", 4)
    BraidGroup(4).canonical(left)
    assert (left * braid("2", 4))._key == normal_form(braid("1,3,2", 4))


def _walked_coordinates(b):
    """The oracle off 3 strands: ``normal_form`` of the same letters in a
    fresh word."""
    fresh = BraidWord(b.n, b.letters)
    assert fresh._key is None
    return normal_form(fresh)


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8])
def test_carried_coordinates_equal_the_walk_of_the_letters(n):
    # a keyed left factor extends its coordinates by the right factor's
    # letters, whatever cancels at the junction; inverses, powers and parsed
    # words start unkeyed and are walked on first use
    rng = random.Random(330 + n)
    ctx = BraidGroup(n)
    products = 0
    for i in range(400):
        if i % 20 == 0:
            acc = ctx.identity
            ctx.canonical(acc)
        a = random_braid(rng, n, rng.randrange(0, 12))
        b = random_braid(rng, n, rng.randrange(0, 12))
        assert a._key is None
        assert ctx.canonical(a) == a._key == _walked_coordinates(a)
        m = rng.choice((-5, -1, 0, 2, 7))
        assert (~a)._key is None and (a**m)._key is None
        acc = acc * (a if rng.random() < 0.5 else ~b)
        built = [acc, a * b, a * ~a, ctx.conjugate(a, b), ctx.commutator(a, b),
                 ctx.conjugate(acc, a) * b]
        for c in built:
            assert c._key is not None
            assert c._key == _walked_coordinates(c), format_braid(c)
        assert (a * ~a)._key == _walked_coordinates(ctx.identity)
        products += len(built)
    assert products >= 2000


def test_mod_2_purity_equals_the_permutation():
    rng = random.Random(322)
    ctx = BraidGroup(3)
    s1, s2 = braid("1", 3), braid("2", 3)
    alpha = ctx.commutator(s1**2, s2**2)
    samples = [s1**2, s2**2, s1**-2, full_twist(3), half_twist(3), ~half_twist(3), alpha]
    samples += [random_braid(rng, 3, rng.randrange(0, 20)) for _ in range(500)]
    samples += [samples[rng.randrange(len(samples))] * s for s in samples[:300]]
    identity = perm_identity(3)
    pure = 0
    for b in samples:
        expected = underlying_permutation(b) == identity
        assert is_pure(b) == expected, format_braid(b)
        assert is_pure(BraidWord(3, b.letters)) == expected
        pure += expected
    assert [is_pure(b) for b in samples[:7]] == [True, True, True, True, False, False, True]
    assert pure > 100


def test_b3_group_eq_is_false_across_strand_counts():
    ctx = BraidGroup(3)
    assert not ctx.eq(braid("1,3", 4), braid("1", 3))
    assert not ctx.eq(BraidWord(4, ()), ctx.identity)


def test_braid_word_validation_stays_at_the_public_boundary():
    for bad in ((3,), (0,)):
        with pytest.raises(ValueError):
            BraidWord(3, bad)
    with pytest.raises(ValueError):
        braid("0", 3)
    a, b = braid("1,2,-1", 3), braid("1,-2", 3)
    for built in (a * b, ~a, a**3, a**-2):
        checked = BraidWord(built.n, built.letters)
        assert built == checked and hash(built) == hash(checked)
        assert not hasattr(built, "__dict__")
        with pytest.raises(AttributeError):
            built.letters = ()


def _free_reduce(letters):
    # repeated single-pass cancellation to a fixpoint; slow but obviously right
    out = list(letters)
    i = 0
    while i < len(out) - 1:
        if out[i] == -out[i + 1]:
            del out[i : i + 2]
            i = 0
        else:
            i += 1
    return tuple(out)


@pytest.mark.parametrize("n", [3, 4])
def test_braid_product_is_the_free_reduction_of_the_concatenation(n):
    rng = random.Random(1200 + n)
    cancelled = 0
    for _ in range(1500):
        a = _free_reduce(random_braid(rng, n, rng.randrange(0, 12)).letters)
        b = _free_reduce(random_braid(rng, n, rng.randrange(0, 12)).letters)
        # let the right factor start by undoing a suffix of the left one
        cut = rng.randrange(0, len(a) + 1)
        b = _free_reduce(tuple(-l for l in reversed(a[cut:])) + b)
        product = BraidWord(n, a) * BraidWord(n, b)
        assert product.letters == _free_reduce(a + b), (a, b)
        cancelled += len(a) + len(b) - len(product.letters)
    assert cancelled > 0
    with pytest.raises(ValueError):
        braid("1", 3) * braid("1", 4)


def test_underlying_permutation_matches_composition():
    rng = random.Random(312)
    for n in range(2, 7):
        taus = garside_helpers._tables(n)[2]
        for _ in range(60):
            b = random_braid(rng, n, rng.randrange(0, 30))
            p = perm_identity(n)
            for l in b.letters:
                p = perm_compose(p, taus[abs(l) - 1])
            assert underlying_permutation(b) == p


def test_underlying_permutation_is_a_homomorphism():
    rng = random.Random(303)
    ctx = BraidGroup(4)
    from sclkit.groups import SymmetricGroup

    s4 = SymmetricGroup(4)
    for _ in range(100):
        a = random_braid(rng, 4, rng.randrange(0, 8))
        b = random_braid(rng, 4, rng.randrange(0, 8))
        assert underlying_permutation(ctx.mul(a, b)) == s4.mul(
            underlying_permutation(a), underlying_permutation(b)
        )


def test_half_and_full_twist():
    ctx = BraidGroup(3)
    delta = half_twist(3)
    assert braid_equal(ctx.conjugate(delta, braid("1", 3)), braid("2", 3))
    assert braid_equal(ctx.power(delta, 2), full_twist(3))
    for g in ctx.generators():
        assert braid_equal(
            ctx.mul(full_twist(3), g), ctx.mul(g, full_twist(3))
        )
    assert braid_equal(full_twist(4), BraidGroup(4).power(half_twist(4), 2))


def test_index_sum_and_section():
    rng = random.Random(304)
    ctx = BraidGroup(3)
    for _ in range(100):
        a = random_braid(rng, 3, rng.randrange(0, 10))
        b = random_braid(rng, 3, rng.randrange(0, 10))
        assert index_sum(ctx.mul(a, b)) == index_sum(a) + index_sum(b)
    assert index_sum(half_twist(3)) == 3
    assert index_sum(index_section(-4)) == -4


def test_is_pure():
    assert not is_pure(braid("1", 3))
    assert is_pure(braid("1,1", 3))
    assert is_pure(full_twist(3))
    assert not is_pure(half_twist(3))
    alpha = BraidGroup(3).commutator(braid("1,1", 3), braid("2,2", 3))
    assert is_pure(alpha)


def test_is_pure_refuses_other_strand_counts():
    # purity is read off the 3-strand key; the permutation walk is the
    # tests' oracle, not a second code path
    for b in (braid("1,1", 4), BraidWord(4, ()), braid("1", 2)):
        with pytest.raises(ValueError, match="defined on 3 strands"):
            is_pure(b)


def test_braid_group_context_round_trip():
    ctx = BraidGroup(3)
    rng = random.Random(305)
    for _ in range(60):
        g = sample(ctx, rng, rng.randrange(0, 8))
        assert braid_equal(ctx.parse(ctx.text(g)), g)
    assert ctx.is_identity(ctx.mul(braid("1", 3), braid("-1", 3)))
    assert len(ctx.ball(0)) == 1
    assert len(ctx.ball(1)) == 5
    # ball order and representative words are deterministic: breadth-first
    # discovery order, generators before inverses, no sort
    assert [ctx.text(g) for g in ctx.ball(3)[:12]] == [
        "", "1", "2", "-1", "-2", "1,1", "1,2", "1,-2", "2,1", "2,2", "2,-1", "-1,2",
    ]


def test_p3_round_trip_small():
    rng = random.Random(306)
    for _ in range(60):
        w = Word(random_reduced(rng, (24, 25), rng.randrange(0, 10)))
        k = rng.randint(-3, 3)
        coords = p3_coordinates(p3_assemble(w, k))
        assert coords == P3Coordinates(w, k)


def test_p3_assemble_equals_the_validated_braid_word():
    rng = random.Random(307)
    twist, inverse = full_twist(3).letters, (~full_twist(3)).letters
    for k in range(-5, 6):
        for _ in range(10):
            w = Word(random_reduced(rng, (24, 25), rng.randrange(0, 10)))
            expected = BraidWord(3, braids.p3_embed_letters(w) + (twist if k >= 0 else inverse) * abs(k))
            assert p3_assemble(w, k) == expected


def test_p3_coordinates_rejects_non_pure():
    with pytest.raises(ValueError):
        p3_coordinates(braid("1", 3))
    with pytest.raises(ValueError):
        p3_coordinates(braid("1", 4))


def test_a_peel_that_does_not_reassemble_fails_at_the_p3_coordinates_step(monkeypatch):
    plant_extra_syllable(monkeypatch)
    with pytest.raises(StepFailure) as failure:
        p3_coordinates(p3_assemble(Word((24, 25)), 1))
    assert failure.value.step == "p3 coordinates"
    assert failure.value.detail == "reassembled coordinates do not reproduce the input"


# the coset representatives of the walk in p3_coordinates, in table order
COSET_REPRESENTATIVES = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))


def test_every_coset_table_entry_is_the_pure_braid_it_names():
    cosets = {
        underlying_permutation(BraidWord(3, rep)): i for i, rep in enumerate(COSET_REPRESENTATIVES)
    }
    assert len(cosets) == 6
    checked = 0
    for i, row in enumerate(braids._COSET_STEPS):
        for l, (j, free, z) in row.items():
            step = COSET_REPRESENTATIVES[i] + (l,)
            assert j == cosets[underlying_permutation(BraidWord(3, step))]
            pure = BraidWord(3, step + tuple(-m for m in reversed(COSET_REPRESENTATIVES[j])))
            assert b3_key(pure) == b3_key(p3_assemble(Word(free), z))
            checked += 1
    assert checked == 24


def test_the_coset_walk_agrees_with_the_sanov_peel():
    # random words closed into P3 by the inverse of their coset's
    # representative, chosen through the permutation alone; unlike
    # p3_assemble outputs they need not be reduced or built from x, y, z
    closing = {
        underlying_permutation(BraidWord(3, rep)): tuple(-m for m in reversed(rep))
        for rep in COSET_REPRESENTATIVES
    }
    rng = random.Random(309)
    for _ in range(10_000):
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 118)))
        b = BraidWord(3, letters + closing[underlying_permutation(BraidWord(3, letters))])
        assert p3_coordinates(b) == sanov_coordinates(b)


def test_p3_splitting_is_multiplicative_in_center():
    # the center coordinate adds; the free part multiplies up to the twist
    rng = random.Random(307)
    ctx = BraidGroup(3)
    for _ in range(40):
        w1 = Word(random_reduced(rng, (24, 25), rng.randrange(0, 6)))
        w2 = Word(random_reduced(rng, (24, 25), rng.randrange(0, 6)))
        k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
        product = ctx.mul(p3_assemble(w1, k1), p3_assemble(w2, k2))
        coords = p3_coordinates(product)
        assert coords.center_exponent == k1 + k2
        assert coords.f2_part == w1 * w2


def test_pr1_multiplicative_on_pure_braids():
    # pr1 is only defined on pure braids, so sample those directly
    hom = pr1()
    assert hom.name == "pr1"
    rng = random.Random(308)
    ctx = BraidGroup(3)
    for _ in range(60):
        w1 = Word(random_reduced(rng, (24, 25), rng.randrange(0, 6)))
        w2 = Word(random_reduced(rng, (24, 25), rng.randrange(0, 6)))
        a = p3_assemble(w1, rng.randint(-2, 2))
        b = p3_assemble(w2, rng.randint(-2, 2))
        assert hom(ctx.mul(a, b)) == hom(a) * hom(b)
    alpha = ctx.commutator(braid("1,1", 3), braid("2,2", 3))
    assert str(hom(alpha)) == "xyXY"
