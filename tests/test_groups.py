"""Group contexts: axioms, text round trips, ball enumeration."""

import random
import string
from fractions import Fraction

import pytest

from ball_reference import scaled_ball_values, sphere_pairs
from sclkit.braids import BraidGroup
from sclkit.groups import (
    BallValues,
    CyclicZ,
    DirectProduct,
    FreeGroup,
    GroupHom,
    SwapProduct,
    SymmetricGroup,
    cycle_count,
    perm_compose,
    perm_identity,
    perm_inverse,
    proj_left,
    proj_right,
)
from sclkit.quasimorphisms import Quasimorphism, brooks_homogenized, count_copies
from sclkit.specs import parse_group
from sclkit.words import word


def check_axioms(ctx, rng, samples=200, size=6):
    e = ctx.identity
    for _ in range(samples):
        a = ctx.sample(rng, rng.randrange(0, size))
        b = ctx.sample(rng, rng.randrange(0, size))
        c = ctx.sample(rng, rng.randrange(0, size))
        assert ctx.eq(ctx.mul(ctx.mul(a, b), c), ctx.mul(a, ctx.mul(b, c)))
        assert ctx.product_key(a, b) == ctx.canonical(ctx.mul(a, b))
        assert ctx.eq(ctx.mul(a, ctx.inv(a)), e)
        assert ctx.eq(ctx.mul(e, a), a)
        assert ctx.eq(ctx.parse(ctx.text(a)), a)
        assert ctx.canonical(a) == ctx.canonical(ctx.parse(ctx.text(a)))


def test_free_group_axioms_and_text():
    check_axioms(FreeGroup(2), random.Random(200))
    check_axioms(FreeGroup.on("xy"), random.Random(201))


def test_free_group_ball_sizes():
    f2 = FreeGroup(2)
    assert len(f2.ball(0)) == 1
    assert len(f2.ball(1)) == 5
    assert len(f2.ball(2)) == 17
    assert len(list(f2.sphere(3))) == 4 * 3 * 3


def test_free_group_on_letters():
    fxy = FreeGroup.on("xy")
    assert fxy.name == "free:xy"
    assert [str(g) for g in fxy.generators()] == ["x", "y"]
    g = fxy.parse("xyXY")
    assert g.letters == (24, 25, -24, -25)
    with pytest.raises(ValueError):
        fxy.parse("ab")


def test_cyclic_z():
    z = CyclicZ()
    check_axioms(z, random.Random(202))
    assert z.parse("-3") == -3
    assert z.parse("") == 0
    assert z.power(2, 5) == 10
    assert sorted(z.ball(2)) == [-2, -1, 0, 1, 2]


def test_direct_product_axioms_and_nested_parse():
    prod = DirectProduct(FreeGroup(2), CyclicZ())
    check_axioms(prod, random.Random(203))
    nested = DirectProduct(DirectProduct(FreeGroup(2), CyclicZ()), CyclicZ())
    check_axioms(nested, random.Random(204), samples=100)
    # text of a nested element contains commas and parens; parse must split
    # at the top level only
    g = ((FreeGroup(2).parse("ab"), 3), -2)
    assert nested.eq(nested.parse(nested.text(g)), g)


def test_swap_product_realizes_commuting_supports():
    f2 = FreeGroup(2)
    sp = SwapProduct(f2)
    check_axioms(sp, random.Random(205), samples=150, size=4)
    a = f2.parse("a")
    f = ((a, f2.identity), 0)
    g = ((f2.identity, f2.identity), 1)
    c = sp.conjugate(g, sp.inv(f))
    assert sp.eq(sp.mul(f, c), sp.mul(c, f))
    assert sp.eq(sp.commutator(f, g), ((a, f2.inv(a)), 0))


def test_swap_product_text_round_trips():
    # braid texts contain commas, so the coordinates are split at ';'
    for sp in (SwapProduct(FreeGroup(2)), SwapProduct(BraidGroup(3))):
        rng = random.Random(206)
        for _ in range(100):
            g = sp.sample(rng, rng.randrange(0, 6))
            assert sp.eq(sp.parse(sp.text(g)), g), sp.text(g)
    sb = SwapProduct(BraidGroup(3))
    g = ((sb.inner.parse("1,2"), sb.inner.parse("2")), 1)
    assert sb.text(g) == "(1,2;2;1)"
    for bad in ("(1,2,2;1)", "(1;2;2;1)"):
        with pytest.raises(ValueError):
            sb.parse(bad)


def test_permutation_primitives():
    # permutations are 0-indexed image tuples; compose applies left first
    e = perm_identity(4)
    swap01 = (1, 0, 2, 3)
    assert perm_compose(e, swap01) == swap01
    p = (1, 2, 0, 3)
    assert perm_compose(p, perm_inverse(p)) == e
    swap12 = (0, 2, 1, 3)
    assert perm_compose(swap01, swap12) == (2, 0, 1, 3)
    assert cycle_count(e) == 4
    assert cycle_count((1, 2, 3, 0)) == 1
    assert cycle_count((1, 0, 3, 2)) == 2


def test_symmetric_group():
    s4 = SymmetricGroup(4)
    check_axioms(s4, random.Random(206))
    assert len(list(s4.elements())) == 24
    assert len(s4.ball(6)) == 24
    assert s4.parse("2,1,3,4") == (1, 0, 2, 3)
    assert s4.text((1, 0, 2, 3)) == "2,1,3,4"
    with pytest.raises(ValueError):
        s4.parse("2,2,3,4")


def multiplicative_on_samples(hom, rng, count=200, size=8):
    """h(ab) = h(a) h(b) on sampled pairs of the domain."""
    dom, cod = hom.domain, hom.codomain
    for _ in range(count):
        a = dom.sample(rng, rng.randint(0, size))
        b = dom.sample(rng, rng.randint(0, size))
        if not cod.eq(hom(dom.mul(a, b)), cod.mul(hom(a), hom(b))):
            return False
    return True


def test_group_hom_projections():
    prod = DirectProduct(FreeGroup(2), CyclicZ())
    rng = random.Random(208)
    left = proj_left(prod)
    right = proj_right(prod)
    assert multiplicative_on_samples(left, rng)
    assert multiplicative_on_samples(right, rng)
    assert left.total and right.total
    g = (FreeGroup(2).parse("ab"), 5)
    assert str(left(g)) == "ab"
    assert right(g) == 5


def test_group_hom_detects_non_homomorphism():
    # the sampled check above is only evidence if it can fail
    z = CyclicZ()
    bad = GroupHom(z, z, lambda k: k * k, name="square", total=True)
    assert not multiplicative_on_samples(bad, random.Random(209))


def test_ball_is_monotone_and_deduplicated():
    f2 = FreeGroup(2)
    b2 = f2.ball(2)
    assert len({f2.canonical(g) for g in b2}) == len(b2)
    assert set(f2.canonical(g) for g in f2.ball(1)) <= set(
        f2.canonical(g) for g in b2
    )


def formula_sphere(ctx, k):
    """The sphere formulas the breadth-first ball replaced: {0} and {-k, k}
    on z, and on a product the pairs of factor spheres by total length."""
    if isinstance(ctx, CyclicZ):
        return [0] if k == 0 else [-k, k]
    if isinstance(ctx, DirectProduct):
        return [
            (a, b)
            for i in range(k + 1)
            for a in formula_sphere(ctx.left, i)
            for b in formula_sphere(ctx.right, k - i)
        ]
    return ctx.sphere(k)


@pytest.mark.parametrize(
    "spec", ["z", "product:free:2,z", "product:free:xy,z", "product:product:free:2,z,z"]
)
def test_breadth_first_spheres_match_the_product_formula(spec):
    ctx = parse_group(spec)
    for k in range(5):
        sphere = [ctx.canonical(g) for g in ctx.sphere(k)]
        assert len(set(sphere)) == len(sphere)
        assert set(sphere) == {ctx.canonical(g) for g in formula_sphere(ctx, k)}


def _text_row(ctx):
    """A 3-tuple of rationals of the element text: zero on some elements,
    with denominators 1 to 5."""

    def row(g):
        text = ctx.text(g)
        w = sum(i * ord(c) for i, c in enumerate(text, 1))
        return Fraction(w % 5 - 2, 1 + len(text) % 4), Fraction(0), Fraction(w % 7 // 6, 5)

    return row


def _thirds_and_quarters(ctx):
    ab, ba = word("ab"), word("bA")
    return Quasimorphism(
        "thirds-and-quarters",
        ctx,
        lambda g: Fraction(count_copies(ab, g) - count_copies(~ab, g), 3)
        - Fraction(count_copies(ba, g) - count_copies(~ba, g), 4),
        False,
        # h_ab/3 - h_bA/4, and each counting quasimorphism h_w has defect at most 3,
        # so 3/3 + 3/4
        Fraction(7, 4),
        "junction-argument",
        False,
    )


@pytest.mark.parametrize(
    "spec, radius",
    [("free:2", 5), ("free:xy", 4), ("product:free:2,z", 4), ("braid:3", 4), ("perm:4", 7), ("z", 6)],
)
def test_ball_values_match_the_dense_reference(spec, radius):
    ctx = parse_group(spec)
    row = _text_row(ctx)
    # (row function, the zero it reads as, its scale where a qm fixes it)
    cases = [(lambda g: row(g)[0], 0, None), (row, (0, 0, 0), None)]
    if spec == "free:2":
        cases.append((_thirds_and_quarters(ctx), 0, 12))
    if spec == "free:xy":
        cases.append((brooks_homogenized(word("xyXY"), context=ctx), 0, 1))
    for fn, zero, fixed_scale in cases:
        table = BallValues(ctx, radius, fn)
        dense, scale = scaled_ball_values(ctx, radius, fn)
        assert table.scale == scale
        assert fixed_scale in (None, scale)
        assert table.zero == zero and type(table.zero) is type(zero)
        # only nonzero rows are stored, and every ball key reads as before
        assert zero not in table.values.values()
        assert set(table.values) < set(dense) and table.values
        assert {key: table.values.get(key, zero) for key in dense} == dense
        # the same pairs in the same order
        canonical = ctx.canonical
        assert [(canonical(g), list(map(canonical, s))) for g, s in table.pairs()] == [
            (canonical(g), list(map(canonical, s))) for g, s in sphere_pairs(ctx, radius)
        ]
    # a missing key reads as zero, so a product outside the ball would read
    # zero silently: the product of every pair is a ball key
    for g, sphere in table.pairs():
        for h in sphere:
            assert canonical(ctx.mul(g, h)) in dense


# letters, digits, the element grammars' punctuation, the old power and
# braid-token syntax, and whitespace
_TEXT_ALPHABET = string.ascii_letters + string.digits + ",;()^s-" + " \t\n"
# bases of the old power syntax: letters, braid tokens and indices
_POWER_BASES = ("a", "B", "x", "s1", "s2", "S3", "1", "-2")


def _letter_count(element) -> int:
    """Letters of a parsed element, summed over product factors.  An integer,
    a permutation image or an element of z, is one letter: z adds, so its
    work is its digits."""
    if isinstance(element, tuple):
        return sum(map(_letter_count, element))
    if isinstance(element, int):
        return 1
    return len(element.letters)


def _element_text(ctx, rng) -> str:
    """Random text: a sampled element's text with up to three edits, a run
    of powers in the old syntax, bare or as a product element, or a run of
    a few characters of the alphabet."""
    family = rng.randrange(3)
    if family == 0:
        text = ctx.text(ctx.sample(rng, rng.randrange(6)))
        for _ in range(rng.randrange(4)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:i] + text[i + 1:]
            else:
                insert = (rng.choice(_TEXT_ALPHABET), rng.choice(" \t\n"), _power(rng))[edit - 1]
                text = text[:i] + insert + text[i:]
        return text
    if family == 1:
        text = rng.choice((" ", ",", "")).join(
            rng.choice(_POWER_BASES) + _power(rng) for _ in range(rng.randrange(4))
        )
        return f"({text};{rng.randrange(-9, 10)})" if rng.random() < 0.5 else text
    chars = rng.sample(_TEXT_ALPHABET, rng.randint(1, 6))
    return "".join(rng.choice(chars) for _ in range(rng.randrange(16)))


def _power(rng) -> str:
    return rng.choice(("", f"^{rng.randrange(-99, 100)}"))


@pytest.mark.parametrize(
    "spec", ["free:2", "free:xy", "braid:3", "braid:5", "perm:4", "product:braid:3,z"]
)
def test_element_text_is_its_letters(spec):
    # no syntax expands: parsing refuses text or returns an element with at
    # most one letter per character
    ctx = parse_group(spec)
    rng = random.Random(27)
    accepted = refused = 0
    for _ in range(3000):
        text = _element_text(ctx, rng)
        try:
            element = ctx.parse(text)
        except ValueError:
            refused += 1
            continue
        accepted += 1
        assert _letter_count(element) <= len(text), text
    # both outcomes are well represented
    assert accepted > 300 and refused > 300, (accepted, refused)
