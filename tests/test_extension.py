"""Transporting quasimorphisms along a section of an integer quotient."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ball_reference import sphere_pairs
from sclkit.braids import BraidGroup, braid, index_sum, pr1
from sclkit.extension import (
    CertifiedValue,
    DefectChainReport,
    ExtensionResult,
    SectionData,
    braid_abelianization_section,
    central_z_section,
    defect_chain_check,
    extend_via_section,
    index_section,
    restriction_check,
)
from sclkit.groups import FreeGroup, proj_left
from sclkit.quasimorphisms import brooks, brooks_homogenized, pullback, zero_qm
from sclkit.words import StepFailure, word
from value_helpers import contains


def make_product_extension(n_max=32):
    sec = central_z_section(FreeGroup(2))
    phi = pullback(
        brooks_homogenized(word("abAB")), proj_left(sec.pair.ambient)
    )
    return sec, phi, extend_via_section(phi, sec, n_max=n_max)


def test_central_section_checks_out():
    sec = central_z_section(FreeGroup(2))
    assert sec.check(random.Random(700)) is None
    assert sec.pair.is_member((FreeGroup(2).parse("ab"), 0))
    assert not sec.pair.is_member((FreeGroup(2).parse("ab"), 2))


def test_braid_abelianization_section_checks_out():
    sec = braid_abelianization_section(3)
    assert sec.check(random.Random(701)) is None
    assert sec.pair.is_member(BraidGroup(3).commutator(braid("1", 3), braid("2", 3)))
    assert not sec.pair.is_member(braid("1", 3))


def test_extension_restricts_to_the_original():
    sec, phi, result = make_product_extension()
    rng = random.Random(702)
    f2 = FreeGroup(2)
    samples = [(f2.sample(rng, rng.randrange(0, 8)), 0) for _ in range(200)]
    assert restriction_check(result, samples) == 200
    g = (f2.parse("abAB"), 0)
    assert result.phi_prime(g) == phi(g) == 1


def test_restriction_check_rejects_outside_samples_and_vacuity():
    _, _, result = make_product_extension()
    with pytest.raises(ValueError):
        restriction_check(result, [(FreeGroup(2).parse("a"), 1)])
    with pytest.raises(StepFailure) as failure:
        restriction_check(result, [])
    assert failure.value.step == "restriction"
    assert "insufficient" in failure.value.detail


def test_a_restriction_mismatch_fails_at_the_restriction_step():
    # the transport of homog(brooks(w=abAB)) against a base of zero: the two
    # paths disagree at abAB
    sec, _, result = make_product_extension()
    forged = ExtensionResult(zero_qm(sec.pair.ambient), sec, result.phi_prime, result.n_max)
    samples = [(FreeGroup(2).parse("ab"), 0), (FreeGroup(2).parse("abAB"), 0)]
    with pytest.raises(StepFailure) as failure:
        restriction_check(forged, samples)
    assert failure.value.step == "restriction"
    assert failure.value.detail == "phi_hat((abAB;0)) = 1 ± 0 but phi gives 0"


def test_a_broken_section_fails_at_the_section_step():
    good = braid_abelianization_section(3)
    broken = SectionData(good.pair, good.project, lambda k: index_section(k + 1, 3), "shifted")
    with pytest.raises(StepFailure) as failure:
        broken.check(random.Random(704))
    assert (failure.value.step, failure.value.detail) == ("section", "s(0) is not the identity")


def test_extension_value_interval_off_subgroup():
    _, phi, result = make_product_extension(n_max=64)
    g = (FreeGroup(2).parse("abAB"), 5)
    cv = result.value(g)
    assert cv.radius > 0
    # the section is central here, so the exact extended value is still 1
    assert contains(cv, Fraction(1))
    on_sub = result.value((FreeGroup(2).parse("abAB"), 0))
    assert on_sub.radius == 0 and on_sub.value == 1


def test_defect_chain_within_doubled_bound():
    _, phi, result = make_product_extension()
    report = defect_chain_check(result, radius=3)
    assert report.phi_prime_searched <= phi.defect_upper
    assert report.phi_hat_searched <= 2 * phi.defect_upper


def test_braid_leg_extension_with_zero_qm():
    sec = braid_abelianization_section(3)
    phi = zero_qm(sec.pair.ambient)
    result = extend_via_section(phi, sec, n_max=16)
    rng = random.Random(703)
    ctx = sec.pair.ambient
    for _ in range(50):
        b = ctx.sample(rng, rng.randrange(0, 6))
        shaved = ctx.mul(b, ctx.power(braid("1", 3), -index_sum(b)))
        assert sec.pair.is_member(shaved)
        assert result.phi_prime(b) == 0
    report = defect_chain_check(result, radius=3)
    assert report.phi_prime_searched == report.phi_hat_searched == 0


def test_extension_refuses_a_quasimorphism_not_invariant_by_construction():
    # the pr1 pullback is homogeneous, but the half twist flips its sign
    qm = pullback(brooks_homogenized(word("xyXY")), pr1())
    with pytest.raises(ValueError, match="invariant"):
        extend_via_section(qm, braid_abelianization_section(3), n_max=16)


def reference_defect_chain(result, radius):
    """The Fraction loop the integer chain check replaced, kept as its oracle."""
    ctx = result.section.pair.ambient
    prime, hat = {}, {}

    def memo(table, fn, g):
        key = ctx.canonical(g)
        if key not in table:
            table[key] = fn(g)
        return table[key]

    best_prime = best_hat = Fraction(0)
    pairs = 0
    for g, sphere in sphere_pairs(ctx, radius):
        pg, vg = memo(prime, result.phi_prime, g), memo(hat, result.value, g)
        for h in sphere:
            pairs += 1
            gh = ctx.mul(g, h)
            gap_p = abs(memo(prime, result.phi_prime, gh) - pg - memo(prime, result.phi_prime, h))
            best_prime = max(best_prime, gap_p)
            vh, vgh = memo(hat, result.value, h), memo(hat, result.value, gh)
            slack = (vg.radius or 0) + (vh.radius or 0) + (vgh.radius or 0)
            best_hat = max(best_hat, abs(vgh.value - vg.value - vh.value) - slack)
    return DefectChainReport(best_prime, best_hat, pairs)


def test_defect_chain_matches_fraction_reference_on_the_suite_legs():
    # the two legs of the section-extension suite item, at its radius
    left = FreeGroup(2)
    sec = central_z_section(left)
    phi = pullback(brooks_homogenized(left.parse("abAB"), context=left), proj_left(sec.pair.ambient))
    product_leg = extend_via_section(phi, sec, n_max=64)
    braid_leg = extend_via_section(zero_qm(BraidGroup(3)), braid_abelianization_section(3), n_max=16)
    for result in (product_leg, braid_leg):
        for radius in (0, 2, 4):
            assert defect_chain_check(result, radius) == reference_defect_chain(result, radius)
    # off the subgroup the radius D/64 has a denominator, so the scale is not 1
    assert product_leg.value((left.parse("a"), 1)).radius.denominator > 1
    assert defect_chain_check(product_leg, 4).phi_hat_searched > 0


def radii_stand_in(defect_upper=None, phi_prime=None):
    """A stand-in extension of brooks(w=ab) on free:2 whose every interval
    has its own radius, so each of the three radii in a pair's slack moves
    the searched maximum.  The base may claim another defect bound, and
    phi' may be another map."""
    f2 = FreeGroup(2)
    h = brooks(word("ab"), context=f2)
    base = h if defect_upper is None else SimpleNamespace(defect_upper=defect_upper)
    return SimpleNamespace(
        section=SimpleNamespace(pair=SimpleNamespace(ambient=f2)),
        base=base,
        phi_prime=phi_prime or h,
        value=lambda g: CertifiedValue(h(g), Fraction(1, 5 + len(g))),
    )


def test_defect_chain_matches_fraction_reference_with_radii_everywhere():
    stand_in = radii_stand_in()
    for radius in (2, 4):
        report = defect_chain_check(stand_in, radius)
        assert report == reference_defect_chain(stand_in, radius)
        assert report.phi_hat_searched.denominator > 1


@pytest.mark.parametrize(
    "stand_in, detail",
    [
        # at radius 2 phi' = brooks(w=ab) has searched defect 1 and phi_hat 11/21
        (radii_stand_in(Fraction(2, 3)), "phi' searched 1 > D(phi) = 2/3"),
        (radii_stand_in(Fraction(1, 4), phi_prime=lambda g: 0),
         "phi_hat searched 11/21 > 2 D(phi) = 1/2"),
    ],
    ids=["phi-prime", "phi-hat"],
)
def test_a_searched_defect_past_its_bound_fails_at_the_defect_chain_step(stand_in, detail):
    with pytest.raises(StepFailure) as failure:
        defect_chain_check(stand_in, 2)
    assert (failure.value.step, failure.value.detail) == ("defect chain", detail)
