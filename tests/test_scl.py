"""Commutator-length certificates: decompositions, duality bounds, modes."""

import random
from fractions import Fraction

import pytest

from garside_helpers import braid_equal
from sclkit.braids import BraidGroup, braid, half_twist, is_pure, pr1
from sclkit.certio import document
from sclkit.extension import random_reduced
from sclkit.groups import CyclicZ, DirectProduct, FreeGroup, proj_left
from sclkit.quasimorphisms import brooks, brooks_homogenized, hom_qm, pullback
from sclkit.scl import (
    MixedCommutatorDecomposition,
    bavard_bound,
    bavard_lower,
    braid_commutator_pair,
    braid_pure_pair,
    conjugate_flip_decomposition,
    decomposition_bound,
    lower_refusal,
    mixed_cl_search,
    ordinary_pair,
    product_left_pair,
    pure_ordinary_pair,
    upper_from_decomposition,
    verify_decomposition,
)
from sclkit.suite import SwapProduct, alpha_braid, commutator_identity_xy, power_commutator
from sclkit.words import PreconditionError, StepFailure, Word, word


def test_group_pair_modes_and_membership():
    pure = braid_pure_pair()
    assert pure.mode == "mixed"
    assert not pure.is_member(braid("1", 3))
    assert pure.is_member(alpha_braid())
    assert pure_ordinary_pair().mode == "ordinary"
    assert pure.admits_conjugator(braid("1", 3))
    assert not pure_ordinary_pair().admits_conjugator(braid("1", 3))
    assert pure_ordinary_pair().admits_conjugator(alpha_braid())
    assert ordinary_pair(FreeGroup(2)).is_member(word("ab"))
    comm = braid_commutator_pair(3)
    assert comm.is_member(alpha_braid())
    assert not comm.is_member(braid("1,1", 3))
    left = product_left_pair(FreeGroup(2))
    assert left.is_member((word("ab"), 0))
    assert not left.is_member((word("ab"), 1))


def test_verify_decomposition_accepts_valid_flip():
    pair = braid_pure_pair()
    alpha = alpha_braid()
    d = conjugate_flip_decomposition(pair, alpha, half_twist(3), 3)
    assert verify_decomposition(d) is None


def test_verify_decomposition_rejects_wrong_product():
    pair = braid_pure_pair()
    alpha = alpha_braid()
    ctx = pair.ambient
    d = MixedCommutatorDecomposition(pair, alpha, 3, ((half_twist(3), ctx.power(alpha, -1)),))
    with pytest.raises(StepFailure) as failure:
        verify_decomposition(d)
    assert failure.value.step == "product equality"


def test_verify_decomposition_rejects_non_member_second_component():
    pair = braid_pure_pair()
    ctx = pair.ambient
    sigma = braid("1", 3)
    d = MixedCommutatorDecomposition(
        pair, ctx.commutator(half_twist(3), sigma), 1, ((half_twist(3), sigma),)
    )
    with pytest.raises(StepFailure) as failure:
        verify_decomposition(d)
    assert failure.value.step == "membership of factor 0"


def test_ordinary_mode_rejects_ambient_conjugator():
    # [delta, alpha^-1] is a fine mixed witness but delta is not pure, so the
    # same decomposition must fail under the ordinary pure pair
    mixed = braid_pure_pair()
    ordinary = pure_ordinary_pair()
    alpha = alpha_braid()
    ctx = mixed.ambient
    factors = ((half_twist(3), ctx.power(alpha, -1)),)
    verify_decomposition(MixedCommutatorDecomposition(mixed, alpha, 2, factors))
    with pytest.raises(StepFailure) as failure:
        verify_decomposition(MixedCommutatorDecomposition(ordinary, alpha, 2, factors))
    assert failure.value.step == "membership of factor 0"
    assert "ordinary mode" in failure.value.detail


def test_power_commutator_in_braid_group():
    ctx = BraidGroup(3)
    alpha = alpha_braid()
    delta = half_twist(3)
    for n in (0, 1, 4):
        d = power_commutator(ctx, alpha, delta, n)
        verify_decomposition(d)
        assert len(d.factors) == (0 if n == 0 else 1)
        assert braid_equal(d.target, ctx.commutator(alpha, delta))
        assert d.power == n


def test_power_commutator_in_swap_product():
    f2 = FreeGroup(2)
    sp = SwapProduct(f2)
    f = ((f2.parse("a"), f2.identity), 0)
    g = ((f2.identity, f2.identity), 1)
    for n in (1, 3):
        verify_decomposition(power_commutator(sp, f, g, n))


def test_power_commutator_rejects_free_generators():
    f2 = FreeGroup(2)
    with pytest.raises(PreconditionError):
        power_commutator(f2, f2.parse("a"), f2.parse("b"), 2)


def test_commutator_identity_xy_random_trials():
    rng = random.Random(600)
    f2 = FreeGroup(2)
    for _ in range(6):
        x = Word(random_reduced(rng, (1, 2), rng.randrange(1, 4)))
        y = Word(random_reduced(rng, (1, 2), rng.randrange(1, 4)))
        for n in (0, 1, 3):
            d = commutator_identity_xy(f2, x, y, n)
            assert len(d.factors) == n
            verify_decomposition(d)


def test_conjugate_flip_precondition():
    # b does not flip a, so [b, a^-1] is not a^2
    pair = ordinary_pair(FreeGroup(2))
    d = conjugate_flip_decomposition(pair, word("a"), word("b"), 1)
    with pytest.raises(StepFailure) as failure:
        verify_decomposition(d)
    assert failure.value.step == "product equality"


def test_mixed_cl_search_finds_alpha_as_one_commutator():
    pair = braid_pure_pair()
    res = mixed_cl_search(pair, alpha_braid(), radius=2, max_factors=1)
    assert res.count == 1
    assert res.verdict == "= 1"
    assert res.decomposition.factor_texts() == [["1,1", "2,2"]]
    verify_decomposition(res.decomposition)


def test_mixed_cl_search_multi_factor():
    pair = braid_pure_pair()
    ctx = pair.ambient
    target = ctx.power(alpha_braid(), 2)
    res = mixed_cl_search(pair, target, radius=2, max_factors=2)
    assert res.count == 2
    assert len(res.decomposition.factors) == 2
    verify_decomposition(res.decomposition)
    # the witness choice on free:2 is deterministic: first found, moves in
    # the order the balls first give them
    f2 = FreeGroup(2)
    for target, factors in [
        ("aabAAB", [["aa", "b"]]),
        ("abABabAB", [["a", "b"], ["a", "b"]]),
    ]:
        res = mixed_cl_search(ordinary_pair(f2), f2.parse(target), radius=2, max_factors=3)
        assert res.count == len(factors)
        assert res.decomposition.factor_texts() == factors
        assert res.commutators_used == 97


def test_mixed_cl_search_braid_witness_in_discovery_order():
    # braid moves come in the order the balls first give them, with no sort;
    # sorting them by the repr of the equality key would pick ["1", "2,2,2,2"]
    # as the first factor
    target = braid("1,2,2,-1,-2,-2,1,2,2,-1,-2,-2", 3)
    res = mixed_cl_search(braid_pure_pair(), target, radius=2, max_factors=2)
    assert res.count == 2
    assert res.decomposition.factor_texts() == [["1", "2,2"], ["1", "2,2"]]
    assert res.commutators_used == 121


def test_mixed_cl_search_miss_is_ball_relative():
    pair = braid_pure_pair()
    res = mixed_cl_search(pair, alpha_braid(), radius=1, max_factors=1)
    assert res.count is None
    assert res.decomposition is None
    assert "ball-relative" in res.verdict


def test_mixed_cl_search_ordinary_mode_stays_inside_subgroup():
    pair = pure_ordinary_pair()
    res = mixed_cl_search(pair, alpha_braid(), radius=2, max_factors=1)
    assert res.count == 1
    for g, h in res.decomposition.factors:
        assert is_pure(g) and is_pure(h)


def test_bavard_lower_matches_duality_arithmetic():
    qm = pullback(brooks_homogenized(word("xyXY")), pr1())
    cert = bavard_lower(alpha_braid(), qm, pure_ordinary_pair())
    assert cert["verified"] is True
    assert cert["direction"] == "lower"
    assert cert["group_pair"] == "braid:3/pure-ordinary"
    assert cert["bound"] == "1/12"
    assert cert["witness"]["value"] == "1"
    assert cert["witness"]["defect_upper"] == "6"


def test_bavard_lower_requires_homogeneous():
    with pytest.raises(ValueError):
        bavard_lower(word("abAB"), brooks(word("abAB")), ordinary_pair(FreeGroup(2)))


def test_lower_refusal_checks_homogeneity_then_the_mode_s_domain():
    pr1_qm = pullback(brooks_homogenized(word("xyXY")), pr1())
    # defined on P3: a bound inside P3, nothing in B3 or under B3 conjugation
    assert lower_refusal(pr1_qm, pure_ordinary_pair()) is None
    assert lower_refusal(pr1_qm, braid_pure_pair()) == (
        "invariance",
        f"{pr1_qm.name} is not invariant under conjugation by braid:3 by construction")
    assert lower_refusal(pr1_qm, ordinary_pair(BraidGroup(3))) == (
        "quasimorphism",
        f"{pr1_qm.name} is not defined on the whole subgroup of braid:3 by construction")
    # homogeneity comes first, in either mode
    flat = pullback(brooks(word("xyXY")), pr1())
    for pair in (pure_ordinary_pair(), braid_pure_pair()):
        assert lower_refusal(flat, pair) == ("quasimorphism", f"{flat.name} is not homogeneous")
    # a pullback of a partial quasimorphism is partial, whatever its map
    nested = pullback(pr1_qm, proj_left(DirectProduct(BraidGroup(3), CyclicZ())))
    assert nested.defined_on((alpha_braid(), 5)) and not nested.defined_on((braid("1", 3), 0))
    assert lower_refusal(nested, ordinary_pair(nested.context))[0] == "quasimorphism"
    assert lower_refusal(nested, product_left_pair(BraidGroup(3)))[0] == "invariance"
    free = pullback(brooks_homogenized(word("abAB")),
                    proj_left(DirectProduct(FreeGroup(2), CyclicZ())))
    assert lower_refusal(free, ordinary_pair(free.context)) is None
    assert lower_refusal(free, product_left_pair(FreeGroup(2))) is None


def test_bavard_lower_zero_defect_gives_zero_bound():
    z = CyclicZ()
    qm = hom_qm(z, lambda k: k, "id")
    cert = bavard_lower(3, qm, ordinary_pair(z))
    assert cert["bound"] == "0"
    assert "not in the commutator subgroup" in cert["note"]


def test_the_bound_rules():
    # the one statement of each rule, read by the producers and by verify
    assert decomposition_bound(1, 30) == Fraction(1, 30)
    assert decomposition_bound(0, 1) == 0
    assert bavard_bound(Fraction(-1), Fraction(6)) == Fraction(1, 12)
    assert bavard_bound(Fraction(3), Fraction(0)) == 0


def test_upper_from_decomposition_bound_arithmetic():
    pair = braid_pure_pair()
    alpha = alpha_braid()
    for n in (1, 2, 8):
        d = conjugate_flip_decomposition(pair, alpha, half_twist(3), n)
        cert = upper_from_decomposition(d)
        assert cert["verified"] is True
        assert Fraction(cert["bound"]) == Fraction(1, 2 * n)
        assert cert["direction"] == "upper"


def test_upper_from_decomposition_rejects_power_mismatch():
    # the factors of alpha^4, claimed as alpha^6; upper_from_decomposition
    # checks nothing, and certio.document rejects the certificate
    pair = braid_pure_pair()
    alpha = alpha_braid()
    factors = conjugate_flip_decomposition(pair, alpha, half_twist(3), 2).factors
    claim = MixedCommutatorDecomposition(pair, alpha, 6, factors)
    with pytest.raises(StepFailure) as failure:
        document([upper_from_decomposition(claim)])
    assert failure.value.step == "self-verification"
    assert " at step product equality: " in failure.value.detail


def test_upper_from_decomposition_raises_the_failed_step():
    # raised by certio.document, which checks what upper_from_decomposition
    # builds
    pair = braid_pure_pair()
    alpha = alpha_braid()
    ctx = pair.ambient
    d = MixedCommutatorDecomposition(pair, alpha, 2, ((half_twist(3), ctx.power(alpha, 1)),))
    with pytest.raises(StepFailure) as failure:
        document([upper_from_decomposition(d)])
    assert failure.value.step == "self-verification"
    assert failure.value.detail.startswith(
        "FAIL item 0 (scl-upper-decomposition) at step product equality: "
    )


def test_certificate_payload_shape():
    pair = braid_pure_pair()
    alpha = alpha_braid()
    d = conjugate_flip_decomposition(pair, alpha, half_twist(3), 1)
    payload = upper_from_decomposition(d)
    assert payload["kind"] == "scl-upper-decomposition"
    assert payload["group_pair"] == pair.name
    assert payload["direction"] == "upper"
    assert payload["verified"] is True
    assert payload["witness"]["power"] == 2
    assert payload["bound"] == "1/2"


def test_alpha_braid_letters():
    assert braid_equal(alpha_braid(), braid("1,1,2,2,-1,-1,-2,-2", 3))
    assert is_pure(alpha_braid())
