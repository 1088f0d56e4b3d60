"""Conjugation-invariant norms: fragmentation values, axioms, infinities."""

import random
from fractions import Fraction

import pytest

from sclkit.braids import BraidGroup
from sclkit.groups import FreeGroup, SymmetricGroup, cycle_count
from sclkit.norms import (
    INFINITY,
    PreconditionError,
    as_extended,
    as_partial,
    conj_invariance_of_partial_qm,
    fragmentation_norm,
    is_infinite,
    norm_axiom_report,
    partial_qm_check,
    trivial_norm,
    vanishing_on_split_commutators,
    FragmentationNorm,
)
from sclkit.quasimorphisms import brooks_homogenized, hom_qm
from sclkit.words import word


def transposition(n, i, j):
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return tuple(images)


def test_infinity_arithmetic():
    assert is_infinite(INFINITY)
    assert not is_infinite(3)
    assert INFINITY + 1 is INFINITY
    assert 1 + INFINITY is INFINITY
    assert INFINITY > 10**9
    assert not (INFINITY < INFINITY)
    assert min(INFINITY, Fraction(2)) == 2
    assert as_extended(5) == 5
    assert as_extended(INFINITY) is INFINITY


def test_fragmentation_matches_cycle_formula_on_s4():
    s4 = SymmetricGroup(4)
    nu = FragmentationNorm(s4, [transposition(4, 0, 1)])
    for g in s4.elements():
        assert nu(g) == 4 - cycle_count(g)


def test_fragmentation_witness_multiplies_back():
    s4 = SymmetricGroup(4)
    target = (1, 2, 3, 0)
    result = fragmentation_norm(s4, [transposition(4, 0, 1)], target)
    assert result.value == 3
    assert result.exact
    assert result.verdict() == "= 3"
    assert len(result.witness) == 3
    acc = s4.identity
    for g, h in result.witness:
        acc = s4.mul(acc, s4.conjugate(g, h))
    assert acc == target
    d = result.as_dict(s4)
    assert d["value"] == 3 and len(d["witness"]) == 3
    # truncated search in B3 with subgroup {s1^2, s1^-2}: the pinned witness
    b3 = BraidGroup(3)
    nu = FragmentationNorm(
        b3, [], subgroup_elements=[b3.parse("1,1"), b3.parse("-1,-1")],
        conjugator_radius=2, cap=4,
    )
    result = nu.value_with_witness(b3.parse("1,1,2,2"))
    assert result.verdict() == "= 2"
    assert [[b3.text(g), b3.text(h)] for g, h in result.witness] == [
        ["", "1,1"], ["-1,-2", "1,1"],
    ]
    # an infinite subgroup closure stops at the guard
    with pytest.raises(ValueError, match="did not stabilise"):
        FragmentationNorm(b3, [b3.parse("1")], conjugator_radius=1, closure_guard=50)


def test_fragmentation_unreachable_elements_are_infinite():
    s4 = SymmetricGroup(4)
    # conjugates of a 3-cycle stay even; odd permutations are unreachable
    nu = FragmentationNorm(s4, [(1, 2, 0, 3)])
    assert is_infinite(nu(transposition(4, 0, 1)))
    assert nu((1, 2, 0, 3)) == 1
    assert nu(s4.identity) == 0


def test_norm_axioms_exhaustive_on_s4():
    s4 = SymmetricGroup(4)
    nu = FragmentationNorm(s4, [transposition(4, 0, 1)])
    report = norm_axiom_report(nu)
    assert report.ok
    assert report.elements_checked == 24
    assert not report.failures


def test_norm_axiom_report_catches_a_broken_norm():
    s4 = SymmetricGroup(4)

    class Fake:
        context = s4
        name = "fake"

        def __call__(self, g):
            return 1  # nonzero at the identity

    report = norm_axiom_report(Fake())
    assert not report.ok


def test_trivial_norm_axioms():
    f2 = FreeGroup(2)
    nu = trivial_norm(f2)
    assert nu(f2.identity) == 0
    assert nu(f2.parse("abAB")) == 1
    report = norm_axiom_report(nu, rng=random.Random(500), samples=80)
    assert report.ok


def test_partial_qm_controlled_defect():
    h = brooks_homogenized(word("abAB"))
    phi = as_partial(h)
    assert phi.constant == h.defect_upper + 1
    report = partial_qm_check(phi, rng=random.Random(501), samples=150)
    assert report.ok
    assert report.pairs_checked == 150


def test_partial_qm_check_flags_violations():
    f2 = FreeGroup(2)
    h = hom_qm(f2, lambda g: g.exponent_sum(), "expsum")
    phi = as_partial(h, constant=Fraction(0))

    class ZeroNorm:
        context = f2
        name = "zero-everywhere"

        def __call__(self, g):
            return Fraction(0)

    bad = as_partial(h, norm=ZeroNorm(), constant=Fraction(1))
    # defect really is zero for a homomorphism, so this still passes
    assert partial_qm_check(bad, rng=random.Random(502), samples=50).ok
    h2 = as_partial(brooks_homogenized(word("abAB")), norm=ZeroNorm(), constant=Fraction(1))
    report = partial_qm_check(h2, rng=random.Random(503), samples=200)
    assert not report.ok
    assert report.violations
    del phi


def test_conj_invariance_rows_bounded():
    h = as_partial(brooks_homogenized(word("abAB")))
    f2 = h.context
    report = conj_invariance_of_partial_qm(
        h, f2.parse("abAB"), f2.parse("ab"), n_max=8
    )
    assert report.ok
    assert len(report.rows) == 8


def test_conj_invariance_requires_semi_homogeneous():
    phi = as_partial(
        hom_qm(FreeGroup(2), lambda g: g.exponent_sum(), "expsum")
    )
    broken = type(phi)(
        name=phi.name,
        context=phi.context,
        eval_fn=phi.eval_fn,
        norm=phi.norm,
        constant=phi.constant,
        semi_homogeneous=False,
    )
    with pytest.raises(ValueError):
        conj_invariance_of_partial_qm(
            broken, FreeGroup(2).parse("a"), FreeGroup(2).parse("b"), 3
        )


def test_split_commutator_vanishing_in_swap_product():
    from sclkit.groups import SwapProduct

    f2 = FreeGroup(2)
    sp = SwapProduct(f2)
    phi = as_partial(
        hom_qm(sp, lambda g: g[0][0].exponent_sum() + g[0][1].exponent_sum(), "expsum"),
    )
    f = ((f2.parse("a"), f2.identity), 0)
    g = ((f2.identity, f2.identity), 1)
    report = vanishing_on_split_commutators(phi, f, g, n_max=6)
    assert report.ok
    assert report.value_at_commutator == 0


def test_split_commutator_precondition_rejected():
    f2 = FreeGroup(2)
    phi = as_partial(brooks_homogenized(word("abAB")))
    with pytest.raises(PreconditionError):
        vanishing_on_split_commutators(phi, f2.parse("a"), f2.parse("b"), 3)
