"""Conjugation-invariant norms: fragmentation values, axioms, refusals."""

from itertools import permutations

import pytest

from sclkit.braids import BraidGroup
from sclkit.groups import SymmetricGroup
from sclkit.norms import FragmentationNorm, norm_axiom_report
from sclkit.specs import parse_group
from sclkit.suite import cycle_count
from sclkit.words import PreconditionError, StepFailure


def transposition(n, i, j):
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return tuple(images)


def test_fragmentation_matches_cycle_formula_on_s4():
    s4 = SymmetricGroup(4)
    nu = FragmentationNorm(s4, [transposition(4, 0, 1)])
    for g in nu.elements:
        assert nu(g) == 4 - cycle_count(g)


def test_fragmentation_witness_multiplies_back():
    s4 = SymmetricGroup(4)
    target = (1, 2, 3, 0)
    result = FragmentationNorm(s4, [transposition(4, 0, 1)]).value_with_witness(target)
    assert result.value == 3
    assert len(result.witness) == 3
    acc = s4.identity
    for g, h in result.witness:
        acc = s4.mul(acc, s4.conjugate(g, h))
    assert acc == target


def test_fragmentation_norm_refuses_an_infinite_group():
    # a search in B3 could not be exhaustive; a finite product is refused
    # too, since the norm lists the elements of a symmetric group only
    b3 = BraidGroup(3)
    with pytest.raises(ValueError, match="finite group"):
        FragmentationNorm(b3, [b3.parse("1")])
    product = parse_group("product:perm:2,perm:2")
    with pytest.raises(ValueError, match="finite group"):
        FragmentationNorm(product, product.generators()[:1])


def test_fragmentation_norm_refuses_a_proper_normal_closure():
    # the conjugates of a 3-cycle generate A4, so no odd permutation is a
    # product of them and the norm is not defined on S4
    with pytest.raises(PreconditionError, match="proper normal subgroup"):
        FragmentationNorm(SymmetricGroup(4), [(1, 2, 0, 3)])


def test_norm_axioms_exhaustive_on_s4():
    s4 = SymmetricGroup(4)
    nu = FragmentationNorm(s4, [transposition(4, 0, 1)])
    report = norm_axiom_report(nu)
    assert report.elements_checked == 24
    assert report.pairs_checked == 24 * 24


def test_norm_axiom_report_catches_a_broken_norm():
    s4 = SymmetricGroup(4)

    class Fake:
        context = s4
        elements = sorted(permutations(range(4)))

        def __call__(self, g):
            return 1  # nonzero at the identity

    with pytest.raises(StepFailure) as failure:
        norm_axiom_report(Fake())
    assert (failure.value.step, failure.value.detail) == ("norm axioms", "nu(1) = 1 != 0")


def test_a_witness_that_does_not_reassemble_fails_at_its_step(monkeypatch):
    s3 = SymmetricGroup(3)
    norm = FragmentationNorm(s3, [transposition(3, 0, 1)])
    # every witness product now compares unequal to its element
    monkeypatch.setattr(s3, "eq", lambda a, b: False)
    with pytest.raises(StepFailure) as failure:
        norm.value_with_witness(transposition(3, 0, 1))
    assert failure.value.step == "fragmentation witness"
    assert failure.value.detail == "the witness for 2,1,3 does not reassemble"
