"""Conjugation-invariant norms: the fragmentation norm and the norm axioms.

A conjugation-invariant norm is a function nu: G -> [0, oo) vanishing
exactly at the identity, symmetric under inversion, subadditive, and
constant on conjugacy classes.

The fragmentation norm nu_H counts the least number of conjugates of
H-elements whose product is f.  As Burago, Ivanov and Polterovich define it
("Conjugation-invariant norms on groups of geometric origin", Adv. Stud.
Pure Math. 52, 2008), it is taken for a subgroup H whose conjugates generate
the whole group, so every value is finite.  It is computed on symmetric
groups only, where the breadth-first search is exhaustive: layer k of the
search is exactly the set of elements of norm k, and every value comes with
a witness decomposition that multiplies back to f.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .groups import GroupContext, ProductSearch, SymmetricGroup
from .words import Frozen, PreconditionError, StepFailure


class FragmentationResult(Frozen):
    """Value of the fragmentation norm at one element.

    witness is a tuple of (g_i, h_i) pairs whose conjugate product equals
    the element, one pair per unit of value.
    """

    value: int
    witness: tuple[tuple[object, object], ...]


class FragmentationNorm:
    """Fragmentation norm nu_H on a symmetric group, by breadth-first search.

    The search over conjugates of H-elements runs to exhaustion up front;
    if it misses an element, the conjugates of H generate a proper normal
    subgroup and the norm is refused with PreconditionError.  Every value is
    re-checked by multiplying its witness back together; a witness that does
    not reassemble raises StepFailure at "fragmentation witness".
    """

    def __init__(self, context: GroupContext, subgroup_gens: Sequence[object]):
        if not isinstance(context, SymmetricGroup):
            raise ValueError("the fragmentation norm needs a finite group, a SymmetricGroup")
        ctx = self.context = context
        self.elements = sorted(itertools.permutations(range(ctx.n)))
        gens = list(subgroup_gens)
        closure = ProductSearch(ctx, gens + [ctx.inv(s) for s in gens])
        closure.grow()
        # a permutation is its own canonical key, so the keys of the closure
        # are the subgroup's elements, the identity first; each conjugate
        # keeps the first (g, h) that gives it
        conjugates: dict[object, tuple[object, object]] = {}
        for h in list(closure.info)[1:]:
            for g in self.elements:
                conjugates.setdefault(ctx.conjugate(g, h), (g, h))
        self._witness = list(conjugates.values())
        self._search = ProductSearch(ctx, list(conjugates))
        self._search.grow()
        if len(self._search.info) != len(self.elements):
            raise PreconditionError(
                "the conjugates of the subgroup generate a proper normal subgroup, "
                "so the fragmentation norm is not defined on the whole group"
            )

    def value_with_witness(self, f) -> FragmentationResult:
        ctx = self.context
        witness = tuple(self._witness[idx] for idx in self._search.path(ctx.canonical(f)))
        check = ctx.identity
        for g, h in witness:
            check = ctx.mul(check, ctx.conjugate(g, h))
        if not ctx.eq(check, f):
            raise StepFailure(
                "fragmentation witness", f"the witness for {ctx.text(f)} does not reassemble"
            )
        return FragmentationResult(len(witness), witness)

    def __call__(self, f) -> Fraction:
        return Fraction(self.value_with_witness(f).value)


class NormAxiomReport(Frozen):
    elements_checked: int
    pairs_checked: int


def norm_axiom_report(norm) -> NormAxiomReport:
    """Test the five norm axioms on every element of the norm's finite
    group, and the pairwise ones on every ordered pair.  The first failure
    raises StepFailure at "norm axioms"."""
    ctx = norm.context
    elements = norm.elements

    values = {ctx.canonical(a): norm(a) for a in elements}

    def val(a):
        return values[ctx.canonical(a)]

    if norm(ctx.identity) != 0:
        raise StepFailure("norm axioms", f"nu(1) = {norm(ctx.identity)} != 0")
    for a in elements:
        if val(a) != val(ctx.inv(a)):
            raise StepFailure("norm axioms", f"nu not symmetric at {ctx.text(a)}")
    for a in elements:
        if not ctx.is_identity(a) and not val(a) > 0:
            raise StepFailure("norm axioms", f"nu({ctx.text(a)}) = {val(a)} not positive")

    for a, b in itertools.product(elements, elements):
        if not val(ctx.mul(a, b)) <= val(a) + val(b):
            raise StepFailure(
                "norm axioms", f"subadditivity fails at ({ctx.text(a)}, {ctx.text(b)})"
            )
        if val(ctx.conjugate(b, a)) != val(a):
            raise StepFailure(
                "norm axioms", f"conjugation invariance fails at ({ctx.text(a)}, {ctx.text(b)})"
            )

    return NormAxiomReport(len(elements), len(elements) ** 2)
