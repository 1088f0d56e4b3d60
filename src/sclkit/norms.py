"""Conjugation-invariant norms: the fragmentation norm and the norm axioms.

A conjugation-invariant norm is a function nu: G -> [0, inf] vanishing
exactly at the identity, symmetric under inversion, subadditive, and
constant on conjugacy classes.  Values are exact rationals, with a
distinguished INFINITY object for elements outside the normal closure of
the chosen subgroup; no float sentinel is ever used.

The fragmentation norm nu_H counts the least number of conjugates of
H-elements whose product is f.  It is computed on finite groups only, where
the breadth-first search is exhaustive: layer k of the search is exactly the
set of elements of norm k, and every value comes with a witness
decomposition that multiplies back to f.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Sequence

from .groups import GroupContext, ProductSearch
from .words import Frozen, StepFailure


class _Infinity:
    """Positive infinity as a distinguished extended value.

    Supports exactly the arithmetic the norm axiom checks need: comparison
    with rationals and absorption under addition.
    """

    _singleton = None

    def __new__(cls) -> "_Infinity":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "INFINITY"

    def __str__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("sclkit-extended-infinity")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity()


class FragmentationResult(Frozen):
    """Value of the fragmentation norm at one element.

    witness is a tuple of (g_i, h_i) pairs whose conjugate product equals
    the element; None when the element is unreachable and value is INFINITY.
    """

    value: Any
    witness: tuple[tuple[Any, Any], ...] | None


class FragmentationNorm:
    """Fragmentation norm nu_H on a finite group, by breadth-first search.

    The context must list its elements.  The search over conjugates of
    H-elements runs to exhaustion up front; everything it never reaches
    gets norm INFINITY.  Every finite value is re-checked by multiplying
    its witness back together; a witness that does not reassemble raises
    StepFailure at "fragmentation witness".
    """

    def __init__(self, context: GroupContext, subgroup_gens: Sequence[Any]):
        if not hasattr(context, "elements"):
            raise ValueError("the fragmentation norm needs a finite group that lists its elements")
        self.context = context
        self.subgroup_gens = list(subgroup_gens)
        self._subgroup = self._close_subgroup()
        self._conjugates = self._conjugate_closure()
        self._search = ProductSearch(context, [c for c, _, _ in self._conjugates])
        self._search.grow()

    def _close_subgroup(self) -> list:
        ctx = self.context
        search = ProductSearch(ctx, self.subgroup_gens + [ctx.inv(s) for s in self.subgroup_gens])
        elements = [ctx.identity]
        while search.frontier:
            search.grow(max_depth=search.depth + 1)
            elements += search.frontier
        return elements

    def _conjugate_closure(self) -> list[tuple[Any, Any, Any]]:
        ctx = self.context
        conjugators = list(ctx.elements())
        out: dict[Any, tuple[Any, Any, Any]] = {}
        for h in self._subgroup:
            if ctx.is_identity(h):
                continue
            for g in conjugators:
                c = ctx.conjugate(g, h)
                key = ctx.canonical(c)
                if key not in out:
                    out[key] = (c, g, h)
        return list(out.values())

    def value_with_witness(self, f) -> FragmentationResult:
        ctx = self.context
        key = ctx.canonical(f)
        if key not in self._search.info:
            return FragmentationResult(INFINITY, None)
        witness = tuple(self._conjugates[idx][1:] for idx in self._search.path(key))
        check = ctx.identity
        for g, h in witness:
            check = ctx.mul(check, ctx.conjugate(g, h))
        if not ctx.eq(check, f):
            raise StepFailure(
                "fragmentation witness", f"the witness for {ctx.text(f)} does not reassemble"
            )
        return FragmentationResult(len(witness), witness)

    def __call__(self, f):
        res = self.value_with_witness(f)
        if res.value is INFINITY:
            return INFINITY
        return Fraction(res.value)


class NormAxiomReport(Frozen):
    elements_checked: int
    pairs_checked: int


def norm_axiom_report(norm) -> NormAxiomReport:
    """Test the five norm axioms on every element of the norm's finite
    group, and the pairwise ones on every ordered pair.  The first failure
    raises StepFailure at "norm axioms"."""
    ctx = norm.context
    elements = list(ctx.elements())

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
