"""Conjugation-invariant norms: the fragmentation norm and the norm axioms.

A conjugation-invariant norm is a function nu: G -> [0, inf] vanishing
exactly at the identity, symmetric under inversion, subadditive, and
constant on conjugacy classes.  Values are exact rationals, with a
distinguished INFINITY object for elements outside the normal closure of
the chosen subgroup; no float sentinel is ever used.

The fragmentation norm nu_H counts the least number of conjugates of
H-elements whose product is f.  On finite groups the breadth-first search
is exhaustive, so layer k of the search is exactly the set of elements of
norm k and every value comes with a witness decomposition that multiplies
back to f.  On infinite groups the search is truncated to a conjugator
ball and a factor cap, and the verdict says so.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .groups import GroupContext, ProductSearch


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


class FragmentationResult:
    """Value of the fragmentation norm at one element.

    witness is a tuple of (g_i, h_i) pairs whose conjugate product equals
    the element; None when the element is unreachable.  exact is False only
    for truncated searches that ran out of layers, in which case value
    holds the cap and the verdict reads ">= cap".
    """

    def __init__(
        self, value: Any, witness: tuple[tuple[Any, Any], ...] | None, exact: bool, scope: str
    ) -> None:
        self.value = value
        self.witness = witness
        self.exact = exact
        self.scope = scope

    def verdict(self) -> str:
        if self.value is INFINITY:
            return "infinite"
        if self.exact:
            return f"= {self.value}"
        return f">= {self.value}"

    def as_dict(self, context: GroupContext) -> dict:
        pairs = None
        if self.witness is not None:
            pairs = [
                {"conjugator": context.text(g), "subgroup_element": context.text(h)}
                for g, h in self.witness
            ]
        return {
            "value": "inf" if self.value is INFINITY else int(self.value),
            "verdict": self.verdict(),
            "exact": self.exact,
            "scope": self.scope,
            "witness": pairs,
        }


class FragmentationNorm:
    """Fragmentation norm nu_H computed by breadth-first search.

    Finite contexts (an ``elements()`` listing) are solved exhaustively up
    front; everything the conjugate closure of H never reaches gets norm
    INFINITY.  Contexts without a full listing search within a conjugator
    ball of the given radius and up to ``cap`` factors.
    """

    def __init__(
        self,
        context: GroupContext,
        subgroup_gens: Sequence[Any],
        *,
        cap: int = 16,
        conjugator_radius: int | None = None,
        subgroup_elements: Sequence[Any] | None = None,
        closure_guard: int = 20000,
        name: str | None = None,
    ):
        self.context = context
        self.subgroup_gens = list(subgroup_gens)
        self.cap = cap
        self.name = name if name is not None else "nu_H"
        if subgroup_elements is not None:
            self._subgroup = list(subgroup_elements)
        else:
            self._subgroup = self._close_subgroup(closure_guard)
        self._conjugates = self._conjugate_closure(conjugator_radius)
        self._finite = hasattr(context, "elements")
        self._scope = (
            "exhaustive on the full group"
            if self._finite
            else (
                f"conjugator radius {conjugator_radius}, factor cap {cap}, "
                f"{len(self._subgroup)} subgroup elements"
            )
        )
        self._search = ProductSearch(context, [c for c, _, _ in self._conjugates])
        if self._finite:
            self._search.grow()

    def _close_subgroup(self, guard: int) -> list:
        ctx = self.context
        search = ProductSearch(ctx, self.subgroup_gens + [ctx.inv(s) for s in self.subgroup_gens])
        elements = [ctx.identity]
        while search.frontier:
            search.grow(max_depth=search.depth + 1)
            if len(search.info) > guard:
                raise ValueError(
                    "subgroup closure did not stabilise; pass "
                    "subgroup_elements explicitly"
                )
            elements += search.frontier
        return elements

    def _conjugate_closure(self, radius: int | None) -> list[tuple[Any, Any, Any]]:
        ctx = self.context
        if hasattr(ctx, "elements"):
            conjugators = list(ctx.elements())
        else:
            if radius is None:
                raise ValueError("contexts without a full listing need conjugator_radius")
            conjugators = ctx.ball(radius)
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
        # a finite context's search is complete, so reach only looks it up
        path = self._search.reach(f, self.cap)
        if path is not None:
            witness = tuple(self._conjugates[idx][1:] for idx in path)
            check = ctx.identity
            for g, h in witness:
                check = ctx.mul(check, ctx.conjugate(g, h))
            if not ctx.eq(check, f):
                raise AssertionError("fragmentation witness failed to reassemble")
            return FragmentationResult(len(path), witness, True, self._scope)
        if self._finite:
            return FragmentationResult(INFINITY, None, True, self._scope)
        return FragmentationResult(self.cap, None, False, self._scope)

    def __call__(self, f):
        res = self.value_with_witness(f)
        if res.value is INFINITY:
            return INFINITY
        if not res.exact:
            raise ValueError(f"norm undetermined within search scope ({res.verdict()})")
        return Fraction(res.value)


class NormAxiomReport:
    def __init__(
        self, norm_name: str, elements_checked: int, pairs_checked: int, failures: tuple[str, ...]
    ) -> None:
        self.norm_name = norm_name
        self.elements_checked = elements_checked
        self.pairs_checked = pairs_checked
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (
            f"norm axioms for {self.norm_name}: {self.elements_checked} elements, "
            f"{self.pairs_checked} pairs"
        )
        if self.ok:
            return head + ", all five hold"
        return head + "; FAILED: " + "; ".join(self.failures)


PAIR_BUDGET = 250_000


def norm_axiom_report(
    norm,
    elements: Iterable[Any] | None = None,
    rng=None,
    samples: int = 300,
) -> NormAxiomReport:
    """Test the five norm axioms on an element set.

    The set defaults to the full group when it is finite and to rng samples
    otherwise.  Pairwise axioms run exhaustively when the square of the set
    fits in PAIR_BUDGET, sampled otherwise.
    """
    ctx = norm.context
    if elements is None:
        if hasattr(ctx, "elements"):
            elements = list(ctx.elements())
        else:
            if rng is None:
                raise ValueError("infinite context needs elements or an rng")
            elements = [ctx.sample(rng, rng.randrange(0, 7)) for _ in range(samples)]
    else:
        elements = list(elements)

    failures: list[str] = []
    values = {ctx.canonical(a): norm(a) for a in elements}

    def val(a):
        key = ctx.canonical(a)
        if key not in values:
            values[key] = norm(a)
        return values[key]

    if norm(ctx.identity) != 0:
        failures.append(f"nu(1) = {norm(ctx.identity)} != 0")
    for a in elements:
        if val(a) != val(ctx.inv(a)):
            failures.append(f"nu not symmetric at {ctx.text(a)}")
            break
    for a in elements:
        if not ctx.is_identity(a) and not val(a) > 0:
            failures.append(f"nu({ctx.text(a)}) = {val(a)} not positive")
            break

    if len(elements) * len(elements) <= PAIR_BUDGET:
        pairs = itertools.product(elements, elements)
        pair_count = len(elements) * len(elements)
    else:
        if rng is None:
            raise ValueError("large element set needs an rng for pair sampling")
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(samples)]
        pair_count = samples
    for a, b in pairs:
        if not val(ctx.mul(a, b)) <= val(a) + val(b):
            failures.append(
                f"subadditivity fails at ({ctx.text(a)}, {ctx.text(b)})"
            )
            break
        if val(ctx.conjugate(b, a)) != val(a):
            failures.append(
                f"conjugation invariance fails at ({ctx.text(a)}, {ctx.text(b)})"
            )
            break

    return NormAxiomReport(norm.name, len(elements), pair_count, tuple(failures))


class PreconditionError(ValueError):
    """A stated hypothesis failed; the check refuses to run rather than skip."""
