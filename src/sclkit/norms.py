"""Conjugation-invariant norms and norm-controlled quasimorphisms.

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

A nu-quasimorphism is a function whose additivity defect on (f, g) is
bounded by C * min{nu(f), nu(g)}.  The checks in this module turn the
consequences of that control into executable inequalities: conjugation
invariance of semi-homogeneous nu-quasimorphisms up to an explicit O(1/k)
error, and vanishing on commutators [f, g] whose factor f commutes with
g f^-1 g^-1, via the exact power identity [f, g]^n = [f^n, g].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .groups import GroupContext, ProductSearch
from .quasimorphisms import Quasimorphism


class _Infinity:
    """Positive infinity as a distinguished extended value.

    Supports exactly the arithmetic the norm checks need: comparison with
    rationals, absorption under addition, scaling by nonnegative rationals
    with the conservative convention 0 * inf = 0, and division by positive
    integers.
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

    def __abs__(self) -> "_Infinity":
        return self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other is self:
            return self
        scale = Fraction(other)
        if scale < 0:
            raise ValueError("extended values stay nonnegative")
        return Fraction(0) if scale == 0 else self

    __rmul__ = __mul__

    def __truediv__(self, other):
        if Fraction(other) <= 0:
            raise ValueError("division of INFINITY needs a positive divisor")
        return self


INFINITY = _Infinity()


def is_infinite(v: Any) -> bool:
    return v is INFINITY


def as_extended(v: Any):
    """Normalise a norm value to Fraction or INFINITY."""
    return v if v is INFINITY else Fraction(v)


@dataclass
class ConjugationInvariantNorm:
    """A norm given by an evaluation procedure; values are extended
    nonnegative rationals."""

    name: str
    context: GroupContext
    eval_fn: Callable[[Any], Any]

    def __call__(self, g) -> Any:
        return as_extended(self.eval_fn(g))


def trivial_norm(context: GroupContext) -> ConjugationInvariantNorm:
    """The norm that is 0 at the identity and 1 everywhere else."""
    return ConjugationInvariantNorm(
        name="nu0",
        context=context,
        eval_fn=lambda g: Fraction(0) if context.is_identity(g) else Fraction(1),
    )


@dataclass(frozen=True)
class FragmentationResult:
    """Value of the fragmentation norm at one element.

    witness is a tuple of (g_i, h_i) pairs whose conjugate product equals
    the element; None when the element is unreachable.  exact is False only
    for truncated searches that ran out of layers, in which case value
    holds the cap and the verdict reads ">= cap".
    """

    value: Any
    witness: tuple[tuple[Any, Any], ...] | None
    exact: bool
    scope: str

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
        key = ctx.canonical(f)
        search = self._search
        if not self._finite:
            search.grow(max_depth=self.cap, target=key)
        if key in search.info:
            layer = search.info[key][0]
            witness = tuple(self._conjugates[idx][1:] for idx in search.path(key))
            check = ctx.identity
            for g, h in witness:
                check = ctx.mul(check, ctx.conjugate(g, h))
            if not ctx.eq(check, f):
                raise AssertionError("fragmentation witness failed to reassemble")
            return FragmentationResult(layer, witness, True, self._scope)
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

    def as_norm(self) -> ConjugationInvariantNorm:
        return ConjugationInvariantNorm(self.name, self.context, self.__call__)


def fragmentation_norm(
    context: GroupContext,
    subgroup_gens: Sequence[Any],
    f: Any,
    **options,
) -> FragmentationResult:
    """Least number of conjugates of subgroup elements multiplying to f."""
    return FragmentationNorm(context, subgroup_gens, **options).value_with_witness(f)


@dataclass(frozen=True)
class NormAxiomReport:
    norm_name: str
    elements_checked: int
    pairs_checked: int
    failures: tuple[str, ...]

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


@dataclass
class PartialQuasimorphism:
    """A function with additivity defect controlled by C * min of a norm."""

    name: str
    context: GroupContext
    eval_fn: Callable[[Any], Any]
    norm: Any
    constant: Fraction
    semi_homogeneous: bool = False

    def __call__(self, g) -> Fraction:
        return Fraction(self.eval_fn(g))


def as_partial(
    qm: Quasimorphism,
    norm=None,
    constant: Fraction | None = None,
) -> PartialQuasimorphism:
    """View an ordinary quasimorphism as controlled by the trivial norm.

    The default constant is the certified defect bound plus one, which the
    controlled inequality then satisfies with room to spare.
    """
    if norm is None:
        norm = trivial_norm(qm.context)
    if constant is None:
        if qm.defect_upper is None:
            raise ValueError("need a defect bound or an explicit constant")
        constant = Fraction(qm.defect_upper) + 1
    return PartialQuasimorphism(
        name=qm.name,
        context=qm.context,
        eval_fn=qm.eval_fn,
        norm=norm,
        constant=Fraction(constant),
        semi_homogeneous=qm.homogeneous,
    )


@dataclass(frozen=True)
class PartialQmReport:
    qm_name: str
    pairs_checked: int
    powers_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        head = (
            f"controlled-defect check for {self.qm_name}: {self.pairs_checked} pairs, "
            f"{self.powers_checked} power identities"
        )
        return head + (", ok" if self.ok else "; FAILED: " + "; ".join(self.violations))


MAX_POWER = 4


def partial_qm_check(
    phi: PartialQuasimorphism,
    pairs: Iterable[tuple[Any, Any]] | None = None,
    rng=None,
    samples: int = 400,
) -> PartialQmReport:
    """Verify |phi(fg) - phi(f) - phi(g)| <= C * min{nu(f), nu(g)} on pairs,
    and semi-homogeneity phi(f^n) = n phi(f) for n <= MAX_POWER when the flag
    claims it."""
    ctx = phi.context
    if pairs is None:
        if rng is None:
            raise ValueError("need explicit pairs or an rng")
        pairs = [
            (ctx.sample(rng, rng.randrange(0, 7)), ctx.sample(rng, rng.randrange(0, 7)))
            for _ in range(samples)
        ]
    pairs = list(pairs)

    violations: list[str] = []
    for f, g in pairs:
        defect = abs(phi(ctx.mul(f, g)) - phi(f) - phi(g))
        bound = phi.constant * min(phi.norm(f), phi.norm(g))
        if not defect <= bound:
            violations.append(
                f"defect {defect} exceeds {bound} at ({ctx.text(f)}, {ctx.text(g)})"
            )
            if len(violations) >= 5:
                break

    powers_checked = 0
    if phi.semi_homogeneous:
        candidates: dict[Any, Any] = {}
        for f, g in pairs:
            for e in (f, g, ctx.mul(f, g)):
                candidates.setdefault(ctx.canonical(e), e)
            if len(candidates) >= 80:
                break
        for f in candidates.values():
            base = phi(f)
            for n in range(0, MAX_POWER + 1):
                powers_checked += 1
                if phi(ctx.power(f, n)) != n * base:
                    violations.append(
                        f"phi({ctx.text(f)}^{n}) != {n}*phi({ctx.text(f)})"
                    )
                    break

    return PartialQmReport(phi.name, len(pairs), powers_checked, tuple(violations))


@dataclass(frozen=True)
class ConjInvarianceRow:
    k: int
    deviation: Fraction
    bound: Any

    @property
    def ok(self) -> bool:
        return self.deviation <= self.bound


@dataclass(frozen=True)
class ConjInvarianceReport:
    qm_name: str
    rows: tuple[ConjInvarianceRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        tail = self.rows[-1] if self.rows else None
        detail = (
            f"; at k={tail.k} deviation {tail.deviation} <= {tail.bound}" if tail else ""
        )
        return f"conjugation invariance of {self.qm_name}: {status}{detail}"


def conj_invariance_of_partial_qm(
    phi: PartialQuasimorphism,
    f: Any,
    g: Any,
    n_max: int,
) -> ConjInvarianceReport:
    """Check |phi(g f^k g^-1)/k - phi(f)| against the explicit O(1/k) bound
    (|phi(g)| + |phi(g^-1)| + 2 C nu(g))/k for k = 1..n_max."""
    if not phi.semi_homogeneous:
        raise ValueError("conjugation invariance needs a semi-homogeneous phi")
    ctx = phi.context
    numerator = abs(phi(g)) + abs(phi(ctx.inv(g))) + 2 * phi.constant * phi.norm(g)
    base = phi(f)
    rows = []
    fk = ctx.identity
    for k in range(1, n_max + 1):
        fk = ctx.mul(fk, f)
        deviation = abs(Fraction(phi(ctx.conjugate(g, fk)), k) - base)
        rows.append(ConjInvarianceRow(k, deviation, numerator / k))
    return ConjInvarianceReport(phi.name, tuple(rows))


class PreconditionError(ValueError):
    """A stated hypothesis failed; the check refuses to run rather than skip."""


@dataclass(frozen=True)
class SplitCommutatorRow:
    n: int
    power_identity_ok: bool
    value: Fraction
    bound: Any

    @property
    def ok(self) -> bool:
        return self.power_identity_ok and self.value <= self.bound


@dataclass(frozen=True)
class SplitCommutatorReport:
    qm_name: str
    commutator_text: str
    value_at_commutator: Fraction
    constant_R: Any
    rows: tuple[SplitCommutatorRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"split-commutator vanishing for {self.qm_name} at {self.commutator_text}: "
            f"|phi| = {self.value_at_commutator}, R = {self.constant_R}, "
            f"{len(self.rows)} powers, {status}"
        )


def vanishing_on_split_commutators(
    phi: PartialQuasimorphism,
    f: Any,
    g: Any,
    n_max: int,
) -> SplitCommutatorReport:
    """For f commuting with g f^-1 g^-1, verify [f, g]^n = [f^n, g] exactly
    and check |phi([f, g])| <= R/n with R = max{|phi(g) + phi(g^-1) +
    C nu(g)|, |C nu(g)|}.

    The commuting hypothesis is rechecked and its failure raises
    PreconditionError; it is never silently skipped.
    """
    ctx = phi.context
    c = ctx.conjugate(g, ctx.inv(f))
    if not ctx.eq(ctx.mul(f, c), ctx.mul(c, f)):
        raise PreconditionError(
            f"{ctx.text(f)} does not commute with {ctx.text(c)}"
        )
    comm = ctx.commutator(f, g)
    nu_g = phi.norm(g)
    scaled = phi.constant * nu_g
    constant_r = max(abs(phi(g) + phi(ctx.inv(g)) + scaled), abs(scaled))
    value = abs(phi(comm))

    rows = []
    comm_n = ctx.identity
    f_n = ctx.identity
    c_n = ctx.identity
    for n in range(1, n_max + 1):
        comm_n = ctx.mul(comm_n, comm)
        f_n = ctx.mul(f_n, f)
        c_n = ctx.mul(c_n, c)
        identity_ok = ctx.eq(comm_n, ctx.mul(f_n, c_n)) and ctx.eq(
            comm_n, ctx.commutator(f_n, g)
        )
        rows.append(SplitCommutatorRow(n, identity_ok, value, constant_r / n))
    return SplitCommutatorReport(
        phi.name, ctx.text(comm), value, constant_r, tuple(rows)
    )
