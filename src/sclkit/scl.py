"""Certified bounds for ordinary and mixed stable commutator length.

Nothing here claims an exact scl value.  The module produces one-sided
certificates: lower bounds from homogeneous quasimorphisms through the
duality inequality scl(x) >= |phi(x)| / (2 D(phi)), and upper bounds from
explicit decompositions of x^n into m commutators, giving scl(x) <= m/n.
Mixed mode replaces commutators [a, b] by pairs [ghat, g] whose second
component passes the normal-subgroup membership test.

Every decomposition re-verifies by exact multiplication in its group
context, and every certificate carries enough data to be rechecked from
scratch: factor lists, quasimorphism names, certified defect bounds with
provenance, and the conjugator sample behind any invariance claim.
Invariance evidence is sampled, never asserted universally.

The headline demonstration assembles, for the 3-strand braid group and
its pure subgroup, the family cl(alpha^{2n}) <= 1 driven by the half
twist flipping alpha to its inverse, together with a Bavard lower bound
for alpha inside the pure group, certifying that the mixed stable length
of alpha is strictly smaller than the ordinary one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .braids import (
    BraidGroup,
    BraidWord,
    braid,
    half_twist,
    index_sum,
    is_pure,
    p3_assemble,
    pr1,
)
from .groups import CyclicZ, DirectProduct, FreeGroup, GroupContext, ProductSearch
from .norms import PreconditionError
from .quasimorphisms import (
    InvarianceReport,
    Quasimorphism,
    brooks_homogenized,
    defect_search,
    invariance_check,
    pullback,
)
from .words import Word


@dataclass
class GroupPair:
    """An ambient group with a distinguished normal subgroup.

    is_member must be an exact test.  subgroup_ball enumerates the normal
    subgroup by word length in its own generators, deterministically.
    """

    name: str
    ambient: GroupContext
    is_member: Callable[[Any], bool]
    subgroup_ball: Callable[[int], list]
    mode: str = "mixed"


def ordinary_pair(ctx: GroupContext, name: str | None = None) -> GroupPair:
    """The pair (G, G): plain commutators, everything is a member."""
    return GroupPair(
        name=name if name is not None else ctx.name,
        ambient=ctx,
        is_member=lambda g: True,
        subgroup_ball=ctx.ball,
        mode="ordinary",
    )


def _p3_ball(radius: int) -> list[BraidWord]:
    """Pure 3-strand braids of length <= radius in the generators x, y and
    the central full twist: the ball of F2 x Z, in its enumeration order."""
    coords = DirectProduct(FreeGroup.on("xy"), CyclicZ())
    return [p3_assemble(w, k) for w, k in coords.ball(radius)]


def braid_pure_pair() -> GroupPair:
    """(B3, P3): ambient 3-strand braids, pure braids as the normal subgroup."""
    return GroupPair(
        name="braid:3/pure",
        ambient=BraidGroup(3),
        is_member=is_pure,
        subgroup_ball=_p3_ball,
    )


def pure_ordinary_pair() -> GroupPair:
    """The pure 3-strand braids with plain commutators.

    Same ambient operations and membership test as the mixed pair, but
    certificates carry the ordinary mode: bounds speak about scl inside the
    subgroup itself.
    """
    return GroupPair(
        name="braid:3/pure-ordinary",
        ambient=BraidGroup(3),
        is_member=is_pure,
        subgroup_ball=_p3_ball,
        mode="ordinary",
    )


def braid_commutator_pair(n: int = 3) -> GroupPair:
    """(Bn, [Bn, Bn]): membership is vanishing index sum."""
    ctx = BraidGroup(n)
    return GroupPair(
        name=f"braid:{n}/comm",
        ambient=ctx,
        is_member=lambda b: index_sum(b) == 0,
        subgroup_ball=lambda r: [b for b in ctx.ball(r) if index_sum(b) == 0],
    )


def product_left_pair(left: GroupContext | None = None) -> GroupPair:
    """(G x Z, G x {0}) with the left factor as the normal subgroup."""
    inner = left if left is not None else FreeGroup(2)
    ctx = DirectProduct(inner, CyclicZ())
    return GroupPair(
        name=f"product:{inner.name},z/left",
        ambient=ctx,
        is_member=lambda p: p[1] == 0,
        subgroup_ball=lambda r: [(w, 0) for w in inner.ball(r)],
    )


@dataclass
class MixedCommutatorDecomposition:
    """target as an ordered product of commutators [ghat_i, g_i] with every
    g_i in the normal subgroup."""

    pair: GroupPair
    target: Any
    factors: tuple[tuple[Any, Any], ...]

    def product(self) -> Any:
        ctx = self.pair.ambient
        acc = ctx.identity
        for ghat, g in self.factors:
            acc = ctx.mul(acc, ctx.commutator(ghat, g))
        return acc

    def factor_texts(self) -> list[list[str]]:
        ctx = self.pair.ambient
        return [[ctx.text(a), ctx.text(b)] for a, b in self.factors]


@dataclass(frozen=True)
class DecompositionReport:
    ok: bool
    failed_step: str | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(d: MixedCommutatorDecomposition) -> DecompositionReport:
    """Exact check: memberships first, then the product equality.

    In mixed mode the first component of a factor may be any ambient
    element; in ordinary mode both components must pass the membership
    test, since the bound then speaks about commutators of the subgroup
    with itself.
    """
    ctx = d.pair.ambient
    for i, (ghat, g) in enumerate(d.factors):
        if d.pair.mode == "ordinary" and not d.pair.is_member(ghat):
            return DecompositionReport(
                False,
                f"membership of factor {i}",
                f"factor {i} conjugating component {ctx.text(ghat)} is outside the "
                f"subgroup, not allowed in ordinary mode for {d.pair.name}",
            )
        if not d.pair.is_member(g):
            return DecompositionReport(
                False,
                f"membership of factor {i}",
                f"factor {i} component {ctx.text(g)} is not in the normal subgroup of {d.pair.name}",
            )
    prod = d.product()
    if not ctx.eq(prod, d.target):
        return DecompositionReport(
            False,
            "product equality",
            f"product {ctx.text(prod)} differs from target {ctx.text(d.target)}",
        )
    return DecompositionReport(True, None, f"{len(d.factors)} factors verified")


@dataclass(frozen=True)
class ClSearchResult:
    count: int | None
    decomposition: MixedCommutatorDecomposition | None
    verdict: str
    scope: str
    commutators_used: int


def mixed_cl_search(
    pair: GroupPair,
    target: Any,
    ambient_radius: int,
    subgroup_radius: int,
    max_factors: int,
) -> ClSearchResult:
    """Least number of commutators [ghat, g] multiplying to target, with
    components drawn from the given balls.

    The found count is exact for the enumerated generating data and a sound
    upper bound for the true mixed commutator length; a miss is reported as
    ball-relative only.  Witness choice is deterministic: breadth-first,
    factors in canonical order.
    """
    ctx = pair.ambient
    scope = (
        f"ambient radius {ambient_radius}, subgroup radius {subgroup_radius}, "
        f"factor cap {max_factors}"
    )
    commutators: dict[Any, tuple[Any, tuple[Any, Any]]] = {}
    conjugators = ctx.ball(ambient_radius)
    if pair.mode == "ordinary":
        # both components must come from the subgroup in ordinary mode
        conjugators = [h for h in conjugators if pair.is_member(h)]
    subgroup = pair.subgroup_ball(subgroup_radius)
    for ghat in conjugators:
        for g in subgroup:
            c = ctx.commutator(ghat, g)
            key = ctx.canonical(c)
            if key not in commutators:
                commutators[key] = (c, (ghat, g))
    if isinstance(ctx, BraidGroup):
        # braid moves keep the order of their normal forms, not of the equality key
        moves = sorted(commutators.items(), key=lambda kv: repr(ctx.sort_key(kv[1][0])))
    else:
        moves = sorted(commutators.items(), key=lambda kv: repr(kv[0]))
    target_key = ctx.canonical(target)
    search = ProductSearch(ctx, [c for _, (c, _) in moves])
    search.grow(max_depth=max_factors, target=target_key)

    if target_key not in search.info:
        return ClSearchResult(
            None,
            None,
            f"not found within {max_factors} factors at these radii (ball-relative)",
            scope,
            len(moves),
        )
    factors = tuple(moves[idx][1][1] for idx in search.path(target_key))
    decomposition = MixedCommutatorDecomposition(pair, target, factors)
    report = verify_decomposition(decomposition)
    if not report:
        raise AssertionError(f"search produced an invalid decomposition: {report.detail}")
    count = len(factors)
    return ClSearchResult(count, decomposition, f"= {count}", scope, len(moves))


def commutator_identity_xy(
    ctx: GroupContext, x: Any, y: Any, n: int
) -> MixedCommutatorDecomposition:
    """Explicit n-commutator decomposition of (xy)^{2n} x^{-2n} y^{-2n}.

    Built by induction: peeling (xy)^2 off the front leaves the (n-1) case
    conjugated by (xy)^2 times one extra commutator.  The closing step is
    the rewrite a b c a^-1 b^-1 c^-1 = [ab, ca^-1] with a = x, b = yx,
    c = y^{2n-1}, whose product telescopes to (xy)^2 y^{2n-2} x^-2 y^{-2n}.
    Valid in any group, for any x and y.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pair = ordinary_pair(ctx)
    factors: list[tuple[Any, Any]] = []
    shift = ctx.power(ctx.mul(x, y), 2)
    for m in range(1, n + 1):
        # factor closing the m-th peel: [x y x, y^{2m-1} x^-1]
        u = ctx.mul(ctx.mul(x, y), x)
        v = ctx.mul(ctx.power(y, 2 * m - 1), ctx.inv(x))
        factors = [(ctx.conjugate(shift, a), ctx.conjugate(shift, b)) for a, b in factors]
        factors.append((u, v))
    xy = ctx.mul(x, y)
    target = ctx.mul(
        ctx.power(xy, 2 * n),
        ctx.mul(ctx.power(x, -2 * n), ctx.power(y, -2 * n)),
    )
    return MixedCommutatorDecomposition(pair, target, tuple(factors))


def power_commutator(ctx: GroupContext, f: Any, g: Any, n: int) -> MixedCommutatorDecomposition:
    """[f, g]^n as the single commutator [f^n, g], requiring f to commute
    with g f^-1 g^-1 (checked exactly; violation raises PreconditionError)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = ctx.conjugate(g, ctx.inv(f))
    if not ctx.eq(ctx.mul(f, c), ctx.mul(c, f)):
        raise PreconditionError(
            f"{ctx.text(f)} does not commute with {ctx.text(c)}"
        )
    pair = ordinary_pair(ctx)
    target = ctx.power(ctx.commutator(f, g), n)
    if n == 0:
        return MixedCommutatorDecomposition(pair, target, ())
    return MixedCommutatorDecomposition(pair, target, ((ctx.power(f, n), g),))


def conjugate_flip_decomposition(
    pair: GroupPair, base: Any, flipper: Any, n: int
) -> MixedCommutatorDecomposition:
    """base^{2n} = [flipper, base^{-n}], given flipper * base * flipper^-1 =
    base^-1 (checked exactly)."""
    ctx = pair.ambient
    if not ctx.eq(ctx.conjugate(flipper, base), ctx.inv(base)):
        raise PreconditionError(
            f"{ctx.text(flipper)} does not flip {ctx.text(base)} to its inverse"
        )
    target = ctx.power(base, 2 * n)
    if n == 0:
        return MixedCommutatorDecomposition(pair, target, ())
    return MixedCommutatorDecomposition(pair, target, ((flipper, ctx.power(base, -n)),))


@dataclass
class SclCertificate:
    """One-sided certified bound on scl of target within a group pair."""

    kind: str
    mode: str
    pair: GroupPair
    target: Any
    direction: str
    bound: Fraction
    power: int
    witness: dict
    evidence: dict
    verified: bool
    note: str = ""

    def as_payload(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.pair.ambient.text(self.target),
            "group_pair": self.pair.name,
            "bound": str(self.bound),
            "direction": self.direction,
            "witness": self.witness,
            "evidence": self.evidence,
            "verified": self.verified,
            "note": self.note,
        }


def bavard_lower(
    target: Any,
    qm: Quasimorphism,
    pair: GroupPair,
    invariance: InvarianceReport | None = None,
    note: str = "",
) -> SclCertificate:
    """Lower bound |qm(target)| / (2 defect_upper), with the invariance
    sample recorded as evidence.

    A defect bound of zero makes qm a homomorphism; a nonzero value then
    shows the target is outside the commutator subgroup entirely, reported
    in the note rather than as a numeric bound.
    """
    if not qm.homogeneous:
        raise ValueError("duality lower bounds need a homogeneous quasimorphism")
    if qm.defect_upper is None:
        raise ValueError("refusing a lower bound without a certified defect")
    value = qm(target)
    defect = Fraction(qm.defect_upper)
    if defect == 0:
        if value != 0:
            bound = Fraction(0)
            note = (note + "; " if note else "") + (
                "homomorphism value nonzero: target is not in the commutator "
                "subgroup, scl undefined/infinite there"
            )
        else:
            bound = Fraction(0)
    else:
        bound = abs(value) / (2 * defect)
    evidence = {
        "defect_provenance": qm.defect_provenance,
        "invariance_sample": (
            {"checked": invariance.checked, "violations": len(invariance.violations)}
            if invariance is not None
            else None
        ),
    }
    witness = {
        "qm": qm.name,
        "value": str(value),
        "defect_upper": str(defect),
    }
    return SclCertificate(
        kind="scl-lower-bavard",
        mode=pair.mode,
        pair=pair,
        target=target,
        direction="lower",
        bound=bound,
        power=1,
        witness=witness,
        evidence=evidence,
        verified=True,
        note=note,
    )


def upper_from_decomposition(
    target: Any,
    power: int,
    d: MixedCommutatorDecomposition,
    note: str = "",
) -> SclCertificate:
    """scl(target) <= m / power from a verified decomposition of
    target^power into m commutators."""
    if power < 1:
        raise ValueError("power must be positive")
    ctx = d.pair.ambient
    if not ctx.eq(d.target, ctx.power(target, power)):
        raise ValueError("decomposition target is not the requested power")
    report = verify_decomposition(d)
    if not report:
        raise ValueError(f"decomposition failed verification: {report.detail}")
    bound = Fraction(len(d.factors), power)
    return SclCertificate(
        kind="scl-upper-decomposition",
        mode=d.pair.mode,
        pair=d.pair,
        target=target,
        direction="upper",
        bound=bound,
        power=power,
        witness={"power": power, "factors": d.factor_texts()},
        evidence={"defect_provenance": None, "invariance_sample": None},
        verified=True,
        note=note,
    )


@dataclass(frozen=True)
class SandwichReport:
    target_text: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def describe(self) -> str:
        lines = [f"sandwich consistency at {self.target_text}:"]
        for label, flag in self.checks:
            lines.append(f"  {'ok  ' if flag else 'FAIL'} {label}")
        return "\n".join(lines)


def sandwich_report(
    target: Any,
    ordinary_certs: Sequence[SclCertificate],
    mixed_certs: Sequence[SclCertificate],
) -> SandwichReport:
    """Cross-check certified intervals against scl <= scl_mixed <= 2 scl.

    Ordinary lower bounds must stay below mixed upper bounds, and mixed
    lower bounds below twice the ordinary upper bounds; any violation is an
    implementation bug, reported as a failed check.
    """

    def best(certs: Sequence[SclCertificate], direction: str):
        vals = [c.bound for c in certs if c.direction == direction and c.verified]
        if not vals:
            return None
        return max(vals) if direction == "lower" else min(vals)

    o_lo, o_hi = best(ordinary_certs, "lower"), best(ordinary_certs, "upper")
    m_lo, m_hi = best(mixed_certs, "lower"), best(mixed_certs, "upper")
    checks: list[tuple[str, bool]] = []
    if o_lo is not None and o_hi is not None:
        checks.append((f"ordinary interval [{o_lo}, {o_hi}] nonempty", o_lo <= o_hi))
    if m_lo is not None and m_hi is not None:
        checks.append((f"mixed interval [{m_lo}, {m_hi}] nonempty", m_lo <= m_hi))
    if o_lo is not None and m_hi is not None:
        checks.append(
            (f"ordinary lower {o_lo} <= mixed upper {m_hi}", o_lo <= m_hi)
        )
    if m_lo is not None and o_hi is not None:
        checks.append(
            (f"mixed lower {m_lo} <= 2 * ordinary upper {o_hi}", m_lo <= 2 * o_hi)
        )
    text = (
        ordinary_certs[0].pair.ambient.text(target)
        if ordinary_certs
        else mixed_certs[0].pair.ambient.text(target)
    )
    return SandwichReport(text, tuple(checks))


def alpha_braid() -> BraidWord:
    """The commutator [s1^2, s2^2] in the 3-strand braid group."""
    ctx = BraidGroup(3)
    return ctx.commutator(braid("1,1", 3), braid("2,2", 3))


@dataclass
class SeparationReport:
    """The mixed-vs-ordinary gap for alpha = [s1^2, s2^2] in (B3, P3).

    mixed_upper_certs: cl(alpha^{2n}) <= 1 for n up to n_max, so the mixed
    scl is at most 1/(2 n_max).  ordinary_lower_cert: Bavard bound inside
    the pure group through the free-factor projection.  The invariance
    violation explains why that projection cannot feed a mixed-mode lower
    bound: conjugation by the half twist flips its value at alpha.
    """

    n_max: int
    mixed_upper_certs: list[SclCertificate]
    ordinary_lower_cert: SclCertificate
    invariance_violation: InvarianceReport
    defect_consistency: dict
    separated: bool

    def describe(self) -> str:
        best_upper = min(c.bound for c in self.mixed_upper_certs)
        lower = self.ordinary_lower_cert.bound
        lines = [
            f"mixed scl upper bound: {best_upper} (family n <= {self.n_max})",
            f"ordinary scl lower bound: {lower} "
            f"(defect {self.ordinary_lower_cert.witness['defect_upper']})",
            f"projection invariance under the half twist: "
            f"{len(self.invariance_violation.violations)} violation(s) found (expected >= 1)",
            f"separation certified: {self.separated}",
        ]
        return "\n".join(lines)


def separation_demo(n_max: int = 32, defect_radius: int = 6) -> SeparationReport:
    """Certificates for: mixed scl of alpha tends to zero while the
    ordinary scl inside the pure subgroup stays above a positive constant."""
    pair = braid_pure_pair()
    ctx = pair.ambient
    alpha = alpha_braid()
    delta = half_twist(3)

    mixed_certs = []
    for n in range(1, n_max + 1):
        d = conjugate_flip_decomposition(pair, alpha, delta, n)
        mixed_certs.append(
            upper_from_decomposition(
                alpha,
                2 * n,
                d,
                note="flip decomposition: half twist conjugates alpha to its inverse",
            )
        )

    w = Word(25, (24, 25, -24, -25))
    qm_free = brooks_homogenized(w)
    qm = pullback(qm_free, pr1())
    f2 = FreeGroup.on("xy")
    search = defect_search(qm_free, defect_radius, context=f2)
    inv_sample = invariance_check(
        qm_free,
        conjugators=f2.ball(2),
        targets=[w, f2.word("xy"), f2.word("xYx")],
    )
    pure_pair_ordinary = pure_ordinary_pair()
    lower = bavard_lower(
        alpha,
        qm,
        pure_pair_ordinary,
        invariance=inv_sample,
        note=(
            "ordinary scl inside the pure subgroup; invariance sample taken on "
            "the free factor, where the projection is the identity"
        ),
    )

    violation = invariance_check(qm, conjugators=[delta], targets=[alpha])

    ok_upper = all(c.verified for c in mixed_certs)
    separated = (
        ok_upper
        and lower.bound > 0
        and min(c.bound for c in mixed_certs) < lower.bound
    )
    defect_consistency = {
        "searched_lower": str(search.lower),
        "certified_upper": str(qm_free.defect_upper),
        "radius": search.radius,
        "consistent": search.lower <= Fraction(qm_free.defect_upper),
    }
    return SeparationReport(
        n_max=n_max,
        mixed_upper_certs=mixed_certs,
        ordinary_lower_cert=lower,
        invariance_violation=violation,
        defect_consistency=defect_consistency,
        separated=separated,
    )
