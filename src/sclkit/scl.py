"""Certified bounds for ordinary and mixed stable commutator length.

Nothing here claims an exact scl value.  The module produces one-sided
certificates: lower bounds from homogeneous quasimorphisms through the
duality inequality scl(x) >= |phi(x)| / (2 D(phi)), and upper bounds from
explicit decompositions of x^n into m commutators, giving scl(x) <= m/n.
Each rule is stated once, in ``bavard_bound`` and ``decomposition_bound``,
which the producers here and ``certio.verify_payload`` both read.
Mixed mode replaces commutators [a, b] by pairs [ghat, g] whose second
component passes the normal-subgroup membership test.

A certificate is the payload dict that ``certio.verify_payload`` reads,
with enough data to be rechecked from scratch: factor lists,
quasimorphism names, and certified defect bounds with provenance.  The
producers here do not check what they build; ``certio.document`` checks
every certificate, by exact multiplication in its group context, before a
document holds it.  Which quasimorphisms give lower bounds in which mode
is stated once, in ``lower_refusal``.

The paper's separation for the 3-strand braid group and its pure
subgroup is checked by suite items 3 and 4 (``sclkit.suite``): the family
cl(alpha^{2n}) <= 1 driven by the half twist flipping alpha to its
inverse, and a Bavard lower bound for alpha inside the pure group.
Together they certify that the mixed stable length of alpha is strictly
smaller than the ordinary one.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .braids import (
    BraidGroup,
    BraidWord,
    index_sum,
    is_pure,
    p3_assemble,
)
from .groups import CyclicZ, DirectProduct, FreeGroup, GroupContext, ProductSearch
from .quasimorphisms import Quasimorphism
from .words import Frozen, StepFailure


class GroupPair(Frozen):
    """An ambient group with a distinguished normal subgroup.

    is_member must be an exact test.  subgroup_ball(r) lists subgroup
    elements deterministically: the ambient ball for the ordinary pair, the
    ball of P3 = F2 x Z in x, y and the full twist for the pure pairs, the
    members of the ambient ball for braid:n/comm, and the ball of G at z = 0
    for product:G,z/left, all of radius r.
    """

    name: str
    ambient: GroupContext
    is_member: Callable[[object], bool]
    subgroup_ball: Callable[[int], list]
    mode: str

    def admits_conjugator(self, h: object) -> bool:
        """Whether h may be the first entry of a commutator: any ambient
        element in mixed mode, a subgroup element in ordinary mode."""
        return self.mode == "mixed" or self.is_member(h)


def ordinary_pair(ctx: GroupContext) -> GroupPair:
    """The pair (G, G): plain commutators, everything is a member."""
    return GroupPair(
        name=ctx.name,
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
        mode="mixed",
    )


def pure_ordinary_pair() -> GroupPair:
    """The pure 3-strand braids with plain commutators.

    The mixed pair's ambient group, membership test and subgroup ball, but
    certificates carry the ordinary mode: bounds speak about scl inside the
    subgroup itself.
    """
    pure = braid_pure_pair()
    return GroupPair(
        name="braid:3/pure-ordinary",
        ambient=pure.ambient,
        is_member=pure.is_member,
        subgroup_ball=pure.subgroup_ball,
        mode="ordinary",
    )


def braid_commutator_pair(n: int) -> GroupPair:
    """(Bn, [Bn, Bn]): membership is vanishing index sum."""
    ctx = BraidGroup(n)

    def is_member(b: BraidWord) -> bool:
        return index_sum(b) == 0

    return GroupPair(
        name=f"braid:{n}/comm",
        ambient=ctx,
        is_member=is_member,
        subgroup_ball=lambda r: [b for b in ctx.ball(r) if is_member(b)],
        mode="mixed",
    )


def product_left_pair(inner: GroupContext) -> GroupPair:
    """(G x Z, G x {0}) with the left factor as the normal subgroup."""
    ctx = DirectProduct(inner, CyclicZ())
    return GroupPair(
        name=f"product:{inner.name},z/left",
        ambient=ctx,
        is_member=lambda p: p[1] == 0,
        subgroup_ball=lambda r: [(w, 0) for w in inner.ball(r)],
        mode="mixed",
    )


class MixedCommutatorDecomposition(Frozen):
    """The claim target^power = prod [ghat_i, g_i], with every g_i in the
    normal subgroup; as an upper bound it gives scl(target) <= m / power
    for m factors."""

    pair: GroupPair
    target: object
    power: int
    factors: tuple[tuple[object, object], ...]

    def product(self) -> object:
        ctx = self.pair.ambient
        acc = ctx.identity
        for ghat, g in self.factors:
            acc = ctx.mul(acc, ctx.commutator(ghat, g))
        return acc

    def factor_texts(self) -> list[list[str]]:
        ctx = self.pair.ambient
        return [[ctx.text(a), ctx.text(b)] for a, b in self.factors]


def verify_decomposition(d: MixedCommutatorDecomposition) -> None:
    """Exact check: memberships first, then the product equality against
    target^power, the one place a claim's target is raised.  The
    first failure raises StepFailure at "membership of factor i" or
    "product equality".

    In mixed mode the first component of a factor may be any ambient
    element; in ordinary mode both components must pass the membership
    test, since the bound then speaks about commutators of the subgroup
    with itself.
    """
    ctx = d.pair.ambient
    for i, (ghat, g) in enumerate(d.factors):
        if not d.pair.admits_conjugator(ghat):
            raise StepFailure(
                f"membership of factor {i}",
                f"factor {i} conjugating component {ctx.text(ghat)} is outside the "
                f"subgroup, not allowed in ordinary mode for {d.pair.name}",
            )
        if not d.pair.is_member(g):
            raise StepFailure(
                f"membership of factor {i}",
                f"factor {i} component {ctx.text(g)} is not in the normal subgroup of {d.pair.name}",
            )
    prod = d.product()
    expected = ctx.power(d.target, d.power)
    if not ctx.eq(prod, expected):
        raise StepFailure(
            "product equality",
            f"product {ctx.text(prod)} differs from target {ctx.text(expected)}",
        )


class ClSearchResult(Frozen):
    count: int | None
    decomposition: MixedCommutatorDecomposition | None
    verdict: str
    commutators_used: int


def mixed_cl_search(pair: GroupPair, target: object, radius: int, max_factors: int) -> ClSearchResult:
    """Least number of commutators [ghat, g] multiplying to target, with
    both components drawn from balls of the given radius.

    The found count is exact for the enumerated generating data and a sound
    upper bound for the true mixed commutator length; a miss is reported as
    ball-relative only.  Witness choice is deterministic: breadth-first,
    with the moves in the order the balls first give each commutator.
    """
    ctx = pair.ambient
    commutators: dict[object, tuple[object, tuple[object, object]]] = {}
    conjugators = [h for h in ctx.ball(radius) if pair.admits_conjugator(h)]
    subgroup = pair.subgroup_ball(radius)
    for ghat in conjugators:
        for g in subgroup:
            c = ctx.commutator(ghat, g)
            key = ctx.canonical(c)
            if key not in commutators:
                commutators[key] = (c, (ghat, g))
    moves = list(commutators.values())
    path = ProductSearch(ctx, [c for c, _ in moves]).reach(target, max_factors)
    if path is None:
        return ClSearchResult(
            None,
            None,
            f"not found within {max_factors} factors at these radii (ball-relative)",
            len(moves),
        )
    decomposition = MixedCommutatorDecomposition(pair, target, 1, tuple(moves[i][1] for i in path))
    count = len(path)
    return ClSearchResult(count, decomposition, f"= {count}", len(moves))


def conjugate_flip_decomposition(
    pair: GroupPair, base: object, flipper: object, n: int
) -> MixedCommutatorDecomposition:
    """base^{2n} = [flipper, base^{-n}] for n >= 1, given flipper * base *
    flipper^-1 = base^-1; a flipper that does not flip base gives a
    decomposition that fails at "product equality"."""
    return MixedCommutatorDecomposition(
        pair, base, 2 * n, ((flipper, pair.ambient.power(base, -n)),)
    )


def _payload(kind: str, direction: str, pair: GroupPair, target: object, bound: Fraction,
             witness: dict, provenance: str | None, note: str) -> dict:
    """One-sided certified bound on scl of target within a group pair, in
    the form ``certio`` writes and reads."""
    return {
        "kind": kind,
        "target": pair.ambient.text(target),
        "group_pair": pair.name,
        "bound": str(bound),
        "direction": direction,
        "witness": witness,
        "evidence": {"defect_provenance": provenance},
        # certio.document checks the claim before any document holds it
        "verified": True,
        "note": note,
    }


def lower_refusal(qm: Quasimorphism, pair: GroupPair) -> tuple[str, str] | None:
    """Why qm gives no duality lower bound in this pair, as (step, reason),
    or None when it may.

    Duality needs qm homogeneous.  A mixed commutator [ghat, g] has an
    ambient first entry, so mixed mode needs qm invariant under ambient
    conjugation, as a homogeneous qm defined on all of the ambient group is;
    ordinary mode needs qm defined on the subgroup.  The answer comes from
    how qm was built, never from a sample.
    """
    if not qm.homogeneous:
        return "quasimorphism", f"{qm.name} is not homogeneous"
    if pair.mode == "mixed" and qm.defined_on is not None:
        return "invariance", (f"{qm.name} is not invariant under conjugation by "
                              f"{pair.ambient.name} by construction")
    if pair.mode == "ordinary" and qm.defined_on not in (None, pair.is_member):
        return "quasimorphism", (f"{qm.name} is not defined on the whole subgroup of "
                                 f"{pair.name} by construction")
    return None


def decomposition_bound(factors: int, power: int) -> Fraction:
    """The upper bound that factors commutators multiplying to x^power give."""
    return Fraction(factors, power)


def bavard_bound(value: Fraction, defect: Fraction) -> Fraction:
    """The duality lower bound |value| / (2 defect), and 0 at defect 0."""
    return Fraction(0) if defect == 0 else abs(value) / (2 * defect)


def bavard_lower(target: object, qm: Quasimorphism, pair: GroupPair, note: str = "") -> dict:
    """Lower bound ``bavard_bound(qm(target), qm.defect_upper)``.

    A defect bound of zero makes qm a homomorphism; a nonzero value then
    shows the target is outside the commutator subgroup entirely, reported
    in the note rather than as a numeric bound.
    """
    refusal = lower_refusal(qm, pair)
    if refusal is not None:
        raise ValueError(refusal[1])
    value = qm(target)
    defect = qm.defect_upper
    if defect == 0 and value != 0:
        note = (note + "; " if note else "") + (
            "homomorphism value nonzero: target is not in the commutator "
            "subgroup, scl undefined/infinite there"
        )
    bound = bavard_bound(value, defect)
    witness = {"qm": qm.name, "value": str(value), "defect_upper": str(defect)}
    return _payload("scl-lower-bavard", "lower", pair, target, bound, witness,
                    qm.defect_provenance, note)


def upper_from_decomposition(d: MixedCommutatorDecomposition, note: str = "") -> dict:
    """scl(d.target) <= ``decomposition_bound(m, d.power)`` for d's m factors.
    Nothing is checked here: a d whose claim is false fails in ``certio.document``."""
    witness = {"power": d.power, "factors": d.factor_texts()}
    bound = decomposition_bound(len(d.factors), d.power)
    return _payload(
        "scl-upper-decomposition", "upper", d.pair, d.target, bound, witness, None, note
    )
