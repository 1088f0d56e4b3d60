"""Extending an invariant quasimorphism along a section of the quotient map.

Setting: a normal subgroup with integer quotient, a homomorphic section s
of the projection pi, and a homogeneous quasimorphism phi on the subgroup
that is invariant under ambient conjugation.  The transported function
phi'(ghat) = phi(s(pi(ghat))^-1 * ghat) is again a quasimorphism with
defect at most D(phi): the subgroup parts of a product differ from the
product of subgroup parts by an ambient conjugation, which the invariance
hypothesis makes invisible to phi.  Homogenising phi' costs at most
another factor of two, giving D(phi_hat) <= 2 D(phi).

The extension restricts to phi exactly: on subgroup elements the section
contributes nothing and homogenisation fixes the already homogeneous phi.
Off the subgroup, phi_hat is reported as a certified interval
(truncated-limit value with radius D(phi')/n_max), never a bare number.
That interval comes from ``homogenize``, the braid leg's section from
``index_section`` and seeded elements from ``sample``: all live here,
outside the verifier kernel, since only the extension and the suite use them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

from .braids import BraidGroup, BraidWord, index_sum
from .groups import BallValues, CyclicZ, DirectProduct, FreeGroup, GroupContext
from .quasimorphisms import Quasimorphism
from .scl import GroupPair, braid_commutator_pair, lower_refusal, product_left_pair
from .words import Frozen, PreconditionError, StepFailure, _word


# SectionData.check tests the section on the quotient ball of this radius and
# each multiplicativity law on this many sampled pairs
SECTION_CHECK_RADIUS = 8
SECTION_CHECK_SAMPLES = 200


def random_reduced(rng, gen_indices: Iterable[int], length: int) -> tuple[int, ...]:
    """Uniform random reduced letter tuple of the given length over the given
    generators."""
    alphabet = [i for g in gen_indices for i in (g, -g)]
    if not alphabet or length == 0:
        return ()
    # the letters that may follow each letter, in alphabet order: rng.choice
    # sees the lists a per-letter filter of the alphabet would build
    after = {l: [m for m in alphabet if m != -l] for l in alphabet}
    choice = rng.choice
    letter = choice(alphabet)
    out = [letter]
    for _ in range(length - 1):
        letter = choice(after[letter])
        out.append(letter)
    return tuple(out)


def sample(ctx: GroupContext, rng, size: int):
    """Random element of ctx of word-length about ``size``, deterministic for
    a seeded rng, on the free, integer, braid and product contexts; a direct
    product splits ``size`` at a random point between its factors."""
    if isinstance(ctx, FreeGroup):
        return _word(random_reduced(rng, ctx.gen_indices, size))
    if isinstance(ctx, CyclicZ):
        return rng.randint(-size, size)
    if isinstance(ctx, DirectProduct):
        i = rng.randint(0, size)
        return (sample(ctx.left, rng, i), sample(ctx.right, rng, size - i))
    if isinstance(ctx, BraidGroup):
        letters = []
        for _ in range(size):
            idx = rng.randint(1, ctx.n - 1)
            letters.append(idx if rng.random() < 0.5 else -idx)
        return BraidWord(ctx.n, tuple(letters))
    raise TypeError(f"no seeded sampling on {ctx.name}")


class SectionData(Frozen):
    """A homomorphic section of the projection of a pair's ambient group
    onto the integer quotient by its normal subgroup."""

    pair: GroupPair
    project: Callable[[object], int]
    section: Callable[[int], object]
    name: str

    def check(self, rng) -> None:
        """Verify pi o s = id on the quotient ball of radius
        SECTION_CHECK_RADIUS, s(0) = identity, and multiplicativity of both
        maps on SECTION_CHECK_SAMPLES sampled pairs each.  The first
        failure raises StepFailure at "section"."""
        ctx = self.pair.ambient
        radius = SECTION_CHECK_RADIUS
        if not ctx.is_identity(self.section(0)):
            raise StepFailure("section", "s(0) is not the identity")
        for k in range(-radius, radius + 1):
            if self.project(self.section(k)) != k:
                raise StepFailure("section", f"pi(s({k})) != {k}")
        for _ in range(SECTION_CHECK_SAMPLES):
            a = rng.randint(-radius, radius)
            b = rng.randint(-radius, radius)
            if not ctx.eq(self.section(a + b), ctx.mul(self.section(a), self.section(b))):
                raise StepFailure("section", f"s({a}+{b}) != s({a})s({b})")
        for _ in range(SECTION_CHECK_SAMPLES):
            g = sample(ctx, rng, rng.randrange(0, 6))
            h = sample(ctx, rng, rng.randrange(0, 6))
            if self.project(ctx.mul(g, h)) != self.project(g) + self.project(h):
                raise StepFailure(
                    "section", f"pi not additive at ({ctx.text(g)}, {ctx.text(h)})"
                )


def central_z_section() -> SectionData:
    """Section k -> (1, k) of the projection (w, k) -> k on F2 x Z."""
    pair = product_left_pair(FreeGroup(2))
    ctx = pair.ambient
    return SectionData(
        pair=pair,
        project=lambda p: p[1],
        section=lambda k: (ctx.left.identity, k),
        name=f"section(quotient=Z, map=z^k) on {ctx.name}",
    )


def index_section(k: int) -> BraidWord:
    """The section of index_sum on B3 powered by s1: k -> s1^k."""
    return BraidWord(3, (1,) * k if k >= 0 else (-1,) * (-k))


def braid_abelianization_section() -> SectionData:
    """Section k -> s1^k of the index-sum projection on B3; the kernel is
    the commutator subgroup."""
    return SectionData(
        pair=braid_commutator_pair(3),
        project=index_sum,
        section=index_section,
        name="section(quotient=Z, map=s1^k) on braid:3",
    )


class CertifiedValue(Frozen):
    """A rational value together with a certified error radius."""

    __slots__ = ("value", "radius")
    value: Fraction
    radius: Fraction

    def __str__(self) -> str:
        return f"{self.value} ± {self.radius}"


def homogenize(qm: Quasimorphism, g, n_max: int) -> CertifiedValue:
    """Truncated homogenisation qm(g^n)/n with its certified error radius.

    For a quasimorphism with defect D, |qm(g^n)/n - limit| <= D/n.  An already
    homogeneous quasimorphism is evaluated exactly.
    """
    if n_max < 1:
        raise ValueError("truncation order must be positive")
    if qm.homogeneous:
        return CertifiedValue(qm(g), Fraction(0))
    value = Fraction(qm(qm.context.power(g, n_max)), n_max)
    return CertifiedValue(value, Fraction(qm.defect_upper, n_max))


class ExtensionResult(Frozen):
    """The transported quasimorphism, with the base it extends.

    phi_prime is exact everywhere; the homogenised extension is exact on
    the subgroup and an interval elsewhere.
    """

    base: Quasimorphism
    section: SectionData
    phi_prime: Quasimorphism
    n_max: int

    def value(self, ghat) -> CertifiedValue:
        """phi_hat at ghat: exact on the subgroup, interval off it.

        Subgroup values still run through the section transport, never
        through the original phi directly, so a broken section or transport
        cannot hide behind a shortcut.
        """
        if self.section.pair.is_member(ghat):
            return CertifiedValue(self.phi_prime(ghat), Fraction(0))
        return homogenize(self.phi_prime, ghat, self.n_max)


def extend_via_section(qm: Quasimorphism, section: SectionData, n_max: int) -> ExtensionResult:
    """Transport qm along the section and homogenise.

    qm must pass ``scl.lower_refusal`` in the section's mixed pair, which
    makes it invariant under ambient conjugation; its eval must accept
    subgroup elements in their ambient representation.  Every phi_prime
    evaluation first checks that the subgroup part really passes the
    membership test, so an inconsistent section fails loudly.
    """
    refusal = lower_refusal(qm, section.pair)
    if refusal is not None:
        raise ValueError(refusal[1])
    ctx = section.pair.ambient

    def phi_prime_eval(ghat) -> Fraction:
        q = section.section(section.project(ghat))
        bar = ctx.mul(ctx.inv(q), ghat)
        if not section.pair.is_member(bar):
            raise PreconditionError(
                f"section inconsistency: {ctx.text(bar)} failed the membership test"
            )
        return qm(bar)

    phi_prime = Quasimorphism(
        name=f"transport({qm.name})",
        context=ctx,
        eval_fn=phi_prime_eval,
        homogeneous=False,
        defect_upper=qm.defect_upper,
        defect_provenance=(
            f"{qm.defect_provenance}; transported along {section.name}, "
            "defect preserved by ambient invariance"
        ),
        defined_on=None,
    )
    return ExtensionResult(base=qm, section=section, phi_prime=phi_prime, n_max=n_max)


def restriction_check(result: ExtensionResult, elements: Iterable[object]) -> int:
    """phi_hat = phi on subgroup samples, as exact rationals; return the
    number of samples checked.

    phi is the extension's base, evaluated directly; the extension side
    goes through the section transport, so any inconsistency between the
    two paths surfaces as a mismatch.  The first mismatch raises
    StepFailure at "restriction", and so does an empty sample: a vacuous
    pass is no evidence.  A sample outside the subgroup is a ValueError.
    """
    ctx = result.section.pair.ambient
    phi = result.base
    checked = 0
    for g in elements:
        if not result.section.pair.is_member(g):
            raise ValueError(f"sample {ctx.text(g)} is not in the subgroup")
        checked += 1
        expected = phi(g)
        got = result.value(g)
        if got.value != expected or got.radius != 0:
            raise StepFailure(
                "restriction", f"phi_hat({ctx.text(g)}) = {got} but phi gives {expected}"
            )
    if not checked:
        raise StepFailure("restriction", "no samples, a vacuous pass is insufficient evidence")
    return checked


class DefectChainReport(Frozen):
    phi_prime_searched: Fraction
    phi_hat_searched: Fraction
    pairs_checked: int


def defect_chain_check(result: ExtensionResult, radius: int) -> DefectChainReport:
    """Searched defect lower bounds inside the ambient ball.

    phi_prime is exact, so its searched defect must stay within D(phi).
    phi_hat values are intervals; the sound lower bound for a pair's gap
    subtracts all three radii, and must stay within 2 D(phi).  A searched
    value past its bound raises StepFailure at "defect chain", naming it.
    """

    def row(g):
        hat = result.value(g)
        return result.phi_prime(g), hat.value, hat.radius

    table = BallValues(result.section.pair.ambient, radius, row)
    best_prime = 0
    best_hat = 0
    pairs = 0
    for _, _, (pg, vg, rg), (ph, vh, rh), (pgh, vgh, rgh) in table.pairs():
        pairs += 1
        gap_p = abs(pgh - pg - ph)
        if gap_p > best_prime:
            best_prime = gap_p
        gap_h = abs(vgh - vg - vh) - (rg + rh + rgh)
        if gap_h > best_hat:
            best_hat = gap_h
    d = result.base.defect_upper
    phi_prime_searched = Fraction(best_prime, table.scale)
    phi_hat_searched = Fraction(best_hat, table.scale)
    if phi_prime_searched > d:
        raise StepFailure("defect chain", f"phi' searched {phi_prime_searched} > D(phi) = {d}")
    if phi_hat_searched > 2 * d:
        raise StepFailure(
            "defect chain", f"phi_hat searched {phi_hat_searched} > 2 D(phi) = {2 * d}"
        )
    return DefectChainReport(phi_prime_searched, phi_hat_searched, pairs)
