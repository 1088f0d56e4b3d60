"""The acceptance suite: eleven self-contained checks, one per headline fact.

Each item recomputes its claim from scratch with a per-item seeded rng and
returns a one-line detail, or raises StepFailure at its first
counterexample, naming the property that broke.  An item reads nothing but
its rng, so its detail is the same run alone or in the full suite.  Items 3
and 4 check the certificates they build through ``certio.document``; item
11 writes its own small set to disk, verifies each file once with
``certio.verify_file``, the check ``sclkit verify`` runs, and confirms that
corrupted copies fail at the named step.

Items 9 and 10, the two largest samples, each draw two shard seeds from
their rng and run half the sample per shard: shard 0 in this process and
shard 1 in a forked child, at the same time (``run_in_two_shards``).  The
child reports by exit status alone; when it fails, shard 1 runs again in
this process, so its details, steps and JSON do not depend on where the
shards ran, and which inputs a failure names depends on the seed alone.

Code that only the items run lives here, next to the item that runs it, so
the verifier kernel does not carry it: ``alpha_braid`` (items 2-5 and 11),
the swap product and ``power_commutator`` (item 5),
``commutator_identity_xy`` (item 6) and ``cycle_count`` (item 8).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
import time
from collections import deque
from collections.abc import Callable, Hashable
from fractions import Fraction

from . import certio
from .braids import (
    BraidGroup,
    BraidWord,
    braid,
    half_twist,
    index_sum,
    normal_form,
    p3_assemble,
    p3_coordinates,
    pr1,
)
from .extension import (
    braid_abelianization_section,
    central_z_section,
    defect_chain_check,
    extend_via_section,
    homogenize,
    index_section,
    restriction_check,
    sample,
)
from .groups import (
    DirectProduct,
    FreeGroup,
    GroupContext,
    SymmetricGroup,
    perm_identity,
    proj_left,
)
from .norms import FragmentationNorm, norm_axiom_report
from .quasimorphisms import (
    brooks,
    brooks_homogenized,
    count_copies,
    defect_search,
    homogenize_counting_exact,
    invariance_check,
    pullback,
    zero_qm,
)
from .scl import (
    MixedCommutatorDecomposition,
    bavard_lower,
    conjugate_flip_decomposition,
    ordinary_pair,
    pure_ordinary_pair,
    braid_pure_pair,
    upper_from_decomposition,
    verify_decomposition,
)
from .words import (
    Frozen,
    PreconditionError,
    StepFailure,
    invert_letters,
    multiply_letters,
    reduce_letters,
    word,
)


class Item(Frozen):
    key: str
    slug: str
    budget: float
    fn: Callable


class ItemResult(Frozen):
    key: str
    slug: str
    ok: bool
    seconds: float
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} {self.key:>2} {self.slug} ({self.seconds:.2f}s): {self.detail}"


class SuiteReport(Frozen):
    seed: int
    results: list[ItemResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        passed = sum(1 for r in self.results if r.ok)
        out.append(f"{passed}/{len(self.results)} items passed (seed {self.seed})")
        return out

    def as_dict(self) -> dict:
        # wall times stay out of the machine-readable form so that equal
        # configuration and seed give byte-equal serialisations
        return {
            "format": "verify-report/1",
            "seed": self.seed,
            "ok": self.ok,
            "items": [
                {"key": r.key, "slug": r.slug, "ok": r.ok, "detail": r.detail}
                for r in self.results
            ],
        }


# --- item 1: counting values on powers of the basic commutator ----------


def _item_counting(rng):
    f2 = FreeGroup.on("xy")
    w = f2.parse("xyXY")
    wbar = ~w
    t = f2.commutator(f2.parse("x"), f2.parse("y"))
    for n in range(1, 65):
        tn = t**n
        if count_copies(w, tn) != n:
            raise StepFailure("count", f"w occurs {count_copies(w, tn)} times in t^{n}, not {n}")
        if count_copies(wbar, tn) != 0:
            raise StepFailure("count", f"w^-1 occurs in t^{n}")
    exact = homogenize_counting_exact(w, t)
    if exact != 1:
        raise StepFailure("exact homogenisation", f"gives {exact}, expected 1")
    raw = brooks(w, context=f2)
    for n_max in (16, 48):
        cv = homogenize(raw, t, n_max)
        if abs(cv.value - exact) > cv.radius:
            raise StepFailure(
                "truncated homogenisation", f"interval {cv.value}+-{cv.radius} misses {exact}"
            )
    return "counts 1..64 exact; homogenised value 1 by both methods"


# --- item 2: the half twist conjugates alpha to its inverse -------------


def alpha_braid() -> BraidWord:
    """The commutator [s1^2, s2^2] in the 3-strand braid group."""
    ctx = BraidGroup(3)
    return ctx.commutator(braid("1,1", 3), braid("2,2", 3))


def _item_flip(rng):
    ctx = BraidGroup(3)
    alpha = alpha_braid()
    delta = half_twist(3)
    prod = ctx.mul(ctx.mul(ctx.mul(delta, alpha), ctx.inv(delta)), alpha)
    nf, identity = normal_form(prod), normal_form(ctx.identity)
    if nf != identity:
        raise StepFailure("normal form", f"delta alpha delta^-1 alpha has coordinates {nf}, not {identity}")
    if not ctx.eq(ctx.conjugate(delta, alpha), ctx.inv(alpha)):
        raise StepFailure("conjugation", "the half twist does not invert alpha")
    return "normal form certifies delta alpha delta^-1 = alpha^-1"


# --- item 3: the family of mixed upper bounds ----------------------------


def _item_mixed_upper(rng):
    pair = braid_pure_pair()
    alpha = alpha_braid()
    delta = half_twist(3)
    certs = []
    for n in range(1, 33):
        d = conjugate_flip_decomposition(pair, alpha, delta, n)
        cert = upper_from_decomposition(d, note="flip decomposition: the half twist inverts alpha")
        if Fraction(cert["bound"]) != Fraction(1, 2 * n):
            raise StepFailure("bound", f"n={n}: {cert['bound']}, expected 1/{2*n}")
        certs.append(cert)
    certio.document(certs)
    return "alpha^(2n) = [delta, alpha^-n] verified for n <= 32; best bound 1/64"


# --- item 4: the duality lower bound through the free-factor projection --


def _item_duality_lower(rng):
    f2 = FreeGroup.on("xy")
    w = f2.parse("xyXY")
    qm_free = brooks_homogenized(w, context=f2)
    qm = pullback(qm_free, pr1())
    alpha = alpha_braid()

    # the projection kills the centre coordinate, so additivity gaps of the
    # pulled-back map at pure braids equal the gaps of the free-factor map
    # at the projected words; the searched maximum below therefore equals
    # the searched maximum over pure-braid pairs of the same radius
    search = defect_search(qm_free, 8)
    defect = qm_free.defect_upper
    if search.lower > defect:
        raise StepFailure("defect search", f"{search.lower} exceeds the certified bound {defect}")

    for _ in range(50):
        b1 = p3_assemble(sample(f2, rng, rng.randrange(0, 7)), rng.randint(-2, 2))
        b2 = p3_assemble(sample(f2, rng, rng.randrange(0, 7)), rng.randint(-2, 2))
        gap_braid = abs(qm(BraidGroup(3).mul(b1, b2)) - qm(b1) - qm(b2))
        w1, w2 = p3_coordinates(b1).f2_part, p3_coordinates(b2).f2_part
        gap_free = abs(qm_free(w1 * w2) - qm_free(w1) - qm_free(w2))
        if gap_braid != gap_free:
            raise StepFailure("additivity gap", "differs between the braid and free sides")

    invariance_check(
        qm_free, conjugators=f2.ball(2), targets=[w, f2.parse("xy"), f2.parse("xYx")]
    )
    cert = bavard_lower(
        alpha,
        qm,
        pure_ordinary_pair(),
        note="ordinary bound inside the pure subgroup via the free-factor projection",
    )
    bound = Fraction(cert["bound"])
    if bound != Fraction(1, 12) or bound != 1 / (2 * defect) or bound <= 0:
        raise StepFailure("bound", f"{bound}, expected 1/(2*{defect}) = 1/12")
    detail = (
        f"bound 1/12 = 1/(2*{defect}); searched defect {search.lower} <= {defect} "
        f"at radius 8 ({search.pairs_checked} pairs)"
    )
    certio.document([cert])
    return detail


# --- item 5: powers of a commutator collapsing to one commutator ---------


class SwapProduct(GroupContext):
    """Semidirect product (G x G) : Z/2, the swap acting by exchanging the
    two coordinates.  Elements are ((a, b), s) with s in {0, 1}, written (a;b;s).

    This is the smallest exact model of elements with disjoint commuting
    supports: for f = ((x, 1), 0) and g = ((1, 1), 1), the conjugate
    g f^-1 g^-1 = ((1, x^-1), 0) commutes with f, and [f, g] = ((x, x^-1), 0).
    """

    def __init__(self, inner: GroupContext):
        self.inner = inner
        self.name = f"swapproduct:{inner.name}"

    def _act(self, s: int, pair):
        return (pair[1], pair[0]) if s else pair

    def mul(self, a, b):
        (a0, a1), s = a
        (b0, b1), t = b
        c0, c1 = self._act(s, (b0, b1))
        return ((self.inner.mul(a0, c0), self.inner.mul(a1, c1)), (s + t) % 2)

    def inv(self, a):
        (a0, a1), s = a
        i0, i1 = self._act(s, (self.inner.inv(a0), self.inner.inv(a1)))
        return ((i0, i1), s)

    @property
    def identity(self):
        e = self.inner.identity
        return ((e, e), 0)

    def canonical(self, a) -> Hashable:
        (a0, a1), s = a
        return (self.inner.canonical(a0), self.inner.canonical(a1), s)

    def text(self, a) -> str:
        (a0, a1), s = a
        return f"({self.inner.text(a0)};{self.inner.text(a1)};{s})"


def power_commutator(ctx: GroupContext, f: object, g: object, n: int) -> MixedCommutatorDecomposition:
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
    target = ctx.commutator(f, g)
    if n == 0:
        return MixedCommutatorDecomposition(pair, target, 0, ())
    return MixedCommutatorDecomposition(pair, target, n, ((ctx.power(f, n), g),))


def _item_power_commutator(rng):
    # disjoint commuting supports need the coordinate swap; inside a plain
    # product the hypothesis only holds degenerately
    sw = SwapProduct(FreeGroup(2))
    a = FreeGroup(2).parse("a")
    e = FreeGroup(2).identity
    f = ((a, e), 0)
    g = ((e, e), 1)
    for n in range(0, 33):
        verify_decomposition(power_commutator(sw, f, g, n))

    dp = DirectProduct(FreeGroup(2), FreeGroup(2))
    fd = (dp.left.parse("ab"), dp.right.identity)
    gd = (dp.left.identity, dp.right.parse("ba"))
    for n in (1, 5, 32):
        verify_decomposition(power_commutator(dp, fd, gd, n))

    ctx = BraidGroup(3)
    alpha, delta = alpha_braid(), half_twist(3)
    for n in range(1, 33):
        verify_decomposition(power_commutator(ctx, alpha, delta, n))

    f2 = FreeGroup(2)
    rejected = 0
    for pair in (("a", "b"), ("ab", "ba"), ("aab", "abb")):
        try:
            power_commutator(f2, f2.parse(pair[0]), f2.parse(pair[1]), 2)
        except PreconditionError:
            rejected += 1
    if rejected != 3:
        raise StepFailure("precondition", "free-group counterexamples were not all rejected")
    return "[f,g]^n = [f^n,g] exact for n <= 32 in both models; free-group misuse rejected"


# --- item 6: the packing identity ----------------------------------------


def commutator_identity_xy(
    ctx: GroupContext, x: object, y: object, n: int
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
    factors: list[tuple[object, object]] = []
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
    return MixedCommutatorDecomposition(pair, target, 1, tuple(factors))


def _item_packing(rng):
    ctx = FreeGroup(2)
    trials = [(ctx.parse("a"), ctx.parse("b"))]
    while len(trials) < 20:
        x = sample(ctx, rng, rng.randrange(0, 5))
        y = sample(ctx, rng, rng.randrange(0, 5))
        trials.append((x, y))
    for x, y in trials:
        for n in range(0, 9):
            d = commutator_identity_xy(ctx, x, y, n)
            if len(d.factors) != n:
                raise StepFailure("factor count", f"expected {n} factors, got {len(d.factors)}")
            verify_decomposition(d)
    return "(xy)^2n x^-2n y^-2n = n commutators, 20 trials, n <= 8"


# --- item 7: extension along a section, both legs -------------------------


def _item_extension(rng):
    sec = central_z_section()
    left = sec.pair.ambient.left
    phi = pullback(brooks_homogenized(left.parse("abAB"), context=left), proj_left(sec.pair.ambient))
    sec.check(rng)
    res = extend_via_section(phi, sec, n_max=64)
    # samples are drawn as restriction_check consumes them, so neither leg
    # holds its 1000; restriction_check, extend_via_section and
    # defect_chain_check draw nothing from rng, so the draws keep their order
    restriction_check(res, ((sample(left, rng, rng.randrange(0, 11)), 0) for _ in range(1000)))
    chain = defect_chain_check(res, 4)

    bsec = braid_abelianization_section()
    bphi = zero_qm(BraidGroup(3))
    bsec.check(rng)
    bres = extend_via_section(bphi, bsec, n_max=16)
    ctx = BraidGroup(3)
    samples = (sample(ctx, rng, rng.randrange(0, 9)) for _ in range(1000))
    restriction_check(bres, (ctx.mul(b, index_section(-index_sum(b))) for b in samples))
    bchain = defect_chain_check(bres, 4)
    detail = (
        f"both legs: 1000 exact restrictions each; defect chains at radius 4 "
        f"({chain.pairs_checked} and {bchain.pairs_checked} pairs) within bounds"
    )
    return detail


# --- item 8: the fragmentation norm against the transposition count ------


def cycle_count(p: tuple[int, ...]) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(p)
    cycles = 0
    for i in range(len(p)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return cycles


def _item_fragmentation(rng):
    s5 = SymmetricGroup(5)
    t5 = (1, 0, 2, 3, 4)
    norm5 = FragmentationNorm(s5, [t5])

    # independent oracle: plain breadth-first search over multiplication by
    # any transposition (the conjugates of t5), written against raw tuples
    moves = []
    for i in range(5):
        for j in range(i + 1, 5):
            images = list(range(5))
            images[i], images[j] = images[j], images[i]
            moves.append(tuple(images))
    oracle = {perm_identity(5): 0}
    queue = deque([perm_identity(5)])
    while queue:
        g = queue.popleft()
        for m in moves:
            h = tuple(g[m[i]] for i in range(5))
            if h not in oracle:
                oracle[h] = oracle[g] + 1
                queue.append(h)

    for g in norm5.elements:
        res = norm5.value_with_witness(g)
        expected = 5 - cycle_count(g)
        if res.value != expected or oracle[g] != expected:
            raise StepFailure(
                "norm value",
                f"at {s5.text(g)}: module {res.value}, oracle {oracle[g]}, formula {expected}",
            )

    s4 = SymmetricGroup(4)
    norm4 = FragmentationNorm(s4, [(1, 0, 2, 3)])
    axioms = norm_axiom_report(norm4)
    detail = (
        f"120 values match formula and oracle; axioms exhaustive on "
        f"{axioms.elements_checked} elements / {axioms.pairs_checked} pairs"
    )
    return detail


# --- two shards of one sample: items 9 and 10 -----------------------------


# fixed, so that the draws do not depend on the machine
SHARDS = 2

# signal.SIGKILL on every system with os.fork; importing signal would cost
# every command about a millisecond
_SIGKILL = 9


def shard_rngs(rng: random.Random) -> list[random.Random]:
    """One generator per shard, seeded by draws from the item's rng."""
    return [random.Random(rng.getrandbits(64)) for _ in range(SHARDS)]


def run_in_two_shards(shard: Callable[[random.Random], None], rng: random.Random) -> None:
    """Run ``shard`` on each of ``shard_rngs(rng)``: shard 0 here, shard 1 in a
    child forked for it, so that the two run at once.

    The child reports by its exit status alone.  If it fails, shard 1 runs
    again here: a shard reads nothing but its rng, so the rerun raises the
    child's ``StepFailure`` or crash in this process, as ``run_item`` reads
    any other; a failure the rerun does not repeat raises ``RuntimeError``
    naming the child's exit code.  Shard 0's failure wins when both fail;
    it kills the child.  The child is reaped before this returns, and it
    always leaves by ``os._exit``, so no ``atexit`` handler runs in it and
    no stdout buffer it inherited is flushed twice.  Without ``os.fork``, or
    while the process runs other threads, the shards run here in turn.
    """
    first, second = shard_rngs(rng)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        shard(first)
        shard(second)
        return
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            shard(second)
            code = 0
        finally:
            os._exit(code)
    try:
        shard(first)
    except BaseException:
        os.kill(pid, _SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        # the child drew from its copy of second, so this one is still fresh
        shard(second)
        raise RuntimeError(f"shard 1 ended with exit code {os.waitstatus_to_exitcode(status)}")


# --- item 9: the splitting of pure 3-strand braids ------------------------


def _splitting_shard(rng):
    ctx = BraidGroup(3)
    xy = FreeGroup.on("xy")
    for _ in range(1000 // SHARDS):
        w = sample(xy, rng, rng.randrange(0, 41))
        k = rng.randint(-5, 5)
        co = p3_coordinates(p3_assemble(w, k))
        if co.f2_part != w or co.center_exponent != k:
            raise StepFailure("round trip", f"fails at ({w}, {k})")
    hom = pr1()
    for _ in range(1000 // SHARDS):
        b1 = p3_assemble(sample(xy, rng, rng.randrange(0, 13)), rng.randint(-3, 3))
        b2 = p3_assemble(sample(xy, rng, rng.randrange(0, 13)), rng.randint(-3, 3))
        if hom(ctx.mul(b1, b2)) != hom(b1) * hom(b2):
            raise StepFailure("multiplicativity", "the projection is not multiplicative")


def _item_splitting(rng):
    run_in_two_shards(_splitting_shard, rng)
    return "1000 exact round trips (|w| <= 40, |k| <= 5); 1000 multiplicative pairs"


# --- item 10: word algebra properties -------------------------------------


_ALGEBRA_GENS = (1, 2, 3, -1, -2, -3)


def _random_raw(getrandbits) -> tuple[int, ...]:
    """An unreduced word over ``_ALGEBRA_GENS`` of 0..8 letters, drawn bit for
    bit as ``tuple(rng.choice(gens) for _ in range(rng.randrange(0, 9)))``
    draws it from ``getrandbits = rng.getrandbits``.

    CPython's ``randrange(0, 9)`` and ``choice`` over six generators reject
    ``getrandbits(4) >= 9`` and ``getrandbits(3) >= 6``; the same loops
    written out cost a third as much.
    """
    gens = _ALGEBRA_GENS
    n = getrandbits(4)
    while n >= 9:
        n = getrandbits(4)
    out = []
    for _ in range(n):
        r = getrandbits(3)
        while r >= 6:
            r = getrandbits(3)
        out.append(gens[r])
    return tuple(out)


def _word_algebra_shard(rng):
    # the letter kernels that Word.from_raw, * and ~ wrap, called directly
    bits = rng.getrandbits
    mul, inv = multiply_letters, invert_letters
    for _ in range(100_000 // SHARDS):
        ra, rb, rc = _random_raw(bits), _random_raw(bits), _random_raw(bits)
        u = reduce_letters(ra)
        v = reduce_letters(rb)
        t = reduce_letters(rc)
        if mul(mul(u, v), t) != mul(u, mul(v, t)):
            raise StepFailure("associativity", f"fails at {ra} {rb} {rc}")
        if mul(u, inv(u)) != ():
            raise StepFailure("inverse", f"fails at {ra}")
        # v is rb reduced once already
        if reduce_letters(v) != v:
            raise StepFailure("idempotent reduction", f"fails at {rb}")


def _item_word_algebra(rng):
    run_in_two_shards(_word_algebra_shard, rng)
    return "100000 random triples: associativity, inverses, idempotent reduction"


# --- item 11: certificate file integrity ----------------------------------


def standalone_certificates() -> list:
    """What item 11 checks: a small flip family plus one lower bound."""
    pair = braid_pure_pair()
    alpha = alpha_braid()
    delta = half_twist(3)
    certs = []
    for n in (1, 2, 4):
        d = conjugate_flip_decomposition(pair, alpha, delta, n)
        certs.append(upper_from_decomposition(d))
    qm = pullback(brooks_homogenized(word("xyXY")), pr1())
    certs.append(bavard_lower(alpha, qm, pure_ordinary_pair()))
    return certs


# (kind, field path, value, step): item 11 breaks the first certificate of
# the kind at the path and expects verify to fail at the step
CORRUPTIONS = (
    ("scl-upper-decomposition", ("bound",), "1/1000", "bound arithmetic"),
    ("scl-upper-decomposition", ("witness", "factors", 0, 1), "1", "membership of factor 0"),
    ("scl-upper-decomposition", ("witness", "factors", 0, 0), "1,2", "product equality"),
    ("scl-lower-bavard", ("witness", "value"), "2", "qm value"),
)


def _item_certificates(rng):
    def verify(path):
        """``certio.verify_file``, the check ``sclkit verify`` runs: whether
        the file verifies, and the step it names, the schema error or the
        first failed check's."""
        report = certio.verify_file(path)
        failed = (c.failed_step for c in report.checks if not c.ok)
        return report.ok, report.schema_error or next(failed, None)

    certs = standalone_certificates()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "certificates.json")
        doc = certio.document(certs)
        certio.write_text_atomic(certio.dumps(doc), path)
        ok, step = verify(path)
        if not ok:
            raise StepFailure("file verification", f"a fresh file fails at {step!r}")

        kinds = [it["kind"] for it in doc["items"]]
        rows = [row for row in CORRUPTIONS if row[0] in kinds]
        for kind, field, value, expected_step in rows:
            # a deep copy of plain JSON that keeps copy off every command's imports
            bad = json.loads(json.dumps(doc))
            node = bad["items"][kinds.index(kind)]
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = value
            badpath = os.path.join(tmp, "bad.json")
            certio.write_text_atomic(certio.dumps(bad), badpath)
            ok, got = verify(badpath)
            if ok:
                raise StepFailure("corruption", f"a certificate broken at {expected_step} verifies")
            if expected_step not in (got or ""):
                raise StepFailure("corruption", f"expected {expected_step!r}, got {got!r}")

        empty = os.path.join(tmp, "empty.json")
        certio.write_text_atomic("", empty)
        ok, step = verify(empty)
        if ok or "schema" not in (step or ""):
            raise StepFailure("empty file", f"no schema error, got {step!r}")

    return f"{len(certs)} certificates re-verified; {len(rows)} corruptions + empty file all caught"


ITEMS: tuple[Item, ...] = (
    Item("1", "counting-values", 1.0, _item_counting),
    Item("2", "flip-identity", 1.0, _item_flip),
    Item("3", "mixed-upper-family", 10.0, _item_mixed_upper),
    Item("4", "duality-lower", 60.0, _item_duality_lower),
    Item("5", "power-commutator", 5.0, _item_power_commutator),
    Item("6", "commutator-packing", 30.0, _item_packing),
    Item("7", "section-extension", 120.0, _item_extension),
    Item("8", "fragmentation-norm", 30.0, _item_fragmentation),
    Item("9", "pure-braid-splitting", 30.0, _item_splitting),
    Item("10", "word-algebra", 10.0, _item_word_algebra),
    Item("11", "certificate-integrity", 10.0, _item_certificates),
)

DEFAULT_SEED = 7


def find_item(key: str) -> Item:
    wanted = key.strip().lower()
    for item in ITEMS:
        if wanted in (item.key, item.slug):
            return item
    names = ", ".join(f"{i.key} ({i.slug})" for i in ITEMS)
    raise ValueError(f"unknown suite item {key!r}; available: {names}")


def run_item(item: Item, seed: int) -> ItemResult:
    rng = random.Random(seed * 1009 + int(item.key))
    start = time.monotonic()
    try:
        detail = item.fn(rng)
        ok = True
    except StepFailure as failure:
        ok, detail = False, str(failure)
    except Exception as exc:  # a crash is a failed item, not a crashed suite
        ok, detail = False, f"crashed: {type(exc).__name__}: {exc}"
    seconds = time.monotonic() - start
    return ItemResult(item.key, item.slug, ok, seconds, detail)


def run_suite(seed: int = DEFAULT_SEED, only: str | None = None) -> SuiteReport:
    selected = ITEMS if only is None else (find_item(only),)
    return SuiteReport(seed, [run_item(item, seed) for item in selected])
