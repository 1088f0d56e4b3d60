"""Which certificates a target gets: the producer behind ``scl-bounds``.

``bounds`` decides, for one target of a group pair, which upper bounds to
build (the identity's empty decomposition, the flip family when a ball
element conjugates the target to its inverse, otherwise the mixed
commutator search) and whether a quasimorphism gives a lower bound or is
refused.  It builds the payloads and checks none of them; the caller hands
them to ``certio.document``.  The command line and the suite may both call
it, and it sits outside the verifier kernel: ``verify`` never runs it.
"""

from __future__ import annotations

from . import certio
from .braids import BraidGroup, index_sum
from .groups import FreeGroup
from .quasimorphisms import Quasimorphism
from .scl import (
    GroupPair,
    MixedCommutatorDecomposition,
    bavard_lower,
    conjugate_flip_decomposition,
    lower_refusal,
    mixed_cl_search,
    upper_from_decomposition,
)


def _flip_search(pair, g, radius: int):
    ctx = pair.ambient
    g_inv = ctx.inv(g)
    for h in ctx.ball(radius):
        if pair.admits_conjugator(h) and ctx.eq(ctx.conjugate(h, g), g_inv):
            return h
    return None


def bounds(pair: GroupPair, target: object, radius: int, cap: int, n_max: int,
           qm: Quasimorphism | None) -> tuple[list[dict], list[str]]:
    """The certificate payloads for target, a member of pair's subgroup, in
    the order ``scl-bounds`` writes them, and the notes on a bound not found
    or refused.

    radius bounds the balls of the flip and commutator searches, cap the
    commutators the search tries and n_max the powers of the flip family;
    qm, when given, is tried for a duality lower bound.  Raises ValueError
    when the flip family up to n_max would hold witnesses longer than
    ``verify`` reads, before the flip search runs.
    """
    ctx = pair.ambient
    certs: list[dict] = []
    notes: list[str] = []

    if ctx.is_identity(target):
        empty = MixedCommutatorDecomposition(pair, target, 1, ())
        certs.append(upper_from_decomposition(empty, note="the identity needs no factors"))
    else:
        # no nontrivial element of a free group is conjugate to its inverse,
        # nor is a braid of nonzero index sum (conjugation keeps the index sum
        # and inversion negates it), so such a target has no flip family and
        # goes straight to the search
        flipper = None
        if not (isinstance(ctx, FreeGroup)
                or (isinstance(ctx, BraidGroup) and index_sum(target) != 0)):
            # checked before the flip search, which may walk a large ball
            if 2 * n_max * len(ctx.text(target)) > certio.WITNESS_TEXT_BUDGET:
                raise ValueError(
                    f"--n-max {n_max} is too large for this target: verify refuses "
                    f"power x target length over {certio.WITNESS_TEXT_BUDGET}"
                )
            flipper = _flip_search(pair, target, radius)
        if flipper is not None:
            note = f"flip decomposition: {ctx.text(flipper)} conjugates the target to its inverse"
            for n in range(1, n_max + 1):
                d = conjugate_flip_decomposition(pair, target, flipper, n)
                certs.append(upper_from_decomposition(d, note=note))
        else:
            found = mixed_cl_search(pair, target, radius=radius, max_factors=cap)
            if found.decomposition is not None:
                certs.append(upper_from_decomposition(found.decomposition, note=found.verdict))
            else:
                notes.append(f"no upper bound: {found.verdict}")

    if qm is not None:
        refusal = lower_refusal(qm, pair)
        if refusal is not None:
            notes.append(f"lower bound refused: {refusal[1]}")
        else:
            certs.append(bavard_lower(target, qm, pair))
    return certs, notes
