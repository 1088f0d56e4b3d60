"""``ProductSearch.reach`` against the full-layer breadth-first search it
replaced: the same move path, or None in the same cases."""

import random

import pytest

from sclkit import scl
from sclkit.braids import BraidGroup, braid
from sclkit.groups import FreeGroup, ProductSearch
from sclkit.scl import (
    alpha_braid,
    braid_pure_pair,
    mixed_cl_search,
    ordinary_pair,
    product_left_pair,
)
from sclkit.specs import parse_group_pair


def full_layer_path(search, target, max_depth):
    """The reference query: store whole layers until the target's layer is
    in ``info`` or ``max_depth`` layers exist, then read its path.  A shared
    reference may hold deeper layers from an earlier query, so a path longer
    than ``max_depth`` counts as None."""
    key = search.ctx.canonical(target)
    while key not in search.info and search.frontier and search.depth < max_depth:
        search.grow(max_depth=search.depth + 1)
    if key in search.info and search.info[key][0] <= max_depth:
        return search.path(key)
    return None


@pytest.fixture
def checked_searches(monkeypatch):
    """Route ``mixed_cl_search`` through a search whose every ``reach`` is
    compared with ``full_layer_path``; returns the paths found, in order.
    One reference search is kept per move list, so its layers are shared."""
    found = []
    references = {}

    class CheckedSearch(ProductSearch):
        def reach(self, target, max_depth):
            got = super().reach(target, max_depth)
            moves_key = tuple(self.ctx.canonical(c) for c in self.moves)
            if moves_key not in references:
                references[moves_key] = ProductSearch(self.ctx, self.moves)
            assert got == full_layer_path(references[moves_key], target, max_depth)
            found.append(got)
            return got

    monkeypatch.setattr(scl, "ProductSearch", CheckedSearch)
    return found


def random_commutator_product(ctx, rng, ball, k):
    out = ctx.identity
    for _ in range(k):
        out = ctx.mul(out, ctx.commutator(rng.choice(ball), rng.choice(ball)))
    return out


def test_reach_matches_full_layers_on_free_group(checked_searches):
    f2 = FreeGroup(2)
    ball = f2.ball(2)
    rng = random.Random(5)
    for k in range(7):
        target = random_commutator_product(f2, rng, ball, k)
        mixed_cl_search(ordinary_pair(f2), target, radius=2, max_factors=3)
    depths = [None if p is None else len(p) for p in checked_searches]
    assert depths == [0, 1, 1, 2, 2, 3, None]


def test_reach_matches_full_layers_on_pure_braids_and_a_product(checked_searches):
    pair = braid_pure_pair()
    ctx = pair.ambient
    alpha = alpha_braid()
    for target, radius, cap in (
        (alpha, 2, 1),
        (alpha, 1, 1),
        (ctx.power(alpha, 2), 2, 2),
        (braid("1,2,2,-1,-2,-2,1,2,2,-1,-2,-2", 3), 2, 2),
        (ctx.power(alpha, 3), 1, 2),
    ):
        mixed_cl_search(pair, target, radius, max_factors=cap)
    product = product_left_pair(FreeGroup(2))
    left = product.ambient.left
    target = (left.parse("abABabAB"), 0)
    mixed_cl_search(product, target, radius=1, max_factors=2)
    depths = [None if p is None else len(p) for p in checked_searches]
    assert depths == [1, None, 2, 2, None, 2]


def test_fragmentation_norm_shared_search_matches_full_layers():
    # moves: the conjugates of s1^2 and s1^-2 by the ball of radius 2,
    # deduplicated by key in first-seen order
    b3 = BraidGroup(3)
    conjugates = {}
    for h in (b3.parse("1,1"), b3.parse("-1,-1")):
        for g in b3.ball(2):
            c = b3.conjugate(g, h)
            conjugates.setdefault(b3.canonical(c), (c, g, h))
    moves = [c for c, _, _ in conjugates.values()]
    pairs = [(g, h) for _, g, h in conjugates.values()]
    search = ProductSearch(b3, moves)
    reference = ProductSearch(b3, moves)
    depths = []
    # depths go up and down, so the state one call leaves is used by the next
    for text in ("1,1,2,2", "", "1,1,2,2,1,1,2,2", "1,1", "1,1,2,2,1,1",
                 "1,1,2,2,1,1,2,2,1,1", "1,1,1,1"):
        f = b3.parse(text)
        path = search.reach(f, 4)
        assert path == full_layer_path(reference, f, 4)
        if text == "1,1,2,2":
            # pinned: the first product found for s1^2 s2^2 is the one kept;
            # the ball comes in discovery order, so its conjugator is 1,2
            assert [[b3.text(g), b3.text(h)] for g, h in (pairs[i] for i in path)] == [
                ["", "1,1"], ["1,2", "1,1"],
            ]
        if path is not None:
            product = b3.identity
            for idx in path:
                product = b3.mul(product, moves[idx])
            assert b3.eq(product, f)
        depths.append(None if path is None else len(path))
    assert depths == [2, 0, 4, 1, 3, None, 2]


def commutator_moves(pair, ambient_radius, subgroup_radius):
    """The commutators [g^, g] of the two balls, deduplicated by key in
    first-seen order."""
    ctx = pair.ambient
    moves = {}
    for ghat in ctx.ball(ambient_radius):
        for g in pair.subgroup_ball(subgroup_radius):
            c = ctx.commutator(ghat, g)
            moves.setdefault(ctx.canonical(c), c)
    return list(moves.values())


def lowest_last_move_differs(reference, target, path):
    """Whether a move below the last one on ``path`` also takes an element
    of the layer before the target's to the target.  That element is then a
    second candidate, placed later in its layer, and a witness ending in
    the lowest such move would differ from ``path``."""
    ctx = reference.ctx
    last_moves = [
        i1 for i1, c in enumerate(reference.moves)
        if reference.info.get(ctx.canonical(ctx.mul(target, ctx.inv(c))), (None,))[0]
        == len(path) - 1
    ]
    return min(last_moves) != path[-1]


@pytest.mark.parametrize(
    "spec, radii, caps",
    [("free:2", (1, 1), (3, 4)), ("braid:3/pure", (1, 1), (3, 4)),
     ("product:free:2,z/left", (1, 1), (3, 4)), ("braid:3/pure", (2, 1), (3,))],
    ids=["free:2", "braid:3/pure", "product:free:2,z/left", "braid:3/pure-radius-2"],
)
def test_reach_matches_full_layers_at_the_last_two_layers(spec, radii, caps):
    pair = parse_group_pair(spec)
    ctx = pair.ambient
    moves = commutator_moves(pair, *radii)
    reference = ProductSearch(ctx, moves)
    rng = random.Random(11)
    outcomes = set()
    for cap in caps:
        for _ in range(60):
            # products of cap - 1, cap and cap + 1 moves: hits before the
            # last layer, in it, and misses
            target = ctx.identity
            for _ in range(rng.choice((cap - 1, cap, cap, cap + 1))):
                target = ctx.mul(target, rng.choice(moves))
            path = ProductSearch(ctx, moves).reach(target, cap)
            assert path == full_layer_path(reference, target, cap)
            if path is None:
                outcomes.add("miss")
            elif len(path) == cap:
                outcomes.add("last layer")
                if lowest_last_move_differs(reference, target, path):
                    outcomes.add("not the lowest last move")
    assert {"miss", "last layer"} <= outcomes
    if radii == (2, 1):
        assert "not the lowest last move" in outcomes


def test_exhaustive_reach_stores_two_layers_less_than_its_cap():
    f2 = FreeGroup(2)
    moves = [f2.parse(t) for t in ("a", "b", "A", "B")]
    for cap, miss, hit, path in ((3, "aaaa", "aab", [0, 0, 1]), (4, "aaaaa", "aabb", [0, 0, 1, 1])):
        search = ProductSearch(f2, moves)
        assert search.reach(f2.parse(miss), cap) is None
        assert search.depth == cap - 2
        assert max(depth for depth, _, _ in search.info.values()) == cap - 2
        # a hit in the last layer is looked up, not stored
        assert search.reach(f2.parse(hit), cap) == path
        assert search.depth == cap - 2
