"""The ball helpers that faster code replaced, kept unchanged as oracles.

``sphere_pairs`` enumerates the pairs and ``scaled_ball_values`` holds a
value for every ball element, zero or not, as ``groups.BallValues`` does
sparse and streamed; ``words_of_length`` is the recursive enumerator that
``words.words_of_length`` replaced."""

import math
from typing import Any, Callable, Hashable, Iterable, Iterator


def sphere_pairs(ctx, radius: int) -> Iterable[tuple[Any, list]]:
    """Every pair (g, h) with |g| + |h| <= radius, as (g, sphere of h).

    Pairs come by total length, then by |g|; the caller loops over h in the
    sphere, so per-g work runs once per g.
    """
    spheres = [list(ctx.sphere(k)) for k in range(radius + 1)]
    for total in range(radius + 1):
        for i in range(total + 1):
            for g in spheres[i]:
                yield g, spheres[total - i]


def scaled_ball_values(
    ctx, radius: int, fn: Callable[[Any], Any]
) -> tuple[dict[Hashable, Any], int]:
    """``fn`` once per element of ``ctx.ball(radius)``, keyed by canonical
    form, as integers over one common denominator.

    ``fn`` returns a rational, or a tuple of rationals.  Returns ``(values,
    scale)``: ``scale`` is the lcm of every denominator, and ``values[key]``
    holds each rational times ``scale`` in the same shape.  A product of a
    ``sphere_pairs(ctx, radius)`` pair is a key too, since |gh| <= |g| + |h|.
    The scale is positive, so scaled values compare as the rationals do.
    """
    values: dict[Hashable, Any] = {}
    for g in ctx.ball(radius):
        key = ctx.canonical(g)
        if key not in values:
            values[key] = fn(g)
    denominators = set()
    for row in values.values():
        for v in row if isinstance(row, tuple) else (row,):
            denominators.add(v.denominator)
    scale = math.lcm(*denominators)
    # overwritten in place, and a single value stays unwrapped: a second dict
    # or a tuple per element would raise the peak memory of a large ball
    for key, row in values.items():
        if isinstance(row, tuple):
            values[key] = tuple(v.numerator * (scale // v.denominator) for v in row)
        else:
            values[key] = row.numerator * (scale // row.denominator)
    return values, scale


def words_of_length(gen_indices: Iterable[int], length: int) -> Iterator[tuple[int, ...]]:
    """Yield every reduced letter tuple of exactly the given length over the
    given generators, in a fixed deterministic order."""
    if length == 0:
        yield ()
        return
    alphabet = [i for g in gen_indices for i in (g, -g)]
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for l in alphabet:
            if prefix and prefix[-1] == -l:
                continue
            prefix.append(l)
            yield from rec()
            prefix.pop()

    yield from rec()
