"""The dense ball helpers that ``groups.BallValues`` replaced, kept unchanged
as its oracle: ``sphere_pairs`` enumerates the pairs and
``scaled_ball_values`` holds a value for every ball element, zero or not."""

import math
from typing import Any, Callable, Hashable, Iterable


def sphere_pairs(ctx, radius: int) -> Iterable[tuple[Any, list]]:
    """Every pair (g, h) with |g| + |h| <= radius, as (g, sphere of h).

    Pairs come by total length, then by |g|; the caller loops over h in the
    sphere, so per-g work runs once per g.
    """
    spheres = [ctx.sphere(k) for k in range(radius + 1)]
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
