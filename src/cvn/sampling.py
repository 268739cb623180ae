"""Random points of Outer Space for experiments and property tests.

Points are produced by picking a standard topological type, twisting the
marking by a random automorphism, and drawing random rational edge lengths.
Everything is driven by a caller-supplied random.Random so runs reproduce.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import (
    SimplexPoint,
    apply_outer_automorphism,
    barbell_type,
    resolutions,
    rose_type,
    theta_type,
)
from .words import Word, generator


def random_automorphism(rank: int, rng, steps: int = 4) -> list[Word]:
    """Images of the generators under a random composition of Nielsen moves."""
    images = [generator(i, rank) for i in range(1, rank + 1)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(rank)
        if kind == 0:
            images[i] = images[i].inverse()
        else:
            j = rng.choice([k for k in range(rank) if k != i]) if rank > 1 else i
            if rank == 1:
                continue
            other = images[j] if rng.random() < 0.5 else images[j].inverse()
            new = images[i] * other if kind == 1 else other * images[i]
            if not new.is_trivial():
                images[i] = new
    return images


def random_lengths(n: int, rng) -> tuple[Fraction, ...]:
    nums = [rng.randint(1, 12) for _ in range(n)]
    total = sum(nums)
    return tuple(Fraction(k, total) for k in nums)


def _types(rank: int):
    if rank == 2:
        return (rose_type(2), theta_type(), barbell_type())
    if rank != 3:
        return (rose_type(rank),)
    # the maximal simplices around the rose: its trivalent resolutions
    return resolutions(rose_type(3))


def random_point(rank: int, rng, twist_steps: int = 4) -> SimplexPoint:
    t = rng.choice(_types(rank))
    p = SimplexPoint(t, random_lengths(len(t.edges), rng))
    return apply_outer_automorphism(p, random_automorphism(rank, rng, twist_steps))


def random_pair(rank: int, rng, twist_steps: int = 4):
    return random_point(rank, rng, twist_steps), random_point(rank, rng, twist_steps)
