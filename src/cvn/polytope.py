"""Exact convex geometry inside a coordinate simplex.

All polytopes live in the simplex {x >= 0, sum x = 1} of some dimension and
are cut out by homogeneous half-spaces c.x >= 0.  So each one is the slice
sum x = 1 of the pointed cone {x >= 0 : c.x >= 0}, and its vertices are the
extreme rays of that cone scaled to sum 1.  One exact routine finds those
rays over the integers by the double-description method, adding the rows
with the most negative entries first.  Vertices, dimension and skeleton
edges come from the rays of the full run and their zero sets, the
dimension with no Fraction at all.  Feasibility stops at
a certificate: the first ray that already satisfies every row still to be
added is a point of the cone, and only a run that ends with no ray left
says the polytope is empty.

Membership is decided on integers too: a point x = nums / d gives each
constraint the integer slack row . nums, which has the sign of the
constraint's value at x, and x is in the relative interior exactly when
every constraint with slack 0 also vanishes on every vertex ray, so
the vertices are needed only when some slack is 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational
from operator import mul

from .errors import DimensionMismatch, Infeasible, ParamOutOfRange
from .values import Value, setfield

Vector = tuple[Fraction, ...]

SIMPLEX_BOUNDARY = "simplex-boundary"


class HalfSpace(Value):
    """The constraint (row . x) / den >= 0, tagged with where it came from.

    The row is integers over one positive denominator, stored in lowest
    terms (gcd(den, *row) == 1), so equal coefficient vectors give equal
    objects with equal hashes.  Builders that know a common denominator
    pass it here and never make a Fraction per coefficient; make() takes
    rationals.
    """

    row: tuple[int, ...]
    den: int
    provenance: tuple

    def __init__(self, row: tuple[int, ...], den: int, provenance: tuple):
        if den <= 0:
            raise ParamOutOfRange(f"denominator {den} is not positive")
        g = math.gcd(den, *row)
        if g != 1:
            row = tuple(q // g for q in row)
            den //= g
        setfield(self, "row", row)
        setfield(self, "den", den)
        setfield(self, "provenance", provenance)

    @staticmethod
    def make(coeffs, provenance, den: int = 1) -> "HalfSpace":
        """The half-space (coeffs . x) / den >= 0 for rational coeffs."""
        coeffs = [c if isinstance(c, Rational) else Fraction(c)
                  for c in coeffs]
        scale = math.lcm(*(c.denominator for c in coeffs))
        return HalfSpace(tuple(c.numerator * (scale // c.denominator)
                               for c in coeffs), den * scale, provenance)

    @property
    def degenerate(self) -> bool:
        """Whether every coefficient is zero, so the constraint always holds."""
        return not any(self.row)


def equality(coeffs, provenance, den: int = 1) -> list[HalfSpace]:
    """The equality (coeffs . x) / den == 0 as a pair of opposite
    half-spaces."""
    plus = HalfSpace.make(coeffs, provenance + ("==", "+"), den)
    minus = HalfSpace.make([-c for c in coeffs], provenance + ("==", "-"), den)
    return [plus, minus]


# ---------------------------------------------------------------------------
# Extreme rays by the double-description method.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _unit_rows(d) -> tuple[tuple[int, ...], ...]:
    """The rows of x_i >= 0, which are also the rays of the cone x >= 0."""
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _integer_rows(halfspaces, d) -> list[tuple[int, ...]]:
    """Live rows divided by their gcd, each once, without the unit rows
    x_i >= 0 that the cone starts from."""
    rows = {}
    for h in halfspaces:
        row = h.row
        g = math.gcd(*row)
        if g == 0:
            continue  # degenerate
        if g != 1:
            row = tuple(q // g for q in row)
        rows[row] = None
    units = _unit_rows(d)
    return [row for row in rows if row not in units]


def _negatives(row) -> int:
    return sum(q < 0 for q in row)


def _adjacent(z, zs) -> bool:
    """Whether two rays whose zero sets meet in z span an edge: no zero
    set in zs other than theirs contains z.  Both of theirs are in zs, so
    this counts the zero sets containing z and stops at the third."""
    tight = 0
    for zr in zs:
        if z & zr == z:
            tight += 1
            if tight == 3:
                return False
    return True


def _extreme_rays(halfspaces, d, witness: bool = False
                  ) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {x >= 0 : c.x >= 0 for each live c}.

    Motzkin's double description with the combinatorial adjacency test
    (Fukuda & Prodon 1996): rows are added one at a time to the cone
    x >= 0, those with the most negative entries first (ties in their
    given order), and a ray on the positive side is combined with one on
    the negative side only when no third ray is tight on every row both
    are tight on.  Rays are coprime nonnegative integer vectors, each
    paired with its zero set as a bitmask: bit i for x_i >= 0, bit d + k
    for the k-th row added.  Returns [] as soon as only the origin is left.

    With witness=True the run stops at the first certificate instead:
    before each row it looks for a ray that is nonnegative on every row
    not yet added, which is a nonzero point of the cone, and returns that
    one ray; a run that adds every row returns its rays as usual.  Only
    rays made by the previous row need the look: an older ray failed some
    later row when it was made, and still does.
    """
    rows = sorted(_integer_rows(halfspaces, d), key=_negatives, reverse=True)
    full = (1 << d) - 1
    rays = [(r, full ^ (1 << i)) for i, r in enumerate(_unit_rows(d))]
    fresh = rays
    for k, row in enumerate(rows):
        if witness:
            ahead = rows[k:]
            for r, z in fresh:
                for c in ahead:
                    if sum(map(mul, c, r)) < 0:
                        break
                else:
                    return [(r, z)]
        bit = 1 << (d + k)
        pos, neg, out = [], [], []
        for r, z in rays:
            s = sum(map(mul, row, r))
            if s > 0:
                pos.append((r, z, s))
                out.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                out.append((r, z | bit))
        zs = [z for _, z in rays]
        fresh = []
        for p, zp, sp in pos:
            for n, zn, sn in neg:
                z = zp & zn
                if z.bit_count() >= d - 2 and _adjacent(z, zs):
                    r = [sp * b - sn * a for a, b in zip(p, n)]
                    g = math.gcd(*r)
                    fresh.append((tuple(q // g for q in r), z | bit))
        rays = out + fresh
        if not rays:
            break
    return rays


def feasible(halfspaces, ambient_dim: int) -> bool:
    """Exact feasibility of {x in simplex : all half-spaces hold}: True as
    soon as the ordered double description holds a ray that satisfies
    every half-space, False only when its full run leaves no ray."""
    halfspaces = tuple(halfspaces)
    for h in halfspaces:
        if len(h.row) != ambient_dim:
            raise DimensionMismatch(
                f"half-space in dim {len(h.row)}, ambient {ambient_dim}"
            )
    return bool(_extreme_rays(halfspaces, ambient_dim, witness=True))


def _integer_rank(rows) -> int:
    """Rank of integer vectors by fraction-free elimination (Bareiss 1968):
    each step cross-multiplies by the pivot and divides exactly by the
    previous pivot, so every entry stays an integer minor of the input."""
    rows = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Polytopes.
# ---------------------------------------------------------------------------


class Polytope:
    """Intersection of half-spaces with the coordinate simplex."""

    def __init__(self, ambient_dim: int, halfspaces):
        self.ambient_dim = ambient_dim
        self.halfspaces = tuple(halfspaces)
        for h in self.halfspaces:
            if len(h.row) != ambient_dim:
                raise DimensionMismatch(
                    f"half-space in dim {len(h.row)}, ambient {ambient_dim}"
                )

    @cached_property
    def constraints(self) -> tuple[HalfSpace, ...]:
        """Non-degenerate half-spaces plus the simplex boundary, deduplicated."""
        d = self.ambient_dim
        out = []
        seen = set()
        for h in self.halfspaces:
            if h.degenerate or (h.row, h.den) in seen:
                continue
            seen.add((h.row, h.den))
            out.append(h)
        for i in range(d):
            unit = tuple(int(j == i) for j in range(d))
            if (unit, 1) not in seen:
                seen.add((unit, 1))
                out.append(HalfSpace(unit, 1, (SIMPLEX_BOUNDARY, i)))
        return tuple(out)

    @cached_property
    def _vertex_rays(self) -> list[tuple[Vector, int, tuple, int]]:
        """Vertices in sorted order, each with the zero set of its ray, the
        coprime integer ray r and its sum s: the vertex is r / s."""
        rays = [(r, z, sum(r))
                for r, z in _extreme_rays(self.halfspaces, self.ambient_dim)]
        # the vertices r / s in lexicographic order are the integer
        # vectors r (m / s) in lexicographic order, m the lcm of the sums
        m = math.lcm(*(s for _, _, s in rays))

        def scaled(ray):
            k = m // ray[2]
            return [q * k for q in ray[0]]

        rays.sort(key=scaled)
        return [(tuple(Fraction(q, s) for q in r), z, r, s)
                for r, z, s in rays]

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The extreme rays of the cone over the polytope, scaled to sum 1."""
        return tuple(v[0] for v in self._vertex_rays)

    @cached_property
    def rays(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per vertex, in the order of vertices, its coprime integer ray and
        the ray's sum: vertices[i] == ray / sum."""
        return tuple((r, s) for _, _, r, s in self._vertex_rays)

    def is_feasible(self) -> bool:
        """Whether the polytope is nonempty: read off the vertices when
        they are already known, else by feasible()."""
        if "_vertex_rays" in self.__dict__:
            return bool(self.vertices)
        return feasible(self.halfspaces, self.ambient_dim)

    @cached_property
    def dim(self) -> int:
        """Dimension of the polytope (-1 when empty): the vertices lie on
        sum x = 1, which misses the origin, so it is the rank of their
        integer rays minus 1."""
        return _integer_rank(r for r, _ in self.rays) - 1

    @cached_property
    def skeleton_edges(self) -> tuple[tuple[int, int], ...]:
        """1-faces as index pairs into the vertex list."""
        vs = self.vertices
        if not vs:
            raise Infeasible("empty polytope has no skeleton")
        zs = [v[1] for v in self._vertex_rays]
        return tuple((i, j)
                     for i, j in itertools.combinations(range(len(vs)), 2)
                     if _adjacent(zs[i] & zs[j], zs))

    def _slacks(self, x) -> list[int] | None:
        """Per constraint, the integer row . nums for x = nums / d over the
        least common denominator d of x's entries; None when x does not
        sum to 1.  Since den > 0 and d > 0, each slack has the sign of
        the constraint's value at x."""
        x = [q if isinstance(q, Rational) else Fraction(q) for q in x]
        if len(x) != self.ambient_dim:
            raise DimensionMismatch(f"point in dim {len(x)}")
        d = math.lcm(*(q.denominator for q in x))
        nums = [q.numerator * (d // q.denominator) for q in x]
        if sum(nums) != d:
            return None
        return [sum(map(mul, h.row, nums)) for h in self.constraints]

    def contains(self, x, mode: str = "closed") -> bool:
        """Membership of x in the polytope ("closed") or in its relative
        interior ("relative-interior"): in the closed polytope when no
        slack is negative, and in its relative interior when, besides,
        every constraint tight at x is tight at every vertex ray.  The
        vertex rays are enumerated only when some slack is 0."""
        if mode not in ("closed", "relative-interior"):
            raise ParamOutOfRange(f"unknown mode {mode!r}")
        slacks = self._slacks(x)
        if slacks is None or min(slacks) < 0:
            return False
        if mode == "closed":
            return True
        tight = [h.row for h, s in zip(self.constraints, slacks) if s == 0]
        return not tight or not any(sum(map(mul, row, r))
                                    for row in tight for r, _ in self.rays)
