"""Exact convex geometry inside a coordinate simplex.

All polytopes live in the simplex {x >= 0, sum x = 1} of some dimension and
are cut out by homogeneous half-spaces c.x >= 0.  So each one is the slice
sum x = 1 of the pointed cone {x >= 0 : c.x >= 0}, and its vertices are the
extreme rays of that cone scaled to sum 1.  One exact routine finds those
rays over the integers by the double-description method: feasibility asks
whether any ray is left, and skeleton edges come from the rays' zero sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, Infeasible

Vector = tuple[Fraction, ...]

SIMPLEX_BOUNDARY = "simplex-boundary"


@dataclass(frozen=True)
class HalfSpace:
    """The constraint coeffs . x >= 0, tagged with where it came from."""

    coeffs: Vector
    provenance: tuple
    degenerate: bool = field(default=False)

    @staticmethod
    def make(coeffs, provenance) -> "HalfSpace":
        coeffs = tuple(Fraction(c) for c in coeffs)
        return HalfSpace(coeffs, provenance, all(c == 0 for c in coeffs))

    def value(self, x) -> Fraction:
        if len(x) != len(self.coeffs):
            raise DimensionMismatch(f"{len(x)} != {len(self.coeffs)}")
        return sum(c * q for c, q in zip(self.coeffs, x))


def equality(coeffs, provenance) -> list[HalfSpace]:
    """An equality constraint as a pair of opposite half-spaces."""
    plus = HalfSpace.make(coeffs, provenance + ("==", "+"))
    minus = HalfSpace.make([-c for c in coeffs], provenance + ("==", "-"))
    return [plus, minus]


# ---------------------------------------------------------------------------
# Extreme rays by the double-description method.
# ---------------------------------------------------------------------------


def _integer_rows(halfspaces, d) -> list[tuple[int, ...]]:
    """Live rows scaled to coprime integers, each once, without the unit
    rows x_i >= 0 that the cone starts from."""
    seen = {tuple(int(i == j) for j in range(d)) for i in range(d)}
    rows = []
    for h in halfspaces:
        if h.degenerate:
            continue
        scale = math.lcm(*(c.denominator for c in h.coeffs))
        row = [c.numerator * (scale // c.denominator) for c in h.coeffs]
        g = math.gcd(*row)
        row = tuple(q // g for q in row)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def _extreme_rays(halfspaces, d) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {x >= 0 : c.x >= 0 for each live c}.

    Motzkin's double description with the combinatorial adjacency test
    (Fukuda & Prodon 1996): rows are added one at a time to the cone
    x >= 0, and a ray on the positive side is combined with one on the
    negative side only when no third ray is tight on every row both are
    tight on.  Rays are coprime nonnegative integer vectors, each paired
    with its zero set as a bitmask: bit i for x_i >= 0, bit d + k for the
    k-th integer row.  Returns [] as soon as only the origin is left.
    """
    full = (1 << d) - 1
    rays = [(tuple(int(i == j) for j in range(d)), full ^ (1 << i))
            for i in range(d)]
    for k, row in enumerate(_integer_rows(halfspaces, d)):
        bit = 1 << (d + k)
        pos, neg, out = [], [], []
        for r, z in rays:
            s = sum(a * b for a, b in zip(row, r))
            if s > 0:
                pos.append((r, z, s))
                out.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                out.append((r, z | bit))
        zs = [z for _, z in rays]
        for p, zp, sp in pos:
            for n, zn, sn in neg:
                z = zp & zn
                if z.bit_count() < d - 2 or any(
                    z & zr == z for zr in zs if zr != zp and zr != zn
                ):
                    continue
                r = [sp * b - sn * a for a, b in zip(p, n)]
                g = math.gcd(*r)
                out.append((tuple(q // g for q in r), z | bit))
        rays = out
        if not rays:
            break
    return rays


def feasible(halfspaces, ambient_dim: int) -> bool:
    """Exact feasibility of {x in simplex : all half-spaces hold}."""
    halfspaces = tuple(halfspaces)
    for h in halfspaces:
        if len(h.coeffs) != ambient_dim:
            raise DimensionMismatch(
                f"half-space in dim {len(h.coeffs)}, ambient {ambient_dim}"
            )
    return bool(_extreme_rays(halfspaces, ambient_dim))


# ---------------------------------------------------------------------------
# Linear algebra helpers.
# ---------------------------------------------------------------------------


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 when empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    rows = [[q - b for q, b in zip(p, base)] for p in pts[1:]]
    rank = 0
    cols = len(base)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [q / p for q in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# Polytopes.
# ---------------------------------------------------------------------------


class Polytope:
    """Intersection of half-spaces with the coordinate simplex."""

    def __init__(self, ambient_dim: int, halfspaces):
        self.ambient_dim = ambient_dim
        self.halfspaces = tuple(halfspaces)
        for h in self.halfspaces:
            if len(h.coeffs) != ambient_dim:
                raise DimensionMismatch(
                    f"half-space in dim {len(h.coeffs)}, ambient {ambient_dim}"
                )

    @cached_property
    def constraints(self) -> tuple[HalfSpace, ...]:
        """Non-degenerate half-spaces plus the simplex boundary, deduplicated."""
        d = self.ambient_dim
        out = []
        seen = set()
        for h in self.halfspaces:
            if h.degenerate or h.coeffs in seen:
                continue
            seen.add(h.coeffs)
            out.append(h)
        for i in range(d):
            co = tuple(Fraction(int(j == i)) for j in range(d))
            if co not in seen:
                seen.add(co)
                out.append(HalfSpace.make(co, (SIMPLEX_BOUNDARY, i)))
        return tuple(out)

    @cached_property
    def _vertex_zero_sets(self) -> list[tuple[Vector, int]]:
        """Vertices in sorted order, each with the zero set of its ray."""
        out = []
        for r, z in _extreme_rays(self.halfspaces, self.ambient_dim):
            s = sum(r)
            out.append((tuple(Fraction(q, s) for q in r), z))
        return sorted(out)

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The extreme rays of the cone over the polytope, scaled to sum 1."""
        return tuple(v for v, _ in self._vertex_zero_sets)

    def is_feasible(self) -> bool:
        return feasible(self.halfspaces, self.ambient_dim)

    @cached_property
    def dim(self) -> int:
        return affine_rank(self.vertices)

    def tight_set(self, x) -> frozenset:
        return frozenset(
            i for i, h in enumerate(self.constraints) if h.value(x) == 0
        )

    @cached_property
    def skeleton_edges(self) -> tuple[tuple[int, int], ...]:
        """1-faces as index pairs into the vertex list."""
        vs = self.vertices
        if not vs:
            raise Infeasible("empty polytope has no skeleton")
        zs = [z for _, z in self._vertex_zero_sets]
        edges = []
        for i, j in itertools.combinations(range(len(vs)), 2):
            common = zs[i] & zs[j]
            if not any(common & zs[k] == common
                       for k in range(len(vs)) if k != i and k != j):
                edges.append((i, j))
        return tuple(edges)

    def contains(self, x, mode: str = "closed") -> bool:
        x = tuple(Fraction(q) for q in x)
        if len(x) != self.ambient_dim:
            raise DimensionMismatch(f"point in dim {len(x)}")
        if sum(x) != 1:
            return False
        if any(h.value(x) < 0 for h in self.constraints):
            return False
        if mode == "closed":
            return True
        if mode != "relative-interior":
            raise ValueError(f"unknown mode {mode!r}")
        vs = self.vertices
        if not vs:
            return False
        for h in self.constraints:
            if h.value(x) == 0 and any(h.value(v) != 0 for v in vs):
                return False
        return True

    def barycenter(self) -> Vector:
        vs = self.vertices
        if not vs:
            raise Infeasible("empty polytope")
        n = len(vs)
        return tuple(sum(v[i] for v in vs) / n for i in range(self.ambient_dim))
