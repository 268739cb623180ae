"""Readings that only tests take, as they stood on the package's classes:
the barycenter of a polytope's vertices (``Polytope.barycenter``), one
edge's length at a point (``SimplexPoint.length_of``), a half-space's
Fraction coefficients and value (``HalfSpace.coeffs``, ``.value``), an
edge by id and the base vertex of a type (``TopologicalType.edge``,
``.base``), and the ends of a path (``GeodesicPath.start``, ``.end``)."""

from __future__ import annotations

from fractions import Fraction

from cvn.errors import DimensionMismatch, Infeasible


def barycenter(poly) -> tuple[Fraction, ...]:
    vs = poly.vertices
    if not vs:
        raise Infeasible("empty polytope")
    n = len(vs)
    return tuple(sum(v[i] for v in vs) / n for i in range(poly.ambient_dim))


def length_of(p, eid: str) -> Fraction:
    return p.lengths[p.ttype.index(eid)]


def coeffs(h) -> tuple[Fraction, ...]:
    """The coefficients row / den of a half-space as Fractions."""
    return tuple(Fraction(q, h.den) for q in h.row)


def value(h, x) -> Fraction:
    """(row . x) / den: nonnegative exactly when x satisfies h."""
    if len(x) != len(h.row):
        raise DimensionMismatch(f"{len(x)} != {len(h.row)}")
    return Fraction(sum(c * q for c, q in zip(h.row, x)), h.den)


def edge_of(t, eid: str):
    """The edge of t with id eid; KeyError for an unknown id."""
    return t.edges[t.index(eid)]


def base_of(t) -> str:
    """The basepoint of every label computation: t's first vertex."""
    return t.vertices[0]


def path_start(path):
    return path.breakpoints[0]


def path_end(path):
    return path.breakpoints[-1]
