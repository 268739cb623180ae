"""Readings that only tests take, as they stood on the package's classes:
the barycenter of a polytope's vertices (``Polytope.barycenter``) and one
edge's length at a point (``SimplexPoint.length_of``)."""

from __future__ import annotations

from fractions import Fraction

from cvn.errors import Infeasible


def barycenter(poly) -> tuple[Fraction, ...]:
    vs = poly.vertices
    if not vs:
        raise Infeasible("empty polytope")
    n = len(vs)
    return tuple(sum(v[i] for v in vs) / n for i in range(poly.ambient_dim))


def length_of(p, eid: str) -> Fraction:
    return p.lengths[p.ttype.index(eid)]
