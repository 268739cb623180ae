"""Slow twins of the walker's step, for tests only.

`cvn.geodesics._advance` tries the current chart first and embeds the
point in its neighbouring charts only when that chart has no clean step.
`eager_advance` here is the earlier, eager version: it rebuilds the point
from its coordinates, embeds it in every adjacent chart and sorts them
before its first sweep.  It takes the same arguments, so a walk can run
with it in place of `_advance` and be compared step for step.

`cvn.geodesics._moves` lists every improving move from a point as one
ordered stream.  The step functions here are the code it replaced, each
with its own neighbour lookup: `_forward_vertex` (with require_clean, the
least clean vertex; without, the least vertex by (not clean, coords)),
`_ideal_half_step` (the midpoint toward the least improving ideal corner)
and a `_first_step` that sweeps with step functions.  `eager_advance`
uses them, so it shares no step code with the walker it checks.

`cvn.geodesics.general_position` lets the point certify its slice
nonempty and reads membership and the strict constraints off integer
slacks.  `general_position` here runs a feasibility check on each slice
first, then the Fraction `polytope_oracle.contains`, and reads the strict
constraints from `point_readings.value`.
"""

from __future__ import annotations

from functools import partial

import polytope_oracle
from cvn.candidates import edge_counts
from cvn.envelopes import envelope_slice, in_envelope, out_envelope
from cvn.geodesics import (
    PositionCertificate,
    _beats,
    _chart_order,
    _charts_at,
    _collapsible,
    _coords_score,
    _on_segment,
    _vertex_scores,
)
from cvn.graphs import embed_point, point_from_coords
from cvn.metric import candidate_witnesses
from cvn.polytope import Polytope
from cvn.words import class_order
from point_readings import value


def _adjacency(poly: Polytope) -> dict:
    """The skeleton neighbours of each vertex index."""
    adj: dict = {i: [] for i in range(len(poly.vertices))}
    for u, w in poly.skeleton_edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def _near(poly: Polytope, coords, counts, scores, adj):
    """The score of coords and its skeleton neighbours: scores[i] and
    adj[i] when coords is the vertex i of poly, else its own score and
    the ends of every skeleton edge that holds it."""
    vs = poly.vertices
    try:
        i = vs.index(coords)
    except ValueError:
        return _coords_score(counts, coords), [
            j for u, w in poly.skeleton_edges
            if _on_segment(coords, vs[u], vs[w]) for j in (u, w)]
    return scores[i], adj[i]


def _forward_vertex(poly: Polytope, coords, counts, delta,
                    require_clean=False):
    """Best strictly-improving neighbour of coords in the polytope skeleton.

    The walk maximizes n . x, with n the edge counts of the walked class
    in the chart.  Each vertex is scored once, from its integer ray, and
    scores are compared by cross-multiplication; coords is looked up in
    the vertex list once, for its score and its neighbours.

    coords may be a vertex or sit in the relative interior of a skeleton
    edge.  Ideal corners (zero sets that are not forests) are never
    stepped onto.  Among improving neighbours, edges through the interior
    beat edges running inside a boundary face of the simplex, so the walk
    hugs the envelope's own facets; remaining ties break toward the
    lexicographically smallest far endpoint.  With require_clean, refuse
    to answer at all when every route onward walks a boundary face.
    """
    vs = poly.vertices
    scores = _vertex_scores(poly, counts)

    def edge_on_boundary(u, v):
        return any(x == 0 and y == 0 for x, y in zip(u, v))

    standable = {i for i in range(len(vs))
                 if _collapsible(delta, poly.rays[i][0])}
    adj = _adjacency(poly)

    def improving(i):
        return [j for j in adj[i] if j in standable
                and _beats(scores[j], scores[i])]

    def reaches_sink(i):
        seen = {i}
        stack = [i]
        while stack:
            k = stack.pop()
            steps = improving(k)
            if not steps:
                return True  # nothing improves: top of this chart
            for j in steps:
                if j not in seen and not edge_on_boundary(vs[k], vs[j]):
                    seen.add(j)
                    stack.append(j)
        return False

    here, near = _near(poly, coords, counts, scores, adj)
    options = [j for j in near
               if j in standable and _beats(scores[j], here)]
    if not options:
        return None

    def is_clean(j):
        # edges inside a boundary face of the chart do not pin down the
        # envelope of their own endpoints, so prefer neighbours from which
        # the top of the chart is reachable without ever walking one
        return (not edge_on_boundary(coords, vs[j])
                and reaches_sink(j))

    if require_clean:
        options = [j for j in options if is_clean(j)]
        if not options:
            return None
        return min(vs[j] for j in options)
    return vs[min(options, key=lambda j: (not is_clean(j), vs[j]))]


def _ideal_half_step(poly: Polytope, coords, counts, delta):
    """Step halfway toward an improving ideal corner of the polytope.

    A ray can leave every rose face behind: its envelope then runs from
    the current position straight toward a corner whose zero set is not
    a forest.  No vertex of the skeleton is standable there, but every
    interior point of that segment is a genuine point of the chart, so
    the walk samples the midpoint instead of stopping dead.
    """
    vs = poly.vertices
    scores = _vertex_scores(poly, counts)
    here, near = _near(poly, coords, counts, scores, _adjacency(poly))
    options = [vs[j] for j in near if _beats(scores[j], here)
               and not _collapsible(delta, poly.rays[j][0])]
    if not options:
        return None
    target = min(options)
    return tuple((c + t) / 2 for c, t in zip(coords, target))


def _first_step(charts, slice_of, sweeps):
    """The first (chart, coords) that a step function moves to, or None.

    Sweeps are the outer loop; each tries the (chart, coords) pairs in
    their given order and calls step(poly, coords, counts, chart), with
    poly the polytope of slice_of(chart) and counts the edge counts there
    of the slice's class gamma.  A chart whose polytope has no vertex is
    skipped."""
    for step in sweeps:
        for d2, coords in charts:
            sl = slice_of(d2)
            if not sl.polytope.vertices:
                continue
            nxt = step(sl.polytope, coords, edge_counts(d2, sl.gamma), d2)
            if nxt is not None:
                return d2, nxt
    return None


def eager_advance(base, b, delta, coords, here=None):
    """One skeleton-edge step forward, with every adjacent chart embedded
    and sorted up front; here is ignored and rebuilt from coords."""
    near = _charts_at(delta, point_from_coords(delta, coords))
    near.sort(key=lambda c: (embed_point(b, c[0]) is None,
                             -len(c[0].edges), _chart_order(c[0])))
    return _first_step(
        [(delta, coords)] + near, partial(envelope_slice, base, b),
        (partial(_forward_vertex, require_clean=True), _forward_vertex))


def general_position(a, b, via: str = "out"):
    """(ok, PositionCertificate or None) as general_position gives them,
    for trivalent points of one rank and via "out" or "in"."""
    build, p, q = ((out_envelope, a, b) if via == "out"
                   else (in_envelope, b, a))
    x = q.lengths
    for gamma in sorted(candidate_witnesses(a, b), key=class_order):
        poly = build(p, [gamma], q.ttype)
        if poly.is_feasible() and polytope_oracle.contains(
                poly, x, "relative-interior"):
            strict = tuple(
                h.provenance for h in poly.constraints if value(h, x) > 0
            )
            return True, PositionCertificate(gamma, strict)
    return False, None
