"""Locally minimizing paths through waypoints, for tests only.

`local_geodesic_approximation` tracks a waypoint polyline at rank 2 and
realizes a direction change at an interior waypoint by a detour through a
chain of adjacent out-envelope facets, so that every consecutive triple
of recorded points glues.  No command, script or benchmark of the package
calls it.  `_nudge` halves its step until the detour point is close
enough, with no cap on the rounds, so it is kept out of the package,
whose runs are all bounded.
"""

from __future__ import annotations

from fractions import Fraction

from cvn.candidates import candidate_words
from cvn.envelopes import out_envelope, reference_witness
from cvn.errors import CvnError, ParamOutOfRange, Unsupported
from cvn.geodesics import GeodesicPath, _check_ranks, check_gluing
from cvn.graphs import SimplexPoint, point_from_coords
from cvn.metric import candidate_witnesses, stretch
from cvn.words import ConjClass, class_order
from point_readings import barycenter


class NoFacetChain(CvnError):
    pass


def _sym_excess(p: SimplexPoint, q: SimplexPoint) -> Fraction:
    return stretch(p, q) * stretch(q, p) - 1


def _facet_chain(u: SimplexPoint, start: ConjClass, goal: ConjClass):
    """Candidates of u connecting start to goal so that consecutive
    out-envelopes meet in a hyperplane of the simplex of u."""
    cands = sorted(candidate_words(u.ttype), key=class_order)
    dim = len(u.ttype.edges)
    full = dim - 1

    def touches(g, h):
        poly = out_envelope(u, [g, h], u.ttype)
        return poly.is_feasible() and poly.dim == full - 1

    frontier = [[start]]
    seen = {start}
    while frontier:
        path = frontier.pop(0)
        if path[-1] == goal:
            return path
        for g in cands:
            if g not in seen and touches(path[-1], g):
                seen.add(g)
                frontier.append(path + [g])
    raise NoFacetChain("no chain of adjacent out-envelope facets")


def _nudge(u: SimplexPoint, g1: ConjClass, g2: ConjClass, eps: Fraction):
    """A point near u inside both out-envelopes of g1 and g2."""
    poly = out_envelope(u, [g1, g2], u.ttype)
    bary = barycenter(poly)
    t = Fraction(1, 2)
    while True:
        coords = tuple(
            (1 - t) * a + t * c for a, c in zip(u.lengths, bary)
        )
        cand = point_from_coords(u.ttype, coords)
        if _sym_excess(u, cand) <= eps:
            return cand
        t /= 2


def local_geodesic_approximation(waypoints, eps) -> GeodesicPath:
    """A locally minimizing path tracking the waypoint polyline.

    Direction changes at the interior waypoints are realized by tiny
    detours through chains of adjacent out-envelope facets, so that every
    consecutive triple of recorded points glues.
    """
    eps = Fraction(eps)
    pts = list(waypoints)
    if len(pts) < 2:
        raise ParamOutOfRange("need at least two waypoints")
    _check_ranks(*pts)
    if pts[0].ttype.rank != 2:
        raise Unsupported("local approximation is implemented for rank 2")
    if eps <= 0:
        raise ParamOutOfRange("eps must be positive")
    for p, q in zip(pts, pts[1:]):
        if _sym_excess(p, q) > eps:
            raise ParamOutOfRange("consecutive waypoints too far apart")

    scale = eps
    for _ in range(8):
        out = _approx_once(pts, scale)
        if all(
            check_gluing(p, q, r)
            for p, q, r in zip(out, out[1:], out[2:])
        ):
            witnesses = tuple(
                candidate_witnesses(p, q)
                for p, q in zip(out, out[1:])
            )
            return GeodesicPath(tuple(out), witnesses, tuple(range(len(out))))
        scale /= 8
    raise NoFacetChain("detours do not glue at any tested scale")


def _approx_once(pts, scale):
    out = [pts[0]]
    for idx in range(1, len(pts)):
        nxt = pts[idx]
        prev = out[-2] if len(out) >= 2 else None
        if prev is not None and not check_gluing(prev, out[-1], nxt):
            u = out[-1]
            gamma0 = reference_witness(prev, u)
            gamma1 = reference_witness(u, nxt)
            chain = _facet_chain(u, gamma0, gamma1)
            cur = u
            for g1, g2 in zip(chain, chain[1:]):
                cur = _nudge(cur, g1, g2, scale / (2 * len(chain)))
                out.append(cur)
        out.append(nxt)
    return out
