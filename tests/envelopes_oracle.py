"""Slow twins of the envelope half-space builders, for tests only.

`cvn.envelopes` builds every star, starstar and equal-stretch row over the
integers: length numerators times edge counts, over the point's one common
denominator.  The builders here are the earlier, direct transcription of
the inequalities, one `Fraction` coefficient at a time from `conj_length`,
kept verbatim so the integer rows can be checked against them.  Their
`conj_length` is local too: it adds the point's `Fraction` edge lengths
along the loop, so it shares no arithmetic with `metric.length_numerator`.

`fill` is the support flood fill as it was before faces read their
vertex zero masks off their parents: it builds every entered simplex's
own slice, faces included, and reads each zero set from that slice.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import reduce
from operator import or_

from cvn.candidates import edge_counts, enumerate_candidates
from cvn.envelopes import _direction, envelope_slice
from cvn.errors import BudgetExceeded, SelfCheckFailed, TrivialClass
from cvn.graphs import (
    SimplexPoint,
    TopologicalType,
    _collapse_keys,
    faces,
    resolutions,
    tighten,
    type_key,
)
from cvn.polytope import HalfSpace, Polytope, equality
from cvn.words import ConjClass
from point_readings import length_of


def conj_length(p: SimplexPoint, gamma: ConjClass) -> Fraction:
    """Length of the immersed loop of gamma in p, edge length by edge length."""
    if gamma.is_trivial():
        raise TrivialClass("trivial class has zero length")
    return sum((length_of(p, eid) for eid, _ in tighten(p.ttype, gamma)),
               Fraction(0))


def star_system(a: SimplexPoint, gamma: ConjClass,
                delta: TopologicalType) -> list[HalfSpace]:
    """One half-space per candidate of a: on the nonnegative side, gamma is
    stretched from a into points of delta at least as much as the candidate."""
    if gamma.is_trivial():
        raise TrivialClass("trivial direction")
    lg = conj_length(a, gamma)
    ng = edge_counts(delta, gamma)
    out = []
    for c in enumerate_candidates(a.ttype):
        lw = conj_length(a, c.word)
        nw = edge_counts(delta, c.word)
        coeffs = [lw * g - lg * w for g, w in zip(ng, nw)]
        out.append(HalfSpace.make(coeffs, ("star", str(c.word))))
    return out


def starstar_system(b: SimplexPoint, gamma: ConjClass,
                    delta: TopologicalType) -> list[HalfSpace]:
    """One half-space per candidate of delta: gamma is stretched from points
    of delta into b at least as much as the candidate."""
    if gamma.is_trivial():
        raise TrivialClass("trivial direction")
    lg = conj_length(b, gamma)
    ng = edge_counts(delta, gamma)
    out = []
    for c in enumerate_candidates(delta):
        ld = conj_length(b, c.word)
        nd = edge_counts(delta, c.word)
        coeffs = [lg * d - ld * g for d, g in zip(nd, ng)]
        out.append(HalfSpace.make(coeffs, ("starstar", str(c.word))))
    return out


def out_envelope(a: SimplexPoint, s, delta: TopologicalType) -> Polytope:
    """Points of delta reached from a with every class in s a shared witness."""
    s = _direction(s)
    hs = []
    for g in s:
        hs.extend(star_system(a, g, delta))
    first = s[0]
    lg = conj_length(a, first)
    ng = edge_counts(delta, first)
    for g in s[1:]:
        lw = conj_length(a, g)
        nw = edge_counts(delta, g)
        coeffs = [lw * x - lg * y for x, y in zip(ng, nw)]
        hs.extend(equality(coeffs, ("equal-stretch-out", str(first), str(g))))
    return Polytope(len(delta.edges), hs)


def in_envelope(b: SimplexPoint, s, delta: TopologicalType) -> Polytope:
    """Points of delta from which every class in s witnesses into b."""
    s = _direction(s)
    hs = []
    for g in s:
        hs.extend(starstar_system(b, g, delta))
    first = s[0]
    lg = conj_length(b, first)
    ng = edge_counts(delta, first)
    for g in s[1:]:
        lw = conj_length(b, g)
        nw = edge_counts(delta, g)
        # stretch into b equal: l_b(first)/l_C(first) = l_b(g)/l_C(g)
        coeffs = [lg * x - lw * y for x, y in zip(nw, ng)]
        hs.extend(equality(coeffs, ("equal-stretch-in", str(first), str(g))))
    return Polytope(len(delta.edges), hs)


def fill(a: SimplexPoint, b: SimplexPoint, budget: int):
    """The flood fill from T(a), yielding (t, slice) per entered simplex
    in fill order, with slice t's own EnvelopeSlice, which is built for
    every t; the faces queued are read off its vertex zero masks.  a
    lies in the slice of T(a), so an empty one raises SelfCheckFailed."""
    if not envelope_slice(a, b, a.ttype).polytope.is_feasible():
        raise SelfCheckFailed("support found no envelope point in the "
                              f"chart of a, {[e.id for e in a.ttype.edges]}")
    entered = 0
    queued: dict = {}
    queue: deque = deque()

    def enqueue(t):  # each marked type once
        key = type_key(t)
        if key not in queued:
            queued[key] = t
            queue.append(t)

    enqueue(a.ttype)
    while queue:
        t = queue.popleft()
        if entered == budget:
            raise BudgetExceeded(f"support search entered > {budget} simplices")
        own = envelope_slice(a, b, t)
        zs = [v[1] for v in own.polytope._vertex_rays]
        if not zs:
            raise SelfCheckFailed(
                f"support entered an empty slice in {[e.id for e in t.edges]}")
        zero = reduce(or_, zs) & (1 << len(t.edges)) - 1
        entered += 1
        yield t, own
        for (sub, _), f in zip(_collapse_keys(t, 1).values(), faces(t)):
            if zero >> sub[0] & 1:
                enqueue(f)
        for r in resolutions(t):
            enqueue(r)
