"""Envelopes: where geodesic concatenation through a witness is possible.

A point C lies in Env(A,B) exactly when stretch(A,B) = stretch(A,C) *
stretch(C,B).  Inside a fixed simplex this region is a polytope, cut out by
two families of half-spaces: (star) says the reference witness gamma is
stretched from A at least as much as every candidate of A, and (starstar)
says gamma is stretched into B at least as much as every candidate of the
simplex.  Out- and in-envelopes are the one-sided versions.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, reduce
from operator import mul, or_

from .candidates import edge_counts, enumerate_candidates
from .errors import (
    BudgetExceeded,
    EmptyDirection,
    ParamOutOfRange,
    RankMismatch,
    SelfCheckFailed,
    TrivialClass,
)
from .graphs import (
    SimplexPoint,
    TopologicalType,
    _collapse_keys,
    _face,
    resolutions,
    type_key,
)
from .metric import length_numerator, stretch_report
from .polytope import HalfSpace, Polytope, equality
from .values import Value
from .words import ConjClass, class_order

DEFAULT_BUDGET = 500


def _budget(budget):
    """The work budget: the argument, else DEFAULT_BUDGET.  A budget that
    is not a nonnegative integer raises ParamOutOfRange."""
    if budget is None:
        return DEFAULT_BUDGET
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ParamOutOfRange(f"budget {budget!r} is not an integer")
    if budget < 0:
        raise ParamOutOfRange(f"budget {budget} is negative")
    return budget


def _rows(lg: int, ng, terms, sign: int):
    """The stretch rows against gamma, with L(gamma) = lg and n(gamma) = ng:
    for each (w, L(w), n(w)) in terms, yields w and the integer row
    sign * (L(w) n(gamma) - L(gamma) n(w)).

    With L a point's length numerators and n edge counts in a chart, the
    row is nonnegative at x exactly when gamma's stretch from the point
    into x is at least w's (sign 1), or when gamma's stretch from x into
    the point is at least w's (sign -1)."""
    lg *= sign
    for w, lw, nw in terms:
        lw *= sign
        yield w, tuple(lw * g - lg * x for g, x in zip(ng, nw))


def star_system(a: SimplexPoint, gamma: ConjClass,
                delta: TopologicalType) -> list[HalfSpace]:
    """One half-space per candidate of a: on the nonnegative side, gamma is
    stretched from a into points of delta at least as much as the candidate.

    Over the integers: with L the length numerators of a (denominator d)
    and n the edge counts in delta, candidate w gives the row
    L(w) n(gamma) - L(gamma) n(w) over d.  L(w) sums a's numerators over
    the candidate's own edge counts in a, so it needs no tightening, and
    n(w) counts the candidate's coded loop in delta."""
    if gamma.is_trivial():
        raise TrivialClass("trivial direction")
    nums, d = a.scaled_lengths
    terms = ((c.word, sum(map(mul, nums, c.counts)),
              edge_counts(delta, c.word))
             for c in enumerate_candidates(a.ttype))
    rows = _rows(length_numerator(a, gamma), edge_counts(delta, gamma),
                 terms, 1)
    return [HalfSpace(row, d, ("star", str(w))) for w, row in rows]


def starstar_system(b: SimplexPoint, gamma: ConjClass,
                    delta: TopologicalType) -> list[HalfSpace]:
    """One half-space per candidate of delta: gamma is stretched from points
    of delta into b at least as much as the candidate.

    Candidate w gives the row L(gamma) n(w) - L(w) n(gamma) over the
    denominator of b, with L the length numerators of b and n(w) the
    candidate's own edge counts in delta."""
    if gamma.is_trivial():
        raise TrivialClass("trivial direction")
    d = b.scaled_lengths[1]
    terms = ((c.word, length_numerator(b, c.word), c.counts)
             for c in enumerate_candidates(delta))
    rows = _rows(length_numerator(b, gamma), edge_counts(delta, gamma),
                 terms, -1)
    return [HalfSpace(row, d, ("starstar", str(w))) for w, row in rows]


def _direction(s) -> list[ConjClass]:
    s = sorted(set(s), key=class_order)
    if not s:
        raise EmptyDirection("direction set is empty")
    for g in s:
        if g.is_trivial():
            raise TrivialClass("trivial direction")
    return s


def _one_sided(p: SimplexPoint, s, delta: TopologicalType, system,
               kind: str, sign: int) -> Polytope:
    """The system of p for every class of s, then the rows that make each
    later class's stretch equal to the first class's: the equal-stretch
    rows are the system's rows against the first class, as equalities."""
    s = _direction(s)
    hs = [h for g in s for h in system(p, g, delta)]
    d = p.scaled_lengths[1]
    first = s[0]
    terms = ((g, length_numerator(p, g), edge_counts(delta, g))
             for g in s[1:])
    rows = _rows(length_numerator(p, first), edge_counts(delta, first),
                 terms, sign)
    for g, row in rows:
        hs.extend(equality(row, (kind, str(first), str(g)), d))
    return Polytope(len(delta.edges), hs)


def out_envelope(a: SimplexPoint, s, delta: TopologicalType) -> Polytope:
    """Points of delta reached from a with every class in s a shared witness."""
    return _one_sided(a, s, delta, star_system, "equal-stretch-out", 1)


def in_envelope(b: SimplexPoint, s, delta: TopologicalType) -> Polytope:
    """Points of delta from which every class in s witnesses into b."""
    return _one_sided(b, s, delta, starstar_system, "equal-stretch-in", -1)


def reference_witness(a: SimplexPoint, b: SimplexPoint) -> ConjClass:
    """Deterministic choice of a candidate witness from a to b."""
    cw = stretch_report(a, b).candidate_witnesses
    return min(cw, key=class_order)


class EnvelopeSlice(Value):
    simplex: TopologicalType
    gamma: ConjClass
    polytope: Polytope


# a polytope keeps its vertices alive once asked, so this cache stays
# small: enough for the support, walker and picture of a rank-2 pair
@lru_cache(maxsize=64)
def envelope_slice(a: SimplexPoint, b: SimplexPoint,
                   delta: TopologicalType) -> EnvelopeSlice:
    """The envelope of (a, b) in the simplex of delta, with the reference
    witness gamma that cuts it out: the star system of a, then the
    starstar system of b.  Every witness of (a, b) cuts out the same set,
    so the slice depends on the pair and the simplex alone."""
    if a.ttype.rank != b.ttype.rank or a.ttype.rank != delta.rank:
        raise RankMismatch("mixed ranks")
    gamma = reference_witness(a, b)
    return EnvelopeSlice(delta, gamma, Polytope(
        len(delta.edges),
        star_system(a, gamma, delta) + starstar_system(b, gamma, delta)))


class Support(Value):
    simplices: tuple[TopologicalType, ...]


def support(a: SimplexPoint, b: SimplexPoint, budget=None) -> Support:
    """All simplices meeting Env(a,b), found by flood fill from T(a).

    Each marked type is queued once, and only when its slice is known to
    be nonempty, so the budget bounds how many simplices the fill enters,
    which is the number it finds.  Memoised per (a, b, budget), a missing
    budget read as DEFAULT_BUDGET: repeated calls return one shared,
    immutable Support.  The fill builds the slices of T(a) and of the
    trivalent simplices only; a face's slice is built when the walker or
    the picture asks for it.  The slice memo keeps the last 64 of them,
    with their vertices, for the walker and the picture: all of them at
    rank 2, but a rank-3 fill builds more than a thousand (1,147 from
    the r3a fixture to r3b), so the picture builds those again.
    BudgetExceeded is raised again on every call."""
    return _support(a, b, _budget(budget))


@lru_cache(maxsize=64)
def _support(a: SimplexPoint, b: SimplexPoint, budget: int) -> Support:
    return Support(tuple(t for t, _ in _fill(a, b, budget)))


def _squeeze(z: int, i: int) -> int:
    """The bitmask z with bit i removed: higher bits move down by one."""
    low = (1 << i) - 1
    return z & low | z >> 1 & ~low


def _fill(a: SimplexPoint, b: SimplexPoint, budget: int):
    """The flood fill behind support, lazily: yields (t, slice) for each
    simplex t it enters, in fill order, with slice the EnvelopeSlice the
    fill read for t, or None for a face, before t's neighbours are
    queued, so a caller that stops early queues and keys nothing further.

    Only T(a) is tested for feasibility, by its polytope: a fresh slice
    calls feasible() once, a memoised one reads its known vertices.  a
    lies in that slice, so an empty one raises SelfCheckFailed.  Every
    other simplex is queued from an entered simplex t whose vertex zero
    masks are known: t's slice is a face of each resolution's slice, so
    every resolution is queued; and the slice of the face collapsing
    edge i is slice(t) on x_i = 0, so the face is queued when some vertex
    of t has x_i = 0, and its vertices are exactly those, in the face's
    coordinates.  It is queued with their masks, bit i squeezed out, so
    only T(a) and the resolutions (the trivalent charts) carry a slice:
    a face's zero masks are read off its parent's.  Faces are keyed
    unbuilt (_collapse_keys), and a face is built only when it is
    queued."""
    if not envelope_slice(a, b, a.ttype).polytope.is_feasible():
        raise SelfCheckFailed("support found no envelope point in the "
                              f"chart of a, {[e.id for e in a.ttype.edges]}")
    entered = 0
    queued = {type_key(a.ttype): a.ttype}
    queue = deque([(a.ttype, None)])
    while queue:
        t, masks = queue.popleft()
        if entered == budget:
            raise BudgetExceeded(f"support search entered > {budget} simplices")
        read = None
        if masks is None:
            read = envelope_slice(a, b, t)
            full = (1 << len(t.edges)) - 1
            masks = [v[1] & full for v in read.polytope._vertex_rays]
            if not masks:
                raise SelfCheckFailed("support entered an empty slice in "
                                      f"{[e.id for e in t.edges]}")
        zero = reduce(or_, masks)
        entered += 1
        yield t, read
        for key, entry in _collapse_keys(t, 1).items():
            i = entry[0][0]
            if zero >> i & 1 and key not in queued:
                queued[key] = f = _face(t, key, entry)
                queue.append((f, [_squeeze(z, i) for z in masks
                                  if z >> i & 1]))
        for r in resolutions(t):
            key = type_key(r)
            if key not in queued:
                queued[key] = r
                queue.append((r, None))
