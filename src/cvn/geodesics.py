"""Geodesic predicates and constructions.

Multiplicativity of stretch factors characterizes intermediate points, so
gluing tests are exact rational identities.  The central construction walks
edges of envelope polytopes: the walk from A maximizes the length of the
reference witness (a linear functional whose unique maximum over the
envelope is B), restarting a new phase whenever a fresh candidate of the
current simplex becomes maximally stretched into B.  Every step of the
walker and of the ray audit is the first move of one stream, `_moves`
(CLEAN, then VERTEX, then IDEAL moves from a point of a chart), whose kind
a sweep of `_first_step` allows.  At rank 2,
consecutive envelope edges within a phase are rigid, so the output is a
concatenation of uniquely-geodesic segments; acceptance criterion 06
checks every segment.  The walker also runs at rank 3, but there its
segments are not checked rigid, and some are not (ROADMAP item 1).
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from math import prod
from operator import mul

from .candidates import candidate_words, edge_counts
from .envelopes import (
    EnvelopeSlice,
    _budget,
    _direction,
    _fill,
    envelope_slice,
    in_envelope,
    out_envelope,
)
from .errors import (
    BudgetExceeded,
    NotAGeodesic,
    NotMaximalSimplex,
    ParamOutOfRange,
    RankMismatch,
    Unsupported,
    WalkStuck,
)
from .graphs import (
    SimplexPoint,
    TopologicalType,
    _union_find,
    adjacent_simplices,
    embed_point,
    point_from_coords,
)
from .metric import candidate_witnesses, is_witness, same_point, stretch
from .polytope import Polytope
from .values import Value, setfield
from .words import ConjClass, _check_count, class_order


def _check_ranks(*points):
    ranks = {p.ttype.rank for p in points}
    if len(ranks) != 1:
        raise RankMismatch(f"mixed ranks {sorted(ranks)}")


def on_geodesic(a: SimplexPoint, c: SimplexPoint, b: SimplexPoint) -> bool:
    """Whether c lies on some geodesic from a to b (exact multiplicativity)."""
    _check_ranks(a, c, b)
    return stretch(a, b) == stretch(a, c) * stretch(c, b)


def check_gluing(a: SimplexPoint, c: SimplexPoint, b: SimplexPoint) -> frozenset:
    """Candidate-generated classes witnessing both a->c and c->b.

    Nonempty exactly when c lies on a geodesic from a to b: any witness of
    the whole realizes both legs, and some candidate of a always witnesses.
    """
    _check_ranks(a, c, b)
    pool = set(candidate_words(a.ttype)) | set(candidate_words(c.ttype))
    return frozenset(
        g for g in pool if is_witness(g, a, c) and is_witness(g, c, b)
    )


class GeodesicPath(Value):
    """A path of breakpoints.  target, when set, is the end point as the
    caller gave it: the same point of CV_n as the last breakpoint, which
    the walk builds in its own chart and which need not equal the
    caller's object, so memos keyed on the caller's point are read
    through target.  It takes no part in equality, hash or repr, so it
    is not among the annotated fields."""

    breakpoints: tuple[SimplexPoint, ...]
    segment_witnesses: tuple[frozenset, ...]
    rigid_segments: tuple[int, ...]

    def __init__(self, breakpoints: tuple[SimplexPoint, ...],
                 segment_witnesses: tuple[frozenset, ...],
                 rigid_segments: tuple[int, ...],
                 target: SimplexPoint | None = None):
        Value.__init__(self, breakpoints, segment_witnesses, rigid_segments)
        setfield(self, "target", target)


def _chart_order(t: TopologicalType):
    """The order in which the walker tries charts; not an identity of
    marked types (see graphs.type_key for that)."""
    return (
        len(t.edges),
        tuple(sorted(str(e.label) for e in t.edges)),
        tuple(sorted(e.id for e in t.edges)),
    )


def _vertex_scores(poly: Polytope, counts) -> list[tuple[int, int]]:
    """Per vertex of poly, the length n . v of the walked class as the
    integer pair (n . r, s) from the vertex's ray r over its sum s."""
    return [(sum(map(mul, counts, r)), s) for r, s in poly.rays]


def _coords_score(counts, coords) -> tuple[int, int]:
    """The score n . x of a point as (numerator, denominator)."""
    q = sum(map(mul, counts, coords))
    return q.numerator, q.denominator


def _beats(p, q) -> bool:
    """Whether score p = (n, s) is larger than score q, with positive
    denominators: by cross-multiplication."""
    return p[0] * q[1] > q[0] * p[1]


def _collapsible(delta: TopologicalType, coords) -> bool:
    """Whether the zero set of coords is a collapsible forest, so the
    vertex is an actual point of the space rather than an ideal corner:
    the union-find of collapse_forest, which rejects loops and cycles."""
    zero = [i for i, c in enumerate(coords) if c == 0]
    return _union_find(delta, zero)[1] is None


CLEAN, VERTEX, IDEAL = "clean", "vertex", "ideal"


def _moves(poly: Polytope, coords, counts, delta):
    """The strictly improving moves from coords in the skeleton of poly,
    best first, as (kind, target).

    The walk maximizes n . x, with n the edge counts of the walked class
    in the chart.  Each vertex is scored once, from its integer ray, and
    scores are compared by cross-multiplication.  coords may be a vertex,
    looked up once for its score and its neighbours, or sit in the
    relative interior of a skeleton edge, whose ends are its neighbours.
    The kinds come in this order, each in lexicographic order of the
    vertex it heads for:

    - CLEAN: a standable vertex (its zero set is a forest, so it is an
      actual point of the space) along an edge off every boundary face,
      from which the top of the chart is reachable without walking a
      boundary edge.  Edges inside a boundary face do not pin down the
      envelope of their own endpoints, so these are the rigid steps, and
      the walk hugs the envelope's own facets.  Each is checked only when
      the stream reaches it.
    - VERTEX: the other standable vertices.
    - IDEAL: the midpoint toward a corner whose zero set is not a forest.
      A ray can leave every rose face behind: its envelope then runs from
      coords straight toward such a corner, and every interior point of
      that segment is a genuine point of the chart.
    """
    vs = poly.vertices
    scores = _vertex_scores(poly, counts)
    standable = [_collapsible(delta, r) for r, _ in poly.rays]
    adj: list = [[] for _ in vs]
    for u, w in poly.skeleton_edges:
        adj[u].append(w)
        adj[w].append(u)
    try:
        i = vs.index(coords)
    except ValueError:
        here = _coords_score(counts, coords)
        near = {j for u, w in poly.skeleton_edges
                if _on_segment(coords, vs[u], vs[w]) for j in (u, w)}
    else:
        here, near = scores[i], set(adj[i])
    up = sorted((j for j in near if _beats(scores[j], here)),
                key=vs.__getitem__)

    def on_boundary(u, v):
        return any(x == 0 and y == 0 for x, y in zip(u, v))

    def reaches_sink(i):
        seen = {i}
        stack = [i]
        while stack:
            k = stack.pop()
            steps = [j for j in adj[k]
                     if standable[j] and _beats(scores[j], scores[k])]
            if not steps:
                return True  # nothing improves: top of this chart
            for j in steps:
                if j not in seen and not on_boundary(vs[k], vs[j]):
                    seen.add(j)
                    stack.append(j)
        return False

    rest = []
    for j in up:
        if not standable[j]:
            continue
        if not on_boundary(coords, vs[j]) and reaches_sink(j):
            yield CLEAN, vs[j]
        else:
            rest.append(vs[j])
    for v in rest:
        yield VERTEX, v
    for j in up:
        if not standable[j]:
            yield IDEAL, tuple((c + t) / 2 for c, t in zip(coords, vs[j]))


def _on_segment(x, lo, hi) -> bool:
    diffs = [h - l for h, l in zip(hi, lo)]
    t = None
    for xi, li, d in zip(x, lo, diffs):
        if d == 0:
            if xi != li:
                return False
        else:
            ti = (xi - li) / d
            if t is None:
                t = ti
            elif ti != t:
                return False
    return t is not None and 0 <= t <= 1


def _charts_at(delta: TopologicalType, here: SimplexPoint):
    """The charts next to the point here of delta's chart, each with the
    point's coordinates there: the charts adjacent to delta and, when the
    point sits on a face, those adjacent to the face."""
    charts = list(adjacent_simplices(delta))
    if len(here.ttype.edges) < len(delta.edges):
        charts += adjacent_simplices(here.ttype)
    embedded = ((d2, embed_point(here, d2)) for d2 in charts)
    return [(d2, emb) for d2, emb in embedded if emb is not None]


def _first_step(charts, slice_of, sweeps):
    """The first (chart, target) of an allowed move, or None.

    Each sweep is a set of allowed move kinds (see _moves).  Sweeps are
    the outer loop; each tries the (chart, coords) pairs in their given
    order and takes the first move of _moves(poly, coords, counts, chart)
    whose kind it allows, with poly the polytope of slice_of(chart) and
    counts the edge counts there of the slice's walked class gamma.  A
    chart whose polytope has no vertex is skipped."""
    for kinds in sweeps:
        for d2, coords in charts:
            sl = slice_of(d2)
            if not sl.polytope.vertices:
                continue
            for kind, target in _moves(sl.polytope, coords,
                                       edge_counts(d2, sl.gamma), d2):
                if kind in kinds:
                    return d2, target
    return None


def piecewise_rigid_geodesic(a: SimplexPoint, b: SimplexPoint,
                             budget=None) -> GeodesicPath:
    """A geodesic from a to b as a chain of uniquely-geodesic segments.

    Each phase fixes the current breakpoint and walks strictly forward
    along skeleton edges of its envelope slice; a phase ends when a new
    candidate of the current simplex becomes maximally stretched into b.
    """
    _check_ranks(a, b)
    budget = _budget(budget)
    breakpoints = [a]
    rigid = [0]
    if same_point(a, b):
        return GeodesicPath((a,), (), (0,), b)

    phase_base = a
    delta = a.ttype
    coords = a.lengths
    steps = 0
    while True:
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"walk exceeded {budget} steps")
        moved = _advance(phase_base, b, delta, coords, breakpoints[-1])
        if moved is None:
            raise WalkStuck("no forward envelope edge from current point")
        delta, coords = moved
        point = point_from_coords(delta, coords)
        breakpoints.append(point)
        if same_point(point, b):
            break
        if candidate_witnesses(point, b) - candidate_witnesses(phase_base, b):
            # a new maximally-stretched class ends the current phase
            rigid.append(len(breakpoints) - 1)
            phase_base = point
    rigid.append(len(breakpoints) - 1)
    # the last segment ends at b itself, the same point as the last
    # breakpoint, so its witnesses come from the walk's own (p, b) memo
    witnesses = tuple(candidate_witnesses(p, q) for p, q
                      in zip(breakpoints, breakpoints[1:-1] + [b]))
    return GeodesicPath(tuple(breakpoints), witnesses,
                        tuple(dict.fromkeys(rigid)), b)


def _advance(base: SimplexPoint, b: SimplexPoint, delta: TopologicalType,
             coords, here: SimplexPoint):
    """One skeleton-edge step forward from here, the point at coords of
    delta's chart; crosses simplices when needed.

    The first sweep allows CLEAN moves only (those are the rigid ones),
    in the current chart and then in the adjacent ones, those holding b
    first; the second allows VERTEX moves too, as a last resort, over the
    same charts in the same order.  Most steps are clean steps inside the
    current chart, so the adjacent charts are embedded and sorted on
    demand, only when the current chart has no clean step."""
    slice_of = partial(envelope_slice, base, b)
    current = [(delta, coords)]
    moved = _first_step(current, slice_of, ({CLEAN},))
    if moved is not None:
        return moved
    near = _charts_at(delta, here)
    near.sort(key=lambda c: (embed_point(b, c[0]) is None,
                             -len(c[0].edges), _chart_order(c[0])))
    return (_first_step(near, slice_of, ({CLEAN},))
            or _first_step(current + near, slice_of, ({CLEAN, VERTEX},)))


def _pair_dim(p: SimplexPoint, q: SimplexPoint, budget=None,
              cap=None) -> int:
    """Largest envelope-slice dimension of the pair over its support, or
    the first slice dimension of the fill that reaches cap, where the fill
    stops.  The default cap 3n-4 is exact: a trivalent chart has 3n-3
    edges, so no slice is larger.

    Only the slices the fill read are measured, those of T(p) and the
    trivalent charts.  Every other simplex the fill enters is a face,
    whose slice is a face of its parent's slice, and the parent was
    entered before it; so the largest dimension so far, and where the
    fill stops, are those of the full scan, and no face's slice is
    built."""
    if cap is None:
        cap = 3 * p.ttype.rank - 4
    best = -1
    for _, read in _fill(p, q, _budget(budget)):
        if read is not None:
            best = max(best, read.polytope.dim)
            if best >= cap:
                break
    return best


def _pair_dims(points, pairs, budget=None, cap=None):
    """Yield ((i, j), _pair_dim) for each pair (i, j) of distinct points,
    in the given order and lazily, so a caller can stop at the first
    dimension it needs."""
    for i, j in pairs:
        if not same_point(points[i], points[j]):
            yield (i, j), _pair_dim(points[i], points[j], budget, cap)


def is_rigid(path: GeodesicPath, budget=None) -> bool:
    """Whether every sub-arc of the path is the unique geodesic between
    its endpoints: all two-breakpoint envelopes are at most 1-dimensional.

    The end pair is read as (a, b): when the path has a target, it stands
    in for the last breakpoint, the same point of CV_n, so stretches,
    witnesses and envelopes come from the memos its walk and its caller
    already filled for b.

    This is the all-pairs property, so it is False whenever Env(a, b) of
    the end points is at least 2-dimensional, which holds for almost
    every pair at rank n >= 2 (its dimension is 3n-4).  Pairs are tested
    widest first, each with its fill stopped at dimension 2: the pair
    (a, b) comes first, and its T(a) slice is usually enough."""
    pts = path.breakpoints
    if path.target is not None:
        pts = pts[:-1] + (path.target,)
    # multiplicativity on every triple: by the multiplicative triangle
    # inequality the product over consecutive pairs bounds every split of
    # the end pair from above, so one chain identity settles all triples
    if len(pts) > 2 and stretch(pts[0], pts[-1]) != prod(
            stretch(p, q) for p, q in zip(pts, pts[1:])):
        raise NotAGeodesic("breakpoints fail multiplicativity")
    widest = sorted(combinations(range(len(pts)), 2),
                    key=lambda ij: (ij[0] - ij[1], ij[0]))
    return all(d <= 1 for _, d in _pair_dims(pts, widest, budget, cap=2))


class PositionCertificate(Value):
    gamma: ConjClass
    strict: tuple


def general_position(a: SimplexPoint, b: SimplexPoint, via: str = "out"):
    """Whether the candidate-witness set of (a, b) is locally constant.

    True when b sits in the relative interior of a single-direction
    out-envelope of a (or, via="in", a in the in-envelope of b); the
    certificate names the direction and the strictly satisfied constraints.
    The point is its own feasibility certificate: a point in the closed
    slice shows the slice is nonempty, and a point outside it is turned
    away on its integer slacks before any vertex is computed.
    """
    if via not in ("out", "in"):
        raise ParamOutOfRange(f"unknown side {via!r}")
    _check_ranks(a, b)
    if not (a.ttype.is_trivalent() and b.ttype.is_trivalent()):
        raise NotMaximalSimplex("both points must be in maximal simplices")
    build, p, q = ((out_envelope, a, b) if via == "out"
                   else (in_envelope, b, a))
    x = q.lengths
    for gamma in sorted(candidate_witnesses(a, b), key=class_order):
        poly = build(p, [gamma], q.ttype)
        if poly.contains(x, "relative-interior"):
            strict = tuple(h.provenance for h, s
                           in zip(poly.constraints, poly._slacks(x)) if s > 0)
            return True, PositionCertificate(gamma, strict)
    return False, None


# the in-chart step and the crossing sweeps revisit the same slices; each
# keeps its polytope and vertices, like envelopes.envelope_slice
@lru_cache(maxsize=64)
def _ray_slice(a: SimplexPoint, direction: tuple,
               delta: TopologicalType) -> EnvelopeSlice:
    """The out-envelope of a in the direction's classes, walked along its
    first class."""
    return EnvelopeSlice(delta, direction[0],
                         out_envelope(a, direction, delta))


class RayAudit(Value):
    points: tuple[SimplexPoint, ...]
    crossings: tuple[int, ...]
    dims: dict
    stable_from: int


def ray_dimension_audit(a: SimplexPoint, s, steps: int,
                        budget=None) -> RayAudit:
    """Walk the out-envelope of a in direction s across simplex crossings.

    Records the visited points and, for every ordered pair, the largest
    envelope dimension over the pair's support; stable_from is the first
    index past which all dimensions drop to 3n-5 or below.
    """
    if a.ttype.rank != 2:
        raise Unsupported("ray walking is implemented for rank 2")
    direction = tuple(_direction(s))
    _check_count("steps", steps)
    budget = _budget(budget)
    base = a
    delta = a.ttype
    coords = a.lengths
    points = [a]
    crossings = [0]
    crossed = 0
    guard = 0
    while crossed < steps:
        guard += 1
        if guard > budget:
            raise BudgetExceeded(f"ray walk exceeded {budget} steps")
        moved = _first_step([(delta, coords)],
                            partial(_ray_slice, base, direction),
                            ({CLEAN, VERTEX},))
        if moved is None:
            here = points[-1]
            near = sorted(_charts_at(delta, here),
                          key=lambda c: _chart_order(c[0]))
            moved = _first_step(near, partial(_ray_slice, here, direction),
                                ({CLEAN, VERTEX}, {IDEAL}))
            if moved is None:
                raise WalkStuck("ray cannot continue in any adjacent simplex")
            base = here
            crossed += 1
        delta, coords = moved
        points.append(point_from_coords(delta, coords))
        crossings.append(crossed)
    dims = dict(_pair_dims(points, combinations(range(len(points)), 2),
                           budget))
    bound = 3 * a.ttype.rank - 5
    stable = 1 + max((i for (i, _), d in dims.items() if d > bound),
                     default=-1)
    return RayAudit(tuple(points), tuple(crossings), dims, stable)
