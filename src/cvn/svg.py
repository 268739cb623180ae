"""Barycentric SVG pictures of rank 2 simplices and envelope polygons.

Each maximal simplex (three edges) is a triangle whose corner i stands for
the degenerate point where edge i carries the whole volume.  Adjacent
simplices sharing a two-edge face are unfolded: the second triangle is
glued along the shared side, its free corner reflected to the other side.
All layout arithmetic is exact.  The unfolding runs over Fraction; its
corners are then put over one common denominator, and every position,
angle comparison and rounding after that runs on integer numerators.
Coordinates are fixed to nine decimals at the very end, so output is byte
identical across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache

from .envelopes import envelope_slice, support
from .errors import SelfCheckFailed, Unsupported
from .graphs import (
    SimplexPoint,
    TopologicalType,
    _collapse_keys,
    _exact,
    _matching,
    embed_point,
)
from .values import Value

SCALE = 300
MARGIN = 30


def fmt(num: int, den: int = 1) -> str:
    """num / den (den > 0) as a fixed-point decimal with nine places,
    rounded exactly, halves away from zero."""
    quo, rem = divmod(abs(num) * 10**9, den)
    if 2 * rem >= den:
        quo += 1
    sign = "-" if num < 0 and quo else ""
    whole, frac = divmod(quo, 10**9)
    return f"{sign}{whole}.{frac:09d}"


def _place(weights, corners) -> tuple[int, int]:
    """The combination of integer corners with integer weights."""
    return (sum(w * c[0] for w, c in zip(weights, corners)),
            sum(w * c[1] for w, c in zip(weights, corners)))


class Layout(Value):
    """Placed triangles: one corner position per edge of each simplex."""

    placed: tuple[tuple[TopologicalType, tuple], ...]

    @cached_property
    def scaled(self) -> tuple[tuple, int]:
        """(corners, den): per placed triangle, its corners as integer
        pairs over one common denominator den."""
        den = math.lcm(*(q.denominator
                         for _, cs in self.placed for c in cs for q in c))
        return tuple(tuple(tuple(q.numerator * (den // q.denominator)
                                 for q in c) for c in cs)
                     for _, cs in self.placed), den

    @cached_property
    def origin(self) -> tuple[int, int]:
        """The least x and the least y numerator over den of any corner:
        the top left of the picture."""
        corners, _ = self.scaled
        return (min(c[0] for cs in corners for c in cs),
                min(c[1] for cs in corners for c in cs))

    def screen(self, x: int, y: int, q: int) -> tuple[str, str]:
        """Screen coordinates of the layout point (x, y) / q, where den
        divides q."""
        den = self.scaled[1]
        minx, miny = self.origin
        k = q // den
        return (fmt((x - minx * k) * SCALE + MARGIN * q, q),
                fmt((y - miny * k) * SCALE + MARGIN * q, q))

    @cached_property
    def frame(self) -> tuple[str, ...]:
        """The lines every picture of this layout starts with: the SVG
        header, sized to the triangles, and each triangle's outline."""
        corners, den = self.scaled
        minx, miny = self.origin
        w = fmt((max(c[0] for cs in corners for c in cs) - minx) * SCALE
                + 2 * MARGIN * den, den)
        h = fmt((max(c[1] for cs in corners for c in cs) - miny) * SCALE
                + 2 * MARGIN * den, den)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">',
        ]
        for cs in corners:
            pts = " ".join(",".join(self.screen(x, y, den)) for x, y in cs)
            out.append(f'<polygon points="{pts}" fill="none" '
                       'stroke="#444444" stroke-width="1"/>')
        return tuple(out)

    def locate(self, p: SimplexPoint):
        """Position of a point as integer numerators (x, y) over a
        multiple q of den, via any chart that contains it: (x, y, q), or
        None."""
        corners, den = self.scaled
        for (t, _), cs in zip(self.placed, corners):
            coords = embed_point(p, t)
            if coords is None:
                continue
            e = math.lcm(*(c.denominator for c in coords))
            x, y = _place([c.numerator * (e // c.denominator)
                           for c in coords], cs)
            return x, y, e * den
        return None


def _face_matches(t1: TopologicalType, t2: TopologicalType):
    """Shared faces of one collapsed edge: (its position in t1, its
    position in t2, {position in t2: position in t1} of the other edges)."""
    faces2 = _collapse_keys(t2, 1)
    for key, ((i1,), lab1) in _collapse_keys(t1, 1).items():
        if key in faces2:
            (i2,), lab2 = faces2[key]
            rest1 = [j for j in range(len(t1.edges)) if j != i1]
            rest2 = [j for j in range(len(t2.edges)) if j != i2]
            yield i1, i2, {rest2[k]: j
                           for j, k in zip(rest1, _matching(lab1, lab2))}


def _reflect(p, a, b):
    """Reflection of p across the line through a and b (exact)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    d2 = dx * dx + dy * dy
    t = (px * dx + py * dy) / d2
    fx, fy = t * dx, t * dy
    return (a[0] + 2 * fx - px, a[1] + 2 * fy - py)


# a layout keeps its placed types and its frame; one per support, and a
# picture of a pair draws the support of the pair
@lru_cache(maxsize=64)
def layout_support(simplices: tuple[TopologicalType, ...]) -> Layout:
    """Unfold the maximal simplices of a support into the plane, each
    glued to one placed before it along a shared face; a support is
    connected through such faces, so a simplex with none raises
    SelfCheckFailed.  Memoised on the tuple of simplices, so equal
    supports share one Layout, with its frame."""
    maximal = [t for t in simplices if t.is_trivalent()]
    if not maximal:
        raise Unsupported("no maximal rank 2 simplex to draw")
    base = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(7, 8)))
    placed = [(maximal[0], base)]
    pending = list(maximal[1:])
    used: set = set()
    while pending:
        for t2 in pending:
            options = []
            for idx, (t1, corners) in enumerate(placed):
                for gone1, gone2, at in _face_matches(t1, t2):
                    fresh = (idx, gone1) not in used
                    options.append((not fresh, idx, t1.edges[gone1].id,
                                    gone1, gone2, at))
            if not options:
                continue
            # prefer a side of the picture nothing is glued to yet
            _, idx, _, gone1, gone2, at = min(options, key=lambda o: o[:3])
            corners = placed[idx][1]
            new = [corners[at[j]] if j in at else None for j in range(3)]
            new[gone2] = _reflect(corners[gone1],
                                  *(c for c in new if c is not None))
            placed.append((t2, tuple(new)))
            used.add((idx, gone1))
            pending.remove(t2)
            break
        else:
            raise SelfCheckFailed(
                "layout found no face gluing the support chart "
                f"{[e.id for e in pending[0].edges]} to the placed charts")
    return Layout(tuple(placed))


def _half(dx, dy) -> int:
    """Which stretch of the angle range (-pi, pi] the direction is in:
    below the axis, along the positive axis (or zero), above it, or along
    the negative axis."""
    if dy < 0:
        return 0
    if dy == 0:
        return 1 if dx >= 0 else 3
    return 2


def _cyclic(points):
    """Points in increasing angle about their centroid, starting just
    past -pi like atan2, compared exactly: by half-plane, then by the sign
    of the cross product.  Points at the same angle keep their order.

    Each point is taken about the centroid times the number of points,
    n p - sum p, so integer points stay integers."""
    n = len(points)
    if n <= 2:
        return points
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)

    def compare(p, q):
        px, py = n * p[0] - sx, n * p[1] - sy
        qx, qy = n * q[0] - sx, n * q[1] - sy
        hp, hq = _half(px, py), _half(qx, qy)
        if hp != hq:
            return hp - hq
        cross = px * qy - py * qx
        return (cross < 0) - (cross > 0)

    return sorted(points, key=cmp_to_key(compare))


def render_envelope_svg(a: SimplexPoint, b: SimplexPoint,
                        path=None, budget=None) -> str:
    """SVG picture of the envelope of (a, b), one shaded polygon per
    maximal simplex of the support, with an optional breakpoint overlay."""
    if a.ttype.rank != 2:
        raise Unsupported("drawing is rank 2 only")
    sup = support(a, b, budget)
    layout = layout_support(sup.simplices)
    corners, den = layout.scaled
    screen = layout.screen
    out = list(layout.frame)
    for (t, _), cs in zip(layout.placed, corners):
        rays = envelope_slice(a, b, t).polytope.rays
        if not rays:
            raise SelfCheckFailed("picture found an empty envelope slice in "
                                  f"the support chart {[e.id for e in t.edges]}")
        # vertex r / s sits at (q / s) r / q: one denominator per polygon
        q = math.lcm(*(s for _, s in rays))
        placed_pts = _cyclic([_place([(q // s) * x for x in r], cs)
                              for r, s in rays])
        joined = " ".join(",".join(screen(x, y, q * den))
                          for x, y in placed_pts)
        if len(placed_pts) >= 3:
            out.append(f'<polygon points="{joined}" fill="#5588cc" '
                       'fill-opacity="0.35" stroke="#225599" '
                       'stroke-width="1.5"/>')
        else:
            out.append(f'<polyline points="{joined}" fill="none" '
                       'stroke="#225599" stroke-width="2"/>')
    if path is not None:
        coords = []
        for p in path:
            at = layout.locate(p)
            if at is not None:
                coords.append(screen(*at))
        if len(coords) >= 2:
            joined = " ".join(",".join(c) for c in coords)
            out.append(f'<polyline points="{joined}" fill="none" '
                       'stroke="#cc3322" stroke-width="2" '
                       'stroke-dasharray="6,3"/>')
        for c in coords:
            out.append(f'<circle cx="{c[0]}" cy="{c[1]}" r="3" '
                       'fill="#cc3322"/>')
    for p, color, label in ((a, "#117733", "A"), (b, "#882255", "B")):
        at = layout.locate(p)
        if at is None:
            continue
        cx, cy = screen(*at)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
        out.append(f'<text x="{cx}" y="{cy}" dx="8" dy="-6" '
                   f'font-family="monospace" font-size="14">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def envelope_vertices_json(a: SimplexPoint, b: SimplexPoint,
                           budget=None) -> list:
    """Exact vertex lists per maximal simplex of the support, in support
    order, as the picture draws them at rank 2."""
    sup = support(a, b, budget)
    out = []
    for t in filter(TopologicalType.is_trivalent, sup.simplices):
        verts = envelope_slice(a, b, t).polytope.vertices
        out.append({
            "edges": [e.id for e in t.edges],
            "vertices": [list(map(_exact, v)) for v in verts],
        })
    return out
