"""Barycentric SVG pictures of rank 2 simplices and envelope polygons.

Each maximal simplex (three edges) is a triangle whose corner i stands for
the degenerate point where edge i carries the whole volume.  Adjacent
simplices sharing a two-edge face are unfolded: the second triangle is
glued along the shared side, its free corner reflected to the other side.
All layout arithmetic is exact; coordinates are fixed to nine decimals at
the very end, so output is byte identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .envelopes import (
    _budget,
    reference_witness,
    slice_polytope,
    support,
)
from .errors import Unsupported
from .graphs import (
    SimplexPoint,
    TopologicalType,
    _edge_collapses,
    _marking_isomorphism,
    embed_point,
)

SCALE = Fraction(300)
MARGIN = Fraction(30)


def fmt(q) -> str:
    """Fixed-point decimal with nine places, exact rounding."""
    scaled = Fraction(q) * 10**9
    n = scaled.numerator
    d = scaled.denominator
    quo, rem = divmod(abs(n), d)
    if 2 * rem >= d:
        quo += 1
    sign = "-" if n < 0 and quo else ""
    whole, frac = divmod(quo, 10**9)
    return f"{sign}{whole}.{frac:09d}"


@dataclass(frozen=True)
class Layout:
    """Placed triangles: one corner position per edge of each simplex."""

    placed: tuple[tuple[TopologicalType, tuple], ...]

    def position(self, p: SimplexPoint):
        """Screen position of a point, via any chart that contains it."""
        for t, corners in self.placed:
            coords = embed_point(p, t)
            if coords is None:
                continue
            x = sum(c * corner[0] for c, corner in zip(coords, corners))
            y = sum(c * corner[1] for c, corner in zip(coords, corners))
            return (x, y)
        return None


def _maximal(simplices):
    return [t for t in simplices if len(t.edges) == 3]


def _face_matches(t1: TopologicalType, t2: TopologicalType):
    """Shared two-edge faces: (collapsed id in t1, collapsed id in t2, map)."""
    faces2 = _edge_collapses(t2)
    for id1, c1 in _edge_collapses(t1):
        for id2, c2 in faces2:
            emap = _marking_isomorphism(c1, c2)
            if emap is not None:
                yield id1, id2, {k: v[0] for k, v in emap.items()}


def _reflect(p, a, b):
    """Reflection of p across the line through a and b (exact)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    d2 = dx * dx + dy * dy
    t = (px * dx + py * dy) / d2
    fx, fy = t * dx, t * dy
    return (a[0] + 2 * fx - px, a[1] + 2 * fy - py)


def layout_support(simplices) -> Layout:
    """Unfold the maximal simplices of a support into the plane."""
    maximal = _maximal(simplices)
    if not maximal:
        raise Unsupported("no maximal rank 2 simplex to draw")
    base = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(7, 8)))
    placed = [(maximal[0], base)]
    pending = list(maximal[1:])
    used: set = set()
    while pending:
        progressed = False
        for t2 in list(pending):
            options = []
            for idx, (t1, corners) in enumerate(placed):
                for gone1, gone2, emap in _face_matches(t1, t2):
                    fresh = (idx, gone1) not in used
                    options.append((not fresh, idx, gone1, gone2, emap))
            if not options:
                continue
            # prefer a side of the picture nothing is glued to yet
            _, idx, gone1, gone2, emap = min(
                options, key=lambda o: (o[0], o[1], o[2]))
            t1, corners = placed[idx]
            ids1 = [e.id for e in t1.edges]
            ids2 = [e.id for e in t2.edges]
            inv = {v: k for k, v in emap.items()}
            new = [None] * 3
            for j, eid in enumerate(ids2):
                if eid != gone2:
                    new[j] = corners[ids1.index(inv[eid])]
            shared = [c for c in new if c is not None]
            free1 = corners[ids1.index(gone1)]
            new[ids2.index(gone2)] = _reflect(free1, *shared)
            placed.append((t2, tuple(new)))
            used.add((idx, gone1))
            pending.remove(t2)
            progressed = True
            break
        if not progressed:
            # disconnected from everything placed so far: drop it
            pending.pop(0)
    return Layout(tuple(placed))


def _bounds(layout: Layout):
    xs = [c[0] for _, cs in layout.placed for c in cs]
    ys = [c[1] for _, cs in layout.placed for c in cs]
    return min(xs), min(ys), max(xs), max(ys)


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
    of the cross product.  Points at the same angle keep their order."""
    if len(points) <= 2:
        return points
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def compare(p, q):
        px, py, qx, qy = p[0] - cx, p[1] - cy, q[0] - cx, q[1] - cy
        hp, hq = _half(px, py), _half(qx, qy)
        if hp != hq:
            return hp - hq
        cross = px * qy - py * qx
        return (cross < 0) - (cross > 0)

    return sorted(points, key=cmp_to_key(compare))


def _screen(layout, xy, minx, miny):
    sx = (xy[0] - minx) * SCALE + MARGIN
    sy = (xy[1] - miny) * SCALE + MARGIN
    return fmt(sx), fmt(sy)


def render_envelope_svg(a: SimplexPoint, b: SimplexPoint,
                        path=None, budget=None) -> str:
    """SVG picture of the envelope of (a, b), one shaded polygon per
    maximal simplex of the support, with an optional breakpoint overlay."""
    if a.ttype.rank != 2:
        raise Unsupported("drawing is rank 2 only")
    sup = support(a, b, _budget(budget))
    layout = layout_support(sup.simplices)
    gamma = reference_witness(a, b)
    minx, miny, maxx, maxy = _bounds(layout)
    w = fmt((maxx - minx) * SCALE + 2 * MARGIN)
    h = fmt((maxy - miny) * SCALE + 2 * MARGIN)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
    ]
    for t, corners in layout.placed:
        pts = " ".join(",".join(_screen(layout, c, minx, miny))
                       for c in corners)
        out.append(f'<polygon points="{pts}" fill="none" stroke="#444444" '
                   'stroke-width="1"/>')
    for t, corners in layout.placed:
        verts = slice_polytope(a, b, gamma, t).vertices
        if not verts:
            continue
        placed_pts = []
        for v in verts:
            x = sum(c * corner[0] for c, corner in zip(v, corners))
            y = sum(c * corner[1] for c, corner in zip(v, corners))
            placed_pts.append((x, y))
        placed_pts = _cyclic(placed_pts)
        joined = " ".join(",".join(_screen(layout, p, minx, miny))
                          for p in placed_pts)
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
            xy = layout.position(p)
            if xy is not None:
                coords.append(_screen(layout, xy, minx, miny))
        if len(coords) >= 2:
            joined = " ".join(",".join(c) for c in coords)
            out.append(f'<polyline points="{joined}" fill="none" '
                       'stroke="#cc3322" stroke-width="2" '
                       'stroke-dasharray="6,3"/>')
        for c in coords:
            out.append(f'<circle cx="{c[0]}" cy="{c[1]}" r="3" '
                       'fill="#cc3322"/>')
    for p, color, label in ((a, "#117733", "A"), (b, "#882255", "B")):
        xy = layout.position(p)
        if xy is None:
            continue
        cx, cy = _screen(layout, xy, minx, miny)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
        out.append(f'<text x="{cx}" y="{cy}" dx="8" dy="-6" '
                   f'font-family="monospace" font-size="14">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def envelope_vertices_json(a: SimplexPoint, b: SimplexPoint,
                           budget=None) -> list:
    """Exact vertex lists per support simplex, mirroring the picture."""
    sup = support(a, b, _budget(budget))
    gamma = reference_witness(a, b)
    out = []
    for t in _maximal(sup.simplices):
        verts = slice_polytope(a, b, gamma, t).vertices
        out.append({
            "edges": [e.id for e in t.edges],
            "vertices": [[str(x) for x in v] for v in verts],
        })
    return out
