import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cvn import svg
from cvn.envelopes import envelope_slice, support
from cvn.errors import SelfCheckFailed, Unsupported
from cvn.graphs import rose_point, theta_point, twisted_theta_point
from constructions import random_pair, random_point
from cvn.svg import (
    _cyclic,
    envelope_vertices_json,
    fmt,
    layout_support,
    render_envelope_svg,
)

import random


def _fraction_fmt(q) -> str:
    """The Fraction twin of fmt: nine places, halves away from zero."""
    scaled = Fraction(q) * 10**9
    n = scaled.numerator
    d = scaled.denominator
    quo, rem = divmod(abs(n), d)
    if 2 * rem >= d:
        quo += 1
    sign = "-" if n < 0 and quo else ""
    whole, frac = divmod(quo, 10**9)
    return f"{sign}{whole}.{frac:09d}"


def _screen_fmt(q) -> str:
    return fmt(q.numerator, q.denominator)


def test_fmt_fixed_nine_decimals():
    assert fmt(1, 3) == "0.333333333"
    assert fmt(2, 3) == "0.666666667"
    assert fmt(-5, 2) == "-2.500000000"
    assert fmt(0) == "0.000000000"
    assert fmt(1) == "1.000000000"
    assert fmt(-1, 3 * 10**9) == "0.000000000"  # no negative zero


def test_fmt_matches_fraction_fmt():
    # random rationals of both signs, unreduced numerator and denominator
    # pairs, and exact ties half way between two ninth decimals
    rng = random.Random(12)
    cases = []
    for _ in range(2000):
        num = rng.randint(-10**12, 10**12)
        den = rng.randint(1, 10**7)
        k = rng.randint(1, 50)
        cases.append((num * k, den * k))
    for _ in range(500):
        tie = 2 * rng.randint(-10**10, 10**10) + 1  # odd: (tie / 2) / 10^9
        k = rng.randint(1, 30)
        cases.append((tie * k, 2 * 10**9 * k))
    cases += [(0, 7), (-1, 2 * 10**9), (1, 2 * 10**9), (-3, 2 * 10**9)]
    for num, den in cases:
        assert fmt(num, den) == _fraction_fmt(Fraction(num, den)), (num, den)


def test_layout_single_simplex():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    layout = layout_support(support(a, b).simplices)
    assert len(layout.placed) >= 1
    assert len(layout.placed[0][0].edges) == 3
    assert layout.locate(a) is not None
    assert layout.locate(b) is not None


def test_layout_unfolds_across_rose_face():
    a = theta_point(Fraction(45, 100), Fraction(1, 10), Fraction(45, 100))
    b = twisted_theta_point(Fraction(2, 5), Fraction(1, 10), Fraction(1, 2))
    layout = layout_support(support(a, b).simplices)
    assert len(layout.placed) >= 2
    pa = layout.locate(a)
    pb = layout.locate(b)
    assert pa is not None and pb is not None
    # (x, y) over q: compare the points, not their denominators
    assert (pa[0] * pb[2], pa[1] * pb[2]) != (pb[0] * pa[2], pb[1] * pa[2])
    # unfolded triangles share exactly two corners with their neighbor
    base = set(layout.placed[0][1])
    second = set(layout.placed[1][1])
    assert len(base & second) == 2


def _unfolding_pair():
    """A pair whose support has two or more maximal simplices."""
    return (theta_point(Fraction(45, 100), Fraction(1, 10), Fraction(45, 100)),
            twisted_theta_point(Fraction(2, 5), Fraction(1, 10),
                                Fraction(1, 2)))


def test_layout_raises_on_a_maximal_simplex_it_cannot_glue(monkeypatch):
    # a support is connected through shared faces, so a maximal simplex
    # with none to a placed one is a fault, not one to leave undrawn
    sup = support(*_unfolding_pair()).simplices
    second = [t for t in sup if t.is_trivalent()][1]
    monkeypatch.setattr(svg, "_face_matches", lambda t1, t2: iter(()))
    layout_support.cache_clear()
    with pytest.raises(SelfCheckFailed,
                       match=re.escape(str([e.id for e in second.edges]))):
        layout_support(sup)


def test_picture_raises_on_a_maximal_simplex_with_an_empty_slice(monkeypatch):
    # the fill checks that every slice it enters has a vertex, so a
    # maximal simplex with none is a fault, not a polygon to leave out
    a, b = _unfolding_pair()
    second = [t for t in support(a, b).simplices if t.is_trivalent()][1]
    empty = SimpleNamespace(polytope=SimpleNamespace(rays=()))
    monkeypatch.setattr(
        svg, "envelope_slice",
        lambda a, b, t: empty if t is second else envelope_slice(a, b, t))
    with pytest.raises(SelfCheckFailed,
                       match=re.escape(str([e.id for e in second.edges]))):
        render_envelope_svg(a, b)


def test_no_rank2_support_reaches_the_self_checks():
    # every maximal simplex of seeded rank-2 supports is glued and drawn
    rng = random.Random(600)
    for _ in range(200):
        a, b = random_pair(2, rng)
        sup = support(a, b).simplices
        maximal = [t for t in sup if t.is_trivalent()]
        text = render_envelope_svg(a, b)
        placed = [t for t, _ in layout_support(sup).placed]
        assert len(placed) == len(maximal) and set(placed) == set(maximal)
        assert text.count('stroke="#225599"') == len(maximal)


def test_svg_contains_endpoint_markers():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    text = render_envelope_svg(a, b)
    assert text.count("<circle") >= 2
    assert ">A</text>" in text and ">B</text>" in text


def test_svg_coordinates_match_exact_vertices():
    # every slice vertex (as listed in the JSON) and both end points,
    # placed and rounded over Fraction, appear in the integer-built
    # picture; unfolded layouts reach negative coordinates, which moves
    # the picture's origin
    rng = random.Random(8)
    pairs = [
        (theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
         theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        (theta_point(Fraction(45, 100), Fraction(1, 10), Fraction(45, 100)),
         twisted_theta_point(Fraction(2, 5), Fraction(1, 10), Fraction(1, 2))),
        (theta_point(1, 2, 4), rose_point([1, 3])),
    ] + [(random_point(2, rng), random_point(2, rng)) for _ in range(6)]
    moved = 0
    for a, b in pairs:
        text = render_envelope_svg(a, b)
        layout = layout_support(support(a, b).simplices)
        xs = [c[0] for _, cs in layout.placed for c in cs]
        ys = [c[1] for _, cs in layout.placed for c in cs]
        minx, miny = min(xs), min(ys)
        moved += minx < 0 or miny < 0

        def screen(x, y):
            return (_screen_fmt((x - minx) * 300 + 30),
                    _screen_fmt((y - miny) * 300 + 30))

        json_verts = {tuple(v) for sl in envelope_vertices_json(a, b)
                      for v in sl["vertices"]}
        for t, corners in layout.placed:
            for v in envelope_slice(a, b, t).polytope.vertices:
                assert tuple(str(q) for q in v) in json_verts
                x = sum(c * corner[0] for c, corner in zip(v, corners))
                y = sum(c * corner[1] for c, corner in zip(v, corners))
                assert ",".join(screen(x, y)) in text
        for p in (a, b):
            at = layout.locate(p)
            if at is not None:
                x, y, q = at
                cx, cy = screen(Fraction(x, q), Fraction(y, q))
                assert f'cx="{cx}" cy="{cy}" r="4"' in text
    assert moved


def test_svg_deterministic_bytes():
    pairs = [
        (theta_point(1, 2, 4), theta_point(4, 2, 1)),
        (theta_point(Fraction(45, 100), Fraction(1, 10), Fraction(45, 100)),
         twisted_theta_point(Fraction(2, 5), Fraction(1, 10), Fraction(1, 2))),
    ]
    for a, b in pairs:
        assert render_envelope_svg(a, b) == render_envelope_svg(a, b)


def _atan2_order(points):
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def test_cyclic_matches_atan2_order_on_rational_polygons():
    rng = random.Random(7)
    for _ in range(300):
        # corners of a convex polygon: distinct angles about the centroid
        n = rng.randint(3, 9)
        angles = sorted(rng.sample(range(360), n))
        r = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        ox = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        oy = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        pts = [(ox + r * Fraction(math.cos(math.radians(t))).limit_denominator(10**6),
                oy + r * Fraction(math.sin(math.radians(t))).limit_denominator(10**6))
               for t in angles]
        rng.shuffle(pts)
        assert _cyclic(pts) == _atan2_order(pts)
        # the same polygon as integer numerators over one denominator
        den = math.lcm(*(q.denominator for p in pts for q in p))
        scaled = [tuple(int(q * den) for q in p) for p in pts]
        assert _cyclic(scaled) == [scaled[pts.index(p)]
                                   for p in _cyclic(pts)]


def test_cyclic_starts_just_past_minus_pi():
    # about the centroid (0, 0): atan2 puts the corner at angle pi last
    pts = [(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)),
           (Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))]
    assert _cyclic(pts) == [pts[3], pts[2], pts[1], pts[0]]
    assert _cyclic(pts) == _atan2_order(pts)


def test_svg_rank3_unsupported():
    rng = random.Random(4)
    a = random_point(3, rng)
    b = random_point(3, rng)
    with pytest.raises(Unsupported):
        render_envelope_svg(a, b)


def test_envelope_json_lists_the_trivalent_simplices_at_rank3():
    # the maximal simplices are the trivalent ones, of 3n - 3 edges; at
    # rank 3 the support also holds 3-edge roses, which are not maximal
    a, b = random_pair(3, random.Random(7))
    simplices = support(a, b).simplices
    trivalent = [t for t in simplices if t.is_trivalent()]
    assert len(trivalent) > 100
    assert any(len(t.edges) == 3 for t in simplices)
    assert envelope_vertices_json(a, b) == [
        {"edges": [e.id for e in t.edges],
         "vertices": [[str(x) for x in v]
                      for v in envelope_slice(a, b, t).polytope.vertices]}
        for t in trivalent]


def test_svg_numbers_are_all_fixed_point():
    a = theta_point(1, 2, 4)
    b = rose_point([1, 3])
    text = render_envelope_svg(a, b)
    for m in re.finditer(r'points="([^"]+)"', text):
        for token in m.group(1).replace(",", " ").split():
            assert re.fullmatch(r"-?\d+\.\d{9}", token)


def test_equal_supports_share_one_layout_and_draw_the_same_bytes():
    # theta -> twisted theta pairs drawn from these ranges share one
    # support; the layout and its frame come from whichever pair is drawn
    # first, and every picture must be the one a cold memo draws
    rng = random.Random(5)
    pairs = [(theta_point(*(rng.randint(4, 8) for _ in range(3))),
              twisted_theta_point(*(rng.randint(4, 8) for _ in range(3))))
             for _ in range(4)]
    sups = [support(a, b).simplices for a, b in pairs]
    assert len(set(sups)) == 1 and len(set(pairs)) == 4
    cold = []
    for a, b in pairs:
        layout_support.cache_clear()
        cold.append(render_envelope_svg(a, b))
    layout_support.cache_clear()
    layout = layout_support(sups[0])
    assert all(layout_support(tuple(s)) is layout for s in sups)
    assert [render_envelope_svg(a, b) for a, b in pairs] == cold
    assert layout_support.cache_info().misses == 1
    assert len(set(cold)) == 4
