"""End to end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
with its runtime, and enforces the stated time budget.
"""

import random
import time
from fractions import Fraction

from cvn.candidates import candidate_words
from cvn.envelopes import (
    envelope_slice,
    reference_witness,
    star_system,
    starstar_system,
    support,
)
from cvn.geodesics import (
    _pair_dim,
    check_gluing,
    general_position,
    on_geodesic,
    piecewise_rigid_geodesic,
    ray_dimension_audit,
)
from cvn.graphs import (
    barbell_point,
    point_from_coords,
    rose_point,
    rose_type,
    theta_point,
    theta_type,
    twisted_theta_point,
    twisted_theta_type,
)
from cvn.metric import (
    brute_force_lambda,
    is_witness,
    same_point,
    stretch,
    stretch_report,
)
from cvn.polytope import Polytope, feasible
from constructions import random_pair, random_point
from cvn.svg import (
    envelope_vertices_json,
    fmt,
    layout_support,
    render_envelope_svg,
)
from cvn.words import conj_class


def CC(letters, rank=2):
    return conj_class(letters, rank)


def _report(num, ok, elapsed, limit):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f}s / limit {limit}s)")
    assert ok, f"criterion {num} checks failed"
    assert in_time, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_closed_triangle():
    t0 = time.monotonic()
    A = theta_point(1, 1, 1)
    B = theta_point(2, 1, 1)
    C = theta_point(1, Fraction(1, 3), 1)
    x, y, xy_inv = CC([1]), CC([2]), CC([1, -2])
    ok = {x, xy_inv} <= stretch_report(A, B).candidate_witnesses
    ok &= {y, xy_inv} <= stretch_report(B, C).candidate_witnesses
    ok &= {x, y} <= stretch_report(C, A).candidate_witnesses
    for p, q, r in ((A, B, C), (B, C, A), (C, A, B)):
        ok &= bool(check_gluing(p, q, r)) and on_geodesic(p, q, r)
    _report(1, ok, time.monotonic() - t0, 1)


def test_criterion_02_one_way_geodesics():
    t0 = time.monotonic()
    grid = []
    for a in (Fraction(2, 5), Fraction(9, 20), Fraction(1, 2),
              Fraction(11, 20), Fraction(3, 5)):
        for eps in (Fraction(1, 10), Fraction(1, 20)):
            for frac in (Fraction(1, 2), Fraction(1, 4)):
                grid.append((a, a * eps * frac, eps))
    assert len(grid) >= 20
    xy_inv, xy = CC([1, -2]), CC([1, 2])
    rose = rose_type(2)
    ok = True
    for a, delta, eps in grid:
        A = theta_point(a + delta, eps, 1 - (a + delta) - eps)
        C = twisted_theta_point(a - delta, eps, 1 - (a - delta) - eps)
        ok &= stretch_report(A, C).candidate_witnesses == frozenset({xy_inv})
        ok &= stretch_report(C, A).candidate_witnesses == frozenset({xy})
        g1 = reference_witness(A, C)
        g2 = reference_witness(C, A)
        joint = (star_system(A, g1, rose) + starstar_system(C, g1, rose)
                 + star_system(C, g2, rose) + starstar_system(A, g2, rose))
        ok &= not feasible(joint, 2)
    _report(2, ok, time.monotonic() - t0, 5)


def test_criterion_03_symmetric_geodesics():
    t0 = time.monotonic()
    cases = []
    for na in range(2, 8):
        for nc in range(2, 8):
            a = Fraction(na, 20)
            b = Fraction(1, 4)
            c = Fraction(nc, 20)
            d = Fraction(1, 5)
            if a + b >= 1 or c + d >= 1:
                continue
            if a / (c + d) > (1 - a - b) / (1 - c):
                continue
            if a / (1 - b) > (c + d) / (1 + d):
                continue
            cases.append((a, b, c, d))
    assert len(cases) >= 20
    ok = True
    for a, b, c, d in cases:
        A = barbell_point(a, b, 1 - a - b)
        C = twisted_theta_point(c, d, 1 - c - d)
        lo, hi = a / (1 - b), (c + d) / (1 + d)
        ok &= lo <= hi
        alpha = (lo + hi) / 2
        B = rose_point([alpha, 1 - alpha])
        ok &= on_geodesic(A, B, C) and on_geodesic(C, B, A)
    _report(3, ok, time.monotonic() - t0, 5)


def _bounded_pair(rank, rng, cap):
    while True:
        a, b = random_pair(rank, rng, twist_steps=2)
        if max(len(g.rep) for g in candidate_words(a.ttype)) <= cap:
            return a, b


def test_criterion_04_candidate_oracle():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    ok = True
    for _ in range(100):
        a, b = _bounded_pair(2, rng, 8)
        lam, _ = brute_force_lambda(a, b, 8)
        ok &= lam == stretch(a, b)
    for _ in range(20):
        a, b = _bounded_pair(3, rng, 6)
        lam, _ = brute_force_lambda(a, b, 6)
        ok &= lam == stretch(a, b)
    _report(4, ok, time.monotonic() - t0, 120)


def test_criterion_05_envelope_vertices():
    t0 = time.monotonic()
    rng = random.Random(55)
    ok = True
    outside_checked = 0
    for _ in range(50):
        ls = [Fraction(rng.randint(1, 12)) for _ in range(6)]
        a = theta_point(*ls[:3])
        b = theta_point(*ls[3:])
        lam = stretch(a, b)
        poly = envelope_slice(a, b, theta_type()).polytope
        for v in poly.vertices:
            c = point_from_coords(theta_type(), v)
            ok &= stretch(a, c) * stretch(c, b) == lam
        while outside_checked < 20:
            cs = [Fraction(rng.randint(1, 12)) for _ in range(3)]
            s = sum(cs)
            coords = tuple(q / s for q in cs)
            if poly.contains(coords):
                continue
            c = theta_point(*coords)
            ok &= stretch(a, c) * stretch(c, b) != lam
            outside_checked += 1
    ok &= outside_checked >= 20
    _report(5, ok, time.monotonic() - t0, 60)


def test_criterion_06_piecewise_rigid_walker():
    t0 = time.monotonic()
    rng = random.Random(2026)
    makers = [theta_point, twisted_theta_point, barbell_point]
    pairs = []
    cross = 0
    while len(pairs) < 30:
        ma, mb = rng.choice(makers), rng.choice(makers)
        a = ma(*[rng.randint(1, 12) for _ in range(3)])
        b = mb(*[rng.randint(1, 12) for _ in range(3)])
        if same_point(a, b) or not general_position(a, b)[0]:
            continue
        cross += ma is not mb
        pairs.append((a, b))
    ok = cross >= 3
    for a, b in pairs:
        path = piecewise_rigid_geodesic(a, b)
        pts = path.breakpoints
        ok &= same_point(pts[-1], b)
        acc = Fraction(1)
        for u, v in zip(pts, pts[1:]):
            acc *= stretch(u, v)
        ok &= acc == stretch(a, b)
        # witness pool: classes of every visited chart not yet witnessing
        # into b; never grows, and shrinks strictly phase over phase
        union = set()
        for p in pts:
            union |= set(candidate_words(p.ttype))
        pools = [frozenset(g for g in union if not is_witness(g, p, b))
                 for p in pts[:-1]]
        ok &= all(q <= p for p, q in zip(pools, pools[1:]))
        bases = [i for i in path.rigid_segments if i < len(pts) - 1]
        ok &= all(pools[j] < pools[i] for i, j in zip(bases, bases[1:]))
        # every segment is rigid: endpoint envelopes are at most edges
        for u, v in zip(pts, pts[1:]):
            ok &= _pair_dim(u, v, 500) <= 1
    _report(6, ok, time.monotonic() - t0, 120)


def test_criterion_07_dimension_drop():
    t0 = time.monotonic()
    lx = Fraction(45, 100)
    eps = Fraction(1, 10)
    A = theta_point(lx, eps, 1 - lx - eps)
    B = twisted_theta_point(lx, eps, 1 - lx - eps)
    cw = stretch_report(A, B).candidate_witnesses
    ok = cw == frozenset({CC([1, -2])})
    gamma = next(iter(cw))
    near_a = Polytope(3, star_system(A, gamma, theta_type())
                      + starstar_system(B, gamma, theta_type()))
    near_b = Polytope(3, star_system(A, gamma, twisted_theta_type())
                      + starstar_system(B, gamma, twisted_theta_type()))
    ok &= near_a.dim == 2
    ok &= near_b.dim <= 1
    _report(7, ok, time.monotonic() - t0, 1)


def test_criterion_08_general_position_stability():
    t0 = time.monotonic()
    rng = random.Random(88)
    makers = [theta_point, twisted_theta_point, barbell_point]
    checked = 0
    ok = True
    while checked < 30:
        ma, mb = rng.choice(makers), rng.choice(makers)
        a = ma(*[rng.randint(1, 12) for _ in range(3)])
        b = mb(*[rng.randint(1, 12) for _ in range(3)])
        if same_point(a, b) or not general_position(a, b)[0]:
            continue
        cw = stretch_report(a, b).candidate_witnesses
        for _ in range(8):
            bump = [Fraction(rng.randint(-1, 1), 1000) for _ in range(3)]
            a2 = ma(*[q + d for q, d in zip(a.lengths, bump)])
            b2 = mb(*[q - d for q, d in zip(b.lengths, bump)])
            ok &= stretch_report(a2, b2).candidate_witnesses == cw
            ok &= general_position(a2, b2)[0]
        checked += 1
    # endpoint exactly on a facet of the single-direction envelope: two
    # candidates tie, so the pair is not in general position
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = theta_point(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    ok &= len(stretch_report(a, b).candidate_witnesses) > 1
    ok &= not general_position(a, b)[0]
    _report(8, ok, time.monotonic() - t0, 30)


def test_criterion_09_ray_audit():
    t0 = time.monotonic()
    a = rose_point([Fraction(5, 8), Fraction(3, 8)])
    audit = ray_dimension_audit(a, [CC([1]), CC([2])], 4)
    ok = audit.crossings[-1] == 4
    first = next(i for i, c in enumerate(audit.crossings) if c >= 1)
    for (i, j), d in audit.dims.items():
        if i >= first:
            ok &= d == 1
    ok &= audit.stable_from <= first
    _report(9, ok, time.monotonic() - t0, 30)


def test_criterion_10_svg_json_consistency():
    t0 = time.monotonic()
    shapes = {
        "same-simplex": (
            theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        "cross-simplex": (
            theta_point(Fraction(45, 100), Fraction(1, 10),
                        Fraction(45, 100)),
            twisted_theta_point(Fraction(2, 5), Fraction(1, 10),
                                Fraction(1, 2))),
        "pinched-at-face": (
            theta_point(1, 2, 4), rose_point([1, 3])),
    }
    ok = True
    for name, (a, b) in shapes.items():
        text = render_envelope_svg(a, b)
        ok &= text == render_envelope_svg(a, b)  # byte deterministic
        slices = envelope_vertices_json(a, b)
        ok &= slices == envelope_vertices_json(a, b)
        layout = layout_support(support(a, b).simplices)
        xs = [c[0] for _, cs in layout.placed for c in cs]
        ys = [c[1] for _, cs in layout.placed for c in cs]
        minx, miny = min(xs), min(ys)
        json_verts = [{tuple(v) for v in s["vertices"]} for s in slices]
        seen = []
        for t, corners in layout.placed:
            verts = envelope_slice(a, b, t).polytope.vertices
            seen.append({tuple(str(x) for x in v) for v in verts})
            for v in verts:
                x = sum(c * corner[0] for c, corner in zip(v, corners))
                y = sum(c * corner[1] for c, corner in zip(v, corners))
                sx, sy = (x - minx) * 300 + 30, (y - miny) * 300 + 30
                pt = (f"{fmt(sx.numerator, sx.denominator)},"
                      f"{fmt(sy.numerator, sy.denominator)}")
                ok &= pt in text
        # the JSON vertex lists are exactly the per-sheet vertex sets
        for vs in json_verts:
            ok &= vs in seen
    _report(10, ok, time.monotonic() - t0, 30)


def test_criterion_11_envelope_dimension():
    # "for almost all pairs of points in CV_n their envelopes have
    # dimension 3n-4": the first six trivalent pairs in general position
    # at ranks 2 and 3
    t0 = time.monotonic()
    ok = True
    for rank, seed in ((2, 3), (3, 7)):
        rng = random.Random(seed)
        checked = 0
        while checked < 6:
            a, b = random_pair(rank, rng)
            if not (a.ttype.is_trivalent() and b.ttype.is_trivalent()) \
                    or same_point(a, b) or not general_position(a, b)[0]:
                continue
            ok &= _pair_dim(a, b) == 3 * rank - 4
            checked += 1
    _report(11, ok, time.monotonic() - t0, 20)
