import random
import time
from fractions import Fraction

import pytest

import envelopes_oracle
import marking_oracle
from constructions import (
    EmptySlice,
    NotPrimitive,
    direction_reduction,
    rainbow_graph,
    random_pair,
    random_point,
)
from cvn.candidates import enumerate_candidates
from cvn.envelopes import (
    envelope_slice,
    in_envelope,
    out_envelope,
    reference_witness,
    star_system,
    starstar_system,
    support,
)
from cvn.errors import (
    BudgetExceeded,
    EmptyDirection,
    ParamOutOfRange,
    SelfCheckFailed,
    TrivialClass,
)
from cvn.graphs import (
    barbell_point,
    collapse_forest,
    marking_equivalent,
    point_from_coords,
    resolutions,
    rose_point,
    rose_type,
    theta_point,
    theta_type,
)
from cvn.metric import conj_length, is_witness, stretch, stretch_report
from cvn.polytope import Polytope, feasible
from cvn.words import class_order, conj_class
from point_readings import coeffs


def CC(letters):
    return conj_class(letters, 2)


def _by_prov(hs, word_str):
    return next(h for h in hs if h.provenance[1] == word_str)


def test_star_system_self_constraint_degenerate():
    a = theta_point(1, 1, 1)
    hs = star_system(a, CC([1]), theta_type())
    assert _by_prov(hs, "x").degenerate


def test_star_system_rose_coefficients():
    a = rose_point([1, 1])
    hs = star_system(a, CC([1]), rose_type(2))
    h = _by_prov(hs, "y")
    assert coeffs(h) == (Fraction(1, 2), Fraction(-1, 2))


def test_star_system_theta_coefficients():
    a = theta_point(1, 1, 1)
    hs = star_system(a, CC([1]), theta_type())
    h = _by_prov(hs, "x y^-1")
    assert coeffs(h) == (Fraction(0), Fraction(2, 3), Fraction(-2, 3))


def test_starstar_system_coefficients():
    b = theta_point(2, 1, 1)
    hs = starstar_system(b, CC([1]), theta_type())
    h = _by_prov(hs, "y")
    assert coeffs(h) == (Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4))
    assert _by_prov(hs, "x").degenerate


def test_star_trivial_class_rejected():
    with pytest.raises(TrivialClass):
        star_system(theta_point(1, 1, 1), CC([]), theta_type())


def test_out_envelope_intersection_pins_a():
    # intersecting over all candidates of A leaves only A inside T(A)
    a = theta_point(1, 2, 4)
    cands = [CC([1]), CC([2]), CC([1, -2])]
    poly = out_envelope(a, cands, a.ttype)
    assert poly.vertices == (a.lengths,)


def test_in_envelope_intersection_pins_b():
    b = theta_point(3, 1, 2)
    cands = [CC([1]), CC([2]), CC([1, -2])]
    poly = in_envelope(b, cands, b.ttype)
    assert poly.vertices == (b.lengths,)


def test_out_envelope_single_direction_contains_a_as_vertex():
    a = theta_point(1, 2, 4)
    poly = out_envelope(a, [CC([1])], a.ttype)
    assert a.lengths in poly.vertices
    assert poly.dim == 2


def test_out_envelope_empty_direction():
    with pytest.raises(EmptyDirection):
        out_envelope(theta_point(1, 1, 1), [], theta_type())


def test_out_envelope_membership_matches_witness():
    rng = random.Random(3)
    a = theta_point(1, 2, 4)
    for _ in range(25):
        coords = [Fraction(rng.randint(1, 9)) for _ in range(3)]
        s = sum(coords)
        coords = [q / s for q in coords]
        c = theta_point(*coords)
        for g in (CC([1]), CC([2]), CC([1, -2])):
            inside = out_envelope(a, [g], theta_type()).contains(coords)
            assert inside == is_witness(g, a, c)


def test_covering_by_out_envelopes():
    rng = random.Random(9)
    a = random_point(2, rng)
    from cvn.candidates import enumerate_candidates

    for _ in range(20):
        b = random_point(2, rng)
        cw = stretch_report(a, b).candidate_witnesses
        assert cw  # some candidate always witnesses: envelopes cover CV_n


def test_envelope_vertices_are_multiplicative():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    poly = envelope_slice(a, b, theta_type()).polytope
    lam = stretch(a, b)
    assert poly.contains(a.lengths) and poly.contains(b.lengths)
    for v in poly.vertices:
        c = point_from_coords(theta_type(), v)
        assert stretch(a, c) * stretch(c, b) == lam


def test_envelope_contains_straight_segment():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    poly = envelope_slice(a, b, theta_type()).polytope
    for k in range(1, 8):
        t = Fraction(k, 8)
        mid = tuple((1 - t) * x + t * y for x, y in zip(a.lengths, b.lengths))
        assert poly.contains(mid)


def test_envelope_choice_independent():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    # CW(a,b) = {x, xy^-1}: both choices give the same polytope
    from cvn.polytope import Polytope

    for g in (CC([1]), CC([1, -2])):
        hs = star_system(a, g, theta_type()) + starstar_system(
            b, g, theta_type()
        )
        poly = Polytope(3, hs)
        want = envelope_slice(a, b, theta_type()).polytope
        assert set(poly.vertices) == set(want.vertices)


def test_envelope_slice_shares_the_memoised_polytope():
    # the rank-3 benchmark sweep reads envelope_slice(...).polytope and
    # relies on it being the polytope of the slice memo, vertices and all
    a, b = theta_point(1, 2, 4), rose_point([1, 3])
    for delta in (a.ttype, *resolutions(rose_type(2))):
        first = envelope_slice(a, b, delta)
        gamma = reference_witness(a, b)
        assert first.simplex is delta and first.gamma == gamma
        assert list(first.polytope.halfspaces) == (
            star_system(a, gamma, delta) + starstar_system(b, gamma, delta))
        assert envelope_slice(a, b, delta) is first


def test_envelope_of_equal_points_is_point():
    a = theta_point(1, 2, 4)
    poly = envelope_slice(a, a, theta_type()).polytope
    assert poly.vertices == (a.lengths,)


def test_envelope_nesting():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    poly = envelope_slice(a, b, theta_type()).polytope
    for v in poly.vertices:
        c = point_from_coords(theta_type(), v)
        if c.ttype != theta_type():
            continue
        sub = envelope_slice(a, c, theta_type()).polytope
        for w in sub.vertices:
            assert poly.contains(w)


def test_envelope_diameter_bound():
    a = theta_point(1, 2, 4)
    b = theta_point(3, 1, 2)
    poly = envelope_slice(a, b, theta_type()).polytope
    bound = stretch(a, b) ** 2 * stretch(b, a)
    for v in poly.vertices:
        for w in poly.vertices:
            x = point_from_coords(theta_type(), v)
            y = point_from_coords(theta_type(), w)
            assert stretch(x, y) <= bound


def test_support_same_point():
    a = theta_point(1, 2, 4)
    sup = support(a, a)
    assert any(marking_equivalent(t, a.ttype) for t in sup.simplices)


def test_support_same_simplex_pair():
    a = theta_point(10, 11, 12)
    b = theta_point(11, 12, 10)
    sup = support(a, b)
    assert any(marking_equivalent(t, theta_type()) for t in sup.simplices)
    # close points: support stays small
    assert len(sup.simplices) <= 10


def test_support_cross_simplex():
    a = theta_point(1, 2, 4)
    b = rose_point([1, 3])
    sup = support(a, b)
    kinds = {len(t.edges) for t in sup.simplices}
    assert 3 in kinds  # the theta simplex
    assert 2 in kinds  # the rose face


@pytest.mark.parametrize("a, b", [
    (theta_point(1, 2, 4), rose_point([1, 3])),
    (theta_point(10, 11, 12), theta_point(11, 12, 10)),
    (barbell_point(1, 2, 3), theta_point(3, 1, 2)),
])
def test_support_matches_pop_dedupe_oracle(a, b):
    want, _ = marking_oracle.support(a, b)
    assert support(a, b) == want
    # the budget counts the simplices entered, which are those found
    entered = len(want.simplices)
    assert support(a, b, budget=entered) == want
    with pytest.raises(BudgetExceeded):
        support(a, b, budget=entered - 1)


@pytest.fixture(scope="module")
def rank3_steps():
    """Consecutive breakpoints of a seeded rank-3 walk, whose supports
    hold 1 to 48 simplices."""
    from cvn.geodesics import piecewise_rigid_geodesic

    a, b = random_pair(3, random.Random(1))
    pts = piecewise_rigid_geodesic(a, b).breakpoints
    return list(zip(pts, pts[1:]))


def test_face_slice_is_the_slice_on_its_coordinate_hyperplane(rank3_steps):
    # the support fill reads each face's feasibility and vertices from
    # the slice it collapses from; check that against the face's own rows
    rng = random.Random(7)
    pairs = [random_pair(2, rng) for _ in range(6)] + rank3_steps
    outcomes = set()
    t0 = time.monotonic()
    for a, b in pairs:
        for t in support(a, b).simplices:
            verts = envelope_slice(a, b, t).polytope.vertices
            for i, e in enumerate(t.edges):
                if e.is_loop():
                    continue
                face = envelope_slice(a, b,
                                      collapse_forest(t, {e.id})).polytope
                on = sorted(v[:i] + v[i + 1:] for v in verts if v[i] == 0)
                assert feasible(face.halfspaces, face.ambient_dim) == bool(on)
                assert list(face.vertices) == on
                outcomes.add((a.ttype.rank, bool(on)))
    assert outcomes == {(r, x) for r in (2, 3) for x in (False, True)}
    assert time.monotonic() - t0 < 60


def test_support_matches_pop_dedupe_oracle_at_rank3(rank3_steps):
    t0 = time.monotonic()
    for a, b in rank3_steps:
        want, _ = marking_oracle.support(a, b)
        assert support(a, b) == want
    assert time.monotonic() - t0 < 60


def test_fresh_support_tests_feasibility_once(monkeypatch):
    import cvn.envelopes
    import cvn.polytope

    calls = []

    def counted(hs, d):
        calls.append(d)
        return feasible(hs, d)

    monkeypatch.setattr(cvn.polytope, "feasible", counted)
    cvn.envelopes._support.cache_clear()
    cvn.envelopes.envelope_slice.cache_clear()
    a = theta_point(1, 2, 4)
    sup = support(a, rose_point([1, 3]))
    assert len(sup.simplices) > 1
    assert calls == [len(a.ttype.edges)]
    # a second fill finds the slice of T(a) memoised with its vertices
    calls.clear()
    cvn.envelopes._support.cache_clear()
    assert support(a, rose_point([1, 3])) == sup
    assert calls == []


def test_support_raises_when_the_slice_of_a_is_empty(monkeypatch):
    # a lies in the slice of its own chart, so an empty one is a fault of
    # the program, not an empty support; the fill's twin says the same
    import cvn.envelopes
    import cvn.polytope

    monkeypatch.setattr(cvn.polytope.Polytope, "is_feasible",
                        lambda self: False)
    cvn.envelopes._support.cache_clear()
    a, b = theta_point(1, 2, 4), rose_point([1, 3])
    for run in (lambda: support(a, b),
                lambda: list(envelopes_oracle.fill(a, b, 100))):
        with pytest.raises(SelfCheckFailed,
                           match=r"chart of a, \['e1', 'e2', 'e3'\]"):
            run()
    cvn.envelopes._support.cache_clear()


def test_direction_reduction_idempotent():
    a = theta_point(1, 2, 4)
    m = [CC([1])]
    s = direction_reduction(a, m, theta_type())
    assert s == frozenset(m)


def test_direction_reduction_long_word():
    a = theta_point(1, 2, 4)
    g = CC([1, 1, 2])
    s = direction_reduction(a, [g], theta_type())
    cands = {CC([1]), CC([2]), CC([1, -2])}
    assert s <= cands


def test_direction_reduction_empty_slice():
    # intersecting over all candidates pins the point itself; a twisted
    # marking puts that point outside the standard theta simplex
    from cvn.graphs import apply_outer_automorphism
    from cvn.words import generator, reduce as wreduce

    a = apply_outer_automorphism(
        theta_point(1, 2, 4), [wreduce((1, 2), 2), generator(2, 2)]
    )
    m = [g.word for g in
         __import__("cvn.candidates", fromlist=["x"]).enumerate_candidates(
             a.ttype)]
    with pytest.raises(EmptySlice):
        direction_reduction(a, m, theta_type())


def test_rainbow_rank2_is_theta_with_tiny_gamma():
    g = CC([1])
    p = rainbow_graph(g, Fraction(1, 16))
    assert len(p.ttype.edges) == 3
    assert len(p.ttype.vertices) == 2
    total_gamma = conj_length(p, g)
    others = [
        conj_length(p, c.word)
        for c in __import__("cvn.candidates", fromlist=["x"]).enumerate_candidates(
            p.ttype
        )
        if c.word != g
    ]
    assert all(total_gamma < o for o in others)


def test_rainbow_composite_primitive():
    g = CC([1, 2])
    p = rainbow_graph(g, Fraction(1, 16))
    from cvn.metric import candidate_witnesses

    assert g in {c.word for c in
                 __import__("cvn.candidates", fromlist=["x"]).enumerate_candidates(
                     p.ttype)}


def test_rainbow_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        rainbow_graph(conj_class([1, 2, 1, -2], 2), Fraction(1, 16))


def test_rainbow_eps_range():
    with pytest.raises(ParamOutOfRange):
        rainbow_graph(CC([1]), Fraction(1, 2))


def test_rainbow_rank3():
    g = conj_class([1], 3)
    p = rainbow_graph(g, Fraction(1, 24))
    assert len(p.ttype.edges) == 6
    assert p.ttype.is_trivalent()


def test_rainbow_point_in_in_envelope():
    # gamma is tiny in the rainbow graph, so it is the maximally stretched
    # candidate from the rainbow into any reasonable target: the rainbow
    # lies in the in-envelope of that target in direction gamma
    g = CC([1])
    p = rainbow_graph(g, Fraction(1, 32))
    for a in (rose_point([1, 1]), theta_point(1, 2, 4), rose_point([5, 3])):
        cw = stretch_report(p, a).candidate_witnesses
        assert cw == frozenset({g})


@pytest.mark.parametrize("bad", [-1, -3, 2.5, "7", True])
def test_bad_budget_argument_is_param_out_of_range(bad):
    a = theta_point(1, 1, 1)
    b = theta_point(3, 2, 1)
    with pytest.raises(ParamOutOfRange):
        support(a, b, budget=bad)


def test_budget_zero_still_exceeds():
    with pytest.raises(BudgetExceeded):
        support(theta_point(1, 1, 1), theta_point(3, 2, 1), budget=0)


def test_walker_and_ray_audit_share_the_budget_check():
    from cvn.geodesics import piecewise_rigid_geodesic, ray_dimension_audit

    a = theta_point(1, 1, 1)
    with pytest.raises(ParamOutOfRange):
        piecewise_rigid_geodesic(a, theta_point(3, 2, 1), budget=-1)
    with pytest.raises(ParamOutOfRange):
        ray_dimension_audit(rose_point([5, 3]), [CC([1]), CC([2])], 1,
                            budget="abc")


@pytest.mark.parametrize("draw", ["render_envelope_svg",
                                  "envelope_vertices_json"])
def test_svg_entry_points_check_the_budget(draw):
    import cvn.svg

    with pytest.raises(ParamOutOfRange):
        getattr(cvn.svg, draw)(theta_point(1, 1, 1), theta_point(3, 2, 1),
                               budget=-1)


def _rows(hs):
    return [(coeffs(h), h.provenance, h.degenerate) for h in hs]


def _same_slice(a, b, gamma, delta):
    """The integer star and starstar rows equal the Fraction oracle's, and
    so do the slice's vertices and feasibility."""
    star = star_system(a, gamma, delta)
    slow_star = envelopes_oracle.star_system(a, gamma, delta)
    starstar = starstar_system(b, gamma, delta)
    slow_starstar = envelopes_oracle.starstar_system(b, gamma, delta)
    assert _rows(star) == _rows(slow_star)
    assert _rows(starstar) == _rows(slow_starstar)
    assert star == slow_star and starstar == slow_starstar
    # the memoised slice for the reference witness, built here otherwise
    fast = (envelope_slice(a, b, delta).polytope
            if gamma == reference_witness(a, b)
            else Polytope(len(delta.edges), star + starstar))
    slow = Polytope(len(delta.edges), slow_star + slow_starstar)
    assert fast.vertices == slow.vertices
    assert fast.is_feasible() == slow.is_feasible()


def _same_one_sided(a, b, s, delta):
    for fast, slow in ((out_envelope(a, s, delta),
                        envelopes_oracle.out_envelope(a, s, delta)),
                       (in_envelope(b, s, delta),
                        envelopes_oracle.in_envelope(b, s, delta))):
        assert _rows(fast.halfspaces) == _rows(slow.halfspaces)
        assert fast.vertices == slow.vertices


@pytest.mark.parametrize("seed", range(6))
def test_integer_rows_match_fraction_oracle_rank2(seed):
    # each seed also draws a pair with three twist steps instead of four,
    # so the rows and vertices are compared at more markings
    for a, b in (random_pair(2, random.Random(seed)),
                 random_pair(2, random.Random(seed), twist_steps=3)):
        cands = sorted({c.word for c in enumerate_candidates(a.ttype)},
                       key=class_order)
        for g in cands:
            assert conj_length(a, g) == envelopes_oracle.conj_length(a, g)
        charts = [a.ttype, b.ttype] + list(resolutions(rose_type(2)))
        gamma = reference_witness(a, b)
        for delta in charts:
            for g in (gamma, cands[0], cands[-1]):
                _same_slice(a, b, g, delta)
            _same_one_sided(a, b, stretch_report(a, b).candidate_witnesses,
                            delta)
            _same_one_sided(a, b, cands[:2], delta)


def test_integer_rows_match_fraction_oracle_on_rank3_charts():
    a, b = random_pair(3, random.Random(5))
    gamma = reference_witness(a, b)
    charts = list(resolutions(rose_type(3)))
    assert len(charts) == 105
    for delta in charts:
        _same_slice(a, b, gamma, delta)
    cands = sorted({c.word for c in enumerate_candidates(a.ttype)},
                   key=class_order)
    for delta in charts[:5]:
        _same_one_sided(a, b, cands[:3], delta)
