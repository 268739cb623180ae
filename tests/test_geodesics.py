import itertools
import random
import time
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest

import envelopes_oracle
import geodesics_oracle
import marking_oracle
from geodesics_oracle import eager_advance
from local_approximation import local_geodesic_approximation
from point_readings import path_end, path_start
from cvn import envelopes, geodesics
from cvn.candidates import candidate_words, edge_counts
from cvn.envelopes import EnvelopeSlice, _fill, envelope_slice, support
from cvn.errors import (
    BudgetExceeded,
    EmptyDirection,
    NotAGeodesic,
    NotMaximalSimplex,
    ParamOutOfRange,
    RankMismatch,
    TrivialClass,
    Unsupported,
)
from cvn.geodesics import (
    CLEAN,
    IDEAL,
    VERTEX,
    GeodesicPath,
    _beats,
    _coords_score,
    _first_step,
    _pair_dim,
    _vertex_scores,
    check_gluing,
    general_position,
    is_rigid,
    on_geodesic,
    piecewise_rigid_geodesic,
    ray_dimension_audit,
)
from cvn.graphs import (
    apply_outer_automorphism,
    barbell_type,
    graph_from_json,
    marking_equivalent,
    point_from_coords,
    resolutions,
    rose_point,
    rose_type,
    theta_point,
    theta_type,
    twisted_theta_point,
    twisted_theta_type,
    validate_and_normalize,
)
from cvn.metric import (
    candidate_witnesses,
    is_witness,
    same_point,
    stretch,
    stretch_report,
)
from constructions import random_pair, random_point
from cvn.words import conj_class, generator


def CC(letters):
    return conj_class(letters, 2)


def _segment_point(a, b, t):
    coords = tuple((1 - t) * x + t * y for x, y in zip(a.lengths, b.lengths))
    return point_from_coords(a.ttype, coords)


def test_on_geodesic_straight_segment():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    for k in range(1, 8):
        c = _segment_point(a, b, Fraction(k, 8))
        assert on_geodesic(a, c, b)


def test_on_geodesic_endpoints():
    a = theta_point(1, 2, 4)
    b = theta_point(4, 2, 1)
    assert on_geodesic(a, a, b)
    assert on_geodesic(a, b, b)


def test_on_geodesic_rank_mismatch():
    with pytest.raises(RankMismatch):
        on_geodesic(rose_point([1, 1]), rose_point([1, 1]),
                    rose_point([1, 1, 1]))


def test_on_geodesic_directed_disagreement():
    # two oppositely twisted thetas around a figure-eight: the middle rose
    # point can sit on a one-way geodesic only
    eps = Fraction(1, 10)
    delta = Fraction(1, 50)
    a_len = Fraction(1, 2)
    a = theta_point(a_len + delta, eps, 1 - (a_len + delta) - eps)
    c = twisted_theta_point(a_len - delta, eps, 1 - (a_len - delta) - eps)
    found_both = False
    for k in range(1, 40):
        alpha = Fraction(k, 40)
        b = rose_point([alpha, 1 - alpha])
        if on_geodesic(a, b, c) and on_geodesic(c, b, a):
            found_both = True
    assert not found_both


def test_gluing_matches_on_geodesic():
    rng = random.Random(17)
    hits = 0
    for _ in range(60):
        a = random_point(2, rng)
        c = random_point(2, rng)
        b = random_point(2, rng)
        og = on_geodesic(a, c, b)
        shared = check_gluing(a, c, b)
        assert og == bool(shared)
        hits += og
    assert hits < 10  # random middle points rarely land on a geodesic


def test_gluing_on_straight_segment_witnesses():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    c = _segment_point(a, b, Fraction(1, 2))
    shared = check_gluing(a, c, b)
    assert CC([1]) in shared and CC([1, -2]) in shared


def test_closed_triangle_glues_pairwise():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    c = theta_point(1, Fraction(1, 3), 1)
    assert CC([1, -2]) in check_gluing(a, b, c)
    assert CC([2]) in check_gluing(b, c, a)
    assert CC([1]) in check_gluing(c, a, b)


def test_walker_same_point():
    a = theta_point(1, 2, 4)
    path = piecewise_rigid_geodesic(a, a)
    assert path.breakpoints == (a,)
    assert path.segment_witnesses == ()


def test_walker_two_phase_quadrilateral():
    # hand-checked polygon: the envelope is a quadrilateral and the walk
    # turns at the vertex where a second class reaches maximal stretch
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    path = piecewise_rigid_geodesic(a, b)
    assert [p.lengths for p in path.breakpoints] == [
        a.lengths,
        (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)),
        b.lengths,
    ]
    assert path.rigid_segments == (0, 1, 2)
    mid = path.breakpoints[1]
    assert stretch(a, b) == stretch(a, mid) * stretch(mid, b)


def test_walker_single_segment_to_envelope_vertex():
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = point_from_coords(
        theta_type(), (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))
    )
    path = piecewise_rigid_geodesic(a, b)
    assert len(path.breakpoints) == 2
    assert path.rigid_segments == (0, 1)


def test_walker_cross_simplex():
    eps = Fraction(1, 10)
    a = theta_point(Fraction(45, 100), eps, Fraction(45, 100))
    b = twisted_theta_point(Fraction(40, 100), eps, Fraction(50, 100))
    path = piecewise_rigid_geodesic(a, b)
    assert same_point(path.breakpoints[-1], b)
    sizes = {len(p.ttype.edges) for p in path.breakpoints}
    assert 2 in sizes  # passes through the rose face
    lam = stretch(a, b)
    acc = Fraction(1)
    for u, v in zip(path.breakpoints, path.breakpoints[1:]):
        acc *= stretch(u, v)
    assert acc == lam


def test_walker_witness_persistence():
    rng = random.Random(5)
    for _ in range(6):
        a = theta_point(*[rng.randint(2, 9) for _ in range(3)])
        b = theta_point(*[rng.randint(2, 9) for _ in range(3)])
        if same_point(a, b):
            continue
        path = piecewise_rigid_geodesic(a, b)
        cw = stretch_report(a, b).candidate_witnesses
        for c in path.breakpoints[1:-1]:
            for g in cw:
                assert is_witness(g, a, c)
                assert is_witness(g, c, b)
        for w in path.segment_witnesses:
            assert w


def test_walker_triple_multiplicativity():
    rng = random.Random(11)
    for _ in range(4):
        a = theta_point(*[rng.randint(2, 9) for _ in range(3)])
        b = theta_point(*[rng.randint(2, 9) for _ in range(3)])
        if same_point(a, b):
            continue
        pts = piecewise_rigid_geodesic(a, b).breakpoints
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    assert stretch(pts[i], pts[k]) == stretch(
                        pts[i], pts[j]
                    ) * stretch(pts[j], pts[k])


def test_is_rigid_envelope_edge():
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = point_from_coords(
        theta_type(), (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))
    )
    path = piecewise_rigid_geodesic(a, b)
    assert is_rigid(path)


def test_is_rigid_fails_for_interior_chord():
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    mid = _segment_point(a, b, Fraction(1, 2))
    chord = GeodesicPath(
        (a, mid, b),
        (stretch_report(a, mid).candidate_witnesses,
         stretch_report(mid, b).candidate_witnesses),
        (0, 2),
    )
    # a hand-built path has no target and is read as it stands
    assert chord.target is None
    assert not is_rigid(chord)


def test_is_rigid_rejects_non_geodesic():
    a = theta_point(7, 7, 1)
    mid = theta_point(5, 9, 8)
    b = theta_point(7, 5, 8)
    assert not on_geodesic(a, mid, b)
    bogus = GeodesicPath((a, mid, b), (frozenset(), frozenset()), (0, 2))
    assert bogus.target is None
    with pytest.raises(NotAGeodesic):
        is_rigid(bogus)


def _general_position_pairs(rank, seed, count):
    """The first count pairs drawn from random_pair(rank, Random(seed))
    whose points are trivalent, distinct and in general position."""
    rng = random.Random(seed)
    while count:
        a, b = random_pair(rank, rng)
        if (a.ttype.is_trivalent() and b.ttype.is_trivalent()
                and not same_point(a, b) and general_position(a, b)[0]):
            count -= 1
            yield a, b


def _full_dim(p, q):
    """The largest slice dimension over the whole support: the uncapped
    definition of _pair_dim."""
    return max((envelope_slice(p, q, t).polytope.dim
                for t in support(p, q).simplices), default=-1)


def _rigid_in_order(path):
    """is_rigid by its definition: multiplicativity, then every pair
    (i, j) in order, each with its full support."""
    pts = path.breakpoints
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        if not on_geodesic(pts[i], pts[j], pts[k]):
            raise NotAGeodesic("breakpoints fail multiplicativity")
    return all(_full_dim(pts[i], pts[j]) <= 1
               for i, j in itertools.combinations(range(len(pts)), 2)
               if not same_point(pts[i], pts[j]))


@pytest.fixture(scope="module")
def fill_pairs():
    """Six seeded rank-2 pairs and the consecutive breakpoints of a
    seeded rank-3 walk."""
    rng = random.Random(7)
    pairs = [random_pair(2, rng) for _ in range(6)]
    a, b = random_pair(3, random.Random(1))
    pts = piecewise_rigid_geodesic(a, b).breakpoints
    steps = list(zip(pts, pts[1:]))
    assert len(steps) == 13
    return pairs + steps


def test_drained_fill_is_the_support(fill_pairs):
    sizes = set()
    for a, b in fill_pairs:
        want = support(a, b).simplices
        assert tuple(t for t, _ in _fill(a, b, len(want))) == want
        if a.ttype.rank == 2:
            assert marking_oracle.support(a, b)[0].simplices == want
        if want:
            # the fill yields every simplex it entered before it raises
            got = []
            with pytest.raises(BudgetExceeded):
                got.extend(_fill(a, b, len(want) - 1))
            assert tuple(t for t, _ in got) == want[:-1]
        sizes.add(len(want))
    assert max(sizes) > 4


def _drain(fill):
    """What a fill yields, and whether it stopped at its budget."""
    got = []
    try:
        got.extend(fill)
    except BudgetExceeded:
        return got, True
    return got, False


def _rows(read):
    """What an EnvelopeSlice holds, compared by value: its polytope
    compares by identity, and the slice memo may have built it again."""
    if read is not None:
        return read.simplex, read.gamma, read.polytope.halfspaces


def test_faces_read_off_their_parents_match_the_slice_per_face_twin(
        monkeypatch):
    # the twin builds every entered simplex's own slice and ORs its vertex
    # zero masks; the fill reads a face's masks off its parent's slice
    # with the collapsed coordinate squeezed out, and must yield the same
    # simplices in the same order, with the slice of T(a) and of each
    # trivalent chart, and no slice for a face; the masks a face was
    # queued with are those of the vertices of its own slice
    queued = {}  # face -> the masks the fill queued it with
    face, squeeze = envelopes._face, envelopes._squeeze

    def recorded_face(*args):
        f = face(*args)
        queued[None] = queued[f] = []
        return f

    def recorded_squeeze(z, i):
        queued[None].append(squeeze(z, i))
        return queued[None][-1]

    monkeypatch.setattr(envelopes, "_face", recorded_face)
    monkeypatch.setattr(envelopes, "_squeeze", recorded_squeeze)
    t0 = time.monotonic()
    runs = [(a, b, 500) for a, b in _general_position_pairs(2, 3, 20)]
    runs.append((_fixture("r3a"), _fixture("r3b"), 800))
    faces = set()
    for a, b, budget in runs:
        queued.clear()
        entered, stopped = _drain(_fill(a, b, budget))
        twin, twin_stopped = _drain(envelopes_oracle.fill(a, b, budget))
        assert stopped == twin_stopped == (a.ttype.rank == 3)
        assert [(t, _rows(read)) for t, read in entered] == [
            (t, _rows(own) if k == 0 or t.is_trivalent() else None)
            for k, (t, own) in enumerate(twin)]
        for (t, read), (_, own) in zip(entered, twin):
            if read is None:
                full = (1 << len(t.edges)) - 1
                assert sorted(queued[t]) == sorted(
                    v[1] & full for v in own.polytope._vertex_rays)
        faces.update((a.ttype.rank, len(t.edges)) for t, _ in entered[1:]
                     if not t.is_trivalent())
    assert faces == {(2, 2), (3, 5), (3, 4), (3, 3)}
    assert time.monotonic() - t0 < 60


def test_rank3_fixture_fill_builds_one_slice_per_trivalent_chart(monkeypatch):
    from cvn import polytope

    runs = []
    extreme_rays = polytope._extreme_rays

    def counted(*args, **kwargs):
        runs.append(args[1])
        return extreme_rays(*args, **kwargs)

    monkeypatch.setattr(polytope, "_extreme_rays", counted)
    envelopes._support.cache_clear()
    envelopes.envelope_slice.cache_clear()
    t0 = time.monotonic()
    sup = support(_fixture("r3a"), _fixture("r3b"), 2676)
    assert len(sup.simplices) == 2676
    assert sum(t.is_trivalent() for t in sup.simplices) == 1147
    # one slice per trivalent chart, and one more double description:
    # the feasibility run of T(a) before its full run
    assert envelopes.envelope_slice.cache_info().misses == 1147
    assert len(runs) == 1148 and set(runs) == {6}
    assert time.monotonic() - t0 < 60


def _capped_by_scan(p, q, cap):
    """_pair_dim by its definition: the running maximum of the slice
    dimensions of every support simplex, faces included, in fill order,
    stopped at the first that reaches cap."""
    best = -1
    for t in support(p, q).simplices:
        best = max(best, envelope_slice(p, q, t).polytope.dim)
        if best >= cap:
            break
    return best


def test_pair_dim_is_the_running_maximum_over_every_simplex(fill_pairs):
    # _pair_dim measures only T(p) and the trivalent slices; ray audits
    # start on rose faces and in theta charts, so their pairs' fills
    # start in faces as well as in trivalent charts
    pairs = list(fill_pairs)
    for a, direction, steps in [
            (rose_point([Fraction(5, 8), Fraction(3, 8)]),
             [CC([1]), CC([2])], 4),
            (theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
             [CC([1])], 3),
            (theta_point(1, 2, 4), [CC([1])], 3)]:
        audit = ray_dimension_audit(a, direction, steps)
        pts = audit.points
        for (i, j), d in audit.dims.items():
            assert d == _full_dim(pts[i], pts[j])
            pairs.append((pts[i], pts[j]))
    seen = set()
    for p, q in pairs:
        for cap in range(4):
            capped = _pair_dim(p, q, cap=cap)
            assert capped == _capped_by_scan(p, q, cap)
            seen.add((len(p.ttype.edges), capped))
    assert {(2, 1), (3, 2), (4, 0), (5, 1), (6, 1)} <= seen


def test_capped_pair_dim_matches_the_full_maximum(fill_pairs):
    seen = set()
    for a, b in fill_pairs:
        full = _full_dim(a, b)
        assert _pair_dim(a, b) == full
        for cap in range(4):
            capped = _pair_dim(a, b, cap=cap)
            assert (capped >= cap) == (full >= cap)
            assert capped <= full
            if full < cap:
                assert capped == full
        seen.add((a.ttype.rank, full))
    assert seen == {(2, 2), (3, 1)}


def test_widest_first_is_rigid_matches_in_order_oracle():
    edge_a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    edge_b = point_from_coords(
        theta_type(), (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)))
    chord_b = theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    mid = _segment_point(edge_a, chord_b, Fraction(1, 2))
    paths = [piecewise_rigid_geodesic(edge_a, edge_b),
             GeodesicPath((edge_a, mid, chord_b), (frozenset(),) * 2, (0, 2))]
    for a, b in _general_position_pairs(2, 3, 20):
        path = piecewise_rigid_geodesic(a, b)
        slices = envelopes.envelope_slice.cache_info().misses
        reports = stretch_report.cache_info().misses
        assert not is_rigid(path)
        # (a, b) is tested first and its T(a) slice is enough; the end
        # pair is read as (a, b), so the walk already built that slice and
        # the stretch report of every pair it walked or ended at b, which
        # are all the chain identity of multiplicativity reads
        assert envelopes.envelope_slice.cache_info().misses == slices
        assert stretch_report.cache_info().misses == reports
        paths.append(path)
    outcomes = [is_rigid(path) for path in paths]
    assert outcomes == [_rigid_in_order(path) for path in paths]
    assert outcomes[:2] == [True, False]


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def _fixture(name):
    return validate_and_normalize(
        graph_from_json((FIXTURES / f"{name}.json").read_text()))


@pytest.fixture(scope="module")
def fresh_walks():
    """(a, b, walk): the 20 general-position rank-2 walks, the theta
    fixture walk a -> b and the rank-3 fixture walk r3a -> r3b."""
    pairs = list(_general_position_pairs(2, 3, 20))
    pairs += [(_fixture("a"), _fixture("b")),
              (_fixture("r3a"), _fixture("r3b"))]
    return [(a, b, piecewise_rigid_geodesic(a, b)) for a, b in pairs]


def test_on_demand_charts_walk_like_the_eager_twin(fresh_walks, monkeypatch):
    monkeypatch.setattr(geodesics, "_advance", eager_advance)
    for a, b, path in fresh_walks:
        assert piecewise_rigid_geodesic(a, b) == path
    assert {a.ttype.rank for a, _, _ in fresh_walks} == {2, 3}


def test_walk_inside_its_start_chart_embeds_no_neighbour(monkeypatch):
    calls = []

    def counted(delta, here):
        calls.append(here)
        return charts_at(delta, here)

    charts_at = geodesics._charts_at
    monkeypatch.setattr(geodesics, "_charts_at", counted)
    a, b = _fixture("a"), _fixture("b")
    path = piecewise_rigid_geodesic(a, b)
    assert len(path.breakpoints) == 3
    assert all(p.ttype is a.ttype for p in path.breakpoints)
    assert calls == []
    # a walk through the rose face crosses charts, and embeds on demand
    eps = Fraction(1, 10)
    piecewise_rigid_geodesic(
        theta_point(Fraction(45, 100), eps, Fraction(45, 100)),
        twisted_theta_point(Fraction(40, 100), eps, Fraction(50, 100)))
    assert calls


def test_end_pair_reads_as_a_b(fresh_walks):
    for a, b, path in fresh_walks:
        assert path.target is b and path_end(path) is not b
        assert same_point(path_end(path), b)
        bare = GeodesicPath(path.breakpoints, path.segment_witnesses,
                            path.rigid_segments)
        assert bare == path and repr(bare) == repr(path)
        assert is_rigid(path) == is_rigid(bare)
        prev, last = path.breakpoints[-2:]
        assert path.segment_witnesses[-1] == candidate_witnesses(prev, last)


def test_capped_fill_answers_within_a_budget_the_support_exceeds():
    walks = [piecewise_rigid_geodesic(a, b)
             for a, b in _general_position_pairs(2, 3, 5)]
    for path in walks:
        assert not is_rigid(path, budget=1)
        with pytest.raises(BudgetExceeded):
            support(path_start(path), path_end(path), budget=1)
    # a rigid segment is only known rigid once its whole support is in
    u, v = walks[0].breakpoints[1:3]
    size = len(support(u, v).simplices)
    assert size > 1 and _pair_dim(u, v) == 1
    segment = GeodesicPath((u, v), (candidate_witnesses(u, v),), (0, 1))
    with pytest.raises(BudgetExceeded):
        is_rigid(segment, budget=size - 1)
    with pytest.raises(BudgetExceeded):
        _pair_dim(u, v, budget=size - 1, cap=2)
    assert is_rigid(segment, budget=size)


def test_general_position_generic_pair():
    ok, cert = general_position(theta_point(1, 2, 4), theta_point(5, 3, 2))
    assert ok
    assert cert.gamma in stretch_report(
        theta_point(1, 2, 4), theta_point(5, 3, 2)
    ).candidate_witnesses
    assert cert.strict


def test_general_position_same_point_false():
    a = theta_point(1, 2, 4)
    ok, cert = general_position(a, a)
    assert not ok and cert is None


def test_general_position_tied_pair_false():
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = theta_point(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    ok, _ = general_position(a, b)
    assert not ok


def test_general_position_sides_agree():
    rng = random.Random(29)
    for _ in range(15):
        a = theta_point(*[rng.randint(1, 9) for _ in range(3)])
        b = theta_point(*[rng.randint(1, 9) for _ in range(3)])
        assert general_position(a, b)[0] == general_position(a, b, "in")[0]


def test_general_position_unknown_side_is_typed():
    a, b = theta_point(1, 2, 4), theta_point(5, 3, 2)
    with pytest.raises(ParamOutOfRange, match="sideways"):
        general_position(a, b, via="sideways")
    # the side is checked before the points are
    with pytest.raises(ParamOutOfRange):
        general_position(rose_point([1, 1]), b, via="sideways")


def test_general_position_needs_maximal_simplex():
    with pytest.raises(NotMaximalSimplex):
        general_position(rose_point([1, 1]), theta_point(1, 2, 4))


def test_general_position_matches_fraction_twin():
    # the certificate read off integer slacks against a feasibility check,
    # the Fraction membership and HalfSpace.value, on both sides: general
    # pairs at rank 2, rank-3 draws, and pairs not in general position
    pairs = list(_general_position_pairs(2, 3, 20))
    rng = random.Random(17)
    while len(pairs) < 28:
        a, b = random_pair(3, rng)
        if a.ttype.is_trivalent() and b.ttype.is_trivalent():
            pairs.append((a, b))
    a = theta_point(1, 2, 4)
    pairs += [(a, a),
              (theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
               theta_point(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))]
    outcomes = set()
    for a, b in pairs:
        for via in ("out", "in"):
            got = general_position(a, b, via)
            assert got == geodesics_oracle.general_position(a, b, via)
            outcomes.add((a.ttype.rank, got[0]))
    assert {(2, True), (2, False), (3, True)} <= outcomes


def test_general_position_stable_under_perturbation():
    rng = random.Random(31)
    a = theta_point(7, 5, 3)
    b = theta_point(2, 5, 9)
    assert general_position(a, b)[0]
    cw = stretch_report(a, b).candidate_witnesses
    for _ in range(8):
        bump = [Fraction(rng.randint(-1, 1), 1000) for _ in range(3)]
        a2 = theta_point(*[q + d for q, d in zip(a.lengths, bump)])
        b2 = theta_point(*[q - d for q, d in zip(b.lengths, bump)])
        assert stretch_report(a2, b2).candidate_witnesses == cw


def test_local_approximation_geodesic_unchanged():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    mid = _segment_point(a, b, Fraction(1, 2))
    path = local_geodesic_approximation([a, mid, b], Fraction(2))
    assert [p.lengths for p in path.breakpoints] == [
        a.lengths, mid.lengths, b.lengths
    ]


def test_local_approximation_closed_triangle():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    c = theta_point(1, Fraction(1, 3), 1)
    path = local_geodesic_approximation([a, b, c, a], Fraction(2))
    pts = path.breakpoints
    assert [p.lengths for p in pts] == [
        a.lengths, b.lengths, c.lengths, a.lengths
    ]
    for p, q, r in zip(pts, pts[1:], pts[2:]):
        assert check_gluing(p, q, r)


def test_local_approximation_inserts_detour():
    # out and straight back: the turnaround needs a face-jumping detour
    a = theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    b = theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    path = local_geodesic_approximation([a, b, a], Fraction(2))
    pts = path.breakpoints
    assert len(pts) > 3
    for p, q, r in zip(pts, pts[1:], pts[2:]):
        assert check_gluing(p, q, r)


def test_local_approximation_guards():
    with pytest.raises(Unsupported):
        local_geodesic_approximation(
            [random_point(3, random.Random(1)),
             random_point(3, random.Random(2))], Fraction(2))
    with pytest.raises(ParamOutOfRange):
        local_geodesic_approximation([theta_point(1, 1, 1)], Fraction(1))
    with pytest.raises(ParamOutOfRange):
        local_geodesic_approximation(
            [theta_point(1, 1, 1), theta_point(9, 1, 1)], Fraction(1, 1000))


def test_ray_audit_figure_eight():
    a = rose_point([Fraction(5, 8), Fraction(3, 8)])
    audit = ray_dimension_audit(a, [CC([1]), CC([2])], 2)
    assert audit.crossings[-1] == 2
    # crossings land on figure eights with drifting rational lengths
    eights = [p for p in audit.points if len(p.ttype.edges) == 2]
    assert len(eights) >= 3
    assert sorted(eights[1].lengths) == [Fraction(2, 5), Fraction(3, 5)]
    for (i, j), d in audit.dims.items():
        if i >= 1:
            assert d == 1
    assert audit.stable_from <= 1


def test_ray_audit_builds_each_out_envelope_once(monkeypatch):
    # the point and direction of the ray-audit CLI fixture, rose.json
    a = rose_point([Fraction(5, 8), Fraction(3, 8)])
    direction = [CC([1]), CC([2])]
    with monkeypatch.context() as m:
        m.setattr(geodesics, "_ray_slice", geodesics._ray_slice.__wrapped__)
        want = ray_dimension_audit(a, direction, 4)
    builds = []
    build = geodesics.out_envelope

    def counted(base, s, delta):
        builds.append((base, s, delta))
        return build(base, s, delta)

    monkeypatch.setattr(geodesics, "out_envelope", counted)
    geodesics._ray_slice.cache_clear()
    assert ray_dimension_audit(a, direction, 4) == want
    assert len(builds) == len(set(builds)) == 11


def _stable_by_scan(dims, bound):
    """stable_from by its definition: the first index past which no pair
    starting there or later has dimension above bound."""
    for i in sorted({i for i, _ in dims}, reverse=True):
        if any(d > bound for (x, _), d in dims.items() if x >= i):
            return i + 1
    return 0


def test_ray_audit_stable_from_is_one_past_the_last_wide_pair(monkeypatch):
    # every pair of the real rays has dimension 1 = 3n-5, so feed the
    # audit made-up dimensions
    a = rose_point([Fraction(5, 8), Fraction(3, 8)])
    cases = [{}, {(0, 1): 1}, {(0, 1): 2, (1, 2): 1},
             {(0, 2): 2, (1, 2): 2, (2, 3): 1},
             {(0, 3): 2, (2, 3): 1, (1, 2): 2, (1, 3): 0},
             {(0, 1): 1, (3, 4): 2, (1, 4): 1}]
    for dims in cases:
        monkeypatch.setattr(geodesics, "_pair_dims",
                            lambda *args, dims=dims: iter(dims.items()))
        got = ray_dimension_audit(a, [CC([1]), CC([2])], 1).stable_from
        assert got == _stable_by_scan(dims, 1)
    assert [_stable_by_scan(d, 1) for d in cases] == [0, 0, 1, 2, 2, 4]


def test_ray_audit_rank_guard():
    with pytest.raises(Unsupported):
        ray_dimension_audit(
            random_point(3, random.Random(3)), [conj_class([1], 3)], 1
        )


@pytest.mark.parametrize("steps", [-3, 0, True, 2.5])
def test_ray_audit_steps_must_be_a_count(steps):
    with pytest.raises(ParamOutOfRange):
        ray_dimension_audit(rose_point([5, 3]), [CC([1]), CC([2])], steps)


def test_ray_audit_checks_its_direction_first():
    # the direction goes through the envelopes' own check before any step
    # or budget check: an empty one is EmptyDirection, as for
    # out_envelope, and a trivial class is TrivialClass even when the
    # steps or the budget would stop the walk before its first slice
    a = rose_point([5, 3])
    with pytest.raises(EmptyDirection):
        ray_dimension_audit(a, [], 1)
    trivial = [CC([1]), CC([])]
    with pytest.raises(TrivialClass):
        ray_dimension_audit(a, trivial, 0)
    with pytest.raises(TrivialClass):
        ray_dimension_audit(a, trivial, 1, budget=0)


class _Poly:
    def __init__(self, vertices):
        self.vertices = vertices


def test_first_step_sweeps_outside_charts_in_order(monkeypatch):
    # four charts, the first with no vertex.  Sweeps are the outer loop,
    # each over the charts in the given order, skipping the empty chart,
    # and each takes the first move in a chart whose kind it allows: the
    # CLEAN move of the third chart beats the VERTEX move of the second
    # when CLEAN is swept first
    a, b, c, d = (rose_type(2), theta_type(), twisted_theta_type(),
                  barbell_type())
    polys = {a: _Poly(()), b: _Poly((1,)), c: _Poly((1,)), d: _Poly((1,))}
    moves = {a: [(CLEAN, 0)], b: [(VERTEX, 2)],
             c: [(CLEAN, 3), (VERTEX, 6)], d: [(CLEAN, 4), (VERTEX, 7)]}
    gamma = CC([1, 2])
    slices = {t: EnvelopeSlice(t, gamma, poly) for t, poly in polys.items()}
    calls = []

    def stub(poly, coords, counts, chart):
        assert poly is polys[chart]
        assert counts == edge_counts(chart, gamma)
        calls.append(coords)
        yield from moves[chart]

    monkeypatch.setattr(geodesics, "_moves", stub)
    charts = [(a, "a"), (b, "b"), (c, "c"), (d, "d")]

    def first(sweeps, at=charts):
        calls.clear()
        return _first_step(at, slices.__getitem__, sweeps)

    assert first(({CLEAN}, {VERTEX})) == (c, 3)
    assert calls == ["b", "c"]
    assert first(({IDEAL}, {VERTEX})) == (b, 2)
    assert calls == ["b", "c", "d", "b"]
    assert first(({VERTEX},), [charts[0], charts[2]]) == (c, 6)
    assert calls == ["c"]
    assert first(({IDEAL}, {IDEAL})) is None
    assert calls == list("bcdbcd")


def _first_of(moves, kinds):
    return next((t for k, t in moves if k in kinds), None)


def test_move_stream_matches_the_step_twins(fresh_walks, monkeypatch):
    # every input the walker and the ray audit hand to _moves: the first
    # CLEAN, the first CLEAN or VERTEX and the first IDEAL move are the
    # picks of the step functions the stream replaced
    seen = []
    moves = geodesics._moves

    def recorded(poly, coords, counts, chart):
        seen.append((poly, coords, counts, chart))
        return moves(poly, coords, counts, chart)

    monkeypatch.setattr(geodesics, "_moves", recorded)
    for a, b, _ in fresh_walks:
        piecewise_rigid_geodesic(a, b)
    direction = [CC([1]), CC([2])]
    for x in (Fraction(5, 8), Fraction(7, 12), Fraction(13, 21)):
        ray_dimension_audit(rose_point([x, 1 - x]), direction, 4)
    # the ray in direction y alone from (2/3, 1/3) meets two improving
    # ideal corners at once, so the order of IDEAL moves shows
    ray_dimension_audit(rose_point([Fraction(2, 3), Fraction(1, 3)]),
                        [CC([2])], 3)
    kinds = set()
    ideal_pairs = 0
    for poly, coords, counts, chart in seen:
        stream = list(moves(poly, coords, counts, chart))
        if stream:
            kinds.add(stream[0][0])
        ideal_pairs += [k for k, _ in stream].count(IDEAL) > 1
        assert _first_of(stream, {CLEAN}) == geodesics_oracle._forward_vertex(
            poly, coords, counts, chart, require_clean=True)
        assert _first_of(stream, {CLEAN, VERTEX}) == (
            geodesics_oracle._forward_vertex(poly, coords, counts, chart))
        assert _first_of(stream, {IDEAL}) == (
            geodesics_oracle._ideal_half_step(poly, coords, counts, chart))
    assert kinds == {CLEAN, VERTEX, IDEAL} and ideal_pairs


def _fraction_score(delta, gamma, coords):
    """The Fraction twin of the walker's score: the length n . x of gamma
    at the point x of the chart delta."""
    counts = edge_counts(delta, gamma)
    return sum(Fraction(n) * c for n, c in zip(counts, coords))


def _same_point_by_stretch(a, b):
    """The two-stretch definition of same_point."""
    return (marking_equivalent(a.ttype, b.ttype)
            and stretch(a, b) == 1 and stretch(b, a) == 1)


def _inner_twin(p):
    """p with its marking changed by conjugation by x: the same point of
    the space on a different type object."""
    x = generator(1, p.ttype.rank)
    images = [x * generator(i, p.ttype.rank) * x.inverse()
              for i in range(1, p.ttype.rank + 1)]
    return apply_outer_automorphism(p, images)


def _walks(rank, seeds):
    for seed in seeds:
        a, b = random_pair(rank, random.Random(seed))
        if not same_point(a, b):
            yield a, b, piecewise_rigid_geodesic(a, b).breakpoints


def _score_slices():
    """(chart, walked class, slice): the support slices of seeded rank-2
    pairs, and the slices of seeded rank-3 pairs in every fifth trivalent
    chart around the rose."""
    for seed in range(8):
        a, b = random_pair(2, random.Random(300 + seed))
        for delta in support(a, b).simplices:
            s = envelope_slice(a, b, delta)
            yield delta, s.gamma, s.polytope
    for seed in range(2):
        a, b = random_pair(3, random.Random(300 + seed))
        for delta in resolutions(rose_type(3))[::5]:
            s = envelope_slice(a, b, delta)
            yield delta, s.gamma, s.polytope


def test_vertex_scores_order_like_fraction_scores():
    # the integer scores of the vertices, and of the midpoints of the
    # skeleton edges, order and compare as the Fraction scores do
    mixed = 0  # slices whose vertex rays have different sums
    for delta, gamma, poly in _score_slices():
        counts = edge_counts(delta, gamma)
        scores = _vertex_scores(poly, counts)
        want = [_fraction_score(delta, gamma, v) for v in poly.vertices]

        def compare(i, j):
            return _beats(scores[i], scores[j]) - _beats(scores[j], scores[i])

        indices = range(len(want))
        assert (sorted(indices, key=cmp_to_key(compare))
                == sorted(indices, key=want.__getitem__))
        for i, j in itertools.product(indices, repeat=2):
            assert _beats(scores[i], scores[j]) == (want[i] > want[j])
        vs = poly.vertices
        for u, w in poly.skeleton_edges:
            mid = tuple((x + y) / 2 for x, y in zip(vs[u], vs[w]))
            here = _coords_score(counts, mid)
            m = _fraction_score(delta, gamma, mid)
            assert _beats(scores[u], here) == (want[u] > m)
            assert _beats(here, scores[w]) == (m > want[w])
        mixed += len({s for _, s in scores}) > 1
    assert mixed


def test_witness_pool_is_the_candidate_witness_set():
    for a, b, pts in _walks(2, range(4)):
        for p in pts:
            want = frozenset(g for g in candidate_words(p.ttype)
                             if is_witness(g, p, b))
            assert candidate_witnesses(p, b) == want


def test_same_point_matches_two_stretch_definition():
    pairs = same = 0
    for a, b, pts in _walks(2, range(20)):
        pts = list(pts) + [_inner_twin(p) for p in pts[::2]]
        for p, q in itertools.product(pts, repeat=2):
            want = _same_point_by_stretch(p, q)
            assert same_point(p, q) == want
            pairs += 1
            same += want and p.ttype is not q.ttype
    assert same and pairs > same
