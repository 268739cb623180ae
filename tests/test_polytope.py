import itertools
import math
import random
from fractions import Fraction

import polytope_oracle
import pytest
from polytope_oracle import (
    _solve_square,
    affine_rank,
    lp_feasible,
    skeleton_edges,
    tight_set_vertices,
)
from point_readings import barycenter, coeffs, value

from cvn import polytope
from cvn.envelopes import envelope_slice
from cvn.errors import DimensionMismatch, Infeasible, ParamOutOfRange
from cvn.graphs import SimplexPoint, make_type, resolutions, rose_type
from cvn.polytope import (
    HalfSpace,
    Polytope,
    equality,
    feasible,
)
from constructions import random_pair


def H(*coeffs):
    return HalfSpace.make(coeffs, ("test",))


def test_empty_system_feasible():
    assert feasible([], 3)
    assert feasible([], 1)


def test_contradictory_halfspaces_infeasible():
    # x1 - x2 >= 0 and x2 - x1 >= x1 + x2 (i.e. 2x2 <= 0 with x2 >= x1)
    # simplest contradiction: x1 >= x2 and x2 >= x1 + (x1+x2) fails unless 0
    a = H(1, -1)
    b = H(-3, 1)  # x2 >= 3 x1, combined with x1 >= x2 forces x1 = x2 = 0
    assert not feasible([a, b], 2)


def test_generic_halfspace_feasible():
    assert feasible([H(1, -1, 0)], 3)
    assert feasible([H(-1, 2, 2)], 3)


def test_degenerate_constraints_ignored():
    assert feasible([HalfSpace.make((0, 0, 0), ("z",))], 3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        feasible([H(1, -1)], 3)
    with pytest.raises(DimensionMismatch):
        Polytope(3, [H(1, -1)])


def test_halfspace_make_and_integer_rows_agree():
    # the same coefficient vector from ints, Fractions, a scaled integer
    # row over its denominator, and make with a denominator
    forms = [
        HalfSpace.make((Fraction(1, 2), Fraction(-3, 4), 0), ("p",)),
        HalfSpace.make(("1/2", Fraction(-6, 8), Fraction(0)), ("p",)),
        HalfSpace((2, -3, 0), 4, ("p",)),
        HalfSpace((6, -9, 0), 12, ("p",)),
        HalfSpace.make((2, -3, 0), ("p",), 4),
        HalfSpace.make((Fraction(3, 2), Fraction(-9, 4), 0), ("p",), 3),
    ]
    for h in forms:
        assert h == forms[0]
        assert hash(h) == hash(forms[0])
        assert (h.row, h.den) == ((2, -3, 0), 4)
        assert coeffs(h) == (Fraction(1, 2), Fraction(-3, 4), Fraction(0))
    assert HalfSpace.make((1, 2), ("p",)) == HalfSpace((3, 6), 3, ("p",))
    assert HalfSpace.make((1, 2), ("p",)) != HalfSpace((1, 2), 2, ("p",))
    assert HalfSpace((1, 2), 1, ("p",)) != HalfSpace((1, 2), 1, ("q",))


def test_halfspace_lowest_terms():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 5)
        row = tuple(rng.randint(-6, 6) * 6 for _ in range(d))
        den = rng.randint(1, 4) * 6
        h = HalfSpace(row, den, ("r",))
        assert h.den > 0
        assert math.gcd(h.den, *h.row) == 1
        assert coeffs(h) == tuple(Fraction(q, den) for q in row)
        assert h == HalfSpace.make([Fraction(q, den) for q in row], ("r",))


def test_halfspace_degenerate_exactly_for_zero_rows():
    assert HalfSpace((0, 0, 0), 7, ("z",)).degenerate
    assert HalfSpace((0, 0, 0), 7, ("z",)).den == 1
    assert HalfSpace.make((0, Fraction(0), "0"), ("z",)).degenerate
    for row in itertools.product((-1, 0, 2), repeat=3):
        assert HalfSpace(row, 3, ("r",)).degenerate == (row == (0, 0, 0))


def test_halfspace_value_is_exact():
    h = HalfSpace((1, -2, 3), 7, ("v",))
    x = (Fraction(1, 3), Fraction(1, 5), Fraction(7, 15))
    assert value(h, x) == Fraction(1 * 5 - 2 * 3 + 3 * 7, 15 * 7)
    assert isinstance(value(h, (1, 1, 1)), Fraction)
    assert value(h, (1, 1, 1)) == Fraction(2, 7)
    assert value(HalfSpace((1, -1), 3, ("v",)), (Fraction(1, 2),) * 2) == 0


def test_halfspace_wrong_length_and_bad_denominator():
    h = HalfSpace((1, -1), 2, ("w",))
    with pytest.raises(DimensionMismatch):
        value(h, (Fraction(1, 3),) * 3)
    for den in (0, -2):
        with pytest.raises(ParamOutOfRange):
            HalfSpace((1, -1), den, ("w",))


def test_full_simplex_vertices():
    p = Polytope(3, [])
    assert p.vertices == (
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    )
    assert p.dim == 2
    assert len(p.skeleton_edges) == 3


def test_halfspace_cut_vertices():
    p = Polytope(3, [H(1, -1, 0)])  # x1 >= x2
    # cut triangle: (1,0,0), (0,0,1) and the midpoint where the plane
    # x1 = x2 crosses the bottom edge
    assert set(p.vertices) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    }
    assert p.dim == 2


def test_equality_segment():
    p = Polytope(3, equality((1, -1, 0), ("eq",)))  # x1 = x2
    assert set(p.vertices) == {
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    }
    assert p.dim == 1
    assert p.skeleton_edges == ((0, 1),)


def test_point_polytope():
    hs = equality((1, -1, 0), ("a",)) + equality((0, 1, -1), ("b",))
    p = Polytope(3, hs)
    assert p.vertices == ((Fraction(1, 3),) * 3,)
    assert p.dim == 0
    assert p.skeleton_edges == ()


def test_infeasible_polytope():
    p = Polytope(2, [H(1, -1), H(-3, 1)])
    assert p.vertices == ()
    assert p.dim == -1
    assert not p.is_feasible()
    with pytest.raises(Infeasible):
        p.skeleton_edges


def test_feasible_matches_vertex_enumeration():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.choice([2, 3, 4])
        hs = [
            H(*[Fraction(rng.randint(-3, 3)) for _ in range(d)])
            for _ in range(rng.randint(1, 4))
        ]
        p = Polytope(d, hs)
        assert feasible(hs, d) == (len(p.vertices) > 0)


def test_membership_closed_and_interior():
    p = Polytope(3, [H(1, -1, 0)])
    bary = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert p.contains(bary, "closed")
    # barycenter is on the cutting plane x1 = x2: not relative interior
    assert not p.contains(bary, "relative-interior")
    inside = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert p.contains(inside, "relative-interior")
    outside = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert not p.contains(outside, "closed")


def test_membership_unknown_mode_is_typed():
    p = Polytope(3, [H(1, -1, 0)])
    inside = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    outside = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    off_simplex = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    for x in (inside, outside, off_simplex):
        with pytest.raises(ParamOutOfRange, match="bogus"):
            p.contains(x, "bogus")


def test_membership_vertex_not_interior():
    p = Polytope(3, [])
    assert p.contains((1, 0, 0), "closed")
    assert not p.contains((1, 0, 0), "relative-interior")


def test_membership_on_segment():
    p = Polytope(3, equality((1, -1, 0), ("eq",)))
    mid = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert p.contains(mid, "relative-interior")
    end = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert p.contains(end, "closed")
    assert not p.contains(end, "relative-interior")


def test_dimension_monotone_under_constraints():
    rng = random.Random(5)
    for _ in range(20):
        d = 3
        hs = [H(*[Fraction(rng.randint(-2, 2)) for _ in range(d)])
              for _ in range(3)]
        dims = []
        for k in range(len(hs) + 1):
            dims.append(Polytope(d, hs[:k]).dim)
        assert all(a >= b for a, b in zip(dims, dims[1:]))


def _polygon_oracle_2d(halfspaces):
    """Independent rank-2 check: intersect constraint lines pairwise in the
    plane sum = 1 and keep feasible intersection points."""
    unit = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    cons = [coeffs(h) for h in halfspaces] + unit
    pts = set()
    for a, b in itertools.combinations(cons, 2):
        rows = [list(a), list(b), [1, 1, 1]]
        rhs = [Fraction(0), Fraction(0), Fraction(1)]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(Fraction(c) * q for c, q in zip(co, x)) >= 0 for co in cons):
            pts.add(x)
    return pts


def test_vertices_match_2d_oracle():
    rng = random.Random(41)
    for _ in range(50):
        hs = [H(*[Fraction(rng.randint(-3, 3)) for _ in range(3)])
              for _ in range(rng.randint(1, 3))]
        p = Polytope(3, hs)
        assert set(p.vertices) == _polygon_oracle_2d(
            [h for h in hs if not h.degenerate]
        )


def test_barycenter_in_relative_interior():
    p = Polytope(3, [H(1, -1, 0)])
    assert p.contains(barycenter(p), "relative-interior")
    seg = Polytope(3, equality((1, -1, 0), ("eq",)))
    assert seg.contains(barycenter(seg), "relative-interior")


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(1, 0)]) == 0
    assert affine_rank([(1, 0), (0, 1)]) == 1
    assert affine_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 2


def _random_system(rng, d):
    """Random integer rows, mostly turned to hold at a random positive point
    so that most systems are feasible, plus the awkward cases: an equality,
    a duplicate, a positive rational multiple, a zero row and, sometimes, a
    row that no point of the simplex satisfies."""
    x0 = [rng.randint(1, 5) for _ in range(d)]
    orient = rng.random() < 0.8

    def row():
        r = [rng.randint(-3, 3) for _ in range(d)]
        if orient and sum(a * b for a, b in zip(r, x0)) < 0:
            r = [-a for a in r]
        return [Fraction(a) for a in r]

    hs = [H(*row()) for _ in range(rng.randint(1, 8 - d // 2))]
    if rng.random() < 0.3:
        hs += equality(row(), ("eq",))
    if rng.random() < 0.4:
        hs.append(rng.choice(hs))
    if rng.random() < 0.4:
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        hs.append(H(*[scale * c for c in coeffs(rng.choice(hs))]))
    if rng.random() < 0.3:
        hs.append(H(*[0] * d))
    if rng.random() < 0.15:
        hs.append(H(*[-1] * d))
    rng.shuffle(hs)
    return hs


def _assert_integer_twins(p):
    """The integer rays and the integer dimension against their Fraction
    twins: each vertex is its ray over the ray's sum, and dim is the
    affine rank of the vertices."""
    assert len(p.rays) == len(p.vertices)
    for (ray, s), v in zip(p.rays, p.vertices):
        assert s == sum(ray) and math.gcd(*ray) == 1
        assert tuple(Fraction(q, s) for q in ray) == v
    assert p.dim == affine_rank(p.vertices)


def test_dim_matches_affine_rank_of_vertices():
    # random systems give empty (-1) and full-dimensional polytopes, and
    # x_1 = ... = x_d a single point (0); rank-3 envelope slices give the
    # dimensions the support and the rigidity check read
    rng = random.Random(77)
    for d in (2, 3, 4, 5, 6):
        dims = set()
        for _ in range(60):
            p = Polytope(d, _random_system(rng, d))
            _assert_integer_twins(p)
            dims.add(p.dim)
        assert {-1, d - 1} <= dims, (d, dims)
        chain = [h for i in range(d - 1) for h in equality(
            [int(j == i) - int(j == i + 1) for j in range(d)], ("eq", i))]
        point = Polytope(d, chain)
        _assert_integer_twins(point)
        assert point.dim == 0
    dims = set()
    for hs in _rank3_sweep(1) + _rank3_sweep(4):
        p = Polytope(6, hs)
        _assert_integer_twins(p)
        dims.add(p.dim)
    assert -1 in dims and len(dims) > 2


def _assert_witness(hs, d):
    """The rays that end a feasibility run are nonzero points of the cone:
    nonnegative, and nonnegative on every half-space."""
    rays = polytope._extreme_rays(hs, d, witness=True)
    assert rays
    for ray, _ in rays:
        assert min(ray) >= 0 and max(ray) > 0
        assert all(value(h, ray) >= 0 for h in hs)


def _assert_matches_oracle(hs, d):
    p = Polytope(d, hs)
    expect = tight_set_vertices(hs, d)
    assert p.vertices == expect
    _assert_integer_twins(p)
    assert feasible(hs, d) == lp_feasible(hs, d) == bool(expect)
    assert p.is_feasible() == bool(expect)
    if expect:
        assert p.skeleton_edges == skeleton_edges(hs, d, expect)
        _assert_witness(hs, d)
    else:
        assert polytope._extreme_rays(hs, d, witness=True) == []


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_random_systems_match_oracles(d):
    rng = random.Random(1000 + d)
    outcomes = set()
    for _ in range({5: 20, 6: 8}.get(d, 60)):
        hs = _random_system(rng, d)
        _assert_matches_oracle(hs, d)
        outcomes.add(feasible(hs, d))
    assert outcomes == {True, False}


def test_rank3_envelope_slice_matches_oracles():
    # K4 with a spanning star at q1: a trivalent rank-3 chart of dimension 6
    t = make_type(3, ["q1", "q2", "q3", "q4"], [
        ("t1", "q1", "q2", []), ("t2", "q1", "q3", []),
        ("t3", "q1", "q4", []), ("a", "q2", "q3", [1]),
        ("b", "q3", "q4", [2]), ("c", "q4", "q2", [3]),
    ], ["t1", "t2", "t3"])

    def point(*nums):
        return SimplexPoint(t, tuple(Fraction(k, sum(nums)) for k in nums))

    a = point(1, 2, 3, 4, 5, 6)
    b = point(6, 1, 5, 2, 4, 3)
    hs = envelope_slice(a, b, t).polytope.halfspaces
    _assert_matches_oracle(hs, 6)
    assert len(Polytope(6, hs).vertices) > 6


def _rank3_sweep(seed):
    """The half-spaces of one seeded rank-3 pair's slice in each of the 105
    trivalent charts, the charts that the rank3 benchmark sweeps."""
    a, b = random_pair(3, random.Random(seed))
    return [envelope_slice(a, b, t).polytope.halfspaces
            for t in resolutions(rose_type(3))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank3_sweep_matches_oracles(seed):
    # feasibility against the LP, and the skeleton from the oracle's tight
    # sets, in every chart; exhaustive tight-set vertex enumeration takes
    # 0.2-0.4 s a slice here, so it checks every fourth nonempty slice
    outcomes = set()
    nonempty = 0
    for hs in _rank3_sweep(seed):
        p = Polytope(6, hs)
        yes = feasible(hs, 6)
        outcomes.add(yes)
        assert yes == lp_feasible(hs, 6)
        assert yes == bool(p.vertices) == p.is_feasible()
        if yes:
            if nonempty % 4 == 0:
                assert p.vertices == tight_set_vertices(hs, 6)
            nonempty += 1
            assert p.skeleton_edges == skeleton_edges(hs, 6, p.vertices)
            _assert_witness(hs, 6)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank3_sweep_independent_of_row_order(seed):
    rng = random.Random(seed)
    for hs in _rank3_sweep(seed):
        p = Polytope(6, hs)
        shuffled = list(hs)
        rng.shuffle(shuffled)
        for other in (shuffled, hs[::-1]):
            q = Polytope(6, other)
            assert feasible(other, 6) == feasible(hs, 6)
            assert q.vertices == p.vertices
            if p.vertices:
                assert q.skeleton_edges == p.skeleton_edges


def test_is_feasible_reads_cached_vertices(monkeypatch):
    calls = []

    def counting(halfspaces, d):
        calls.append(d)
        return feasible(halfspaces, d)

    monkeypatch.setattr(polytope, "feasible", counting)
    cut, empty = Polytope(3, [H(1, -1, 0)]), Polytope(3, [H(-1, -1, -1)])
    assert cut.is_feasible() and not empty.is_feasible()
    assert calls == [3, 3]
    assert cut.vertices and not empty.vertices
    assert cut.is_feasible() and not empty.is_feasible()
    assert calls == [3, 3]


def _membership_probes(p, rng):
    """Points to test p against, as Fractions, ints or both: its vertices,
    points on its skeleton edges, its barycenter, random points of the
    simplex (mostly outside a cut polytope), points off the simplex, and
    points whose sum is not 1."""
    d = p.ambient_dim
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    probes = list(units)
    probes += [(2, -1) + (0,) * (d - 2), (1, 1) + (0,) * (d - 2), (0,) * d]
    vs = p.vertices
    probes += vs
    # a vertex with its zero coordinates as ints
    probes += [tuple(int(q) if q == 0 else q for q in v) for v in vs]
    if vs:
        probes += [tuple(Fraction(a + b, 2) for a, b in zip(vs[i], vs[j]))
                   for i, j in p.skeleton_edges]
        probes += [tuple((a + 2 * b) / 3 for a, b in zip(vs[i], vs[j]))
                   for i, j in p.skeleton_edges[:3]]
        bary = barycenter(p)
        probes.append(bary)
        probes.append(tuple(2 * q for q in bary))  # sums to 2
        probes.append(bary[:-1] + (bary[-1] + Fraction(1, 10**30),))
    for _ in range(6):
        nums = [rng.randint(0, 4) for _ in range(d)]
        if sum(nums):
            probes.append(tuple(Fraction(k, sum(nums)) for k in nums))
    probes.append((Fraction(3, 2), Fraction(-1, 2)) + (Fraction(0),) * (d - 2))
    return probes


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_contains_matches_fraction_twin(d):
    # Polytope.contains against the Fraction twin on random systems with
    # equalities, duplicate rows and zero rows; every outcome occurs, and
    # boundary points of polytopes of positive dimension (in the closed
    # polytope, not in its relative interior) among them
    rng = random.Random(2600 + d)
    seen = set()
    for _ in range({5: 25, 6: 12}.get(d, 40)):
        p = Polytope(d, _random_system(rng, d))
        for x in _membership_probes(p, rng):
            closed = p.contains(x, "closed")
            interior = p.contains(x, "relative-interior")
            assert closed == polytope_oracle.contains(p, x, "closed")
            assert interior == polytope_oracle.contains(
                p, x, "relative-interior")
            seen.add((closed, interior))
    assert seen == {(False, False), (True, False), (True, True)}
    p = Polytope(d, [])
    for mode in ("closed", "relative-interior"):
        with pytest.raises(DimensionMismatch, match="point in dim"):
            p.contains((1,) + (0,) * d, mode)
        with pytest.raises(DimensionMismatch, match="point in dim"):
            polytope_oracle.contains(p, (1,) + (0,) * d, mode)
