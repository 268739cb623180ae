"""The module-level memos: bounded, clearable, and invisible in results.

Each memoised answer is compared with the answer computed again after every
cache of the package has been emptied, and embeddings, at ranks 2 and 3,
with the first edge map of marking_oracle.marking_isomorphisms over the
uncached forests and collapses of marking_oracle, which is how embed_point
found them before it read the keyed collapse table.  The support fill
builds a face only when it queues it: its collapse builds are counted.
"""

import importlib
import importlib.util
import itertools
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import pytest

import cvn
import marking_oracle
from cvn import candidates, envelopes, graphs
from cvn.errors import BudgetExceeded, NotAForest
from cvn.envelopes import (
    DEFAULT_BUDGET,
    _fill,
    reference_witness,
    slice_polytope,
    support,
)
from cvn.geodesics import _pair_dim
from cvn.graphs import (
    SimplexPoint,
    adjacent_simplices,
    barbell_type,
    collapse_forest,
    embed_point,
    graph_from_json,
    point_from_coords,
    resolutions,
    rose_point,
    rose_type,
    theta_point,
    theta_type,
    tighten,
    twisted_theta_point,
    validate_and_normalize,
)
from cvn.metric import brute_force_lambda, length_numerator, stretch_report
from cvn.sampling import random_pair
from cvn.words import Word, conj_class, conjugacy_classes_up_to, invert
from test_marking_key import _edge_map


def _cvn_modules():
    return [importlib.import_module(f"cvn.{m.name}")
            for m in pkgutil.iter_modules(cvn.__path__)]


def _caches():
    """Every module-level lru_cache of the package, by qualified name."""
    out = {}
    for mod in _cvn_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                out[f"{mod.__name__}.{attr}"] = obj
    return out


def _clear_all():
    for fn in _caches().values():
        fn.cache_clear()


def _pairs():
    rng = random.Random(11)
    out = [(theta_point(1, 2, 3), twisted_theta_point(3, 1, 2)),
           (theta_point(1, 2, 4), theta_point(4, 2, 1))]
    out += [random_pair(2, rng, twist_steps=2) for _ in range(4)]
    return out


# the per-class memos: classes by letters, one object per class, edge
# counts per (type, class) and length numerators per (point, class)
CLASS_MEMOS = ("cvn.words._class_of", "cvn.words._interned",
               "cvn.candidates._edge_counts", "cvn.metric._length_numerator")


def test_every_cache_is_bounded():
    caches = _caches()
    for name in ("cvn.metric.stretch_report", "cvn.envelopes._slice",
                 "cvn.envelopes._support", "cvn.graphs._collapse_keys",
                 "cvn.graphs._collapse_cached") + CLASS_MEMOS:
        assert name in caches
    for name, fn in caches.items():
        assert fn.cache_parameters()["maxsize"] is not None, name


def _class_memo_sizes():
    caches = _caches()
    return [caches[name].cache_info().currsize for name in CLASS_MEMOS]


def test_class_memos_are_cleared_by_the_bench():
    charts = resolutions(rose_type(3))[:3]
    p = SimplexPoint(charts[0], tuple(Fraction(k, 21) for k in range(1, 7)))
    for t in charts:
        for c in candidates.enumerate_candidates(t):
            candidates.edge_counts(t, c.word)
            length_numerator(p, c.word)
    assert all(_class_memo_sizes())
    _bench_tracer().clear_caches()
    assert not any(_class_memo_sizes())


def test_reported_caches_keep_their_statistics():
    # the benchmark reads hit ratios from these three and clears them
    for fn in (graphs.marking_equivalent, graphs._tighten_cached,
               candidates.enumerate_candidates):
        assert callable(fn.cache_info)
        assert callable(fn.cache_clear)


def _bench_tracer():
    """perfbench/tracer.py, whose clear_caches starts every timed pass."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_letter_path_table_is_bounded_and_cleared():
    table = graphs._letter_paths
    assert table.cache_parameters()["maxsize"] is not None
    assert "cvn.graphs._letter_paths" in _caches()
    t = theta_point(1, 2, 3).ttype
    assert table(t) is table(t)
    assert table.cache_info().currsize > 0
    _bench_tracer().clear_caches()
    assert table.cache_info().currsize == 0
    assert graphs._tighten_cached.cache_info().currsize == 0


def test_face_table_is_shared_and_cleared():
    t = theta_type()
    assert graphs._collapse_keys(t, 1) is graphs._collapse_keys(t, 1)
    for forest in marking_oracle.forests(t):
        once = collapse_forest(t, forest)
        assert collapse_forest(t, set(forest)) is once
        assert collapse_forest(t, sorted(forest)) is once
    assert graphs._collapse_cached.cache_info().currsize > 0
    _bench_tracer().clear_caches()
    assert graphs._collapse_keys.cache_info().currsize == 0
    assert graphs._collapse_cached.cache_info().currsize == 0


def test_bad_forests_are_raised_again_and_never_cached():
    t = barbell_type()
    collapse_forest(t, {"e2"})
    before = graphs._collapse_cached.cache_info()
    for _ in range(2):
        with pytest.raises(KeyError):
            collapse_forest(t, {"e2", "nope"})
        with pytest.raises(NotAForest):
            collapse_forest(t, {"e1"})  # a loop
        with pytest.raises(NotAForest):
            collapse_forest(theta_type(), {"e1", "e2"})  # a cycle
    after = graphs._collapse_cached.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_brute_force_lambda_leaves_tighten_memo_empty():
    # every class of a fallback-free trivalent rank-3 pair is summed from
    # the junction tables, so no loop is tightened or memoised
    charts = resolutions(rose_type(3))
    lengths = tuple(Fraction(k, 21) for k in range(1, 7))
    a = SimplexPoint(charts[0], lengths)
    b = SimplexPoint(charts[-1], lengths[::-1])
    lam = brute_force_lambda(a, b, 6)
    _clear_all()
    assert brute_force_lambda(a, b, 6) == lam
    assert graphs._tighten_cached.cache_info().currsize == 0
    # enumeration wraps its classes itself, so no class is interned, and
    # no edge count or length is memoised
    assert not any(_class_memo_sizes())
    list(conjugacy_classes_up_to(3, 4))
    assert not any(_class_memo_sizes())


def test_coded_loops_and_weights_are_immutable():
    p = twisted_theta_point(3, 1, 2)
    for g in conjugacy_classes_up_to(2, 4):
        codes = graphs._tighten_cached(p.ttype, g.rep.letters)
        assert type(codes) is tuple
        assert all(type(k) is int and k != 0 for k in codes)
    assert type(p.code_weights) is tuple
    assert p.code_weights is p.code_weights
    assert all(type(w) is int for w in p.code_weights)


def test_tighten_matches_fresh():
    charts = resolutions(rose_type(3))[::15]
    classes = list(conjugacy_classes_up_to(3, 4))
    memo = {(t, g): tighten(t, g) for t in charts for g in classes}
    p = theta_point(1, 2, 4)
    lengths = {g: length_numerator(p, g)
               for g in conjugacy_classes_up_to(2, 5)}
    _clear_all()
    assert {(t, g): tighten(t, g) for t in charts for g in classes} == memo
    assert {g: length_numerator(p, g) for g in lengths} == lengths


def _chart_answers(t):
    """The candidates of t and every per-class answer read for them."""
    n = len(t.edges)
    p = SimplexPoint(t, tuple(Fraction(k, n * (n + 1) // 2)
                              for k in range(1, n + 1)))
    cands = candidates.enumerate_candidates(t)
    return (cands, [candidates.edge_counts(t, c.word) for c in cands],
            [length_numerator(p, c.word) for c in cands],
            [str(c.word) for c in cands])


def test_candidates_and_class_memos_match_fresh_in_every_rank3_chart():
    charts = resolutions(rose_type(3))
    assert len(charts) == 105
    memo = [_chart_answers(t) for t in charts]
    for t, want in zip(charts, memo):
        _clear_all()
        # candidates compare by kind, path, class and counts, in order
        assert _chart_answers(t) == want


def test_class_name_and_hash_are_the_uncached_ones():
    fresh = [conj_class(c.word.rep.letters, 3)
             for c in candidates.enumerate_candidates(
                 resolutions(rose_type(3))[7])]
    for g in fresh + list(conjugacy_classes_up_to(2, 4)):
        assert str(g) == str(g.rep) == Word.__dict__["_name"].func(g.rep)
        assert str(g) is str(g)
        rep = Word(g.rep.letters, g.rank)  # a new object: nothing cached
        assert hash(g) == hash(g.rep) == hash((rep.letters, rep.rank))


def test_equal_classes_of_two_charts_are_one_object():
    charts = resolutions(rose_type(3))
    first = {c.word: c.word for c in candidates.enumerate_candidates(charts[0])}
    shared = 0
    for t in charts[1:]:
        for c in candidates.enumerate_candidates(t):
            if c.word in first:
                assert c.word is first[c.word]
                shared += 1
    assert shared > 0
    for g in first:
        assert conj_class(g.rep.letters, 3) is g
        assert conj_class(invert(g.rep.letters), 3) is g
    _clear_all()
    g = next(iter(first))
    assert conj_class(g.rep.letters, 3) == g
    assert conj_class(g.rep.letters, 3) is not g


def test_support_and_pair_dim_do_not_depend_on_cache_state():
    # a rank-3 pair whose support (248 simplices) fills in about a second,
    # computed from cold caches and again after three other pairs have
    # filled the class, candidate and type memos
    rng = random.Random(7)
    pairs = [random_pair(3, rng) for _ in range(4)]
    a, b = pairs[0]

    def answers():
        return (support(a, b).simplices, _pair_dim(a, b),
                _pair_dim(a, b, cap=2))

    _clear_all()
    cold = answers()
    assert len(cold[0]) == 248
    _clear_all()
    warmed = 0
    for p, q in pairs[1:]:
        _pair_dim(p, q)
        with pytest.raises(BudgetExceeded):
            support(p, q, 60)
        warmed += 1
    assert warmed == 3
    assert all(_class_memo_sizes())
    assert answers() == cold


def test_stretch_report_memo_matches_fresh():
    for a, b in _pairs():
        memo = stretch_report(a, b)
        assert stretch_report(a, b) is memo
        _clear_all()
        fresh = stretch_report(a, b)
        assert fresh is not memo
        assert fresh == memo
        assert dict(fresh.per_candidate) == dict(memo.per_candidate)


def test_shared_per_candidate_is_read_only():
    a, b = _pairs()[0]
    rep = stretch_report(a, b)
    word = next(iter(rep.per_candidate))
    with pytest.raises(TypeError):
        rep.per_candidate[word] = Fraction(0)
    with pytest.raises(TypeError):
        del rep.per_candidate[word]
    assert stretch_report(a, b).lam == max(rep.per_candidate.values())


def test_support_and_slices_match_fresh():
    for a, b in _pairs():
        memo = support(a, b)
        assert support(a, b) is memo
        gamma = reference_witness(a, b)
        verts = {t: slice_polytope(a, b, gamma, t).vertices
                 for t in memo.simplices}
        _clear_all()
        fresh = support(a, b)
        assert fresh == memo
        for t in memo.simplices:
            _clear_all()
            assert slice_polytope(a, b, gamma, t).vertices == verts[t]


def test_support_memo_keeps_the_budget_apart():
    a, b = _pairs()[0]
    full = support(a, b)
    assert support(a, b) is support(a, b, DEFAULT_BUDGET)
    assert support(a, b) == full
    # an exceeded budget is raised again on every call, never cached
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            support(a, b, 1)


def _first_map_embedding(p, delta):
    for forest in marking_oracle.forests(delta):
        if len(delta.edges) - len(forest) != len(p.ttype.edges):
            continue
        face = marking_oracle.collapse_forest(delta, forest)
        emap = next(marking_oracle.marking_isomorphisms(face, p.ttype), None)
        if emap is None:
            continue
        return tuple(Fraction(0) if e.id in forest
                     else p.length_of(emap[e.id][0]) for e in delta.edges)
    return None


def test_embed_point_matches_first_marking_isomorphism():
    seen = 0
    for a, b in _pairs():
        for p in (a, b):
            for delta in (p.ttype,) + adjacent_simplices(p.ttype):
                want = _first_map_embedding(p, delta)
                assert embed_point(p, delta) == want
                _clear_all()
                assert embed_point(p, delta) == want
                seen += want is not None
    assert seen > 0


def _rank3_face_points():
    """(chart, point): three seeded points per chart of every ninth
    rank-3 resolution of the rose, each on the face of a forest of one or
    two edges."""
    rng = random.Random(53)
    for t in resolutions(rose_type(3))[::9]:
        for _ in range(3):
            forest = rng.choice([f for f in marking_oracle.forests(t)
                                 if 1 <= len(f) <= 2])
            coords = [0 if e.id in forest else rng.randint(1, 9)
                      for e in t.edges]
            yield t, point_from_coords(t, [Fraction(c, sum(coords))
                                           for c in coords])


def test_embed_point_matches_first_marking_isomorphism_at_rank3():
    checks = embedded = 0
    for t, p in _rank3_face_points():
        for delta in (t,) + adjacent_simplices(p.ttype)[:6]:
            want = _first_map_embedding(p, delta)
            assert embed_point(p, delta) == want
            checks += 1
            embedded += want is not None
    assert checks == 252 and 0 < embedded < checks
    # a chart with fewer edges than the type, and a chart of another rank
    chart = resolutions(rose_type(3))[0]
    p = SimplexPoint(chart, tuple(Fraction(k, 21) for k in range(1, 7)))
    assert embed_point(p, graphs.faces(chart)[0]) is None
    assert embed_point(p, rose_type(3)) is None
    assert embed_point(rose_point([1, 2, 3]), theta_point(1, 1, 1).ttype) \
        is None
    assert embed_point(theta_point(1, 2, 3), chart) is None


def test_matching_is_the_first_marking_isomorphism():
    theta = theta_point(1, 2, 3).ttype
    types = (theta,) + graphs.faces(theta) + graphs.faces(
        twisted_theta_point(1, 2, 3).ttype)
    matched = 0
    for s in types:
        for t in types:
            want = next(marking_oracle.marking_isomorphisms(s, t), None)
            assert graphs.marking_equivalent(s, t) == (want is not None)
            if want is None:
                continue
            matched += 1
            assert _edge_map(s, t) == {x: y for x, (y, _) in want.items()}
    assert matched > len(types)


def _fixture(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
    return validate_and_normalize(
        graph_from_json((path / f"{name}.json").read_text()))


def test_support_builds_a_face_only_when_it_queues_it(monkeypatch):
    # every face the fill queues is entered, so from cold caches the
    # collapse builds of a whole support are its entered faces
    built = []
    for a, b in _pairs():
        _clear_all()
        faces = [t for t in support(a, b).simplices
                 if t is not a.ttype and not t.is_trivalent()]
        built.append(graphs._collapse_cached.cache_info().misses)
        assert built[-1] == len(faces)
    assert built == [1, 2, 2, 2, 0, 2]
    # and part of the rank-3 fixture fill: one build per face queued
    queued = []
    face = envelopes._face
    monkeypatch.setattr(envelopes, "_face",
                        lambda *args: queued.append(args) or face(*args))
    a, b = _fixture("r3a"), _fixture("r3b")
    _clear_all()
    fill = _fill(a, b, reference_witness(a, b), 2676)
    assert len(list(itertools.islice(fill, 300))) == 300
    assert graphs._collapse_cached.cache_info().misses == len(queued) == 409
