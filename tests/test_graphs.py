import copy
import gc
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import marking_oracle
import words_oracle
from marking_oracle import path_word, tree_path
from cvn import graphs
from cvn.candidates import edge_counts, enumerate_candidates, path_counts
from cvn.errors import (
    BadPartition,
    BadValency,
    DisconnectedGraph,
    NonpositiveLength,
    NotABasis,
    NotAForest,
    NotAnAutomorphism,
    NotClosed,
    TrivialClass,
    WrongRank,
)
from cvn.graphs import (
    Edge,
    MarkedGraph,
    SimplexPoint,
    TopologicalType,
    _collapse_cached,
    _letter_paths,
    _normalized,
    _tighten_cached,
    _types,
    adjacent_simplices,
    apply_outer_automorphism,
    barbell_point,
    barbell_type,
    blow_up_vertex,
    collapse_forest,
    embed_point,
    faces,
    graph_from_json,
    loop_word,
    make_type,
    marking_equivalent,
    point_from_coords,
    point_to_json,
    resolutions,
    rose_point,
    rose_type,
    theta_point,
    theta_type,
    tighten,
    twisted_theta_point,
    twisted_theta_type,
    type_key,
    validate_and_normalize,
)
from cvn.sampling import random_pair
from cvn.words import (
    Word,
    conj_class,
    conjugacy_classes_up_to,
    generator,
    reduce,
)


def test_validate_and_normalize_rose():
    g = MarkedGraph(
        2,
        ["o"],
        [("p1", "o", "o", Fraction(1), [1]), ("p2", "o", "o", Fraction(1), [2])],
        [],
    )
    p = validate_and_normalize(g)
    assert p.lengths == (Fraction(1, 2), Fraction(1, 2))


def test_validate_theta():
    g = MarkedGraph(
        2,
        ["p", "q"],
        [
            ("e1", "p", "q", Fraction(1), [1]),
            ("e2", "p", "q", Fraction(1), []),
            ("e3", "p", "q", Fraction(1), [2]),
        ],
        ["e2"],
    )
    p = validate_and_normalize(g)
    assert p.lengths == (Fraction(1, 3),) * 3


def test_validate_rejects_valency_two():
    g = MarkedGraph(
        1,
        ["p", "q"],
        [
            ("e1", "p", "q", Fraction(1), [1]),
            ("e2", "p", "q", Fraction(1), []),
        ],
        ["e2"],
    )
    with pytest.raises(BadValency):
        validate_and_normalize(g)


def test_validate_rejects_disconnected():
    g = MarkedGraph(
        2,
        ["p", "q"],
        [("p1", "p", "p", Fraction(1), [1]), ("p2", "q", "q", Fraction(1), [2])],
        [],
    )
    with pytest.raises((DisconnectedGraph, NotAForest)):
        validate_and_normalize(g)


def test_make_type_rejects_an_edge_to_an_unlisted_vertex():
    with pytest.raises(DisconnectedGraph, match="edge a ends at 'p'"):
        make_type(2, ["o"], [("a", "o", "p", [1]), ("b", "o", "o", [2])], [])


def test_validate_rejects_bad_rank():
    g = MarkedGraph(
        3,
        ["o"],
        [("p1", "o", "o", Fraction(1), [1]), ("p2", "o", "o", Fraction(1), [2])],
        [],
    )
    with pytest.raises(WrongRank):
        validate_and_normalize(g)


def test_validate_rejects_non_basis_labels():
    g = MarkedGraph(
        2,
        ["o"],
        [
            ("p1", "o", "o", Fraction(1), [1, 2]),
            ("p2", "o", "o", Fraction(1), [-2, -1]),
        ],
        [],
    )
    with pytest.raises(NotABasis):
        validate_and_normalize(g)


def test_json_round_trip():
    p = theta_point(1, 1, 1)
    d = point_to_json(p)
    q = validate_and_normalize(graph_from_json(d))
    assert q.lengths == p.lengths
    assert marking_equivalent(q.ttype, p.ttype)


def test_loop_word_rose_petal():
    t = rose_type(2)
    assert loop_word(t, [("p1", 1)]) == conj_class([1], 2)


def test_loop_word_theta():
    t = theta_type()
    assert loop_word(t, [("e1", 1), ("e2", -1)]) == conj_class([1], 2)
    assert loop_word(t, [("e1", 1), ("e3", -1)]) == conj_class([1, -2], 2)


def test_loop_word_not_closed():
    t = theta_type()
    with pytest.raises(NotClosed):
        loop_word(t, [("e1", 1), ("e2", 1)])


def test_tighten_rose():
    t = rose_type(2)
    assert tighten(t, conj_class([1], 2)) == (("p1", 1),)


def test_tighten_theta():
    t = theta_type()
    p = tighten(t, conj_class([1, -2], 2))
    assert len(p) == 2
    assert loop_word(t, p) == conj_class([1, -2], 2)
    p = tighten(t, conj_class([1, 2], 2))
    assert len(p) == 4  # crosses the tree edge twice
    assert loop_word(t, p) == conj_class([1, 2], 2)


def test_tighten_barbell():
    t = barbell_type()
    assert tighten(t, conj_class([2], 2)) == (("e3", 1),)
    p = tighten(t, conj_class([1, 2], 2))
    assert len(p) == 4  # x loop, handle, y loop, handle back
    assert loop_word(t, p) == conj_class([1, 2], 2)


def test_tighten_trivial_rejected():
    with pytest.raises(TrivialClass):
        tighten(rose_type(2), conj_class([], 2))


def test_tighten_reproduces_embedded_cycles():
    for t in (theta_type(), barbell_type(), rose_type(3)):
        for e in t.edges:
            if e.is_loop():
                path = ((e.id, 1),)
            else:
                back = tree_path(t, e.v, e.u)
                if not back:
                    continue
                path = ((e.id, 1),) + back
            w = loop_word(t, path)
            if w.is_trivial():
                continue
            got = tighten(t, w)
            assert sorted(x for x, _ in got) == sorted(x for x, _ in path)


def test_petals_and_tighten_match_tree_path_loops_rank3():
    classes = list(conjugacy_classes_up_to(3, 3))
    for t in resolutions(rose_type(3)):
        want = [marking_oracle.petal(t, e) for e in t.non_tree_edges()]
        assert [_decode(t, p) for p in graphs._petals(t)] == want
        for g in classes:
            assert tighten(t, g) == words_oracle.tighten(t, g)


def _decode(t, codes):
    """Coded steps back to (edge id, sign): code k is t.edges[|k| - 1]."""
    return tuple((t.edges[abs(k) - 1].id, 1 if k > 0 else -1) for k in codes)


def _single_edge_faces(types):
    return [collapse_forest(t, {e.id}) for t in types for e in t.edges
            if not e.is_loop()]


def _assert_tighten_matches_oracle(types, classes):
    for t in types:
        for g in classes:
            want = words_oracle.tighten(t, g)
            assert _decode(t, _tighten_cached(t, g.rep.letters)) == want


def test_coded_tighten_matches_oracle_on_rank3_charts():
    # every chart on the short classes, every seventh up to length 6
    charts = resolutions(rose_type(3))
    _assert_tighten_matches_oracle(charts, list(conjugacy_classes_up_to(3, 4)))
    _assert_tighten_matches_oracle(charts[::7],
                                   list(conjugacy_classes_up_to(3, 6)))


def test_coded_tighten_matches_oracle_on_rank3_faces():
    # a collapse of a non-tree edge re-trees the graph, so its labels are
    # longer words and the letter paths come from nontrivial basis inverses
    # and those get the long classes
    found = _single_edge_faces(resolutions(rose_type(3))[::7])
    retreed = [f for f in found if any(len(w) > 1 for w in f.basis_words())]
    assert retreed
    _assert_tighten_matches_oracle(found, list(conjugacy_classes_up_to(3, 4)))
    _assert_tighten_matches_oracle(retreed,
                                   list(conjugacy_classes_up_to(3, 6)))


def test_tighten_and_edge_counts_decode_the_coded_loop():
    charts = resolutions(rose_type(2)) + (twisted_theta_type(),)
    classes = list(conjugacy_classes_up_to(2, 8))
    for t in charts + tuple(_single_edge_faces(charts)):
        for g in classes:
            want = words_oracle.tighten(t, g)
            assert _decode(t, _tighten_cached(t, g.rep.letters)) == want
            assert tighten(t, g) == want
            assert edge_counts(t, g) == path_counts(t, want)


def test_letter_paths_realize_the_generators():
    charts = resolutions(rose_type(3))
    for t in charts + tuple(_single_edge_faces(charts[::7])):
        table = _letter_paths(t)
        assert len(table) == 2 * t.rank + 1 and table[0] == ()
        for m in range(1, t.rank + 1):
            fwd, back = table[m], table[-m]
            assert back == tuple(-k for k in reversed(fwd))
            assert all(x != -y for x, y in zip(fwd, fwd[1:]))  # reduced
            path = _decode(t, fwd)
            first = t.edge(path[0][0])
            assert (first.u if path[0][1] > 0 else first.v) == t.base()
            loop_word(t, path)  # raises NotClosed unless the steps close up
            assert path_word(t, path) == generator(m, t.rank)
            assert path_word(t, _decode(t, back)) == generator(-m, t.rank)


def test_tighten_and_letter_paths_match_their_push_twins():
    # every chart around the rank-3 rose, and twisted rank-2 points, whose
    # labels are long words, on every class up to length 5
    rng = random.Random(5)
    twisted = [p.ttype for _ in range(4)
               for p in random_pair(2, rng, twist_steps=3)]
    for charts, rank in ((resolutions(rose_type(3)), 3), (twisted, 2)):
        classes = [g.rep.letters for g in conjugacy_classes_up_to(rank, 5)]
        for t in charts:
            assert _letter_paths(t) == words_oracle.letter_paths(t)
            for letters in classes:
                assert (_tighten_cached.__wrapped__(t, letters)
                        == words_oracle.tighten_codes(t, letters))


def test_collapse_theta_tree_edge_gives_rose():
    t = collapse_forest(theta_type(), {"e2"})
    assert len(t.vertices) == 1
    assert marking_equivalent(t, rose_type(2))


def test_collapse_barbell_handle():
    t = collapse_forest(barbell_type(), {"e2"})
    assert marking_equivalent(t, rose_type(2))


def test_collapse_non_tree_edge_uses_tree_exchange():
    t = collapse_forest(theta_type(), {"e1"})
    assert len(t.vertices) == 1
    assert len(t.edges) == 2
    # still a valid marking: labels form a basis
    from cvn.words import is_basis

    assert is_basis(t.basis_words(), 2)


def test_collapse_loop_rejected():
    with pytest.raises(NotAForest):
        collapse_forest(barbell_type(), {"e1"})


def test_collapse_cycle_rejected():
    with pytest.raises(NotAForest):
        collapse_forest(theta_type(), {"e1", "e2"})


_COLLAPSE_DIGEST = """
import hashlib
import itertools
from cvn.graphs import _union_find, collapse_forest, resolutions, rose_type
h = hashlib.sha256()
for t in resolutions(rose_type(3))[:20]:
    for size in range(2, len(t.vertices)):  # every forest of 2 or more edges
        for sub in itertools.combinations(range(len(t.edges)), size):
            if _union_find(t, sub)[1] is None:
                c = collapse_forest(t, [t.edges[i].id for i in sub])
                h.update(repr((c.vertices, c.edges, sorted(c.tree))).encode())
print(h.hexdigest())
"""


def test_collapse_forest_independent_of_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-c", _COLLAPSE_DIGEST],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        outs.add(res.stdout)
    assert len(outs) == 1


def test_blow_up_rose_round_trip():
    t = rose_type(2)
    half = t.half_edges_at("o")
    # separate the two petals: barbell shape
    s1 = frozenset(h for h in half if h[0] == "p1")
    s2 = frozenset(h for h in half if h[0] == "p2")
    b = blow_up_vertex(t, "o", s1, s2)
    assert len(b.vertices) == 2
    assert sorted(b.valency(v) for v in b.vertices) == [3, 3]
    assert marking_equivalent(b, barbell_type())
    back = collapse_forest(b, {e.id for e in b.edges if e.id not in {"p1", "p2"}})
    assert marking_equivalent(back, t)


def test_blow_up_rose_to_theta():
    t = rose_type(2)
    s1 = frozenset({("p1", 0), ("p2", 0)})
    s2 = frozenset({("p1", 1), ("p2", 1)})
    b = blow_up_vertex(t, "o", s1, s2)
    assert marking_equivalent(b, theta_type())


def test_blow_up_trivalent_rejected():
    t = theta_type()
    half = t.half_edges_at("p")
    with pytest.raises(BadPartition):
        blow_up_vertex(t, "p", frozenset(half[:2]), frozenset(half[2:]))


def test_theta_faces_are_three_roses():
    fs = faces(theta_type())
    assert len(fs) == 3
    assert all(len(f.vertices) == 1 for f in fs)


def test_rose_resolutions():
    rs = resolutions(rose_type(2))
    assert len(rs) == 3  # one barbell, two inequivalent thetas
    assert all(r.is_trivalent() for r in rs)
    n_theta = sum(1 for r in rs if len(r.edges) == 3 and not any(
        e.is_loop() for e in r.edges))
    assert n_theta == 2


def test_trivalent_has_no_resolutions():
    assert resolutions(theta_type()) == ()
    assert adjacent_simplices(theta_type()) == faces(theta_type())


def test_resolutions_and_faces_match_oracle_rank2():
    for t in (rose_type(2), theta_type(), barbell_type()):
        assert list(resolutions(t)) == marking_oracle.resolutions(t)
        for s in (t,) + resolutions(t):
            assert list(faces(s)) == marking_oracle.faces(s)


def test_resolutions_and_faces_match_oracle_rank3():
    charts = resolutions(rose_type(3))
    assert len(charts) == 105  # 7!! trivalent marked types
    assert list(charts) == marking_oracle.resolutions(rose_type(3))
    for t in charts:
        assert list(faces(t)) == marking_oracle.faces(t)
    for t in charts[::7]:
        for f in faces(t):
            want = marking_oracle.resolutions(f)
            assert list(resolutions(f)) == want
            assert list(adjacent_simplices(f)) == marking_oracle.faces(f) + want


def _face_table_types():
    """The rank-2 types with their faces, all 105 trivalent rank-3 charts,
    and the charts of twisted random points of ranks 2 and 3."""
    rank2 = [rose_type(2), theta_type(), twisted_theta_type(), barbell_type()]
    rank2 += [f for t in rank2 for f in faces(t)]
    rng = random.Random(7)
    twisted = [p.ttype for r in (2, 3) for _ in range(6)
               for p in random_pair(r, rng, twist_steps=3)]
    return rank2 + list(resolutions(rose_type(3))) + twisted


def test_face_table_matches_trial_collapse_oracle():
    # equal quotients of every forest, among them forests with two or more
    # non-tree members, whose tree exchanges must run in edge order
    exchanges = 0
    for t in _face_table_types():
        for forest in marking_oracle.forests(t):
            assert collapse_forest(t, forest) is \
                marking_oracle.collapse_forest(t, forest)
            exchanges += len(forest - t.tree) >= 2
    assert exchanges > 0


@pytest.mark.parametrize("fn, t", [
    (faces, theta_type()),
    (resolutions, rose_type(2)),
    (enumerate_candidates, rose_type(2)),
], ids=["faces", "resolutions", "enumerate_candidates"])
def test_cached_results_cannot_be_mutated(fn, t):
    before = list(fn(t))
    with pytest.raises(AttributeError):
        fn(t).clear()
    assert before and list(fn(t)) == before


def test_equal_types_built_apart_hash_and_compare_equal():
    a, b = theta_type(), theta_type()
    assert a is b  # interned: one object per value
    assert a.index("e3") == 2  # fills the one cached id map of the value
    rebuilt = TopologicalType(b.rank, b.vertices,
                              tuple(Edge(e.id, e.u, e.v, e.label)
                                    for e in b.edges), b.tree)
    assert rebuilt is a and "_positions" in vars(rebuilt)
    for x in (b, rebuilt):
        assert a == x and hash(a) == hash(x)
    assert {a: 1}[rebuilt] == 1
    other = TopologicalType(a.rank, a.vertices, a.edges, frozenset({"e1"}))
    assert other != a and other is not a


def test_constant_types_are_built_once(monkeypatch):
    builders = (theta_point, twisted_theta_point, barbell_point)
    types = [b(1, 2, 3).ttype for b in builders]
    assert types == [theta_type(), twisted_theta_type(), barbell_type()]
    roses = [rose_type(n) for n in (2, 3, 4)]

    def fail(*args):
        raise AssertionError("make_type called again")

    monkeypatch.setattr(graphs, "make_type", fail)
    for build, t in zip(builders, types):
        assert build(3, 1, 2).ttype is t
    for n, t in zip((2, 3, 4), roses):
        assert rose_type(n) is t
        assert rose_point([1] * n).ttype is t


def test_make_type_checks_an_interned_invalid_type():
    # q has valency 2; the type is interned, yet make_type still refuses it
    t = TopologicalType(2, ("p", "q"), (
        Edge("e1", "p", "q", Word((1,), 2)), Edge("e2", "p", "q", Word((), 2)),
        Edge("e3", "p", "p", Word((2,), 2))), frozenset({"e2"}))
    specs = [("e1", "p", "q", [1]), ("e2", "p", "q", []),
             ("e3", "p", "p", [2])]
    for _ in range(2):
        with pytest.raises(BadValency):
            make_type(2, ["p", "q"], specs, ["e2"])
    assert t in _types.values()  # still the interned object


def _from_scratch(t):
    """t again through make_type, from plain lists."""
    return make_type(t.rank, list(t.vertices),
                     [(e.id, e.u, e.v, list(e.label.letters))
                      for e in t.edges], list(t.tree))


def _seeded_blow_ups(rng, count):
    """count types met on random blow-up chains from rank-3 and rank-4
    roses down to trivalent types."""
    out = []
    while len(out) < count:
        t = rose_type(rng.choice((3, 4)))
        while len(out) < count:
            fat = [v for v in t.vertices if t.valency(v) >= 4]
            if not fat:
                break
            v = rng.choice(fat)
            half = t.half_edges_at(v)
            rng.shuffle(half)
            k = rng.randrange(2, len(half) - 1)
            t = blow_up_vertex(t, v, half[:k], half[k:])
            out.append(t)
    return out


def _clear_cvn_memos():
    for name, mod in list(sys.modules.items()):
        if name.startswith("cvn."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_types_are_interned_on_every_construction_path():
    t = theta_type()
    specs = [("e1", "p", "q", [1]), ("e2", "p", "q", []),
             ("e3", "p", "q", [2])]
    assert make_type(2, ["p", "q"], specs, ["e2"]) is t
    p = theta_point(1, 2, 3)
    text = json.dumps(point_to_json(p))
    assert validate_and_normalize(graph_from_json(text)).ttype is t
    # keyword construction, with edges built apart
    edges = tuple(Edge(e.id, e.u, e.v, reduce(list(e.label.letters), 2))
                  for e in t.edges)
    assert TopologicalType(rank=2, vertices=("p", "q"), edges=edges,
                           tree=frozenset({"e2"})) is t
    assert TopologicalType(2, ("p", "q"), tree=t.tree, edges=edges) is t

    s1, s2 = {("p1", 0), ("p2", 0)}, {("p1", 1), ("p2", 1)}
    b = blow_up_vertex(rose_type(2), "o", s1, s2)
    assert blow_up_vertex(_from_scratch(rose_type(2)), "o",
                          frozenset(s1), frozenset(s2)) is b
    c = collapse_forest(t, {"e2"})
    _collapse_cached.cache_clear()
    assert collapse_forest(t, ["e2"]) is c
    r = collapse_forest(t, {"e1"})  # a non-tree edge: a tree exchange
    _collapse_cached.cache_clear()
    assert collapse_forest(t, ("e1",)) is r and not r.tree
    for x in (b, c, r):
        assert _from_scratch(x) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    # every part of an edge tells types apart, the rank of its label too
    e = t.edges[0]
    for f in (Edge("x", e.u, e.v, e.label), Edge(e.id, e.v, e.v, e.label),
              Edge(e.id, e.u, e.u, e.label),
              Edge(e.id, e.u, e.v, generator(2, 2)),
              Edge(e.id, e.u, e.v, generator(1, 3))):
        u = TopologicalType(t.rank, t.vertices, (f,) + t.edges[1:], t.tree)
        assert u is not t and u != t

    ident = apply_outer_automorphism(p, [generator(1, 2), generator(2, 2)])
    assert ident.ttype is t
    q = apply_outer_automorphism(p, [reduce((1, 2), 2), generator(2, 2)])
    assert q.ttype is not t
    back = apply_outer_automorphism(q, [reduce((1, -2), 2), generator(2, 2)])
    assert back.ttype is t and back == p

    # make_type validates on every call, also when its type is interned
    petal = TopologicalType(2, ("p",),
                            (Edge("e", "p", "p", generator(1, 2)),),
                            frozenset())
    with pytest.raises(BadValency):
        make_type(2, ["p"], [("e", "p", "p", [1])], [])
    assert petal.vertices == ("p",)
    for x in (t, b, c, r, q.ttype):  # the content hash, not an id
        assert hash(x) == hash((x.rank, x.vertices, x.edges, x.tree))
    with pytest.raises(TypeError):
        TopologicalType(t.rank, t.vertices, t.edges)
    with pytest.raises(TypeError):
        TopologicalType(t.rank, t.vertices, t.edges, t.tree, rank=2)

    # the table holds types weakly: what no memo or caller holds goes
    gc.collect()
    before = len(_types)
    made = _seeded_blow_ups(random.Random(25), 1000)
    for x in made[::10]:
        faces(x)  # memos hold the type and its faces
    assert len(made) == 1000 and len(_types) > before
    del made, x
    _clear_cvn_memos()
    gc.collect()
    assert len(_types) <= before


def test_index_and_edge_raise_key_error_on_unknown_id():
    t = theta_type()
    assert t.index("e2") == 1 and t.edge("e2") is t.edges[1]
    with pytest.raises(KeyError):
        t.index("nope")
    with pytest.raises(KeyError):
        t.edge("nope")


def test_marking_equivalent_permuted_ids():
    a = theta_type()
    b = make_type(
        2,
        ["q", "p"],
        [("f3", "p", "q", [2]), ("f2", "p", "q", []), ("f1", "p", "q", [1])],
        ["f2"],
    )
    assert marking_equivalent(a, b)
    assert type_key(a) == type_key(b)


def test_marking_equivalent_petal_swap():
    a = rose_type(2)
    b = make_type(2, ["o"], [("p1", "o", "o", [2]), ("p2", "o", "o", [1])], [])
    assert marking_equivalent(a, b)
    assert type_key(a) == type_key(b)


def test_marking_inequivalent_roses():
    a = rose_type(2)
    b = make_type(2, ["o"], [("p1", "o", "o", [1]), ("p2", "o", "o", [1, 2])], [])
    assert not marking_equivalent(a, b)


def test_marking_equivalent_conjugate_labels():
    a = rose_type(2)
    b = make_type(
        2,
        ["o"],
        [("p1", "o", "o", [2, 1, -2]), ("p2", "o", "o", [2])],
        [],
    )
    # labels are x, y conjugated by y: same outer marking
    assert marking_equivalent(a, b)
    assert type_key(a) == type_key(b)


def test_apply_outer_automorphism_identity():
    p = theta_point(1, 2, 3)
    q = apply_outer_automorphism(p, [generator(1, 2), generator(2, 2)])
    assert q == p


def test_apply_outer_automorphism_swap():
    p = rose_point([1, 1])
    q = apply_outer_automorphism(p, [generator(2, 2), generator(1, 2)])
    assert q.ttype.edges[0].label.letters == (2,)
    assert marking_equivalent(q.ttype, p.ttype)


def test_apply_outer_automorphism_rejects_non_auto():
    with pytest.raises(NotAnAutomorphism):
        apply_outer_automorphism(rose_point([1, 1]),
                                 [reduce((1, 1), 2), reduce((1, 1, 2, 2), 2)])


def test_apply_outer_automorphism_rejects_images_of_another_rank():
    # x_3 is no letter of F_2: a basis check, not an IndexError
    with pytest.raises(NotAnAutomorphism):
        apply_outer_automorphism(rose_point([1, 2]),
                                 [generator(3, 3), generator(1, 3)])
    # rank-3 words whose letters fit rank 2 are no automorphism of F_2
    # either: the point would carry rank-3 labels on a rank-2 type
    with pytest.raises(NotAnAutomorphism):
        apply_outer_automorphism(rose_point([Fraction(1, 3), Fraction(2, 3)]),
                                 [generator(2, 3), generator(1, 3)])


def test_standard_points_reject_nonpositive_lengths_before_dividing():
    # each of these sums to 0, and each raised a bare ZeroDivisionError
    for build, lengths in [(theta_point, (0, 0, 0)), (theta_point, (1, -1, 0)),
                           (twisted_theta_point, (1, 0, -1)),
                           (barbell_point, (1, 1, -2)),
                           (rose_point, ([2, -2],)),
                           (theta_point, (2, -1, 1))]:
        with pytest.raises(NonpositiveLength):
            build(*lengths)
    g = graph_from_json(point_to_json(theta_point(1, 1, 1)))
    bad = MarkedGraph(g.rank, g.vertices,
                      [e[:3] + (0,) + e[4:] for e in g.edges], g.tree)
    with pytest.raises(NonpositiveLength):
        validate_and_normalize(bad)


def test_point_construction_errors_in_order():
    # a nonpositive length is reported first, the first in edge order,
    # then a sum off 1, however small the gap
    t = theta_type()
    F = Fraction
    gap = F(1, 10**30)
    for lengths, message in [
            ((F(0), F(1, 2), F(1, 2)), "length 0"),
            ((F(-1, 2), F(3, 4), F(3, 4)), "length -1/2"),
            ((F(1, 2), F(-1, 4), F(0)), "length -1/4"),
            ((2, -1, 0), "length -1"),
            ((1, 1, 1), "lengths must sum to 1"),
            ((F(1, 3), F(1, 3), F(1, 3) + gap), "lengths must sum to 1"),
            ((F(1, 3), F(1, 3) - gap, F(1, 3)), "lengths must sum to 1")]:
        with pytest.raises(NonpositiveLength) as info:
            SimplexPoint(t, lengths)
        assert str(info.value) == message
    with pytest.raises(WrongRank, match="one length per edge required"):
        SimplexPoint(t, (F(1, 2), F(-1, 2)))
    # _normalized reports the first nonpositive length as a Fraction and
    # rescales anything else to sum 1
    for lengths, message in [((1, 0, -1), "length 0"),
                             ((F(1, 2), F(-1, 3), 0), "length -1/3"),
                             ((2.5, -0.5, 1), "length -1/2"),
                             (("1/3", "-2/7"), "length -2/7")]:
        with pytest.raises(NonpositiveLength) as info:
            _normalized(lengths)
        assert str(info.value) == message
    lengths = (F(1, 3), F(1, 3), F(1, 3) + gap)
    assert _normalized(lengths) == tuple(q / sum(lengths) for q in lengths)
    assert sum(SimplexPoint(t, _normalized(lengths)).lengths) == 1


def test_point_scaled_lengths_and_copies():
    rng = random.Random(26)
    for rank in (2, 3):
        for _ in range(20):
            p = random_pair(rank, rng)[0]
            nums = [rng.randint(1, 10**rng.randint(1, 12)) for _ in p.lengths]
            lengths = _normalized(nums)
            assert lengths == tuple(Fraction(k, sum(nums)) for k in nums)
            for q in (p, SimplexPoint(p.ttype, lengths)):
                d = math.lcm(*(x.denominator for x in q.lengths))
                assert q.scaled_lengths == (
                    tuple(x.numerator * (d // x.denominator)
                          for x in q.lengths), d)
    # int lengths: a one-edge type, built without the valency checks
    loop = TopologicalType(1, ("o",), (Edge("p1", "o", "o",
                                            generator(1, 1)),), frozenset())
    one = SimplexPoint(loop, (1,))
    assert one.scaled_lengths == ((1,), 1)
    p = theta_point(3, 5, 7)
    assert p.scaled_lengths == ((3, 5, 7), 15)
    fifth, two_sevenths = Fraction(1, 5), Fraction(2, 7)
    q = SimplexPoint(p.ttype, (fifth, 1 - fifth - two_sevenths, two_sevenths))
    assert q.scaled_lengths == ((7, 18, 10), 35)
    for x in (p, q, one):
        for y in (copy.copy(x), pickle.loads(pickle.dumps(x)),
                  copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x)
            assert y.scaled_lengths == x.scaled_lengths


def test_embed_point_in_own_simplex():
    p = theta_point(1, 2, 3)
    coords = embed_point(p, p.ttype)
    assert coords == p.lengths


def test_embed_rose_point_in_theta_boundary():
    p = rose_point([1, 1])
    coords = embed_point(p, theta_type())
    assert coords is not None
    assert sum(coords) == 1
    assert coords[1] == 0  # the tree edge collapses


def test_embed_point_fails_for_unrelated_marking():
    b = make_type(2, ["o"], [("p1", "o", "o", [1]), ("p2", "o", "o", [1, 2])], [])
    assert embed_point(theta_point(1, 1, 1), b) is None


def test_point_from_coords_interior_and_face():
    t = theta_type()
    p = point_from_coords(t, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert p.ttype == t
    q = point_from_coords(t, [Fraction(1, 2), Fraction(0), Fraction(1, 2)])
    assert len(q.ttype.vertices) == 1  # collapsed to a rose
    with pytest.raises(NotAForest):
        point_from_coords(barbell_type(),
                          [Fraction(0), Fraction(1, 2), Fraction(1, 2)])


def test_point_from_coords_keeps_fractions_and_converts_the_rest():
    t = theta_type()
    coords = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    p = point_from_coords(t, coords)
    assert p.lengths == coords
    assert all(x is c for x, c in zip(p.lengths, coords))
    q = point_from_coords(t, ["1/2", 0, Fraction(1, 2)])
    assert q.lengths == (Fraction(1, 2), Fraction(1, 2))
    assert all(type(x) is Fraction for x in q.lengths)
    r = point_from_coords(t, ["1/2", "1/4", "1/4"])
    assert r == p
    assert all(type(x) is Fraction for x in r.lengths)


def test_point_from_coords_needs_one_coordinate_per_edge():
    t = theta_type()
    for coords in ([Fraction(1, 2), 0, Fraction(1, 2), 0],
                   [Fraction(1, 2), Fraction(1, 2)],
                   [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0]):
        with pytest.raises(WrongRank):
            point_from_coords(t, coords)

