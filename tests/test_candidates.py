import random

import pytest

import candidates_oracle
from candidates_oracle import path_counts
from constructions import _random_trivalent_type, random_point
from point_readings import edge_of

from cvn.candidates import (
    BARBELL,
    FIGURE_EIGHT,
    SIMPLE_LOOP,
    edge_counts,
    enumerate_candidates,
)
from cvn.errors import NotClosed, TrivialClass
from cvn.graphs import (
    barbell_type,
    collapse_forest,
    loop_word,
    make_type,
    resolutions,
    rose_type,
    theta_type,
    tighten,
    twisted_theta_type,
)
from cvn.words import conj_class, conjugacy_classes_up_to


def words_of(t):
    return {c.word for c in enumerate_candidates(t)}


def test_theta_candidates():
    assert words_of(theta_type()) == {
        conj_class([1], 2),
        conj_class([2], 2),
        conj_class([1, -2], 2),
    }


def test_barbell_candidates():
    assert words_of(barbell_type()) == {
        conj_class([1], 2),
        conj_class([2], 2),
        conj_class([1, 2], 2),
        conj_class([1, -2], 2),
    }
    kinds = {c.word: c.kind for c in enumerate_candidates(barbell_type())}
    assert kinds[conj_class([1, 2], 2)] == BARBELL
    assert kinds[conj_class([1], 2)] == SIMPLE_LOOP


def test_rose_candidates():
    cands = enumerate_candidates(rose_type(2))
    assert {c.word for c in cands} == {
        conj_class([1], 2),
        conj_class([2], 2),
        conj_class([1, 2], 2),
        conj_class([1, -2], 2),
    }
    kinds = {c.word: c.kind for c in cands}
    assert kinds[conj_class([1, 2], 2)] == FIGURE_EIGHT


def test_candidate_counts_match_edge_counts():
    for t in (theta_type(), barbell_type(), rose_type(2), rose_type(3)):
        for c in enumerate_candidates(t):
            assert c.counts == edge_counts(t, c.word)
            assert all(k in (0, 1, 2) for k in c.counts)


def test_candidate_counts_are_edge_counts_in_every_chart():
    # the slice builders read c.counts where they once tightened c.word
    charts = resolutions(rose_type(3))
    assert len(charts) == 105
    checked = 0
    for t in (*charts, theta_type(), barbell_type(), rose_type(2)):
        for c in enumerate_candidates(t):
            assert edge_counts(t, c.word) == c.counts
            checked += 1
    assert checked > 1019


def test_edge_counts_theta():
    t = theta_type()
    assert edge_counts(t, conj_class([1], 2)) == (1, 1, 0)
    assert edge_counts(t, conj_class([1, 2], 2)) == (1, 2, 1)
    assert edge_counts(t, conj_class([1, -2], 2)) == (1, 0, 1)


def test_edge_counts_power_scaling():
    t = theta_type()
    base = edge_counts(t, conj_class([1, 2], 2))
    cube = edge_counts(t, conj_class([1, 2] * 3, 2))
    assert cube == tuple(3 * k for k in base)
    assert edge_counts(rose_type(2), conj_class([1, 1], 2)) == (2, 0)


def test_edge_counts_trivial_rejected():
    with pytest.raises(TrivialClass):
        edge_counts(theta_type(), conj_class([], 2))


def _is_candidate_shape(t, gamma):
    # brute-force shape test: immersed path visits each edge at most twice,
    # each vertex at most twice, and its edge support is connected
    path = tighten(t, gamma)
    counts = path_counts(t, path)
    if any(k > 2 for k in counts):
        return False
    return gamma in {c.word for c in enumerate_candidates(t)}


def test_candidates_closed_under_short_word_search():
    # every short class whose immersed loop is embedded-of-candidate-shape
    # must already be enumerated: verify via counts on rank-2 types
    for t in (theta_type(), barbell_type(), rose_type(2)):
        enumerated = {c.word for c in enumerate_candidates(t)}
        for g in conjugacy_classes_up_to(2, 6):
            path = tighten(t, g)
            counts = path_counts(t, path)
            # visits per vertex along the loop
            visits = {}
            for eid, s in path:
                e = edge_of(t, eid)
                v = e.u if s > 0 else e.v
                visits[v] = visits.get(v, 0) + 1
            embedded = all(k <= 2 for k in counts) and all(
                k <= 2 for k in visits.values()
            )
            if g in enumerated:
                assert embedded
            else:
                # non-candidates of candidate size must fail embeddedness
                if all(k <= 1 for k in counts) and all(
                    k <= 1 for k in visits.values()
                ):
                    assert g in enumerated


def test_rank3_rose_candidate_count():
    cands = enumerate_candidates(rose_type(3))
    # 3 petals, 6 figure-eight orientation classes over 3 petal pairs
    assert sum(1 for c in cands if c.kind == SIMPLE_LOOP) == 3
    assert sum(1 for c in cands if c.kind == FIGURE_EIGHT) == 6
    assert len({c.word for c in cands}) == len(cands)


def test_rank3_trivalent_types_have_barbells_and_eights():
    for t in resolutions(rose_type(3)):
        cands = enumerate_candidates(t)
        assert len(cands) >= 3


def test_twisted_types_enumerate_consistently():
    rng = random.Random(7)
    for _ in range(5):
        p = random_point(2, rng)
        cands = enumerate_candidates(p.ttype)
        assert 3 <= len(cands) <= 4
        for c in cands:
            assert c.counts == edge_counts(p.ttype, c.word)


def _name_order_barbells():
    """Two 2-edge cycles joined by two arcs, one from each vertex of the
    first cycle: vertex 'b' comes before 'a' in position, after it in name,
    so the barbells' order tells which start the arcs are traced from."""
    return make_type(3, ["b", "a", "c", "d"],
                     [("e1", "b", "a", []), ("e2", "b", "a", [1]),
                      ("e3", "c", "d", []), ("e4", "c", "d", [2]),
                      ("e5", "b", "c", []), ("e6", "a", "d", [3])],
                     ["e1", "e3", "e5"])


def test_candidates_match_edge_subset_oracle():
    # the cycle-space enumeration against the edge-subset one it replaced:
    # the same candidates, classes and counts in the same order
    types = []
    for t in resolutions(rose_type(3)):
        types.append(t)
        types.extend(collapse_forest(t, {e.id})
                     for e in t.edges if not e.is_loop())
    rng = random.Random(14)
    types.extend(_random_trivalent_type(2 + k % 3, rng) for k in range(600))
    types += [rose_type(2), rose_type(3), rose_type(4), theta_type(),
              twisted_theta_type(), barbell_type(), _name_order_barbells()]
    assert len(types) >= 1200
    assert len(set(types)) >= 900
    for t in types:
        fast = [(c.kind, c.word, c.counts) for c in enumerate_candidates(t)]
        slow = [(c.kind, c.word, c.counts)
                for c in candidates_oracle.enumerate_candidates(t)]
        assert fast == slow, t


def test_loop_word_matches_two_pass_oracle():
    # closure errors name the same steps; closed paths give the same class
    paths = [
        [("e1", 1), ("e2", -1)], [("e1", 1), ("e3", -1)],
        [("e1", 1), ("e2", 1)], [("e2", -1), ("e1", 1), ("e3", -1)],
        [("e1", 1), ("e3", -1), ("e2", 1), ("e1", -1)],
        [("e1", 1), ("e2", -1), ("e1", 1)], [("e1", 1)], [],
    ]
    cases = [(theta_type(), p) for p in paths]
    cases += [(rose_type(2), [("p1", 1), ("p2", -1), ("p1", 1)])]
    for t, path in cases:
        try:
            want = candidates_oracle.loop_word(t, path)
        except NotClosed as err:
            with pytest.raises(NotClosed, match=str(err)):
                loop_word(t, path)
        else:
            assert loop_word(t, path) == want
