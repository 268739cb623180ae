import random
import time
from fractions import Fraction

import pytest

import marking_oracle
import words_oracle
from cvn import graphs, metric, words
from cvn.errors import ParamOutOfRange, RankMismatch, TrivialClass
from cvn.graphs import (
    SimplexPoint,
    adjacent_simplices,
    apply_outer_automorphism,
    barbell_point,
    barbell_type,
    embed_point,
    point_from_coords,
    rose_point,
    theta_point,
    theta_type,
    twisted_theta_point,
    twisted_theta_type,
)
from cvn.candidates import candidate_words, edge_counts
from cvn.metric import (
    brute_force_lambda,
    candidate_witnesses,
    conj_length,
    distance,
    is_witness,
    length_numerator,
    same_point,
    stretch,
    stretch_report,
)
from cvn.words import conj_class, conjugacy_classes_up_to, generator
from constructions import (
    _random_trivalent_type,
    random_automorphism,
    random_pair,
    random_point,
)
from point_readings import length_of
from test_marking_key import _relabelled


def CC(letters):
    return conj_class(letters, 2)


def test_conj_length_theta():
    p = theta_point(1, 1, 1)
    assert conj_length(p, CC([1])) == Fraction(2, 3)
    assert conj_length(p, CC([1, 2])) == Fraction(4, 3)
    assert conj_length(p, CC([1, -2])) == Fraction(2, 3)


def test_conj_length_conjugation_invariant():
    p = theta_point(1, 2, 3)
    g = CC([2, 1, 2, -1, -2])
    h = CC([1, 2, -1])
    assert conj_length(p, g) == conj_length(p, CC([1, 2, -1]))


def test_conj_length_trivial_rejected():
    with pytest.raises(TrivialClass):
        conj_length(theta_point(1, 1, 1), CC([]))


def _random_lengths_point(t, rng):
    nums = [rng.randint(1, 40) for _ in t.edges]
    return SimplexPoint(t, tuple(Fraction(k, sum(nums)) for k in nums))


def test_integer_conj_length_matches_fraction_sum():
    rng = random.Random(11)
    cases = [(t, 6) for t in (theta_type(), twisted_theta_type(),
                              barbell_type())]
    cases += [(_random_trivalent_type(3, rng), 4) for _ in range(4)]
    for t, max_len in cases:
        classes = list(conjugacy_classes_up_to(t.rank, max_len))
        for _ in range(3):
            p = _random_lengths_point(t, rng)
            for g in classes:
                assert conj_length(p, g) == words_oracle.conj_length(p, g)


def test_brute_force_lambda_matches_slow_enumeration():
    rng = random.Random(12)
    types = [theta_type(), twisted_theta_type(), barbell_type()]
    pairs = [(rng.choice(types), rng.choice(types), 6) for _ in range(3)]
    pairs += [(_random_trivalent_type(3, rng), _random_trivalent_type(3, rng),
               4) for _ in range(2)]
    for ta, tb, max_len in pairs:
        a, b = _random_lengths_point(ta, rng), _random_lengths_point(tb, rng)
        ratios = [(words_oracle.conj_length(b, g)
                   / words_oracle.conj_length(a, g), g)
                  for g in words_oracle.conjugacy_classes_up_to(ta.rank,
                                                                max_len)]
        best = max(r for r, _ in ratios)
        want = (best, [g for r, g in ratios if r == best])
        assert brute_force_lambda(a, b, max_len) == want


def test_brute_force_lambda_matches_fraction_scan_rank3():
    # integer cross-multiplication against Fraction ratios of the oracle
    # lengths, on one rank-3 pair up to length 6
    rng = random.Random(21)
    ta, tb = _random_trivalent_type(3, rng), _random_trivalent_type(3, rng)
    a, b = _random_lengths_point(ta, rng), _random_lengths_point(tb, rng)
    ratios = [(words_oracle.conj_length(b, g) / words_oracle.conj_length(a, g),
               g) for g in conjugacy_classes_up_to(3, 6)]
    best = max(r for r, _ in ratios)
    lam, argmax = brute_force_lambda(a, b, 6)
    assert (lam, argmax) == (best, [g for r, g in ratios if r == best])
    assert lam == stretch(a, b)


def _junction_fallbacks(p, max_len):
    """Check the junction-table length of every class up to max_len in p
    against its tightened loop; return how many classes fall back."""
    table = metric._junction_table(p, max_len)
    classes = list(conjugacy_classes_up_to(p.ttype.rank, max_len))
    junctions = words_oracle.class_junctions(p.ttype.rank, max_len)
    assert len(junctions) == len(classes)
    fallbacks = 0
    for g, idx in zip(classes, junctions):
        got = sum(map(table.__getitem__, idx))
        want = sum(p.code_weights[c]
                   for c in graphs._tighten_cached(p.ttype, g.rep.letters))
        if got < 0:
            fallbacks += 1
        else:
            assert got == want, g
    return fallbacks


def test_junction_table_lengths_match_tighten():
    rng = random.Random(23)
    untwisted = [(theta_point(1, 2, 3), 7), (twisted_theta_point(3, 1, 2), 7),
                 (barbell_point(2, 3, 5), 7)]
    untwisted += [(_random_lengths_point(_random_trivalent_type(3, rng), rng),
                   6) for _ in range(4)]
    for p, max_len in untwisted:
        assert _junction_fallbacks(p, max_len) == 0
    fallbacks = 0
    for rank, max_len in ((2, 7), (2, 7), (3, 5)):
        for p in random_pair(rank, rng, twist_steps=3):
            fallbacks += _junction_fallbacks(p, max_len)
    assert fallbacks > 0


def test_junction_table_matches_per_middle_sums():
    # prefix-sum middle weights equal the twin's per-middle sums, sentinel
    # and zero slot included, untwisted and twisted, at ranks 2 to 4
    rng = random.Random(29)
    points = [theta_point(1, 2, 3), twisted_theta_point(3, 1, 2),
              barbell_point(2, 3, 5)]
    for rank in (2, 3, 4):
        points += random_pair(rank, rng, twist_steps=3)
        points.append(_random_lengths_point(_random_trivalent_type(rank, rng),
                                            rng))
    for p in points:
        for max_len in (1, 6):
            assert (metric._junction_table(p, max_len)
                    == words_oracle.junction_table(p, max_len))


def test_junction_indices_wrap_around_short_classes():
    # a 1-letter class reads the triple (x, x, x), a 2-letter class xy
    # the triples (y, x, y) and (x, y, x)
    m = 5
    by_letters = {g.rep.letters: idx for g, idx in zip(
        conjugacy_classes_up_to(2, 2), words_oracle.class_junctions(2, 2))}
    x, y, Y = 1, 2, m - 2
    assert by_letters[(x,)] == ((x * m + x) * m + x,)
    assert by_letters[(x, y)] == ((y * m + x) * m + y, (x * m + y) * m + x)
    assert by_letters[(x, -y)] == ((Y * m + x) * m + Y, (x * m + Y) * m + x)
    p = theta_point(1, 2, 4)
    table = metric._junction_table(p, 2)
    for letters, idx in by_letters.items():
        got = sum(map(table.__getitem__, idx))
        assert got == length_numerator(p, conj_class(list(letters), 2))
    # the walk's trie reads the same triples: a class of 1 or 2 letters
    # reads the zero slot m^3 along its prefix and its triples at the wrap
    zero = m ** 3
    assert table[zero] == 0
    for d, getters in enumerate(words._class_walk(2, 2)[1], 1):
        _, nodes, mids, first, last = map(_indices, getters)
        assert set(mids) == {zero}
        own = [g.rep.letters for g in conjugacy_classes_up_to(2, 2)
               if len(g) == d]
        assert len(nodes) == len(own)
        assert list(zip(first, last)) == [
            (by_letters[g][0], zero) if d == 1 else by_letters[g]
            for g in own]
    assert metric._class_lengths(p, 2) == [
        length_numerator(p, g) for g in conjugacy_classes_up_to(2, 2)]


def _indices(getter):
    """The indices an itemgetter of the walk's trie reads, as a tuple (a
    getter of one index, as at rank 1, gives that index alone)."""
    got = getter(range(10 ** 9))
    return got if isinstance(got, tuple) else (got,)


def _prefix_reads(rank, max_len):
    """Per class, in order, the junction indices the walk's trie reads for
    it, zero slots left out: its prefix's, found by walking up the trie,
    and its two wraps."""
    depths = [tuple(map(_indices, getters))
              for getters in words._class_walk(rank, max_len)[1]]
    zero = (2 * rank + 1) ** 3
    out = []
    for d, (_, nodes, _, first, last) in enumerate(depths, 1):
        for node, f, l in zip(nodes, first, last):
            reads = [f, l]
            for up, _, mids, _, _ in reversed(depths[:d]):
                reads.append(mids[node])
                node = up[node]
            out.append(sorted(j for j in reads if j != zero))
    return out


@pytest.mark.parametrize("rank, max_len", [(1, 6), (2, 8), (3, 6), (4, 5)])
def test_class_prefixes_read_each_cyclic_triple_once(rank, max_len):
    # the memo's trie and wraps read exactly the class's k cyclic triples
    # (the slow twin's per-class junction indices), so a class of length
    # k reads k table entries and the sentinel argument holds
    twin = words_oracle.class_junctions(rank, max_len)
    assert _prefix_reads(rank, max_len) == [sorted(idx) for idx in twin]
    # from rank 2 on every getter reads two indices or more, so it gives
    # a tuple, which _class_lengths maps over
    table, trie = words._class_walk(rank, max_len)
    assert all(isinstance(g(range(10 ** 9)), tuple) == (rank > 1)
               for getters in trie for g in getters)
    # the trie holds exactly the classes' prefixes, with no dead nodes
    for d, (up, *_) in enumerate(trie, 1):
        prefixes = {letters[:d] for letters in table if len(letters) >= d}
        assert len(_indices(up)) == len(prefixes)


def _prefix_points(rank, rng):
    """Untwisted points of the rank (standard rank-2 types, random
    trivalent blow-ups of the rose above), then a twisted pair."""
    if rank == 2:
        untwisted = [theta_point(1, 2, 3), twisted_theta_point(3, 1, 2),
                     barbell_point(2, 3, 5)]
    else:
        untwisted = [_random_lengths_point(_random_trivalent_type(rank, rng),
                                           rng) for _ in range(3)]
    return untwisted, list(random_pair(rank, rng, twist_steps=3))


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 6), (4, 5)])
def test_class_lengths_and_lambda_match_per_class_twin(rank, max_len):
    # every class length from the shared prefix sums equals the twin's
    # per-class junction sum, negative exactly where the twin's is; and
    # brute_force_lambda equals the twin's per-class scan
    rng = random.Random(300 + rank)
    untwisted, twisted = _prefix_points(rank, rng)
    junctions = words_oracle.class_junctions(rank, max_len)
    negative = {}
    for twist, points in (("untwisted", untwisted), ("twisted", twisted)):
        negative[twist] = 0
        for p in points:
            table = metric._junction_table(p, max_len)
            want = [sum(map(table.__getitem__, idx)) for idx in junctions]
            assert metric._class_lengths(p, max_len) == want
            negative[twist] += sum(v < 0 for v in want)
        for a, b in zip(points, points[1:] + points[:1]):
            assert (brute_force_lambda(a, b, max_len)
                    == words_oracle.brute_force_lambda(a, b, max_len))
    assert negative["untwisted"] == 0
    assert negative["twisted"] > 0


def test_stretch_closed_triangle():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    c = theta_point(1, Fraction(1, 3), 1)
    assert stretch(a, b) == Fraction(9, 8)
    assert candidate_witnesses(a, b) == frozenset({CC([1]), CC([1, -2])})
    assert candidate_witnesses(b, c) == frozenset({CC([2]), CC([1, -2])})
    assert candidate_witnesses(c, a) == frozenset({CC([1]), CC([2])})
    # the triangle closes up: multiplicativity around the cycle
    assert stretch(a, b) * stretch(b, c) * stretch(c, a) >= 1


def test_is_witness():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    assert is_witness(CC([1]), a, b)
    assert is_witness(CC([1, -2]), a, b)
    assert not is_witness(CC([2]), a, b)
    # powers witness iff the root does
    assert is_witness(CC([1, 1]), a, b)
    assert not is_witness(CC([2, 2]), a, b)


def test_stretch_identity_and_positivity():
    rng = random.Random(3)
    for _ in range(10):
        a, b = random_pair(2, rng)
        assert stretch(a, a) == 1
        prod = stretch(a, b) * stretch(b, a)
        assert prod >= 1


def test_symmetric_zero_iff_same_point():
    p = theta_point(1, 2, 3)
    assert same_point(p, p)
    q = theta_point(1, 2, 4)
    assert not same_point(p, q)
    assert distance(p, q, "symmetric").lam > 1


def _same_point_cases(rank, rng):
    """(p, q) around a seeded point p: p and the same point on a
    relabelled type (lengths carried by the oracle's first edge map), a
    twisted copy, p's lengths permuted; and a face point f of p's chart,
    against p and against itself read in the charts next to its face,
    unless p is a rose."""
    p = random_point(rank, rng, twist_steps=2)
    t = _relabelled(p.ttype, rng)
    emap = next(marking_oracle.marking_isomorphisms(p.ttype, t))
    back = {f: e for e, (f, _) in emap.items()}
    yield p, SimplexPoint(t, tuple(length_of(p, back[e.id]) for e in t.edges))
    yield p, apply_outer_automorphism(p, random_automorphism(rank, rng, 3))
    n = len(p.lengths)
    yield p, SimplexPoint(p.ttype, tuple(rng.sample(p.lengths, n)))
    i = next((i for i, e in enumerate(p.ttype.edges) if not e.is_loop()), None)
    if i is None:  # a rose has no face
        return
    rest = 1 - p.lengths[i]
    f = point_from_coords(p.ttype, [0 if j == i else x / rest
                                    for j, x in enumerate(p.lengths)])
    yield f, p
    for delta in adjacent_simplices(f.ttype):
        coords = embed_point(f, delta)
        if coords is not None:
            yield f, point_from_coords(delta, coords)


def test_same_point_is_symmetric_distance_zero():
    kinds = set()
    for rank, seed in ((2, 61), (3, 67)):
        rng = random.Random(seed)
        for _ in range(6 if rank == 2 else 3):
            for p, q in _same_point_cases(rank, rng):
                for x, y in ((p, q), (q, p)):
                    want = stretch(x, y) * stretch(y, x) == 1
                    assert same_point(x, y) == want
                    kinds.add((want, x.ttype is y.ttype))
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_triangle_inequality_exact():
    rng = random.Random(11)
    for _ in range(8):
        a = random_point(2, rng)
        b = random_point(2, rng)
        c = random_point(2, rng)
        assert stretch(a, c) <= stretch(a, b) * stretch(b, c)


def test_distance_modes():
    a = theta_point(1, 1, 1)
    b = theta_point(2, 1, 1)
    assert distance(a, a, "right").lam == 1
    assert distance(a, a, "right").log == 0.0
    assert distance(a, b, "right").lam == Fraction(9, 8)
    assert distance(a, b, "left").lam == stretch(b, a)
    assert (
        distance(a, b, "symmetric").lam
        == distance(a, b, "right").lam * distance(a, b, "left").lam
    )


def test_distance_unknown_mode_is_typed():
    a = theta_point(1, 1, 1)
    with pytest.raises(ParamOutOfRange, match="bogus"):
        distance(a, theta_point(2, 1, 1), "bogus")


def test_distance_has_one_spelling_of_symmetric():
    a = theta_point(1, 1, 1)
    with pytest.raises(ParamOutOfRange, match="'sym'"):
        distance(a, theta_point(2, 1, 1), "sym")


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        stretch(rose_point([1, 1]), rose_point([1, 1, 1]))


def test_rank_mismatch_without_tighten():
    # length_numerator, edge_counts and brute_force_lambda read the coded
    # loop directly and must still refuse a class or point of another rank
    r2, r3 = rose_point([1, 1]), rose_point([1, 1, 1])
    g3 = conj_class([1, 2, 3], 3)
    for call in (lambda: length_numerator(r2, g3),
                 lambda: conj_length(r2, g3),
                 lambda: edge_counts(r2.ttype, g3),
                 lambda: brute_force_lambda(r2, r3, 3),
                 lambda: brute_force_lambda(r3, r2, 3)):
        with pytest.raises(RankMismatch):
            call()
    with pytest.raises(TrivialClass):
        length_numerator(r3, conj_class([], 3))


@pytest.mark.parametrize("max_len", [0, -3, 2.5, True, False, "3", None])
def test_brute_force_lambda_rejects_bad_max_len(max_len):
    a, b = theta_point(1, 2, 3), theta_point(3, 2, 1)
    with pytest.raises(ParamOutOfRange):
        brute_force_lambda(a, b, max_len)


def test_brute_force_agrees_with_candidates():
    rng = random.Random(5)
    for _ in range(12):
        a, b = random_pair(2, rng, twist_steps=3)
        lam, argmax = brute_force_lambda(a, b, 6)
        assert lam == stretch(a, b)
        assert set(argmax) & candidate_witnesses(a, b)


def test_brute_force_monotone_and_short():
    a = rose_point([1, 2])
    b = rose_point([2, 1])
    l1, _ = brute_force_lambda(a, b, 1)
    l2, _ = brute_force_lambda(a, b, 2)
    l3, _ = brute_force_lambda(a, b, 3)
    assert l1 <= l2 <= l3
    assert l1 == 2  # generators only: y doubles


def test_action_by_isometries():
    rng = random.Random(13)
    for _ in range(6):
        a, b = random_pair(2, rng, twist_steps=3)
        phi = random_automorphism(2, rng, steps=3)
        fa = apply_outer_automorphism(a, phi)
        fb = apply_outer_automorphism(b, phi)
        assert stretch(fa, fb) == stretch(a, b)
        assert stretch(fb, fa) == stretch(b, a)


def test_rank3_stretch_against_oracle():
    rng = random.Random(17)
    for _ in range(3):
        a, b = random_pair(3, rng, twist_steps=2)
        lam, _ = brute_force_lambda(a, b, 4)
        assert lam <= stretch(a, b)


def test_rank4_brute_force_is_a_lower_bound():
    # random trivalent blow-ups of the rank-4 rose, every other source
    # point twisted so that some witnesses are longer: classes up to
    # length 6 give a lower bound of lambda, reached whenever a candidate
    # witness has a representative that short
    rng = random.Random(41)
    start = time.perf_counter()
    reached = below = 0
    for i in range(8):
        a = _random_lengths_point(_random_trivalent_type(4, rng), rng)
        b = _random_lengths_point(_random_trivalent_type(4, rng), rng)
        if i % 2:
            a = apply_outer_automorphism(a, random_automorphism(4, rng, 4))
        lam, argmax = brute_force_lambda(a, b, 6)
        short = {g for g in candidate_witnesses(a, b) if len(g) <= 6}
        if short:
            assert lam == stretch(a, b)
            assert set(argmax) >= short
            reached += 1
        else:
            assert lam <= stretch(a, b)
            below += lam < stretch(a, b)
    assert reached and below
    assert time.perf_counter() - start < 60


def _ratio_report(a, b):
    """The Fraction twin of stretch_report: every candidate's ratio of
    conj_length values, their maximum and its argmax set."""
    per = {g: conj_length(b, g) / conj_length(a, g)
           for g in candidate_words(a.ttype)}
    lam = max(per.values())
    return per, lam, frozenset(g for g, r in per.items() if r == lam)


@pytest.mark.parametrize("rank", [2, 3])
def test_stretch_report_matches_conj_length_ratios(rank):
    rng = random.Random(200 + rank)
    pairs = [random_pair(rank, rng) for _ in range(40 if rank == 2 else 12)]
    if rank == 2:  # tied witnesses: {x, xy^-1} from a to b
        pairs.append((theta_point(1, 1, 1), theta_point(2, 1, 1)))
    classes = list(conjugacy_classes_up_to(rank, 3))
    tied = 0
    for a, b in pairs:
        rep = stretch_report(a, b)
        per, lam, cw = _ratio_report(a, b)
        assert list(rep.per_candidate) == list(per)
        assert rep.per_candidate == per
        assert {type(r) for r in rep.per_candidate.values()} == {Fraction}
        assert rep.lam == lam and type(rep.lam) is Fraction
        assert rep.candidate_witnesses == cw
        tied += len(cw) > 1
        for g in classes:
            ratio = conj_length(b, g) / conj_length(a, g)
            assert is_witness(g, a, b) == (ratio == lam)
    assert tied or rank == 3  # rank 2 has the tied pair
