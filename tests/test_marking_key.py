"""The canonical marked-type key against the brute-force oracle, and the
Out(F_n)-equivariance of what the package computes.

`cvn.graphs.type_key` decides marking equivalence by key equality and
`_matching` maps the edges of two types of one key through their canonical
labellings.  Their slow twin is `marking_oracle.marking_isomorphisms`,
which searches every graph isomorphism for one that induces an inner
automorphism; its first map must send each edge where `_matching` does.

`resolutions` and `_collapse_keys` key each child on the generator loops
it inherits from its parent, and `face_edges` builds only the first
collapse of each key.  The inherited loops must be the child's own, and
the results those of the twins that build every child and key it from
scratch (`marking_oracle.keyed_resolutions` and `marking_oracle.face_edges`).
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import marking_oracle
from marking_oracle import _retree, tree_path
from cvn.envelopes import reference_witness, slice_polytope, support
from cvn.geodesics import _pair_dim, general_position
from cvn.graphs import (
    Edge,
    SimplexPoint,
    TopologicalType,
    _blow_up_forms,
    _canonical_labelling,
    _contract,
    _form_type,
    _letter_paths,
    _matching,
    apply_outer_automorphism,
    blow_up_vertex,
    collapse_forest,
    face_edges,
    marking_equivalent,
    resolutions,
    rose_type,
    tighten,
    type_key,
)
from cvn.metric import candidate_witnesses, stretch
from cvn.sampling import random_automorphism, random_pair
from cvn.words import (
    apply_endomorphism,
    conj_class,
    conjugacy_classes_up_to,
    free_reduce,
    invert,
)

LIMIT_S = 60


def _old_bucket(t):
    """The bucket type_key used to be: the edge count and the loop length
    of every class of length at most 2."""
    return (len(t.edges),) + tuple(
        len(tighten(t, g)) for g in conjugacy_classes_up_to(t.rank, 2))


def _twist(t, images):
    """t with its marking changed by the automorphism x_i -> images[i]."""
    return TopologicalType(
        t.rank, t.vertices,
        tuple(Edge(e.id, e.u, e.v, apply_endomorphism(e.label, images))
              for e in t.edges),
        t.tree)


def _spanning_tree(t, rng):
    """A random spanning tree of t: Kruskal over shuffled edges."""
    root = {v: v for v in t.vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    tree = set()
    for e in rng.sample(t.edges, len(t.edges)):
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            root[ru] = rv
            tree.add(e.id)
    return frozenset(tree)


def _relabelled(t, rng):
    """The same marked type written differently: a new spanning tree with
    labels recomputed through the old marking, then new edge ids, edge
    order and orientations, and new vertex names and order, so the base
    vertex moves too."""
    t = _retree(t, _spanning_tree(t, rng))
    names = {v: f"w{k}" for k, v in enumerate(rng.sample(t.vertices,
                                                         len(t.vertices)))}
    ids = {e.id: f"f{k}" for k, e in enumerate(rng.sample(t.edges,
                                                          len(t.edges)))}
    edges = []
    for e in rng.sample(t.edges, len(t.edges)):
        u, v, label = names[e.u], names[e.v], e.label
        if rng.random() < 0.5:
            u, v, label = v, u, label.inverse()
        edges.append(Edge(ids[e.id], u, v, label))
    return TopologicalType(
        t.rank, tuple(rng.sample(list(names.values()), len(names))),
        tuple(edges), frozenset(ids[x] for x in t.tree))


def _inputs():
    leaves = marking_oracle.blow_up_leaves(rose_type(3))
    collapses = [collapse_forest(t, {e.id}) for t in leaves for e in t.edges
                 if not e.is_loop()]
    rng = random.Random(29)
    twisted = [_twist(t, random_automorphism(3, rng, 3))
               for t in resolutions(rose_type(3))]
    relabelled = [_relabelled(t, rng)
                  for t in leaves[::7] + collapses[::23] + twisted[::3]]
    return leaves, collapses + twisted + relabelled


def _edge_map(a, b):
    """{a edge id: b edge id} of two types of one key, by _matching."""
    got = _matching(a._canonical[1], b._canonical[1])
    return {e.id: b.edges[j].id for e, j in zip(a.edges, got)}


def test_key_matches_marking_oracle():
    start = time.perf_counter()
    leaves, more = _inputs()
    assert len(leaves) == 540
    assert len({type_key(t) for t in leaves}) == 105
    # every type against the first type of its key: the oracle must call
    # them equivalent, and its first edge map must send each edge where
    # the two labellings do
    first: dict = {}
    for x in leaves + more:
        rep = first.setdefault(type_key(x), x)
        want = next(marking_oracle.marking_isomorphisms(x, rep), None)
        assert want is not None
        assert _edge_map(x, rep) == {e: f for e, (f, _) in want.items()}
        assert marking_equivalent(x, rep)
    # distinct keys inside one old bucket: the oracle must tell them apart
    buckets: dict = {}
    for rep in first.values():
        buckets.setdefault(_old_bucket(rep), []).append(rep)
    apart = 0
    for group in buckets.values():
        for a, b in itertools.combinations(group, 2):
            assert next(marking_oracle.marking_isomorphisms(a, b), None) is None
            assert not marking_equivalent(a, b)
            apart += 1
    assert apart > 100
    # a pair the old bucket could not tell apart
    charts = resolutions(rose_type(3))
    a, b = charts[0], charts[80]
    assert _old_bucket(a) == _old_bucket(b)
    assert next(marking_oracle.marking_isomorphisms(a, b), None) is None
    assert type_key(a) != type_key(b)
    assert time.perf_counter() - start < LIMIT_S


def _slice_dims(a, b):
    gamma = reference_witness(a, b)
    return Counter(slice_polytope(a, b, gamma, t).dim
                   for t in support(a, b).simplices)


def test_rank2_answers_are_out_fn_equivariant():
    rng = random.Random(37)
    for _ in range(20):
        a, b = random_pair(2, rng, twist_steps=3)
        phi = random_automorphism(2, rng, steps=3)
        fa = apply_outer_automorphism(a, phi)
        fb = apply_outer_automorphism(b, phi)
        assert stretch(fa, fb) == stretch(a, b)
        assert stretch(fb, fa) == stretch(b, a)
        if a.ttype.is_trivalent() and b.ttype.is_trivalent():
            assert general_position(fa, fb)[0] == general_position(a, b)[0]
        assert len(support(fa, fb).simplices) == len(support(a, b).simplices)
        assert _slice_dims(fa, fb) == _slice_dims(a, b)
        assert _pair_dim(fa, fb) == _pair_dim(a, b)


def test_rank3_resolutions_are_out_fn_equivariant():
    charts = resolutions(rose_type(3))
    rng = random.Random(41)
    for _ in range(3):
        phi = random_automorphism(3, rng, steps=4)
        twisted_rose = apply_outer_automorphism(
            SimplexPoint(rose_type(3), (Fraction(1, 3),) * 3), phi).ttype
        got = [type_key(t) for t in resolutions(twisted_rose)]
        assert len(got) == 105
        assert set(got) == {type_key(_twist(t, phi)) for t in charts}


def test_witness_sets_follow_the_automorphism():
    # lambda is Out(F_n)-invariant, and a witness g of (a, b) becomes the
    # witness phi(g) of the twisted pair, in both directions
    cases = 0
    for rank, seed in ((2, 41), (3, 43)):
        rng = random.Random(seed)
        for _ in range(12):
            a, b = random_pair(rank, rng)
            phi = random_automorphism(rank, rng, 4)
            fa = apply_outer_automorphism(a, phi)
            fb = apply_outer_automorphism(b, phi)
            for p, q, fp, fq in ((a, b, fa, fb), (b, a, fb, fa)):
                assert stretch(fp, fq) == stretch(p, q)
                assert candidate_witnesses(fp, fq) == {
                    conj_class(apply_endomorphism(g.rep, phi).letters, rank)
                    for g in candidate_witnesses(p, q)}
                cases += 1
    assert cases == 48


def _random_trivalent_type(rank, rng):
    """Blow the rose up at random until every vertex is trivalent."""
    t = rose_type(rank)
    while True:
        fat = [v for v in t.vertices if t.valency(v) >= 4]
        if not fat:
            return t
        v = rng.choice(fat)
        half = t.half_edges_at(v)
        rng.shuffle(half)
        k = rng.randint(2, len(half) - 2)
        t = blow_up_vertex(t, v, half[:k], half[k:])


def _fat_types():
    """Types with a vertex of valency at least 4: the roses of ranks 2 and
    3, every face of 20 seeded trivalent rank-3 types, and 1 or 2 edges
    collapsed from seeded trivalent rank-4 types (one or two fat
    vertices)."""
    rng = random.Random(47)
    trivalent = [_random_trivalent_type(3, rng) for _ in range(20)]
    out = [rose_type(2), rose_type(3)]
    out += [collapse_forest(t, {e.id}) for t in trivalent for e in t.edges
            if not e.is_loop()]
    for _ in range(6):
        t = _random_trivalent_type(4, rng)
        for size in (1, 2):
            out.append(collapse_forest(t, rng.choice(
                [f for f in marking_oracle.forests(t) if len(f) == size])))
    return out


def _own_loops(t):
    return _letter_paths(t)[1:t.rank + 1]


def test_blow_ups_inherit_the_leaves_own_loops():
    leaves = 0
    for t in _fat_types():
        forms = list(_blow_up_forms(t))
        built = marking_oracle.blow_up_leaves(t)
        assert len(forms) == len(built)
        for form, leaf in zip(forms, built):
            assert _form_type(t, form) is leaf
            assert form[3] == _own_loops(leaf)
            assert _canonical_labelling(form[2], len(form[0]), form[3]) \
                == marking_oracle.labelling(leaf)
            leaves += 1
    assert leaves > 1000


def test_collapses_inherit_the_faces_own_loops():
    faces = 0
    for t in _fat_types() + list(resolutions(rose_type(3))[::5]):
        ends, count = t._edge_ends, len(t.vertices)
        for i, e in enumerate(t.edges):
            if e.is_loop():
                continue
            face = marking_oracle.collapse_forest(t, {e.id})
            form = _contract(ends, count, _own_loops(t), i)
            assert form[:2] == (face._edge_ends, len(face.vertices))
            assert _canonical_labelling(*form) == \
                marking_oracle.labelling(face)
            # the loops start where the collapsed edge merged: move them
            # along the tree to the face's base vertex
            k = form[2][0][0]
            start = face.vertices[form[0][k - 1][0] if k > 0
                                  else form[0][-k - 1][1]]
            path = tuple(s * (face.index(eid) + 1) for eid, s
                         in tree_path(face, face.base(), start))
            assert tuple(free_reduce(path + loop + invert(path))
                         for loop in form[2]) == _own_loops(face)
            faces += 1
    assert faces > 300


def test_resolutions_and_face_edges_are_the_keyed_twins():
    types = _fat_types()
    for t in types + [s for t in types[:2] for s in resolutions(t)]:
        want = marking_oracle.keyed_resolutions(t)
        got = resolutions(t)
        assert len(got) == len(want)
        assert all(x is y for x, y in zip(got, want))
        for x in got:
            assert x._canonical == marking_oracle.labelling(x)
        want = marking_oracle.face_edges(t)
        got = face_edges(t)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert all(x is y for (_, x), (_, y) in zip(got, want))
        for x in got:
            assert x[1]._canonical == marking_oracle.labelling(x[1])
