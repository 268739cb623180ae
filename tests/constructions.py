"""Constructions of the paper that no CLI command, script, benchmark
workload or numbered acceptance criterion uses, kept for tests only, as
they stood in the package.

`cvn.words` had the Whitehead machinery: `whitehead_automorphisms`,
`extend_to_basis` (primitive element to basis, by Whitehead reduction)
and `is_primitive`.  `cvn.envelopes` had `rainbow_graph`, a point where a
primitive class is the shortest candidate by far, built on
`extend_to_basis`, and `direction_reduction`, which trades a direction
set for candidates with the same out-envelope slice.

`cvn.sampling` drew the seeded random points and pairs of the property
tests: a standard type, a marking twisted by random Nielsen moves, and
random rational lengths, all from a caller's random.Random.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from cvn.candidates import enumerate_candidates
from cvn.envelopes import out_envelope
from cvn.errors import CvnError, ParamOutOfRange, SelfCheckFailed, Unsupported
from cvn.graphs import (
    SimplexPoint,
    TopologicalType,
    apply_outer_automorphism,
    barbell_type,
    blow_up_vertex,
    make_type,
    point_from_coords,
    resolutions,
    rose_type,
    theta_type,
)
from cvn.metric import conj_length, stretch_report
from cvn.words import (
    ConjClass,
    Letters,
    Word,
    _basis_inverse,
    _letter_key,
    apply_endomorphism,
    conj_normal_form,
    cyclic_reduce,
    generator,
)
from point_readings import barycenter


class NotPrimitive(CvnError):
    pass


class EmptySlice(CvnError):
    pass


def _oriented_cyclic(letters: Letters) -> Letters:
    """Least rotation of the cyclic reduction, orientation kept: equal
    exactly for conjugate words."""
    core = cyclic_reduce(letters)[0]
    return min((core[k:] + core[:k] for k in range(len(core))),
               key=lambda r: [*map(_letter_key, r)], default=())


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


def random_automorphism(rank: int, rng, steps: int = 4) -> list[Word]:
    """Images of the generators under a random composition of Nielsen moves."""
    images = [generator(i, rank) for i in range(1, rank + 1)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(rank)
        if kind == 0:
            images[i] = images[i].inverse()
        else:
            j = rng.choice([k for k in range(rank) if k != i]) if rank > 1 else i
            if rank == 1:
                continue
            other = images[j] if rng.random() < 0.5 else images[j].inverse()
            new = images[i] * other if kind == 1 else other * images[i]
            if not new.is_trivial():
                images[i] = new
    return images


def random_lengths(n: int, rng) -> tuple[Fraction, ...]:
    nums = [rng.randint(1, 12) for _ in range(n)]
    total = sum(nums)
    return tuple(Fraction(k, total) for k in nums)


def _types(rank: int):
    if rank == 2:
        return (rose_type(2), theta_type(), barbell_type())
    if rank != 3:
        return (rose_type(rank),)
    # the maximal simplices around the rose: its trivalent resolutions
    return resolutions(rose_type(3))


def random_point(rank: int, rng, twist_steps: int = 4) -> SimplexPoint:
    t = rng.choice(_types(rank))
    p = SimplexPoint(t, random_lengths(len(t.edges), rng))
    return apply_outer_automorphism(p, random_automorphism(rank, rng, twist_steps))


def random_pair(rank: int, rng, twist_steps: int = 4):
    return random_point(rank, rng, twist_steps), random_point(rank, rng, twist_steps)


_WHITEHEAD_RANK_CAP = 3


@lru_cache(maxsize=8)
def whitehead_automorphisms(rank: int) -> tuple[tuple[Word, ...], ...]:
    """All Whitehead automorphisms of type II as image tuples."""
    autos = set()
    for a in [s * m for m in range(1, rank + 1) for s in (1, -1)]:
        others = [g for g in range(1, rank + 1) if g != abs(a)]
        for forms in itertools.product(range(4), repeat=len(others)):
            images: list[Letters] = [()] * rank
            images[abs(a) - 1] = (abs(a),)
            for g, f in zip(others, forms):
                if f == 0:
                    images[g - 1] = (g,)
                elif f == 1:
                    images[g - 1] = (g, a)
                elif f == 2:
                    images[g - 1] = (-a, g)
                else:
                    images[g - 1] = (-a, g, a)
            autos.add(tuple(images))
    return tuple(
        tuple(Word(img, rank) for img in images) for images in sorted(autos)
    )


def extend_to_basis(w: Word) -> list[Word]:
    """Extend a primitive element to a basis whose first entry is conjugate to w.

    Whitehead reduction: repeatedly apply the length-reducing type II
    automorphism until the cyclic length is minimal.  Primitive iff the
    minimum is 1.  Rank capped at 3 (exhaustive search only).
    """
    if w.rank > _WHITEHEAD_RANK_CAP:
        raise Unsupported(f"rank {w.rank} > {_WHITEHEAD_RANK_CAP}")
    if not w.letters:
        raise NotPrimitive("trivial word")
    rank = w.rank
    autos = whitehead_automorphisms(rank)
    psi = [generator(i, rank) for i in range(1, rank + 1)]  # composed images
    cur = conj_normal_form(w).rep
    improved = True
    while improved and len(cur) > 1:
        improved = False
        for images in autos:
            cand = conj_normal_form(apply_endomorphism(cur, list(images))).rep
            if len(cand) < len(cur):
                cur = cand
                psi = [apply_endomorphism(p, list(images)) for p in psi]
                improved = True
                break
    if len(cur) != 1:
        raise NotPrimitive(f"{w} has minimal cyclic length {len(cur)}")
    (m,) = cur.letters  # a class representative: one positive letter
    # invert the composed automorphism: x_i in its image basis, whose
    # folded words are freely reduced
    inv_images = [Word(c, rank) for c in
                  _basis_inverse(tuple(p.letters for p in psi), rank)]
    # psi^-1(x_m) is conjugate to w or to w^-1: the classes above forget
    # orientation, so read it off the cyclic words
    first = inv_images[m - 1]
    if _oriented_cyclic(first.letters) != _oriented_cyclic(w.letters):
        first = first.inverse()
    basis = [first] + [inv_images[i - 1] for i in range(1, rank + 1) if i != m]
    _basis_inverse(tuple(b.letters for b in basis), rank)  # sanity: a basis
    return basis


def is_primitive(w: Word) -> bool:
    try:
        extend_to_basis(w)
    except NotPrimitive:
        return False
    return True



def direction_reduction(a: SimplexPoint, m, delta: TopologicalType) -> frozenset:
    """Replace an arbitrary direction set by candidates of a with the same
    out-envelope slice in delta."""
    sl = out_envelope(a, m, delta)
    if not sl.vertices:
        raise EmptySlice("out-envelope slice is empty in this simplex")
    b0 = point_from_coords(delta, barycenter(sl))
    s = stretch_report(a, b0).candidate_witnesses
    reduced = out_envelope(a, s, delta)
    if reduced.vertices != sl.vertices:
        raise SelfCheckFailed("direction reduction changed the slice")
    return s


def rainbow_graph(gamma: ConjClass, eps) -> SimplexPoint:
    """A point whose immersed gamma-loop is tiny: two short edges of length
    eps/2 each, every other candidate at least two unit edges long.

    The graph is a chain of nested arcs over a baseline: arcs are labelled
    by a basis extending gamma, the innermost arc together with the middle
    baseline edge carries gamma.  Rank 2 gives a theta.
    """
    eps = Fraction(eps)
    n = gamma.rank
    if not 0 < eps < Fraction(1, 4 * n):
        raise ParamOutOfRange(f"need 0 < eps < 1/{4 * n}")
    basis = extend_to_basis(gamma.rep)  # NotPrimitive / Unsupported
    if n == 1:
        raise ParamOutOfRange("rank 1 has a unique simplex; no rainbow needed")
    verts = [f"q{i}" for i in range(2, 2 * n)]  # q2 .. q_{2n-1}
    edges = []
    tree = []
    for i in range(len(verts) - 1):
        eid = f"t{i + 1}"
        edges.append((eid, verts[i], verts[i + 1], []))
        tree.append(eid)
    # innermost arc: gamma over the middle baseline edge
    mid_l = verts[n - 2]
    mid_r = verts[n - 1]
    edges.append(("a1", mid_l, mid_r, list(basis[0].letters)))
    # nested arcs for the remaining basis elements
    for k in range(2, n):
        u = verts[n - 2 - (k - 1)]
        v = verts[n - 1 + (k - 1)]
        edges.append((f"a{k}", u, v, list(basis[k - 1].letters)))
    edges.append(("big", verts[0], verts[-1], list(basis[n - 1].letters)))
    t = make_type(n, verts, edges, tree)
    unit = Fraction(1)
    tiny = eps / 2
    lengths = []
    mid_edge = f"t{n - 1}"
    for eid, *_ in edges:
        if eid in ("a1", mid_edge):
            lengths.append(tiny)
        elif eid == "big":
            # the outermost loop must not be shorter than two units
            lengths.append(2 * unit)
        else:
            lengths.append(unit)
    total = sum(lengths)
    p = SimplexPoint(t, tuple(q / total for q in lengths))
    # verify the length claims instead of trusting the construction
    cands = enumerate_candidates(t)
    words = {c.word for c in cands}
    if gamma not in words:
        raise SelfCheckFailed("gamma is not a candidate of the rainbow graph")
    for c in cands:
        ln = conj_length(p, c.word) * total
        ok = ln <= 2 * tiny if c.word == gamma else ln >= 2 * unit
        if not ok:
            raise SelfCheckFailed(f"rainbow candidate {c.word} has length {ln}")
    return p
