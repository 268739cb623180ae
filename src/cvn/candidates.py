"""Candidate loops of a topological type.

A candidate is an embedded simple loop, a figure of eight (two simple loops
meeting in one vertex), or a barbell (two disjoint simple loops joined by an
embedded arc).  Maximal stretch between two points is always attained on a
candidate of the source graph, so these finitely many classes determine the
whole metric.

Candidates are traced as coded loops (see graphs._letter_paths): the step
over t.edges[i] with sign s is the int s * (i + 1), so a step's tail is
t._edge_ends[|k| - 1][k < 0] and a path's reverse is words.invert.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import xor

from .graphs import TopologicalType, _loop_codes, _petals
from .values import Value
from .words import ConjClass, _class_of, _signed, _substitute, invert

SIMPLE_LOOP = "simple-loop"
FIGURE_EIGHT = "figure-eight"
BARBELL = "barbell"


class Candidate(Value):
    kind: str
    word: ConjClass
    counts: tuple[int, ...]


def _counts(size: int, codes) -> tuple[int, ...]:
    """How often the coded loop steps over each of size edges."""
    c = [0] * size
    for k in codes:  # code k steps over t.edges[|k| - 1]
        c[abs(k) - 1] += 1
    return tuple(c)


def edge_counts(t: TopologicalType, gamma: ConjClass) -> tuple[int, ...]:
    """How often the immersed loop of gamma runs over each edge, counted
    along its coded loop, which _loop_codes memoises per (type, class) and
    refuses for a trivial class or another rank."""
    return _counts(len(t.edges), _loop_codes(t, gamma))


def _simple_cycles(t: TopologicalType) -> list[tuple[int, ...]]:
    """Embedded cycles as coded loops, by size and then edge positions,
    each traced from the tail of its first edge.

    Each is a sum of fundamental cycles, as edge bitmasks (the petal of a
    non-tree edge crosses its stem twice, so its xor is its fundamental
    cycle), visited in Gray code order.  A sum has even degrees, so it is
    one cycle when it touches as many vertices as it has edges and one
    trace covers it."""
    ends = t._edge_ends
    basis = [reduce(xor, (1 << (abs(k) - 1) for k in petal))
             for petal in _petals(t)]
    found, mask = [], 0
    for k in range(1, 1 << len(basis)):
        mask ^= basis[(k & -k).bit_length() - 1]
        idx = [i for i in range(len(ends)) if mask >> i & 1]
        if len({v for i in idx for v in ends[i]}) != len(idx):
            continue
        start, v = ends[idx[0]]
        path = [idx[0] + 1]
        left = idx[1:]
        while v != start:
            i = next(i for i in left if v in ends[i])
            left.remove(i)
            u, w = ends[i]
            path.append(i + 1 if u == v else -i - 1)
            v = w if u == v else u
        if not left:
            found.append((len(idx), idx, tuple(path)))
    found.sort()
    return [path for _, _, path in found]


def _arcs_between(t: TopologicalType, verts1, verts2, banned):
    """Embedded coded arcs from verts1 to verts2 (vertex positions) avoiding
    the edges t.edges[i] with i + 1 in banned and interior vertices on
    either cycle, from the vertices of verts1 in vertex-name order."""
    ends = t._edge_ends
    arcs = []

    def extend(v, path, inner):
        for i, (x, y) in enumerate(ends):
            if i + 1 in banned or x == y or v not in (x, y):
                continue
            w, k = (y, i + 1) if x == v else (x, -i - 1)
            if w in verts2:
                arcs.append(path + (k,))
            elif w not in verts1 and w not in inner:
                extend(w, path + (k,), inner | {w})

    for v in sorted(verts1, key=t.vertices.__getitem__):
        extend(v, (), frozenset())
    return arcs


# keep the lru_cache: perfbench/tracer.py (CACHES) reads its cache_info()
@lru_cache(maxsize=4096)
def enumerate_candidates(t: TopologicalType) -> tuple[Candidate, ...]:
    """All candidates of the type, one per unoriented conjugacy class."""
    ends, labels = t._edge_ends, _signed(e.label.letters for e in t.edges)
    cycles = _simple_cycles(t)
    found: list[Candidate] = []
    seen: set = set()

    def add(kind, codes):
        w = _class_of(_substitute(codes, labels), t.rank)
        if w.is_trivial() or w in seen:
            return
        seen.add(w)
        found.append(Candidate(kind, w, _counts(len(ends), codes)))

    def tail(k):
        return ends[abs(k) - 1][k < 0]

    for c in cycles:
        add(SIMPLE_LOOP, c)
    # per cycle, its rotation starting at each vertex it visits
    starts = [{tail(k): c[j:] + c[:j] for j, k in enumerate(c)}
              for c in cycles]
    for (c1, at1), (c2, at2) in itertools.combinations(zip(cycles, starts), 2):
        banned = {abs(k) for k in c1 + c2}
        if len(banned) < len(c1) + len(c2):  # the cycles share an edge
            continue
        common = at1.keys() & at2.keys()
        if len(common) == 1:
            (v,) = common
            add(FIGURE_EIGHT, at1[v] + at2[v])
            add(FIGURE_EIGHT, at1[v] + invert(at2[v]))
        elif not common:
            for arc in _arcs_between(t, at1, at2, banned):
                a, back = at1[tail(arc[0])], invert(arc)
                b = at2[tail(back[0])]
                add(BARBELL, a + arc + b + back)
                add(BARBELL, a + arc + invert(b) + back)
    return tuple(found)


def candidate_words(t: TopologicalType) -> list[ConjClass]:
    return [c.word for c in enumerate_candidates(t)]
