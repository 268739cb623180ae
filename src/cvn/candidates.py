"""Candidate loops of a topological type.

A candidate is an embedded simple loop, a figure of eight (two simple loops
meeting in one vertex), or a barbell (two disjoint simple loops joined by an
embedded arc).  Maximal stretch between two points is always attained on a
candidate of the source graph, so these finitely many classes determine the
whole metric.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import xor

from .errors import TrivialClass
from .graphs import Path, TopologicalType, _loop_codes, _petals, loop_word
from .values import Value
from .words import ConjClass

SIMPLE_LOOP = "simple-loop"
FIGURE_EIGHT = "figure-eight"
BARBELL = "barbell"


class Candidate(Value):
    kind: str
    path: Path
    word: ConjClass
    counts: tuple[int, ...]


def path_counts(t: TopologicalType, path) -> tuple[int, ...]:
    c = [0] * len(t.edges)
    for eid, _ in path:
        c[t.index(eid)] += 1
    return tuple(c)


def edge_counts(t: TopologicalType, gamma: ConjClass) -> tuple[int, ...]:
    """How often the immersed loop of gamma runs over each edge, memoised
    per (type, class)."""
    if gamma.is_trivial():
        raise TrivialClass("trivial class has no immersed representative")
    return _edge_counts(t, gamma)


@lru_cache(maxsize=8192)
def _edge_counts(t: TopologicalType, gamma: ConjClass) -> tuple[int, ...]:
    c = [0] * len(t.edges)
    for k in _loop_codes(t, gamma):  # code k steps over t.edges[|k| - 1]
        c[abs(k) - 1] += 1
    return tuple(c)


def _simple_cycles(t: TopologicalType) -> list[Path]:
    """Embedded cycles as oriented paths, by size and then edge positions,
    each traced from the tail of its first edge.

    Each is a sum of fundamental cycles, as edge bitmasks (the petal of a
    non-tree edge crosses its stem twice, so its xor is its fundamental
    cycle), visited in Gray code order.  A sum has even degrees, so it is
    one cycle when it touches as many vertices as it has edges and one
    trace covers it."""
    ends = t._edge_ends
    basis = [reduce(xor, (1 << t.index(eid) for eid, _ in petal))
             for petal in _petals(t)]
    found, mask = [], 0
    for k in range(1, 1 << len(basis)):
        mask ^= basis[(k & -k).bit_length() - 1]
        idx = [i for i in range(len(ends)) if mask >> i & 1]
        if len({v for i in idx for v in ends[i]}) != len(idx):
            continue
        start, v = ends[idx[0]]
        path = [(t.edges[idx[0]].id, 1)]
        left = idx[1:]
        while v != start:
            i = next(i for i in left if v in ends[i])
            left.remove(i)
            u, w = ends[i]
            path.append((t.edges[i].id, 1 if u == v else -1))
            v = w if u == v else u
        if not left:
            found.append((len(idx), idx, tuple(path)))
    found.sort()
    return [path for _, _, path in found]


def _tail(t: TopologicalType, step) -> str:
    e = t.edge(step[0])
    return e.u if step[1] > 0 else e.v


def _rotate_to(path: Path, t: TopologicalType, v: str) -> Path:
    """Rotate a cyclic path so it starts at vertex v."""
    for k, step in enumerate(path):
        if _tail(t, step) == v:
            return path[k:] + path[:k]
    raise ValueError(f"cycle does not visit {v}")


def _reverse(path: Path) -> Path:
    return tuple((eid, -s) for eid, s in reversed(path))


def _arcs_between(t, verts1: set[str], verts2: set[str], banned: set[str]):
    """Embedded arcs from verts1 to verts2 avoiding banned edges and interior
    vertices on either cycle."""
    arcs = []

    def extend(v, path, used_edges, used_verts):
        for e in t.edges:
            if (e.id in banned or e.id in used_edges or e.is_loop()
                    or v not in (e.u, e.v)):
                continue
            w, s = (e.v, 1) if e.u == v else (e.u, -1)
            if w in verts2:
                arcs.append(tuple(path + [(e.id, s)]))
            elif w not in verts1 and w not in used_verts:
                extend(w, path + [(e.id, s)], used_edges | {e.id},
                       used_verts | {w})

    for v in sorted(verts1):
        extend(v, [], set(), {v})
    return arcs


@lru_cache(maxsize=4096)
def enumerate_candidates(t: TopologicalType) -> tuple[Candidate, ...]:
    """All candidates of the type, one per unoriented conjugacy class."""
    cycles = _simple_cycles(t)
    found: list[Candidate] = []
    seen: set = set()

    def add(kind, path):
        w = loop_word(t, path)
        if w.is_trivial() or w in seen:
            return
        seen.add(w)
        found.append(Candidate(kind, path, w, path_counts(t, path)))

    for c in cycles:
        add(SIMPLE_LOOP, c)
    for c1, c2 in itertools.combinations(cycles, 2):
        e1 = {eid for eid, _ in c1}
        e2 = {eid for eid, _ in c2}
        if e1 & e2:
            continue
        v1 = {_tail(t, step) for step in c1}
        v2 = {_tail(t, step) for step in c2}
        common = v1 & v2
        if len(common) == 1:
            (v,) = common
            a, b = _rotate_to(c1, t, v), _rotate_to(c2, t, v)
            add(FIGURE_EIGHT, a + b)
            add(FIGURE_EIGHT, a + _reverse(b))
        elif not common:
            for arc in _arcs_between(t, v1, v2, e1 | e2):
                a = _rotate_to(c1, t, _tail(t, arc[0]))
                b = _rotate_to(c2, t, _tail(t, _reverse(arc)[0]))
                add(BARBELL, a + arc + b + _reverse(arc))
                add(BARBELL, a + arc + _reverse(b) + _reverse(arc))
    return tuple(found)


def candidate_words(t: TopologicalType) -> list[ConjClass]:
    return [c.word for c in enumerate_candidates(t)]
