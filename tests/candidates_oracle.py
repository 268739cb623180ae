"""Slow exact twin of ``cvn.candidates``, kept as a differential-test oracle.

``_simple_cycles`` tries every edge subset and keeps those in which every
vertex has degree two and which are connected, as ``cvn.candidates`` did
before it summed fundamental cycles.  ``loop_word`` checks closure step by
step and then reads the marking through ``path_word``, as ``cvn.graphs`` did
before it did both in one pass.  ``enumerate_candidates`` is the walk over
cycle pairs that ``cvn.candidates`` makes, uncached, on (edge id, sign)
paths rather than coded loops, built on these two, on ``path_counts`` and
on its own copies of the rotation, vertex-set and arc helpers.
"""

from __future__ import annotations

import itertools

from cvn.candidates import (
    BARBELL,
    FIGURE_EIGHT,
    SIMPLE_LOOP,
    Candidate,
)
from cvn.errors import NotClosed
from cvn.graphs import is_connected
from cvn.words import conj_normal_form
from marking_oracle import path_word
from point_readings import edge_of


def path_counts(t, path):
    """How often an (edge id, sign) path runs over each edge."""
    c = [0] * len(t.edges)
    for eid, _ in path:
        c[t.index(eid)] += 1
    return tuple(c)


def _ends(t, step):
    e = edge_of(t, step[0])
    return (e.u, e.v) if step[1] > 0 else (e.v, e.u)


def loop_word(t, path):
    """Conjugacy class represented by a closed edge path."""
    path = tuple(path)
    if not path:
        raise NotClosed("empty path")
    for k in range(len(path)):
        head = _ends(t, path[k])[1]
        tail = _ends(t, path[(k + 1) % len(path)])[0]
        if head != tail:
            raise NotClosed(f"steps {k} and {k + 1} do not concatenate")
    return conj_normal_form(path_word(t, path))


def _simple_cycles(t):
    """Embedded cycles as oriented paths, one per edge subset."""
    out = []
    edges = t.edges
    for r in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            deg: dict[str, int] = {}
            for e in sub:
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = list(deg)
            if not is_connected(verts, sub):
                continue
            adj = {v: [] for v in verts}
            for e in sub:
                adj[e.u].append((e.v, e.id, 1))
                adj[e.v].append((e.u, e.id, -1))
            # trace the cycle
            path = []
            v = verts[0]
            used: set[str] = set()
            while len(path) < len(sub):
                for w, eid, s in adj[v]:
                    if eid not in used:
                        used.add(eid)
                        path.append((eid, s))
                        v = w
                        break
            out.append(tuple(path))
    return out


def _rotate_to(path, t, v):
    """Rotate a cyclic path so it starts at vertex v."""
    for k, step in enumerate(path):
        e = edge_of(t, step[0])
        tail = e.u if step[1] > 0 else e.v
        if tail == v:
            return path[k:] + path[:k]
    raise ValueError(f"cycle does not visit {v}")


def _reverse(path):
    return tuple((eid, -s) for eid, s in reversed(path))


def _cycle_vertices(t, path):
    verts = set()
    for eid, _ in path:
        e = edge_of(t, eid)
        verts.add(e.u)
        verts.add(e.v)
    return verts


def _arcs_between(t, verts1, verts2, banned):
    """Embedded arcs from verts1 to verts2 avoiding banned edges and interior
    vertices on either cycle."""
    arcs = []

    def extend(v, path, used_edges, used_verts):
        for e in t.edges:
            if e.id in banned or e.id in used_edges or e.is_loop():
                continue
            steps = []
            if e.u == v:
                steps.append((e.v, 1))
            if e.v == v:
                steps.append((e.u, -1))
            for w, s in steps:
                if w in verts2:
                    arcs.append(tuple(path + [(e.id, s)]))
                    continue
                if w in verts1 or w in used_verts:
                    continue
                extend(w, path + [(e.id, s)], used_edges | {e.id},
                       used_verts | {w})

    for v in sorted(verts1):
        extend(v, [], set(), {v})
    return arcs


def enumerate_candidates(t):
    """All candidates of the type, one per unoriented conjugacy class."""
    cycles = _simple_cycles(t)
    found: list[Candidate] = []
    seen: set = set()

    def add(kind, path):
        w = loop_word(t, path)
        if w.is_trivial() or w in seen:
            return
        seen.add(w)
        found.append(Candidate(kind, w, path_counts(t, path)))

    for c in cycles:
        add(SIMPLE_LOOP, c)
    for c1, c2 in itertools.combinations(cycles, 2):
        e1 = {eid for eid, _ in c1}
        e2 = {eid for eid, _ in c2}
        if e1 & e2:
            continue
        v1 = _cycle_vertices(t, c1)
        v2 = _cycle_vertices(t, c2)
        common = v1 & v2
        if len(common) == 1:
            (v,) = common
            a = _rotate_to(c1, t, v)
            b = _rotate_to(c2, t, v)
            add(FIGURE_EIGHT, a + b)
            add(FIGURE_EIGHT, a + _reverse(b))
        elif not common:
            for arc in _arcs_between(t, v1, v2, e1 | e2):
                start = edge_of(t, arc[0][0])
                u = start.u if arc[0][1] > 0 else start.v
                last = edge_of(t, arc[-1][0])
                w = last.v if arc[-1][1] > 0 else last.u
                a = _rotate_to(c1, t, u)
                b = _rotate_to(c2, t, w)
                add(BARBELL, a + arc + b + _reverse(arc))
                add(BARBELL, a + arc + _reverse(b) + _reverse(arc))
    return tuple(found)
