"""Marked metric graphs: points of Outer Space.

A point is a finite connected graph of rank n, all valencies at least 3,
with a spanning tree and a labelling of the non-tree edges by words forming
a basis of F_n.  Collapsing the tree identifies the graph with the rose,
and the labels say which petal each surviving edge maps to.  Lengths are
exact rationals normalized to total volume 1.

Conventions: an oriented edge path is a tuple of (edge_id, sign) with sign
+1 for u -> v, which loop_word reads and tighten returns; inside the
package every loop (petals, tightened loops, collapses, candidates) is kept
coded, the step (t.edges[i].id, s) as the int s * (i + 1).  The basepoint
used for all label computations is the first vertex in the vertex list.
Half-edges are pairs (edge_id, end) with end 0 at u and end 1 at v.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from types import MappingProxyType

from .errors import (
    BadPartition,
    BadValency,
    DisconnectedGraph,
    DuplicateName,
    NonpositiveLength,
    NotABasis,
    NotAForest,
    NotAnAutomorphism,
    NotClosed,
    RankMismatch,
    TrivialClass,
    WrongRank,
)
from .words import (
    ConjClass,
    Word,
    _basis_inverse,
    _class_of,
    _signed,
    _substitute,
    apply_endomorphism,
    cyclic_reduce,
    free_reduce,
    invert,
    is_basis,
    reduce,
)
from .values import Value, setfield

Path = tuple[tuple[str, int], ...]
HalfEdge = tuple[str, int]


class Edge(Value):
    id: str
    u: str
    v: str
    label: Word  # trivial word on tree edges

    def is_loop(self) -> bool:
        return self.u == self.v


_types = weakref.WeakValueDictionary()  # every live type, held weakly
_edge_key = attrgetter("id", "u", "v", "label.letters", "label.rank")


class TopologicalType(Value):
    """A marked graph with lengths forgotten.

    The edge order is fixed at construction and defines the coordinates of
    the corresponding open simplex of CV_n.  Types are interned: equal
    fields give one object, so the facts cached below are computed once.
    """

    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    tree: frozenset[str]

    def __new__(cls, *args, **kwargs):
        new = object.__new__(cls)
        Value.__init__(new, *args, **kwargs)  # TypeError on bad fields
        key = (new.rank, new.vertices, new.tree,  # then edges as str, int
               *itertools.chain.from_iterable(map(_edge_key, new.edges)))
        return _types.setdefault(key, new)

    __init__ = object.__init__  # a no-op: __new__ binds the fields
    __eq__ = object.__eq__

    def __reduce__(self):  # copies and unpickled types are interned too
        return TopologicalType, self._values(self)

    @cached_property
    def _hash(self) -> int:
        return Value.__hash__(self)

    def __hash__(self) -> int:
        return self._hash  # every lru_cache keyed on a type hashes it

    @cached_property
    def _canonical(self) -> tuple:
        # the support fill keys every type it queues; compute its key once,
        # unless a parent keyed it first (resolutions, _face)
        return _canonical_labelling(self._edge_ends, len(self.vertices),
                                    _letter_paths(self)[1:self.rank + 1])

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {e.id: i for i, e in enumerate(self.edges)}

    def index(self, eid: str) -> int:
        return self._positions[eid]

    @cached_property
    def _edge_ends(self) -> tuple[tuple[int, int], ...]:
        """Per edge, the positions of its two ends in the vertex list."""
        at = {v: i for i, v in enumerate(self.vertices)}
        return tuple((at[e.u], at[e.v]) for e in self.edges)

    def non_tree_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.id not in self.tree)

    def basis_words(self) -> list[Word]:
        return [e.label for e in self.non_tree_edges()]

    def valency(self, v: str) -> int:
        return len(self.half_edges_at(v))

    def half_edges_at(self, v: str) -> list[HalfEdge]:
        out = []
        for e in self.edges:
            if e.u == v:
                out.append((e.id, 0))
            if e.v == v:
                out.append((e.id, 1))
        return out

    def is_trivalent(self) -> bool:
        """Whether every vertex has valency 3, read off the edge count.

        Every type the package builds is connected with all valencies at
        least 3 (make_type checks it; blow-ups and collapses keep it).
        Then V - E = 1 - n and 2E = sum of valencies >= 3V give
        E <= 3n - 3, with equality exactly when every valency is 3."""
        return len(self.edges) == 3 * self.rank - 3


class SimplexPoint(Value):
    """A point of CV_n: a topological type plus volume-1 edge lengths.

    The lengths (ints or Fractions) are checked on their integer
    numerators over their least common denominator d, which are kept as
    scaled_lengths == (numerators, d), so lengths[i] ==
    Fraction(numerators[i], d).  scaled_lengths is derived from lengths,
    so it takes no part in equality, hash or repr."""

    ttype: TopologicalType
    lengths: tuple[Fraction, ...]

    def __init__(self, ttype: TopologicalType, lengths: tuple[Fraction, ...]):
        if len(lengths) != len(ttype.edges):
            raise WrongRank("one length per edge required")
        nums, d = _scaled(lengths)
        for q, n in zip(lengths, nums):
            if n <= 0:
                raise NonpositiveLength(f"length {q}")
        if sum(nums) != d:
            raise NonpositiveLength("lengths must sum to 1")
        setfield(self, "ttype", ttype)
        setfield(self, "lengths", lengths)
        setfield(self, "scaled_lengths", (nums, d))

    def __reduce__(self):  # a copy or unpickled point hashes afresh
        return SimplexPoint, (self.ttype, self.lengths)

    @cached_property
    def _hash(self) -> int:
        return Value.__hash__(self)

    def __hash__(self) -> int:
        return self._hash  # points key the embedding and pair caches

    @cached_property
    def code_weights(self) -> tuple[int, ...]:
        """The numerators of scaled_lengths indexed by step code (see
        _letter_paths): entries k and -k both hold edge |k|'s numerator."""
        nums = self.scaled_lengths[0]
        return (0,) + nums + nums[::-1]


# ---------------------------------------------------------------------------
# Construction and validation.
# ---------------------------------------------------------------------------


class MarkedGraph(Value):
    """Raw user input, prior to validation: mutable, so unhashable."""

    rank: int
    vertices: list[str]
    edges: list[tuple[str, str, str, Fraction, list[int]]]  # id,u,v,len,label
    tree: list[str]

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


def is_connected(vertices, edges) -> bool:
    """Whether the edges join the (nonempty) vertex sequence into one piece."""
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for e in edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def _union_find(t: TopologicalType, idx):
    """Union-find over the vertex positions of t, joining the ends of the
    edges at positions idx in order.  Returns (roots, None) when the edges
    form a forest, roots[j] the root position of vertex j, and otherwise
    (None, i) for the first edge position i that closes a cycle."""
    parent = list(range(len(t.vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ends = t._edge_ends
    for i in idx:
        u, v = ends[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            return None, i
        parent[ru] = rv
    return [find(x) for x in range(len(parent))], None


def _check_spanning_tree(t: TopologicalType):
    tree_idx = [i for i, e in enumerate(t.edges) if e.id in t.tree]
    if len(t.tree) != len(tree_idx):
        raise NotAForest("tree refers to unknown edges")
    if len(tree_idx) != len(t.vertices) - 1:
        raise NotAForest("spanning tree must have V-1 edges")
    cycle = _union_find(t, tree_idx)[1]
    if cycle is not None:
        raise NotAForest(f"tree contains a cycle through {t.edges[cycle].id}")


def make_type(rank, vertices, edge_specs, tree) -> TopologicalType:
    """Build and fully validate a topological type.

    edge_specs: iterable of (id, u, v, label_letters).
    """
    edges = tuple(
        Edge(eid, u, v, reduce(tuple(lab), rank)) for eid, u, v, lab in edge_specs
    )
    vertices, tree = tuple(vertices), tuple(tree)
    for kind, names in (("vertex", vertices), ("edge id", [e.id for e in edges]),
                        ("tree entry", tree)):
        if len(set(names)) != len(names):
            name = next(x for i, x in enumerate(names) if x in names[:i])
            raise DuplicateName(f"{kind} {name!r} is listed twice")
    t = TopologicalType(rank, vertices, edges, frozenset(tree))
    if not t.vertices:
        raise DisconnectedGraph("no vertices")
    for e in t.edges:
        for end in (e.u, e.v):
            if end not in t.vertices:
                raise DisconnectedGraph(f"edge {e.id} ends at {end!r}, "
                                        "which is not a listed vertex")
    if not is_connected(t.vertices, t.edges):
        raise DisconnectedGraph("graph is not connected")
    for v in t.vertices:
        if t.valency(v) < 3:
            raise BadValency(f"vertex {v} has valency {t.valency(v)}")
    if len(t.edges) - len(t.vertices) + 1 != rank:
        raise WrongRank(
            f"first Betti number {len(t.edges) - len(t.vertices) + 1} != {rank}"
        )
    _check_spanning_tree(t)
    for e in t.edges:
        if e.id in t.tree and not e.label.is_trivial():
            raise NotABasis(f"tree edge {e.id} carries a nontrivial label")
    labels = t.basis_words()
    if not is_basis(labels, rank):
        raise NotABasis("non-tree labels do not form a basis")
    return t


def validate_and_normalize(g: MarkedGraph) -> SimplexPoint:
    """Check all marked graph invariants and rescale total length to 1."""
    t = make_type(g.rank, g.vertices, [(e[0], e[1], e[2], e[4]) for e in g.edges],
                  g.tree)
    return SimplexPoint(t, _normalized(e[3] for e in g.edges))


def _scaled(lengths) -> tuple[tuple[int, ...], int]:
    """(numerators, d): rationals as integers over their least common
    denominator d."""
    d = math.lcm(*(q.denominator for q in lengths))
    return tuple(q.numerator * (d // q.denominator) for q in lengths), d


def _normalized(lengths) -> tuple[Fraction, ...]:
    """Lengths as Fractions rescaled to total 1, each checked positive
    before any division: with the lengths as integer numerators over
    their least common denominator, each numerator over their sum."""
    lengths = [Fraction(q) for q in lengths]
    nums = _scaled(lengths)[0]
    for q, n in zip(lengths, nums):
        if n <= 0:
            raise NonpositiveLength(f"length {q}")
    total = sum(nums)
    return tuple(Fraction(n, total) for n in nums)


def _json_int(value, field: str) -> int:
    if type(value) is not int:  # a float or a bool is not read as an int
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def _json_as(kind: type, value, field: str):
    """value, unless it is not of kind: a JSON object, list or string."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "a list"}.get(kind, "a string")
        raise ValueError(f"{field} {value!r} is not {name}")
    return value


# Lengths print exactly, and Python turns no int of more than 4,300 digits
# into a string.  So a length string longer than that, or with a decimal
# exponent larger in size, is refused before Fraction reads it (it would
# build 10 ** exponent first), and so is a graph whose lengths carry more
# bits in all than 3 per digit (2 ** 3 < 10): every normalised length is
# a numerator and a denominator no larger than the sum of the lengths over
# their common denominator, which has fewer bits than that.
_DIGITS = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _json_length(value, field: str) -> Fraction:
    if type(value) not in (int, float, str):  # nor a bool
        raise ValueError(f"{field} {value!r} is not a number")
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if (len(value) > _DIGITS
                or exponent and abs(int(exponent[1])) > _DIGITS):
            raise ValueError(f"{field} {value[:20]!r} has more "
                             f"than {_DIGITS} digits")
    return Fraction(value)


def graph_from_json(text) -> MarkedGraph:
    """The graph of a JSON object: rank and label letters are integers,
    vertex names, edge ids and ends and tree entries are strings, and a
    length is a number or a string that Fraction reads, of bounded size.
    Any other shape raises ValueError naming the field."""
    data = json.loads(text) if isinstance(text, str) else text
    edges = []
    bits = 0
    for e in _json_as(list, _json_as(dict, data, "graph")["edges"], "edges"):
        eid = _json_as(str, _json_as(dict, e, "edge")["id"], "edge id")
        length = _json_length(e["length"], f"edge {eid} length")
        bits += length.numerator.bit_length() + length.denominator.bit_length()
        if bits > 3 * _DIGITS:
            raise ValueError(f"edge {eid} length takes the lengths to {bits} "
                             f"bits, more than {3 * _DIGITS}")
        edges.append(
            (eid, _json_as(str, e["from"], f"edge {eid} from"),
             _json_as(str, e["to"], f"edge {eid} to"), length,
             [_json_int(a, f"edge {eid} label letter")
              for a in _json_as(list, e.get("label", []), f"edge {eid} label")])
        )
    vertices, tree = ([_json_as(str, v, f"{field} entry")
                       for v in _json_as(list, data[field], field)]
                      for field in ("vertices", "tree"))
    return MarkedGraph(_json_int(data["rank"], "rank"), vertices, edges, tree)


def _exact(q: Fraction) -> str:
    """The text of every printed rational, the digits of str(q).  Decimal
    writes them, since str() of an int raises ValueError past the
    4,300-digit limit; the interpreter's limit is left as it is."""
    text = str(Decimal(q.numerator))
    if q.denominator != 1:
        text += f"/{Decimal(q.denominator)}"
    return text


def point_to_json(p: SimplexPoint) -> dict:
    t = p.ttype
    return {
        "rank": t.rank,
        "vertices": list(t.vertices),
        "edges": [
            {
                "id": e.id,
                "from": e.u,
                "to": e.v,
                "length": _exact(p.lengths[i]),
                "label": list(e.label.letters),
            }
            for i, e in enumerate(t.edges)
        ],
        "tree": sorted(t.tree),
    }


# ---------------------------------------------------------------------------
# Paths, loops, tightening.
# ---------------------------------------------------------------------------


def loop_word(t: TopologicalType, path) -> ConjClass:
    """Conjugacy class of a closed edge path, through words._class_of."""
    ends = t._edge_ends
    out: list[int] = []
    k = -1
    for k, (eid, s) in enumerate(path):
        i = t.index(eid)
        u, v = ends[i] if s > 0 else ends[i][::-1]
        if k == 0:
            first = u
        elif u != head:
            raise NotClosed(f"steps {k - 1} and {k} do not concatenate")
        head = v
        lab = t.edges[i].label.letters
        out.extend(lab if s > 0 else invert(lab))
    if k < 0 or head != first:
        raise NotClosed("empty path" if k < 0 else
                        f"steps {k} and {k + 1} do not concatenate")
    return _class_of(tuple(out), t.rank)


def _tree_routes(ends, count: int, tree) -> list:
    """Per vertex position, the coded path to it from vertex 0 through the
    edges at positions tree, a spanning tree: a breadth-first walk."""
    routes = [None] * count
    routes[0] = ()
    todo = [0]
    for v in todo:  # todo grows as the walk reaches vertices
        for i in tree:
            u, w = ends[i]
            if v in (u, w):
                far, c = (w, i + 1) if u == v else (u, -i - 1)
                if routes[far] is None:
                    routes[far] = routes[v] + (c,)
                    todo.append(far)
    return routes


def _petals(t: TopologicalType) -> tuple[tuple[int, ...], ...]:
    """Per non-tree edge, in edge order, the coded petal (see
    _letter_paths): the loop from the base vertex through the tree to the
    edge, across it and back to the base vertex."""
    ends = t._edge_ends
    tree = [i for i, e in enumerate(t.edges) if e.id in t.tree]
    routes = _tree_routes(ends, len(t.vertices), tree)
    return tuple(routes[u] + (i + 1,) + invert(routes[w])
                 for i, (u, w) in enumerate(ends) if t.edges[i].id not in t.tree)


@lru_cache(maxsize=4096)
def _letter_paths(t: TopologicalType) -> tuple[tuple[int, ...], ...]:
    """Per generator letter a of F_n, the reduced coded edge path from the
    base vertex that realizes a, at index a of a words._signed table:
    table[-m] is table[m] reversed with every code negated.

    The step over edge t.edges[i] with sign s is coded as the int
    s * (i + 1), so a step's reverse is its negative.  Generator m is the
    word _basis_inverse gives it in the labels of the non-tree edges, and
    each of those letters is the coded petal of its edge."""
    petals = _signed(_petals(t))
    inverse = _basis_inverse(
        tuple(e.label.letters for e in t.non_tree_edges()), t.rank)
    return _signed(_substitute(word, petals) for word in inverse)


# keep the lru_cache: perfbench/tracer.py (CACHES) reads its cache_info()
@lru_cache(maxsize=65536)
def _tighten_cached(t: TopologicalType, rep_letters) -> tuple[int, ...]:
    """The coded immersed loop of the class with these letters: the
    cyclic reduction of the letters substituted into _letter_paths."""
    return cyclic_reduce(_substitute(rep_letters, _letter_paths(t)))[0]


def _loop_codes(t: TopologicalType, gamma: ConjClass) -> tuple[int, ...]:
    """The coded immersed loop of gamma in t (see _letter_paths); the
    checks of tighten without decoding the steps."""
    if gamma.is_trivial():
        raise TrivialClass("cannot tighten the trivial class")
    if gamma.rank != t.rank:
        raise RankMismatch(f"class rank {gamma.rank} != graph rank {t.rank}")
    return _tighten_cached(t, gamma.rep.letters)


def tighten(t: TopologicalType, gamma: ConjClass) -> Path:
    """The immersed (cyclically backtrack-free) loop realizing gamma.

    The loop is computed on coded steps (see _letter_paths) and decoded:
    code k is the step (t.edges[|k| - 1].id, sign of k)."""
    edges = t.edges
    return tuple((edges[k - 1].id, 1) if k > 0 else (edges[-k - 1].id, -1)
                 for k in _loop_codes(t, gamma))


# ---------------------------------------------------------------------------
# Forest collapse.
# ---------------------------------------------------------------------------


def _contract(ends, count: int, loops, i: int):
    """(ends, vertex count, loops) after the non-loop edge at position i
    collapses: its first end merges into its second, later positions and
    codes move down by one, and the loops, now based at the image of
    their base point, drop its code."""
    c = i + 1
    u, w = ends[i]
    at = [j - (j > u) for j in range(count)]
    at[u] = at[w]
    return (tuple((at[a], at[b]) for a, b in ends[:i] + ends[c:]), count - 1,
            tuple(tuple(k - (k > c) + (k < -c) for k in loop if abs(k) != c)
                  for loop in loops))


def _contracted(t: TopologicalType, idx):
    """(ends, vertex count, loops) of t and its generator loops after the
    forest at edge positions idx, ascending, collapses: _contract from the
    highest position down."""
    form = t._edge_ends, len(t.vertices), _letter_paths(t)[1:t.rank + 1]
    for i in reversed(idx):
        form = _contract(*form, i)
    return form


def collapse_forest(t: TopologicalType, forest) -> TopologicalType:
    """Collapse a forest of edges; the quotient keeps the same marking.

    An unknown id raises KeyError and a loop or a cycle NotAForest, on
    every call; the quotient of each (type, forest) is built once and
    shared (see _collapse_cached).
    """
    idx = sorted(t.index(eid) for eid in frozenset(forest))  # KeyError
    for i in idx:
        if t.edges[i].is_loop():
            raise NotAForest(f"{t.edges[i].id} is a loop edge")
    if _union_find(t, idx)[1] is not None:
        raise NotAForest("selected edges contain a cycle")
    return _collapse_cached(t, tuple(idx))


@lru_cache(maxsize=1024)
def _collapse_cached(t: TopologicalType, idx: tuple) -> TopologicalType:
    """The quotient of t by the forest at edge positions idx, ascending
    (not checked here).

    Its spanning tree is t's after a tree exchange: each non-tree member,
    in edge order, replaces the first edge outside the forest on the tree
    path from its second end to its first.  So the tree holds the forest,
    and each non-tree edge of the quotient is labelled by the marking of
    its petal: the generator loops, contracted (_contracted) and written
    in the non-tree edges, form a basis whose inverse gives the labels.
    A vertex is named after the root the union-find gives its component,
    in edge order, so names do not depend on the hash seed.
    """
    ends, count = t._edge_ends, len(t.vertices)
    tree = {i for i, e in enumerate(t.edges) if e.id in t.tree}
    for f in idx:
        if f not in tree:
            routes = _tree_routes(ends, count, tree)
            u, w = ends[f]
            tree.remove(next(abs(c) - 1 for c in
                             free_reduce(invert(routes[w]) + routes[u])
                             if abs(c) - 1 not in idx))
            tree.add(f)
    kept = [i for i in range(len(ends)) if i not in idx]
    letter = {}  # quotient code of each non-tree edge -> its letter
    for q, i in enumerate(kept, 1):
        if i not in tree:
            letter[q] = len(letter) + 1
    words = tuple(tuple(letter[k] if k > 0 else -letter[-k]
                        for k in loop if abs(k) in letter)
                  for loop in _contracted(t, idx)[2])
    labels = iter(_basis_inverse(words, t.rank))
    roots, names, trivial = _union_find(t, idx)[0], t.vertices, Word((), t.rank)
    return TopologicalType(
        t.rank,
        tuple(v for j, v in enumerate(names) if roots[j] == j),
        tuple(Edge(t.edges[i].id, names[roots[ends[i][0]]],
                   names[roots[ends[i][1]]],
                   trivial if i in tree else Word(next(labels), t.rank))
              for i in kept),
        frozenset(t.edges[i].id for i in tree.difference(idx)))


# ---------------------------------------------------------------------------
# Blow-ups.
# ---------------------------------------------------------------------------


def _fresh(used, stem: str) -> str:
    if stem not in used:
        return stem
    k = 2
    while f"{stem}{k}" in used:
        k += 1
    return f"{stem}{k}"


def _split(form, v: int, moved: dict):
    """Blow up vertex position v of a form (vertex names, edge ids, edge
    ends as vertex positions, coded generator loops based at position 0).
    The half-edges at v, as codes of the steps leaving v, that moved maps
    to True go to a new last vertex, joined to v by a new last edge c.  A
    loop steps over c from a staying half-edge to a moving one, and over
    -c back; the base point stays.  So each loop stays reduced and in its
    based class: it is the child's _letter_paths row."""
    names, ids, ends, loops = form
    new, c = len(names), len(ends) + 1
    ends = list(ends)
    for k, moves in moved.items():
        if moves:
            u, w = ends[abs(k) - 1]
            ends[abs(k) - 1] = (new, w) if k > 0 else (u, new)
    out = []
    for loop in loops:
        path = []
        side = False if v == 0 else None  # side of the last arrival at v
        for k in loop:
            if side is not None and moved[k] != side:
                path.append(c if side is False else -c)
            path.append(k)
            side = moved.get(-k)
        out.append(tuple(path + [-c]) if side else tuple(path))
    return (names + (_fresh(names, names[v] + "'"),),
            ids + (_fresh(ids, "blow"),),
            tuple(ends + [(v, new)]), tuple(out))


def _form_type(t: TopologicalType, form) -> TopologicalType:
    """The type of a form blown up from t: t's edges, rebuilt where their
    ends moved, then the new edges, trivially labelled tree edges."""
    names, ids, ends, _ = form
    m, trivial = len(t.edges), Word((), t.rank)
    return TopologicalType(t.rank, names, tuple(
        e if (u, w) == was else Edge(e.id, names[u], names[w], e.label)
        for e, (u, w), was in zip(t.edges, ends, t._edge_ends)) + tuple(
        Edge(eid, names[u], names[w], trivial)
        for eid, (u, w) in zip(ids[m:], ends[m:])), t.tree.union(ids[m:]))


def _blow_up_forms(t: TopologicalType):
    """The forms of the trivalent types that iterated blow-ups reach from
    t, depth first: the first vertex of valency at least 4 is split every
    way that keeps its first half-edge and at least one more, and moves
    at least two."""
    stack = [(t.vertices, tuple(e.id for e in t.edges), t._edge_ends,
              _letter_paths(t)[1:t.rank + 1])]
    while stack:
        form = stack.pop()
        at: list[list[int]] = [[] for _ in form[0]]
        for i, (u, w) in enumerate(form[2], 1):
            at[u].append(i)
            at[w].append(-i)
        v = next((v for v, half in enumerate(at) if len(half) >= 4), None)
        if v is None:
            yield form
            continue
        half = at[v]
        for r in range(1, len(half) - 2):
            for stay in itertools.combinations(half[1:], r):
                stay = {half[0], *stay}
                stack.append(_split(form, v, {k: k not in stay for k in half}))


def blow_up_vertex(t: TopologicalType, v: str, side1, side2) -> TopologicalType:
    """Split v into two vertices joined by a new tree edge.

    side1 and side2 partition the half-edges at v; side1 stays on v, side2
    moves to the new vertex.  Collapsing the new edge returns the input.
    """
    side1, side2 = frozenset(side1), frozenset(side2)
    half = {}  # each half-edge at v: the code of the step leaving through it
    for k, e in enumerate(t.edges, 1):
        if e.u == v:
            half[e.id, 0] = k
        if e.v == v:
            half[e.id, 1] = -k
    if len(half) < 4:
        raise BadPartition(f"vertex {v} has valency {len(half)} < 4")
    if (side1 | side2 != half.keys() or side1 & side2 or len(side1) < 2
            or len(side2) < 2):
        raise BadPartition("sides must partition the half-edges, each size >= 2")
    moved = {k: h in side2 for h, k in half.items()}
    form = (t.vertices, tuple(e.id for e in t.edges), t._edge_ends, ())
    return _form_type(t, _split(form, t.vertices.index(v), moved))


# ---------------------------------------------------------------------------
# Marking equivalence.
# ---------------------------------------------------------------------------


def _move_base(loops, c):
    """The based loops after the base point crosses step c, which leaves
    it: each loop becomes c^-1 loop c, reduced at both ends."""
    out = []
    for loop in loops:
        head = loop[1:] if loop[0] == c else (-c,) + loop
        out.append(head[:-1] if head and head[-1] == -c else head + (c,))
    return tuple(out)


def _shortening_steps(loops) -> list[int]:
    """The steps leaving the base point that some loop starts with, or
    ends with the reverse of, once per loop end.  Crossing a step c
    adds a step at each end of each of the n loops, less one at every
    end where c is listed, so it changes the total length by
    2n - 2 (the number of times c is listed)."""
    return [loop[0] for loop in loops] + [-loop[-1] for loop in loops]


def _relabel(loops):
    """The loops with edges renumbered 1, 2, ... in order of first
    traversal, each oriented as first traversed; and the dict from each
    old edge number to its signed new number."""
    new: dict[int, int] = {}
    code = []
    for loop in loops:
        out = []
        for k in loop:
            e = abs(k)
            if e not in new:
                new[e] = len(new) + 1 if k > 0 else -len(new) - 1
            out.append(new[e] if k > 0 else -new[e])
        code.append(tuple(out))
    return tuple(code), new


def _canonical_labelling(ends, count: int, loops):
    """(key, labelling) of the marked type with these edge ends (vertex
    positions below count) and these n coded generator loops, based at
    any one vertex (see type_key): labelling[i] is the signed number the
    least code gives the edge at position i."""
    leaving: list[list[int]] = [[] for _ in range(count)]
    for i, (u, v) in enumerate(ends):
        leaving[u].append(i + 1)
        leaving[v].append(-i - 1)

    def head(c):
        return ends[c - 1][1] if c > 0 else ends[-c - 1][0]

    at = head(-loops[0][0])  # the loops' base: where their first step leaves
    # descent: the total length is convex on the universal cover, so a
    # base point no single step shortens is a least one
    n = len(loops)
    while True:
        short = _shortening_steps(loops)
        c = next((c for c in leaving[at] if short.count(c) > n), None)
        if c is None:
            break
        loops, at = _move_base(loops, c), head(c)
    # the least base points form a subtree: walk its level steps
    seen = {loops}
    todo = [(loops, at)]
    best = None
    while todo:
        loops, at = todo.pop()
        code, new = _relabel(loops)
        if best is None or code < best[0]:
            best = code, new
        short = _shortening_steps(loops)
        for c in leaving[at]:
            if short.count(c) == n:
                moved = _move_base(loops, c)
                if moved not in seen:
                    seen.add(moved)
                    todo.append((moved, head(c)))
    code, new = best
    return (len(code), len(ends), code), tuple(new[i + 1]
                                               for i in range(len(ends)))


def type_key(t: TopologicalType) -> tuple:
    """The canonical key of the marked type: (rank, edge count, least
    code).  Computed once per type.

    The generator loops of _letter_paths are based at a lift of the base
    vertex to the universal cover.  Moving the base point conjugates
    every loop by the same path; the points where the total loop length
    is least form a finite subtree.  At each, the edges are renumbered in
    the order the loops first cross them, and oriented as first crossed;
    the code is the loops so renumbered, and the key keeps the least.

    Equal keys mean equivalent markings.  The loops generate the
    fundamental group, so they cross every edge, and their turns at each
    vertex join all its half-edges (split a vertex in two and they would
    lie in a graph of smaller rank); so the code rebuilds the graph and
    its marking from that base point, and a change of base point changes
    the marking by a conjugation.  Conversely an equivalence carries
    least base points to least base points and first crossings to first
    crossings.

    The key needs only the edge ends and the loops, so resolutions and
    _collapse_keys key each child on the loops it inherits from t, before
    any child is built: from the rank-3 rose, 540 blow-up leaves are
    keyed and 105 types built, where 745 were built and 540 keyed
    from scratch.  Types of one key are matched by their labellings (see
    _matching), so no collapse is built to be compared."""
    return t._canonical[0]


def _matching(a, b) -> list[int]:
    """Per position of labelling a, the position where labelling b has the
    same edge number: the edge map of two types of one key."""
    at = {abs(s): j for j, s in enumerate(b)}
    return [at[abs(s)] for s in a]


# keep the lru_cache: perfbench/tracer.py (CACHES) reads its cache_info()
@lru_cache(maxsize=65536)
def marking_equivalent(a: TopologicalType, b: TopologicalType) -> bool:
    """True when some graph isomorphism matches the two markings: the two
    canonical keys are equal."""
    return type_key(a) == type_key(b)


# ---------------------------------------------------------------------------
# Simplex adjacency.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _collapse_keys(t: TopologicalType, size: int) -> MappingProxyType:
    """{key: (forest positions, canonical labelling)} for the first forest
    of each key among t's forests of size non-loop edges, in
    itertools.combinations order, read-only: each keyed on t's loops with
    its codes deleted (_contracted), so no type is built.  The labelling
    numbers t's edges outside the forest, in edge order."""
    idx = [i for i, e in enumerate(t.edges) if not e.is_loop()]
    out: dict = {}
    for sub in itertools.combinations(idx, size):
        if _union_find(t, sub)[1] is None:
            key, lab = (_canonical_labelling(*_contracted(t, sub)) if sub
                        else t._canonical)
            out.setdefault(key, (sub, lab))
    return MappingProxyType(out)  # one table shared by every caller


def _face(t: TopologicalType, key: tuple, entry) -> TopologicalType:
    """The face of a _collapse_keys(t, 1) entry, with its key's labelling."""
    face = _collapse_cached(t, entry[0])
    vars(face).setdefault("_canonical", (key, entry[1]))
    return face


def faces(t: TopologicalType) -> tuple[TopologicalType, ...]:
    """Codimension-1 faces: single-edge collapses, up to equivalence, one
    per _collapse_keys(t, 1) entry, in its order."""
    return tuple(_face(t, key, entry)
                 for key, entry in _collapse_keys(t, 1).items())


@lru_cache(maxsize=4096)
def resolutions(t: TopologicalType) -> tuple[TopologicalType, ...]:
    """Trivalent types obtained from t by iterated vertex blow-ups, one
    per marking-equivalence class, each the first of its class in
    blow-up order.

    Each leaf is keyed on the loops it inherits (see _split) before it
    is built, and only a leaf of a new key is built: from the rank-3
    rose, one _letter_paths and 540 leaf keys give 105 types, where
    building every blow-up and keying it from scratch took 745 types and
    540 _letter_paths."""
    if t.is_trivalent():
        return ()
    seen: dict = {}
    for form in _blow_up_forms(t):
        canonical = _canonical_labelling(form[2], len(form[0]), form[3])
        if canonical[0] not in seen:
            seen[canonical[0]] = leaf = _form_type(t, form)
            vars(leaf).setdefault("_canonical", canonical)
    return tuple(seen.values())


def adjacent_simplices(t: TopologicalType) -> tuple[TopologicalType, ...]:
    """Faces plus trivalent resolutions, each distinct up to equivalence."""
    return faces(t) + resolutions(t)


# ---------------------------------------------------------------------------
# Out(F_n) action and point embedding.
# ---------------------------------------------------------------------------


def apply_outer_automorphism(p: SimplexPoint, images: list[Word]) -> SimplexPoint:
    """Change the marking by the automorphism x_i -> images[i]."""
    t = p.ttype
    # is_basis reads letters only, so the images' rank is checked apart
    if any(w.rank != t.rank for w in images) or not is_basis(images, t.rank):
        raise NotAnAutomorphism("images do not define an automorphism")
    edges = tuple(
        Edge(e.id, e.u, e.v, apply_endomorphism(e.label, images))
        for e in t.edges
    )
    return SimplexPoint(
        TopologicalType(t.rank, t.vertices, edges, t.tree), p.lengths
    )


def embed_point(p: SimplexPoint, delta: TopologicalType):
    """Coordinates of p in the closed simplex of delta, or None: the first
    forest of delta whose collapse has p's key (see _collapse_keys) gets
    coordinate 0, every other edge the length of p's edge of its number
    (see _matching)."""
    size = len(delta.edges) - len(p.ttype.edges)
    entry = size >= 0 and _collapse_keys(delta, size).get(type_key(p.ttype))
    if not entry:
        return None
    forest, labelling = entry
    lengths = map(p.lengths.__getitem__,
                  _matching(labelling, p.ttype._canonical[1]))
    return tuple(Fraction(0) if i in forest else next(lengths)
                 for i in range(len(delta.edges)))


def point_from_coords(delta: TopologicalType, coords) -> SimplexPoint:
    """Point of the closed simplex: zero coordinates collapse their edges."""
    coords = tuple(c if isinstance(c, Fraction) else Fraction(c)
                   for c in coords)
    if len(coords) != len(delta.edges):
        raise WrongRank(f"{len(coords)} coordinates for "
                        f"{len(delta.edges)} edges")
    zero = {e.id for e, c in zip(delta.edges, coords) if c == 0}
    if any(c < 0 for c in coords):
        raise NonpositiveLength("negative coordinate")
    if not zero:
        return SimplexPoint(delta, coords)
    t2 = collapse_forest(delta, zero)  # NotAForest on missing faces
    keep = tuple(c for e, c in zip(delta.edges, coords) if e.id not in zero)
    return SimplexPoint(t2, keep)


# ---------------------------------------------------------------------------
# Standard families.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)  # built and checked once per process and rank
def rose_type(rank: int) -> TopologicalType:
    specs = [(f"p{i}", "o", "o", [i]) for i in range(1, rank + 1)]
    return make_type(rank, ["o"], specs, [])


def rose_point(lengths) -> SimplexPoint:
    lengths = _normalized(lengths)
    return SimplexPoint(rose_type(len(lengths)), lengths)


@lru_cache(maxsize=1)  # built and checked once per process
def theta_type() -> TopologicalType:
    """Two vertices, three parallel edges; e1 is x, e2 the tree, e3 is y."""
    return make_type(
        2,
        ["p", "q"],
        [("e1", "p", "q", [1]), ("e2", "p", "q", []), ("e3", "p", "q", [2])],
        ["e2"],
    )


def theta_point(l1, l2, l3) -> SimplexPoint:
    return SimplexPoint(theta_type(), _normalized((l1, l2, l3)))


@lru_cache(maxsize=1)  # built and checked once per process
def twisted_theta_type() -> TopologicalType:
    """Theta whose third edge carries the inverse generator: the product
    class xy then misses the middle edge while x y^-1 crosses it twice."""
    return make_type(
        2,
        ["p", "q"],
        [("e1", "p", "q", [1]), ("e2", "p", "q", []), ("e3", "p", "q", [-2])],
        ["e2"],
    )


def twisted_theta_point(l1, l2, l3) -> SimplexPoint:
    return SimplexPoint(twisted_theta_type(), _normalized((l1, l2, l3)))


@lru_cache(maxsize=1)  # built and checked once per process
def barbell_type() -> TopologicalType:
    """Loops e1 (x) and e3 (y) joined by the handle e2."""
    return make_type(
        2,
        ["p", "q"],
        [("e1", "p", "p", [1]), ("e2", "p", "q", []), ("e3", "q", "q", [2])],
        ["e2"],
    )


def barbell_point(l1, l2, l3) -> SimplexPoint:
    return SimplexPoint(barbell_type(), _normalized((l1, l2, l3)))
