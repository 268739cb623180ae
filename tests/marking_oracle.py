"""Slow, independent twins of marking equivalence, the marked-type dedupe
and the face table, for tests only.

`cvn.graphs` decides "same marked type" by equality of canonical keys and
builds the edge map between two equivalent types from their canonical
labellings.  Here `marking_isomorphisms` searches every graph isomorphism
(vertex permutations, then edge permutations and signs inside each group
of parallel edges) for one whose induced automorphism of F_n is inner,
and `marking_equivalent` asks whether it finds one.  The routines built
on it decide "same marked type" the older ways: `faces` scans every kept
type with that search, `resolutions` treats two trivalent types as the
same when their uniform points are at stretch 1 in both directions, and
`support` scans its list of examined simplices.  They must keep the same
types in the same order.  `blow_up_leaves` lists every trivalent type the
blow-ups reach, before any dedupe, by the depth-first loop over built types
that `resolutions` ran before it keyed each child on the loops it inherits.
`labelling` keys a built type from scratch, on its own generator loops;
`keyed_resolutions` and `face_edges` dedupe the built leaves and the built
single-edge collapses with it, and must give the package's results object
for object.

`cvn.graphs` also builds each forest collapse once, reading its labels
off the contracted generator loops, and tests a forest by a union-find
over edge positions.  Here `collapse_forest` builds the quotient afresh on
every call, swapping one non-tree member into the tree per pass: `_retree`
builds the same graph with the new tree and reads each label through the
old marking (`path_word` of the petal that `tree_path` gives), as
`cvn.graphs` did before it read labels off the contracted loops.
`forests` keeps the subsets that `collapse_forest` accepts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from cvn.envelopes import (
    Support,
    _budget,
    reference_witness,
    star_system,
    starstar_system,
)
from cvn.errors import BudgetExceeded, NotABasis, NotAForest
from cvn.graphs import (
    Edge,
    SimplexPoint,
    TopologicalType,
    _canonical_labelling,
    _check_spanning_tree,
    _letter_paths,
    adjacent_simplices,
    blow_up_vertex,
)
from cvn.metric import stretch
from cvn.polytope import feasible
from cvn.words import (
    Word,
    cyclic_reduce,
    free_reduce,
    generator,
    invert,
    reduce,
    rewrite_in_basis,
)


@lru_cache(maxsize=4096)
def _tree_parents(t: TopologicalType) -> dict:
    """BFS tree of the spanning tree rooted at the base vertex."""
    adj: dict[str, list[tuple[str, str, int]]] = {v: [] for v in t.vertices}
    for e in t.edges:
        if e.id in t.tree:
            adj[e.u].append((e.v, e.id, 1))
            adj[e.v].append((e.u, e.id, -1))
    parent = {t.base(): None}
    order = [t.base()]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w, eid, s in adj[v]:
            if w not in parent:
                parent[w] = (v, eid, s)
                order.append(w)
    return parent


def tree_path(t: TopologicalType, u: str, v: str):
    """The geodesic in the spanning tree from u to v as an oriented path."""
    parent = _tree_parents(t)

    def to_root(x):
        out = []
        while parent[x] is not None:
            p, eid, s = parent[x]
            out.append((eid, -s))  # step from x toward the root
            x = p
        return out

    up_u = to_root(u)
    up_v = to_root(v)
    while up_u and up_v and up_u[-1] == up_v[-1]:
        up_u.pop()
        up_v.pop()
    down_v = [(eid, -s) for eid, s in reversed(up_v)]
    return tuple(up_u + down_v)


@lru_cache(maxsize=65536)
def petal(t: TopologicalType, e: Edge):
    """The loop from the base vertex through the tree to the non-tree edge
    e, across it and back to the base vertex."""
    base = t.base()
    return tree_path(t, base, e.u) + ((e.id, 1),) + tree_path(t, e.v, base)


def path_word(t: TopologicalType, path) -> Word:
    """Image of an edge path under the marking (concatenate labels)."""
    out: list[int] = []
    for eid, s in path:
        lab = t.edge(eid).label.letters
        out.extend(lab if s > 0 else invert(lab))
    return reduce(out, t.rank)


def _retree(t: TopologicalType, new_tree: frozenset) -> TopologicalType:
    """Same graph, different spanning tree; labels recomputed through the
    old marking so the point of CV_n is unchanged."""
    trivial = Word((), t.rank)
    probe = TopologicalType(t.rank, t.vertices,
                            tuple(Edge(e.id, e.u, e.v, trivial)
                                  for e in t.edges), new_tree)
    _check_spanning_tree(probe)
    return TopologicalType(t.rank, t.vertices, tuple(
        Edge(e.id, e.u, e.v, trivial) if e.id in new_tree
        else Edge(e.id, e.u, e.v, path_word(t, petal(probe, e)))
        for e in t.edges), new_tree)


def _fundamental_cycle_tree_edges(t: TopologicalType, eid: str) -> list[str]:
    e = t.edge(eid)
    return [x for x, _ in tree_path(t, e.v, e.u)]


def _graph_isomorphisms(a: TopologicalType, b: TopologicalType):
    """Yield edge maps {a_edge_id: (b_edge_id, sign)} of graph isomorphisms."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return
    a_val = sorted(a.valency(v) for v in a.vertices)
    b_val = sorted(b.valency(v) for v in b.vertices)
    if a_val != b_val:
        return

    def groups(t):
        g: dict[frozenset, list[Edge]] = {}
        for e in t.edges:
            g.setdefault(frozenset((e.u, e.v)), []).append(e)
        return g

    ga, gb = groups(a), groups(b)
    for perm in itertools.permutations(b.vertices):
        sigma = dict(zip(a.vertices, perm))
        if any(a.valency(v) != b.valency(sigma[v]) for v in a.vertices):
            continue
        keys = list(ga)
        target = [frozenset(sigma[x] for x in k) for k in keys]
        if any(tk not in gb or len(gb[tk]) != len(ga[k])
               for k, tk in zip(keys, target)):
            continue
        per_group = []
        for k, tk in zip(keys, target):
            per_group.append([list(zip(ga[k], q))
                              for q in itertools.permutations(gb[tk])])
        for combo in itertools.product(*per_group):
            pairs = [pq for grp in combo for pq in grp]
            sign_choices = []
            ok = True
            for ea, eb in pairs:
                if ea.is_loop():
                    sign_choices.append([1, -1])
                elif (sigma[ea.u], sigma[ea.v]) == (eb.u, eb.v):
                    sign_choices.append([1])
                elif (sigma[ea.u], sigma[ea.v]) == (eb.v, eb.u):
                    sign_choices.append([-1])
                else:
                    ok = False
                    break
            if not ok:
                continue
            for signs in itertools.product(*sign_choices):
                yield {ea.id: (eb.id, s) for (ea, eb), s in zip(pairs, signs)}


def _induced_automorphism(a: TopologicalType, b: TopologicalType, emap):
    """Automorphism of F_n induced by the edge map, or None if not one."""
    w_list = []
    c_list = []
    for e in a.non_tree_edges():
        image = [(emap[eid][0], s * emap[eid][1]) for eid, s in petal(a, e)]
        w_list.append(e.label)
        c_list.append(path_word(b, image))
    images = []
    try:
        for i in range(1, a.rank + 1):
            coords = rewrite_in_basis(generator(i, a.rank), w_list)
            acc: list[int] = []
            for x in coords.letters:
                lab = c_list[abs(x) - 1].letters
                acc.extend(lab if x > 0 else invert(lab))
            images.append(reduce(acc, a.rank))
    except NotABasis:
        return None
    return images


def _is_inner(images: list[Word]) -> bool:
    """Whether x_i -> images[i] is conjugation by a fixed element."""
    rank = len(images)
    core, pre = cyclic_reduce(images[0].letters)
    if core != (1,):
        return False
    bound = max(len(w) for w in images) + len(pre) + 2
    for m in range(-bound, bound + 1):
        g = free_reduce(pre + (1,) * m if m >= 0 else pre + (-1,) * (-m))
        if all(
            free_reduce(g + (i,) + invert(g)) == images[i - 1].letters
            for i in range(1, rank + 1)
        ):
            return True
    return False


def marking_isomorphisms(a: TopologicalType, b: TopologicalType):
    """Edge maps realizing an equivalence of marked graphs: the graph
    isomorphisms whose induced automorphism of F_n is inner."""
    if a.rank != b.rank:
        return
    for emap in _graph_isomorphisms(a, b):
        images = _induced_automorphism(a, b, emap)
        if images is not None and _is_inner(images):
            yield emap


@lru_cache(maxsize=None)
def marking_equivalent(a: TopologicalType, b: TopologicalType) -> bool:
    """True when some graph isomorphism matches the two markings."""
    return next(marking_isomorphisms(a, b), None) is not None


def _forest_roots(vertices, edges) -> dict[str, str]:
    """Union-find over the edges, returning the root of each vertex; the
    first edge that closes a cycle raises NotAForest."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            raise NotAForest("selected edges contain a cycle")
        parent[ru] = rv
    return {v: find(v) for v in vertices}


def collapse_forest(t: TopologicalType, forest) -> TopologicalType:
    """Collapse a forest of edges; the quotient keeps the same marking.

    Non-tree members are first swapped into the spanning tree (tree
    exchange), so the actual collapse only ever kills tree edges.
    """
    forest = set(forest)
    for eid in forest:
        e = t.edge(eid)  # raises KeyError on unknown ids
        if e.is_loop():
            raise NotAForest(f"{eid} is a loop edge")
    # edge order, not set order, so vertex names do not depend on the hash seed
    root = _forest_roots(t.vertices, [e for e in t.edges if e.id in forest])
    # move non-tree members into the tree one at a time
    while True:
        outside = [e.id for e in t.edges
                   if e.id in forest and e.id not in t.tree]
        if not outside:
            break
        f = outside[0]
        swap = [x for x in _fundamental_cycle_tree_edges(t, f)
                if x not in forest]
        if not swap:
            raise NotAForest("no tree exchange available")
        t = _retree(t, (t.tree - {swap[0]}) | {f})
    new_vertices = tuple(v for v in t.vertices if root[v] == v)
    new_edges = tuple(
        Edge(e.id, root[e.u], root[e.v], e.label)
        for e in t.edges
        if e.id not in forest
    )
    return TopologicalType(t.rank, new_vertices, new_edges,
                           frozenset(t.tree) - forest)


def forests(t: TopologicalType):
    """All forests of non-loop edges, smallest first, including the empty
    one: every subset that collapse_forest accepts."""
    ids = [e.id for e in t.edges if not e.is_loop()]
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            try:
                collapse_forest(t, sub)
            except NotAForest:
                continue
            yield frozenset(sub)


def faces(t: TopologicalType) -> list[TopologicalType]:
    """Codimension-1 faces: single-edge collapses, up to equivalence."""
    out: list[TopologicalType] = []
    for e in t.edges:
        if e.is_loop():
            continue
        c = collapse_forest(t, {e.id})
        if not any(marking_equivalent(c, x) for x in out):
            out.append(c)
    return out


def blow_up_leaves(t: TopologicalType) -> list[TopologicalType]:
    """Every trivalent type that iterated vertex blow-ups reach from t, in
    blow-up order, with no dedupe."""
    leaves: list[TopologicalType] = []
    stack = [t]
    while stack:
        cur = stack.pop()
        fat = [v for v in cur.vertices if cur.valency(v) >= 4]
        if not fat:
            if cur is not t:
                leaves.append(cur)
            continue
        v = fat[0]
        half = cur.half_edges_at(v)
        k = len(half)
        first = half[0]
        rest = half[1:]
        for r in range(1, k - 2 + 1):
            for side_rest in itertools.combinations(rest, r):
                side1 = frozenset((first,) + side_rest)
                if len(side1) < 2 or k - len(side1) < 2:
                    continue
                side2 = frozenset(h for h in half if h not in side1)
                stack.append(blow_up_vertex(cur, v, side1, side2))
    return leaves


def labelling(t: TopologicalType):
    """(type_key(t), canonical labelling) from t's own generator loops,
    never from a key stored on t."""
    return _canonical_labelling(t._edge_ends, len(t.vertices),
                                _letter_paths(t)[1:t.rank + 1])


def keyed_resolutions(t: TopologicalType) -> tuple[TopologicalType, ...]:
    """The first blow-up leaf of each key, in blow-up order."""
    seen: dict = {}
    for leaf in blow_up_leaves(t):
        seen.setdefault(labelling(leaf)[0], leaf)
    return tuple(seen.values())


def face_edges(t: TopologicalType) -> tuple:
    """(edge position, collapse) for the first non-loop edge of each key
    among the single-edge collapses, in edge order."""
    seen: dict = {}
    for i, e in enumerate(t.edges):
        if not e.is_loop():
            face = collapse_forest(t, {e.id})
            seen.setdefault(labelling(face)[0], (i, face))
    return tuple(seen.values())


def resolutions(t: TopologicalType) -> list[TopologicalType]:
    """Trivalent types obtained from t by iterated vertex blow-ups."""
    leaves = blow_up_leaves(t)
    # dedupe: two types agree up to marking equivalence exactly when their
    # uniform-length points are at stretch 1 in both directions

    def uniform(tt):
        n = len(tt.edges)
        return SimplexPoint(tt, (Fraction(1, n),) * n)

    ref = uniform(t)
    buckets: dict = {}
    done: list[TopologicalType] = []
    for leaf in dict.fromkeys(leaves):
        p = uniform(leaf)
        key = (stretch(p, ref), stretch(ref, p))
        group = buckets.setdefault(key, [])
        if any(stretch(p, q) == 1 and stretch(q, p) == 1 for q in group):
            continue
        group.append(p)
        done.append(leaf)
    return done


def support(a: SimplexPoint, b: SimplexPoint, budget=None):
    """The flood fill deduped on pop; returns the support and the number
    of distinct simplices it examined."""
    budget = _budget(budget)
    gamma = reference_witness(a, b)
    found: list[TopologicalType] = []
    queue = [a.ttype]
    examined: list[TopologicalType] = []
    while queue:
        t = queue.pop(0)
        if any(marking_equivalent(t, x) for x in examined):
            continue
        examined.append(t)
        if len(examined) > budget:
            raise BudgetExceeded(f"support search examined > {budget} simplices")
        hs = star_system(a, gamma, t) + starstar_system(b, gamma, t)
        if not feasible(hs, len(t.edges)):
            continue
        found.append(t)
        queue.extend(adjacent_simplices(t))
    return Support(tuple(found)), len(examined)
