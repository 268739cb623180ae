"""Slow exact twins of the oracle path, kept as differential-test oracles.

The enumerator below is the letter-tuple walk that ``cvn.words`` used before
it generated reduced necklaces directly: it tries every tuple over the
alphabet and keeps those equal to their canonical form, found by an O(L^2)
rotation scan.  ``conj_length`` is the per-edge ``Fraction`` sum that
``cvn.metric`` used before it summed integer numerators.  ``tighten`` builds
the petal loops from ``tree_path`` on every call, rewrites the class in the
basis of the labels and cancels (edge id, sign) steps, as ``cvn.graphs``
did before it kept one coded path per generator letter.
``basis_inverse`` is the Nielsen reduction ``cvn.words`` used before it
inverted bases by Stallings folding: a greedy descent in total length, then
a breadth-first search at constant total length capped at ``_PLATEAU_CAP``
tuples.  ``extend_to_basis`` inverts the composed Whitehead automorphism by
one ``rewrite_in_basis`` call per generator, and checks its answer by n more,
as ``cvn.words`` did before it made one basis inversion of each.
``cyclic_reduce``, ``apply_endomorphism_loop``, ``rewrite_letters_loop``,
``letter_paths`` and ``tighten_codes`` are the slicing reduction and the
hand-written substitution loops that ``cvn.words`` and ``cvn.graphs`` used
before they shared one substitution kernel (``words._substitute``).
``class_junctions`` and ``brute_force_lambda`` are the per-class junction
indices and scan that ``cvn.metric`` used before classes that share a prefix
shared its junction sum (``metric._class_prefixes``): each class sums its
own k cyclic triples in the point's junction table.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from cvn.errors import (
    BudgetExceeded,
    NotABasis,
    NotPrimitive,
    RankMismatch,
    Unsupported,
)
from constructions import _WHITEHEAD_RANK_CAP, whitehead_automorphisms
from marking_oracle import tree_path
from cvn.graphs import TopologicalType, _petals, _tighten_cached
from cvn.metric import _junction_table
from cvn.words import (
    _basis_inverse,
    _classes_up_to,
    _walk_class,
    ConjClass,
    Letters,
    Word,
    apply_endomorphism,
    conj_normal_form,
    free_reduce,
    generator,
    invert,
    reduce,
    rewrite_in_basis,
)


def _cancel_path(steps) -> list:
    out = []
    for st in steps:
        if out and out[-1] == (st[0], -st[1]):
            out.pop()
        else:
            out.append(st)
    return out


def _letter_key(a: int) -> int:
    # order letters 1 < -1 < 2 < -2 < ... so positive generators come first
    return 2 * abs(a) - (1 if a > 0 else 0)


def _canonical_cyclic(letters):
    """Least rotation of the cyclic word or its inverse, letters ordered
    1 < -1 < 2 < -2 < ..."""
    if not letters:
        return ()
    best = None
    best_key = None
    for seq in (letters, invert(letters)):
        for k in range(len(seq)):
            rot = seq[k:] + seq[:k]
            key = tuple(_letter_key(a) for a in rot)
            if best_key is None or key < best_key:
                best, best_key = rot, key
    return best


def conjugacy_classes_up_to(rank: int, max_len: int):
    """Yield every nontrivial unoriented conjugacy class of length <= max_len.

    Each class appears exactly once, via its canonical representative.
    """
    alphabet = [s * m for m in range(1, rank + 1) for s in (1, -1)]
    for length in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            ok = all(tup[i] != -tup[i + 1] for i in range(length - 1))
            if not ok or tup[-1] == -tup[0]:
                continue
            if _canonical_cyclic(tup) != tup:
                continue
            yield ConjClass(Word(tup, rank), rank)


def tighten(t, gamma: ConjClass):
    """The immersed loop realizing gamma, petals rebuilt from tree_path."""
    rep_letters = gamma.rep.letters
    base = t.base()
    basis = t.basis_words()
    petals = []
    for e in t.non_tree_edges():
        loop = list(tree_path(t, base, e.u)) + [(e.id, 1)] + list(
            tree_path(t, e.v, base)
        )
        petals.append(loop)
    coords = rewrite_in_basis(Word(rep_letters, t.rank), basis)
    steps: list = []
    for a in coords.letters:
        p = petals[abs(a) - 1]
        steps.extend(p if a > 0 else [(eid, -s) for eid, s in reversed(p)])
    steps = _cancel_path(steps)
    while len(steps) >= 2 and steps[0] == (steps[-1][0], -steps[-1][1]):
        steps = steps[1:-1]
    return tuple(steps)


def conj_length(p, gamma: ConjClass):
    """Length of the immersed loop realizing gamma in p, a Fraction sum."""
    t = p.ttype
    return sum(p.lengths[t.index(eid)] for eid, _ in tighten(t, gamma))


_PLATEAU_CAP = 50_000


def _is_standard(cur) -> bool:
    if any(len(t) != 1 for t in cur):
        return False
    mags = sorted(abs(t[0]) for t in cur)
    return mags == list(range(1, len(cur) + 1))


def _nielsen_standardize(words: tuple[Letters, ...]):
    """Carry the tuple to (+-x_sigma(i)) by Nielsen moves, tracking coordinates.

    Returns (cur, expr) where expr[i] is a word in basis letters evaluating to
    cur[i], or None when the tuple is not a basis of F_n.  Raises
    BudgetExceeded when a search at constant total length visits more than
    _PLATEAU_CAP tuples without deciding.
    """
    n = len(words)
    cur = tuple(words)
    expr = tuple((i + 1,) for i in range(n))

    def neighbors(state):
        scur, sexpr = state
        out = []
        for i in range(n):
            c = list(scur)
            e = list(sexpr)
            c[i] = invert(c[i])
            e[i] = invert(e[i])
            out.append((tuple(c), tuple(e)))
            for j in range(n):
                if i == j:
                    continue
                for s in (1, -1):
                    wj = scur[j] if s > 0 else invert(scur[j])
                    ej = sexpr[j] if s > 0 else invert(sexpr[j])
                    for left in (False, True):
                        c = list(scur)
                        e = list(sexpr)
                        if left:
                            c[i] = free_reduce(wj + c[i])
                            e[i] = free_reduce(ej + e[i])
                        else:
                            c[i] = free_reduce(c[i] + wj)
                            e[i] = free_reduce(e[i] + ej)
                        out.append((tuple(c), tuple(e)))
        return out

    def total(scur):
        return sum(len(t) for t in scur)

    state = (cur, expr)
    while True:
        scur, _ = state
        if any(len(t) == 0 for t in scur):
            return None
        if _is_standard(scur):
            return state
        base = total(scur)
        # greedy strict descent
        best = None
        for nb in neighbors(state):
            if any(len(t) == 0 for t in nb[0]):
                return None
            t = total(nb[0])
            if t < base and (best is None or t < total(best[0])):
                best = nb
        if best is not None:
            state = best
            continue
        # plateau search at constant total length
        seen = {scur}
        queue = deque([state])
        jumped = False
        while queue:
            if len(seen) > _PLATEAU_CAP:
                raise BudgetExceeded(
                    f"Nielsen plateau search passed {_PLATEAU_CAP} tuples")
            st = queue.popleft()
            for nb in neighbors(st):
                ncur = nb[0]
                if any(len(t) == 0 for t in ncur):
                    return None
                t = total(ncur)
                if t < base:
                    state = nb
                    jumped = True
                    break
                if t == base and ncur not in seen:
                    if _is_standard(ncur):
                        return nb
                    seen.add(ncur)
                    queue.append(nb)
            if jumped:
                break
        if not jumped:
            return None


def basis_inverse(basis_letters: tuple[Letters, ...], rank: int) -> tuple[Letters, ...]:
    """For a basis (b_1..b_n) return c_1..c_n with c_m(b) = x_m, in b-letters."""
    n = len(basis_letters)
    res = _nielsen_standardize(basis_letters)
    if res is None:
        raise NotABasis(f"{basis_letters} is not a basis of F_{rank}")
    cur, expr = res
    c: list[Letters] = [()] * n
    for i in range(n):
        (a,) = cur[i]
        c[abs(a) - 1] = expr[i] if a > 0 else invert(expr[i])
    return tuple(c)


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
    (a,) = cur.letters
    m, s = abs(a), (1 if a > 0 else -1)
    # invert the composed automorphism via rewriting in its image basis
    inv_images = []
    for i in range(1, rank + 1):
        u = rewrite_in_basis(generator(i, rank), psi)
        inv_images.append(Word(u.letters, rank))
    first = inv_images[m - 1] if s > 0 else inv_images[m - 1].inverse()
    basis = [first] + [inv_images[i - 1] for i in range(1, rank + 1) if i != m]
    for i in range(1, rank + 1):  # sanity: result is a basis
        rewrite_in_basis(generator(i, rank), basis)
    return basis


def cyclic_reduce(letters: Letters) -> tuple[Letters, Letters]:
    """Return (core, u) with letters = u * core * u^-1 and core cyclically reduced."""
    core = list(letters)
    pre: list[int] = []
    while len(core) >= 2 and core[0] == -core[-1]:
        pre.append(core[0])
        core = core[1:-1]
    return tuple(core), tuple(pre)


def apply_endomorphism_loop(w: Word, images: list[Word]) -> Word:
    """Substitute images[i-1] for generator i and freely reduce: one
    image per generator of w's rank, all of one rank, or RankMismatch."""
    rank = images[0].rank if images else w.rank
    if len(images) != w.rank or any(g.rank != rank for g in images):
        raise RankMismatch(f"image ranks {[g.rank for g in images]}, "
                           f"word rank {w.rank}")
    out: list[int] = []
    for a in w.letters:
        img = images[abs(a) - 1].letters
        out.extend(img if a > 0 else invert(img))
    return reduce(out, rank)


def rewrite_letters_loop(letters: Letters, basis_letters: tuple[Letters, ...],
                         rank: int) -> Letters:
    """rewrite_in_basis on bare letters, which must already be valid at
    this rank: the freely reduced coordinates, without building a Word."""
    c = _basis_inverse(basis_letters, rank)
    out: list[int] = []
    for a in letters:
        img = c[abs(a) - 1]
        out.extend(img if a > 0 else invert(img))
    return free_reduce(out)


def letter_paths(t: TopologicalType) -> tuple[tuple[int, ...], ...]:
    """Per generator letter a of F_n, the reduced coded edge path from the
    base vertex that realizes a, at index a: index 0 is empty and a
    negative letter indexes from the end, so table[-m] is table[m]
    reversed with every code negated.

    The step over edge t.edges[i] with sign s is coded as the int
    s * (i + 1), so a step's reverse is its negative.  Generator m is the
    word _basis_inverse gives it in the labels of the non-tree edges, and
    each of those letters is the coded petal of its edge."""
    petals = _petals(t)
    inverse = _basis_inverse(
        tuple(e.label.letters for e in t.non_tree_edges()), t.rank)
    paths = []
    for word in inverse:
        steps: list[int] = []
        for b in word:
            petal = petals[abs(b) - 1]
            _push_reduced(steps, petal if b > 0 else _reverse(petal))
        paths.append(tuple(steps))
    return ((),) + tuple(paths) + tuple(_reverse(p) for p in reversed(paths))


def _reverse(codes) -> tuple[int, ...]:
    return tuple(-k for k in reversed(codes))


def _push_reduced(steps: list, path) -> None:
    """Append the reduced coded path to the reduced path in steps, cancelling
    at the junction only: neither has a backtrack of its own."""
    k = 0
    n = len(path)
    while k < n and steps and steps[-1] == -path[k]:
        steps.pop()
        k += 1
    steps.extend(path[k:])


def tighten_codes(t: TopologicalType, rep_letters) -> tuple[int, ...]:
    """The coded immersed loop of the class with these letters: the
    letters' paths from letter_paths, concatenated and reduced in one
    stack pass, with the cancelling ends of the closed path stripped."""
    table = letter_paths(t)
    steps: list[int] = []
    for a in rep_letters:
        path = table[a]
        if steps and steps[-1] == -path[0]:  # most junctions do not cancel
            _push_reduced(steps, path)
        else:
            steps.extend(path)
    i, j = 0, len(steps) - 1
    while i < j and steps[i] == -steps[j]:
        i += 1
        j -= 1
    return tuple(steps[i:j + 1])


def class_junctions(rank: int, max_len: int) -> tuple:
    """Per class of cvn.words._classes_up_to(rank, max_len), in its order,
    the junction index of each cyclic letter triple of the representative:
    (x[i-1], x[i], x[i+1]) with indices mod the length, and every letter
    a taken as a mod 2 * rank + 1, its index in _letter_paths."""
    m, out = 2 * rank + 1, []
    for letters in _classes_up_to(rank, max_len):
        xs = [a % m for a in letters]
        k = len(xs)
        out.append(tuple((xs[i - 1] * m + xs[i]) * m + xs[(i + 1) % k]
                         for i in range(k)))
    return tuple(out)


def brute_force_lambda(a, b, max_len: int):
    """metric.brute_force_lambda summing each class's junction entries
    on its own, with no shared prefix sums."""
    ta, tb = a.ttype, b.ttype
    wa, wb = a.code_weights.__getitem__, b.code_weights.__getitem__
    ja, jb = (_junction_table(p, max_len).__getitem__ for p in (a, b))
    best_b, best_a = 0, 1  # every ratio is positive
    argmax: list = []
    for letters, idx in zip(_classes_up_to(ta.rank, max_len),
                            class_junctions(ta.rank, max_len)):
        lb = sum(map(jb, idx))
        if lb < 0:
            lb = sum(map(wb, _tighten_cached(tb, letters)))
        la = sum(map(ja, idx))
        if la < 0:
            la = sum(map(wa, _tighten_cached(ta, letters)))
        lhs, rhs = lb * best_a, best_b * la
        if lhs > rhs:
            best_b, best_a = lb, la
            argmax = [letters]
        elif lhs == rhs:
            argmax.append(letters)
    lam = Fraction(best_b * a.scaled_lengths[1], best_a * b.scaled_lengths[1])
    return lam, [_walk_class(g, ta.rank) for g in argmax]
