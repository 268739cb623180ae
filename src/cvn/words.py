"""Exact word algebra in the free group F_n.

Letters are nonzero signed integers: ``k`` is the k-th generator, ``-k`` its
inverse.  Words are always kept freely reduced.  Conjugacy classes are
unoriented (closed under inversion), because loop lengths and edge counts in
a metric graph do not see the orientation of a loop.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter, neg

from .errors import (
    IndexOutOfRange,
    NotABasis,
    NotReduced,
    ParamOutOfRange,
    RankMismatch,
)
from .values import Value, setfield

Letters = tuple[int, ...]


def free_reduce(letters) -> Letters:
    """Freely reduce a letter sequence (cancel adjacent k, -k pairs)."""
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert(letters) -> Letters:
    return tuple(map(neg, reversed(letters)))


def cyclic_reduce(letters: Letters) -> tuple[Letters, Letters]:
    """Return (core, u) with letters = u * core * u^-1 and core cyclically
    reduced, in one inward pass.  The letters must be freely reduced, as
    every caller's are: the pass cancels the two ends against each other."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i:j + 1], letters[:i]


def _signed(images) -> tuple[Letters, ...]:
    """The substitution table of images: entry a is images[a - 1] and
    entry -a its inverse, indexing from the end; entry 0 is empty."""
    images = tuple(images)
    return ((),) + images + tuple(map(invert, reversed(images)))


def _substitute(letters, table) -> Letters:
    """The freely reduced concatenation of table[a] over the letters.
    Every entry must be freely reduced: then only the junction of the
    reduced prefix and the next entry cancels."""
    out: list[int] = []
    for a in letters:
        piece = table[a]
        if out and piece and out[-1] == -piece[0]:  # most junctions do not cancel
            k, n = 0, len(piece)
            while k < n and out and out[-1] == -piece[k]:
                out.pop()
                k += 1
            out.extend(piece[k:])
        else:
            out.extend(piece)
    return tuple(out)


def _letter_key(a: int) -> int:
    # order letters 1 < -1 < 2 < -2 < ... so positive generators come first
    return 2 * abs(a) - (1 if a > 0 else 0)


def _least_rotation(seq: Letters) -> tuple[tuple[int, ...], Letters]:
    """Keys and letters of the least rotation of seq, in linear time: all
    starts below j but i are ruled out, and where the rotations from i and
    j first differ, k keys on, the larger and the k starts after it are
    ruled out too, until j passes the end or the two rotations are equal."""
    keys = tuple(map(_letter_key, seq))
    n, i, j, k = len(keys), 0, 1, 0
    while j < n and k < n:
        x, y = keys[(i + k) % n], keys[(j + k) % n]
        if x == y:
            k += 1
        elif x > y:
            i, j, k = max(i + k + 1, j), max(i + k + 2, j + 1), 0
        else:
            j, k = j + k + 1, 0
    return keys[i:] + keys[:i], seq[i:] + seq[:i]


def _canonical_cyclic(letters: Letters) -> Letters:
    """Least rotation of the cyclic word or its inverse, by _letter_key."""
    return min(_least_rotation(letters), _least_rotation(invert(letters)))[1]


class Word(Value):
    """A freely reduced word in F_rank."""

    letters: Letters
    rank: int

    def __init__(self, letters: Letters, rank: int):
        for a in letters:
            if a == 0 or abs(a) > rank:
                raise IndexOutOfRange(f"letter {a} invalid at rank {rank}")
        if free_reduce(letters) != letters:
            raise NotReduced("letters not freely reduced; use reduce()")
        setfield(self, "letters", letters)
        setfield(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters and self.rank == other.rank
        return NotImplemented

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(invert(self.letters), self.rank)

    def __mul__(self, other: "Word") -> "Word":
        if other.rank != self.rank:
            raise RankMismatch(f"word ranks {self.rank} and {other.rank}")
        return Word(free_reduce(self.letters + other.letters), self.rank)

    def is_trivial(self) -> bool:
        return not self.letters

    @cached_property
    def _hash(self) -> int:
        return Value.__hash__(self)

    def __hash__(self) -> int:
        return self._hash  # once: classes key dicts, sets and the slice memo

    @cached_property
    def _name(self) -> str:
        if not self.letters:
            return "1"
        names = "xyzuvw"

        def nm(a):
            i = abs(a) - 1
            s = names[i] if i < len(names) else f"x{i + 1}"
            return s if a > 0 else s + "^-1"

        return " ".join(nm(a) for a in self.letters)

    def __str__(self):
        return self._name


def reduce(letters, rank: int) -> Word:
    """Freely reduce a raw letter sequence into a Word of the given rank."""
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise IndexOutOfRange(f"letter {a} invalid at rank {rank}")
    return Word(free_reduce(tuple(letters)), rank)


def generator(i: int, rank: int) -> Word:
    return Word((i,), rank)


class ConjClass(Value):
    """Canonical representative of an unoriented conjugacy class."""

    rep: Word
    rank: int

    def is_trivial(self) -> bool:
        return not self.rep.letters

    def __len__(self):
        return len(self.rep)

    def __hash__(self) -> int:
        return self.rep._hash  # equal classes have equal reps

    def __str__(self):
        return self.rep._name


def class_order(g: ConjClass) -> tuple:
    """Sort key of classes: shorter first, then by representative letters."""
    return (len(g.rep), g.rep.letters)


def conj_normal_form(w: Word) -> ConjClass:
    """Canonical unoriented conjugacy class of w.

    Invariant under conjugation and inversion: the representative is the
    lexicographically least rotation of the cyclic reduction or its inverse.
    """
    core, _ = cyclic_reduce(w.letters)
    return ConjClass(Word(_canonical_cyclic(core), w.rank), w.rank)


def conj_class(letters, rank: int) -> ConjClass:
    return _class_of(tuple(letters), rank)


@lru_cache(maxsize=4096)
def _class_of(letters: Letters, rank: int) -> ConjClass:
    """The class of raw letters, as the object that _interned holds."""
    return _interned(conj_normal_form(reduce(letters, rank)))


@lru_cache(maxsize=4096)
def _interned(g: ConjClass) -> ConjClass:
    """The first object equal to g, shared while this entry is held."""
    return g


def apply_endomorphism(w: Word, images: list[Word]) -> Word:
    """Substitute images[i-1] for generator i and freely reduce: one
    image per generator of w's rank, all of one rank, or RankMismatch."""
    rank = images[0].rank if images else w.rank
    if len(images) != w.rank or any(g.rank != rank for g in images):
        raise RankMismatch(f"image ranks {[g.rank for g in images]}, "
                           f"word rank {w.rank}")
    return Word(_substitute(w.letters, _signed(g.letters for g in images)), rank)


# ---------------------------------------------------------------------------
# Rewriting in a basis (Stallings folding with recorded coordinates).
# ---------------------------------------------------------------------------


def _twin_edges(edges):
    """Two edges that leave one vertex with the same letter, each as
    (edge, the vertex it reaches, its b-word read that way), or None."""
    leaving = {}
    for e in edges:
        tail, a, head, word = e
        for key, far, w in (((tail, a), head, word),
                            ((head, -a), tail, invert(word))):
            if key in leaving:
                return leaving[key], (e, far, w)
            leaving[key] = (e, far, w)
    return None


@lru_cache(maxsize=256)
def _basis_inverse(basis_letters: tuple[Letters, ...], rank: int) -> tuple[Letters, ...]:
    """For a basis (b_1..b_n) return c_1..c_n with c_m(b) = x_m, in b-letters.

    Stallings folding (Stallings 1983; Kapovich and Myasnikov 2002).  A
    wedge at the base vertex 0 has one loop per b_i that spells it; the
    first edge of loop i carries the b-word (i,) and the others the empty
    word, so each closed path at the base carries its element in
    b-letters.  Two edges that leave one vertex with the same letter, with
    b-words W1 and W2, reach w1 and w2: w2 is merged into w1 (the base is
    never merged away) after every edge leaving w2 is prefixed with
    g = W1^-1 W2 and every edge entering it suffixed with g^-1.  The two
    edges then carry the same word, and every closed path at the base
    keeps its word.  A fold of two edges with distinct ends keeps the
    rank, so rank many nonempty words over the letters 1..rank form a
    basis exactly when no fold joins two edges with the same ends and one
    vertex remains: the rose, whose loop of letter m carries c_m.  Raises
    NotABasis otherwise."""
    if len(basis_letters) != rank:
        raise NotABasis(f"need {rank} basis words, got {len(basis_letters)}")
    if not all(basis_letters) or any(not 0 < abs(a) <= rank
                                     for w in basis_letters for a in w):
        raise NotABasis(f"{basis_letters} is not a basis of F_{rank}")
    edges = []  # [tail, letter > 0, head, b-word]: tail --x_letter--> head
    top = 0
    for i, word in enumerate(basis_letters, 1):
        ends = [0, *range(top + 1, top + len(word)), 0]
        top += len(word) - 1
        for k, a in enumerate(word):
            label = (i,) if k == 0 else ()
            edges.append([ends[k], a, ends[k + 1], label] if a > 0
                         else [ends[k + 1], -a, ends[k], invert(label)])
    while (twins := _twin_edges(edges)) is not None:
        (_, w1, word1), (e2, w2, word2) = twins
        if w1 == w2:
            raise NotABasis(f"{basis_letters} is not a basis of F_{rank}: "
                            "a fold drops the rank")
        if w2 == 0:
            w1, word1, w2, word2 = w2, word2, w1, word1
        g = free_reduce(invert(word1) + word2)
        g_inv = invert(g)
        edges = [e for e in edges if e is not e2]
        for e in edges:
            if e[0] == w2:
                e[0], e[3] = w1, free_reduce(g + e[3])
            if e[2] == w2:
                e[2], e[3] = w1, free_reduce(e[3] + g_inv)
    if any(e[0] or e[2] for e in edges):
        raise NotABasis(f"{basis_letters} is not a basis of F_{rank}: "
                        "it folds to more than one vertex")
    return tuple(word for _, _, _, word in sorted(edges, key=lambda e: e[1]))


def is_basis(basis: list[Word], rank: int) -> bool:
    try:
        _basis_inverse(tuple(b.letters for b in basis), rank)
    except NotABasis:
        return False
    return True


def rewrite_in_basis(w: Word, basis: list[Word]) -> Word:
    """Express w in the given basis; letter i of the result stands for basis[i-1].

    Raises NotABasis when the words do not form a basis of F_n, and
    RankMismatch when a basis word's rank is not w's.
    """
    if any(b.rank != w.rank for b in basis):
        raise RankMismatch(f"basis ranks {[b.rank for b in basis]}, "
                           f"word rank {w.rank}")
    inverse = _basis_inverse(tuple(b.letters for b in basis), w.rank)
    return Word(_substitute(w.letters, _signed(inverse)), w.rank)


# ---------------------------------------------------------------------------
# Enumeration of short conjugacy classes (brute-force oracles).
# ---------------------------------------------------------------------------


def _check_count(name: str, value) -> None:
    """Raise ParamOutOfRange unless value is an int >= 1 (not a bool)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParamOutOfRange(f"{name} {value!r} is not an integer >= 1")


def conjugacy_classes_up_to(rank: int, max_len: int):
    """Yield every nontrivial unoriented conjugacy class of length <= max_len.

    Each class appears once, as its canonical representative, by length
    and then letter key (not class_order); the letters are memoised per
    (rank, max_len).  A rank or max_len that is not an integer >= 1 raises
    ParamOutOfRange on the first next."""
    _check_count("rank", rank)
    _check_count("max_len", max_len)
    for letters in _class_walk(rank, max_len)[0]:
        yield _walk_class(letters, rank)


def _walk_class(letters: Letters, rank: int) -> ConjClass:
    """The class of letters from _class_walk, skipping Word's checks."""
    w, g = object.__new__(Word), object.__new__(ConjClass)
    setfield(w, "letters", letters)
    setfield(w, "rank", rank)
    setfield(g, "rep", w)
    setfield(g, "rank", rank)
    return g


@lru_cache(maxsize=32)
def _class_walk(rank: int, max_len: int) -> tuple:
    """The class table and its prefix trie, from one FKM walk (Ruskey,
    Savage & Wang 1992) over the prenecklaces in letter key order, never
    placing a letter next to its inverse.  A necklace is kept when its ends
    do not cancel and no rotation of its inverse is smaller.  It starts
    with its least letter, so the walk enters no first letter x^-1 (the
    inverse word holds x), and keeps at once a necklace without x^-1 after
    a first letter x (all inverse letters are then above x).  The table
    lists the classes' letters by length, then key; the trie, their
    prefixes, each recorded when a class below it is kept, as five
    itemgetters per depth (a tuple each from rank 2 on): the nodes' parents
    one depth up, the classes' nodes, and the triple indices of the nodes'
    last three letters and of the classes' wraps (x[-1], x[0], x[1]) and
    (x[-2], x[-1], x[0]), or (x, x, x) and m^3 for one letter.  Triple
    (p, x, n) has index (p * m + x) * m + n, letters mod m = 2 * rank + 1."""
    # position i in the key order; i ^ 1 is the position of the inverse
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    m = 2 * rank + 1
    mods = [x % m for x in alphabet]
    by_len: list[list[Letters]] = [[] for _ in range(max_len + 1)]
    trie = [([], [], [], [], []) for _ in range(max_len + 1)]
    a = [0] * (max_len + 1)  # a[1..t]; a[0] is the FKM sentinel
    ids = [0] * (max_len + 1)  # trie position of a[1..d], -1 until recorded

    def triple(i: int, j: int, k: int) -> int:
        return (mods[a[i]] * m + mods[a[j]]) * m + mods[a[k]]

    def keep(t: int) -> None:
        for d in range(1, t + 1):
            if ids[d] < 0:
                parents, _, triples, _, _ = trie[d]
                ids[d] = len(parents)
                parents.append(ids[d - 1])
                triples.append(triple(d - 2, d - 1, d) if d > 2 else m ** 3)
        _, nodes, _, firsts, lasts = trie[t]
        nodes.append(ids[t])
        firsts.append(triple(t, 1, 1 % t + 1))
        lasts.append(triple(t - 1, t, 1) if t > 1 else m ** 3)
        by_len[t].append(tuple([alphabet[x] for x in a[1:t + 1]]))

    def least(t: int) -> bool:  # only rotations from a[1] can be smaller
        word, inv = a[1:t + 1], [x ^ 1 for x in reversed(a[1:t + 1])]
        return all(inv[i:] + inv[:i] >= word
                   for i in range(t) if inv[i] == a[1])

    def extend(t: int, p: int, seen: bool) -> None:
        # seen: a[2..t-1] holds the inverse of a[1]; a[1] is never an inverse
        for j in range(a[t - p], len(alphabet), 1 + (t == 1)):
            if j != a[t - 1] ^ 1:
                a[t], ids[t] = j, -1
                q = p if j == a[t - p] else t
                if t % q == 0 and j != a[1] ^ 1 and (not seen or least(t)):
                    keep(t)
                if t < max_len:
                    extend(t + 1, q, seen or j == a[1] ^ 1)

    extend(1, 1, False)
    return (tuple(itertools.chain.from_iterable(by_len)),
            tuple(tuple(itemgetter(*xs) for xs in lists) for lists in trie[1:]))
