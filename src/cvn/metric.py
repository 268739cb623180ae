"""The asymmetric Lipschitz metric on Outer Space.

All stretch factors are exact rationals; distances are carried
multiplicatively and only converted to logarithms for display.  The maximal
stretch from A to B is attained on a candidate of A, which makes every
quantity here a finite exact maximum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul
from types import MappingProxyType

from .candidates import enumerate_candidates
from .errors import (
    ParamOutOfRange,
    RankMismatch,
    SelfCheckFailed,
    TrivialClass,
)
from .graphs import (
    SimplexPoint,
    TopologicalType,
    _letter_paths,
    _loop_codes,
    _tighten_cached,
    embed_point,
)
from .values import Value
from .words import ConjClass, _check_count, _classes_up_to, _walk_class


def length_numerator(p: SimplexPoint, gamma: ConjClass) -> int:
    """Length of the immersed loop realizing gamma in p, times the common
    denominator of p's lengths: the sum of p.scaled_lengths numerators
    along the loop.

    The loop is read in its coded steps, never decoded: p.code_weights
    holds each edge's numerator at both codes of the edge.  _loop_codes
    memoises the loop per (type, class) and refuses a trivial class or
    another rank."""
    return sum(map(p.code_weights.__getitem__, _loop_codes(p.ttype, gamma)))


def conj_length(p: SimplexPoint, gamma: ConjClass) -> Fraction:
    """Length of the immersed loop realizing gamma in p: its length
    numerator over the common denominator of p's lengths."""
    return Fraction(length_numerator(p, gamma), p.scaled_lengths[1])


class StretchReport(Value):
    lam: Fraction
    candidate_witnesses: frozenset
    per_candidate: MappingProxyType  # read-only: callers share one report

    def __init__(self, lam: Fraction, candidate_witnesses: frozenset,
                 per_candidate: MappingProxyType):
        if lam != max(per_candidate.values()):
            raise SelfCheckFailed("lam is not the largest candidate stretch")
        Value.__init__(self, lam, candidate_witnesses, per_candidate)


@lru_cache(maxsize=256)
def stretch_report(a: SimplexPoint, b: SimplexPoint) -> StretchReport:
    """Maximal stretch from a to b with the argmax candidate set CW(a,b).

    The stretch of candidate w is L_b(w) d_a / (L_a(w) d_b), with L the
    length numerators and d the denominators of the two points.  L_a(w)
    sums a's numerators over the candidate's own edge counts in a, so it
    needs no tightening; candidates are compared by integer
    cross-multiplication of (L_b, L_a) and each entry of per_candidate is
    one Fraction.

    Memoised per (a, b): repeated calls return one shared report, whose
    per_candidate mapping is read-only."""
    if a.ttype.rank != b.ttype.rank:
        raise RankMismatch("points live in different Outer Spaces")
    nums, da = a.scaled_lengths
    db = b.scaled_lengths[1]
    lens = [(c.word, length_numerator(b, c.word),
             sum(map(mul, nums, c.counts)))
            for c in enumerate_candidates(a.ttype)]
    best_b, best_a = 0, 1  # every stretch is positive
    for _, lb, la in lens:
        if lb * best_a > best_b * la:
            best_b, best_a = lb, la
    per = {w: Fraction(lb * da, la * db) for w, lb, la in lens}
    cw = frozenset(w for w, lb, la in lens if lb * best_a == best_b * la)
    return StretchReport(Fraction(best_b * da, best_a * db), cw,
                         MappingProxyType(per))


def stretch(a: SimplexPoint, b: SimplexPoint) -> Fraction:
    return stretch_report(a, b).lam


class Distance(Value):
    """A distance value stored as an exact stretch factor."""

    lam: Fraction
    mode: str

    @property
    def log(self) -> float:
        return math.log(self.lam)


def distance(a: SimplexPoint, b: SimplexPoint, mode: str = "right") -> Distance:
    """right = log stretch(a,b); left = log stretch(b,a); symmetric = sum."""
    if mode == "right":
        lam = stretch(a, b)
    elif mode == "left":
        lam = stretch(b, a)
    elif mode in ("symmetric", "sym"):
        lam = stretch(a, b) * stretch(b, a)
    else:
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    return Distance(lam, mode)


def is_witness(gamma: ConjClass, a: SimplexPoint, b: SimplexPoint) -> bool:
    """Whether gamma is stretched maximally from a to b: L_b d_a / (L_a d_b)
    equals lam, compared by integer cross-multiplication."""
    if gamma.is_trivial():
        raise TrivialClass("trivial class cannot witness")
    lam = stretch(a, b)
    lb = length_numerator(b, gamma) * a.scaled_lengths[1]
    la = length_numerator(a, gamma) * b.scaled_lengths[1]
    return lb * lam.denominator == lam.numerator * la


def candidate_witnesses(a: SimplexPoint, b: SimplexPoint) -> frozenset:
    return stretch_report(a, b).candidate_witnesses


def same_point(a: SimplexPoint, b: SimplexPoint) -> bool:
    """Equality as points of Outer Space (zero symmetric distance): a
    embeds in b's open simplex at b's lengths.  Every vertex has valency
    at least 3, so a graph automorphism that fixes the marking is the
    identity, and the edge map of the two types is unique."""
    return embed_point(a, b.ttype) == b.lengths


def _cancel(left, right) -> int:
    """How many steps at the end of the coded path left cancel against the
    start of right."""
    c, n = 0, min(len(left), len(right))
    while c < n and left[-1 - c] == -right[c]:
        c += 1
    return c


@lru_cache(maxsize=4096)
def _junction_middles(t: TopologicalType) -> tuple:
    """Per letter triple (p, x, n), its junction index (p * m + x) * m + n,
    with m = 2 * rank + 1 and letters mod m (their _letter_paths indices),
    and the codes of path(x) that survive cancellation with path(p) and
    path(n).  Triples whose two cancellations reach all of path(x), as at
    p = x^-1 or n = x^-1, are left out: there cancellation can cascade."""
    paths = _letter_paths(t)
    m, out = len(paths), []
    letters = range(1, m)
    for x, px in enumerate(paths[1:], 1):
        his = [len(px) - _cancel(px, paths[n]) for n in letters]
        for p in letters:
            lo = _cancel(paths[p], px)
            out += [((p * m + x) * m + n, px[lo:hi])
                    for n, hi in enumerate(his, 1) if lo < hi]
    return tuple(out)


@lru_cache(maxsize=32)
def _class_prefixes(rank: int, max_len: int) -> tuple:
    """Per depth d >= 1 of the prefix trie of _classes_up_to(rank, max_len),
    as itemgetters, so that a point reads each in one C call: its nodes'
    parent positions at depth d - 1, its classes' nodes, and the junction
    indices of its nodes' last three letters (the zero slot m^3 for fewer)
    and of its classes' wraps (x[-1], x[0], x[1]) and (x[-2], x[-1], x[0]),
    or (x, x, x) and the zero slot: a class of length k reads k.  From rank
    2 on, every depth has two classes or more, so each getter gives a tuple."""
    m, r = 2 * rank + 1, range(-rank, rank + 1)
    junction = dict.fromkeys(zip(r), m ** 3) | {
        (p, x, n): ((p % m) * m + x % m) * m + n % m
        for p in r for x in r for n in r}
    table, out, pos, lo = _classes_up_to(rank, max_len), [], {(): 0}, 0
    for d in range(1, max_len + 1):
        nodes = tuple(dict.fromkeys(map(itemgetter(slice(d)), table[lo:])))
        parents = map(itemgetter(slice(d - 1)), nodes)
        up = itemgetter(*map(pos.__getitem__, parents))
        pos = dict(zip(nodes, range(len(nodes))))
        own = table[lo:bisect_left(table, d + 1, lo, key=len)]
        lo += len(own)
        last = itemgetter(-2, -1, 0) if d > 1 else itemgetter(slice(1))
        reads = (map(itemgetter(slice(d - 3, d)), nodes),
                 map(itemgetter(-1, 0, 1 % d), own), map(last, own))
        out.append((up, itemgetter(*map(pos.__getitem__, own)), *(
            itemgetter(*map(junction.__getitem__, js)) for js in reads)))
    return tuple(out)


def _junction_table(p: SimplexPoint, max_len: int) -> list[int]:
    """p's junction table: the weight of each junction middle of p's type
    by junction index, then the zero slot 0, and elsewhere a negative
    sentinel below any sum of max_len entries.  By bounded cancellation
    (Cooper 1987), when every triple around a cyclically reduced class
    has a middle, the middles do not cancel (each cancellation is maximal)
    and form the immersed loop: a class sums to its length numerator."""
    w = p.code_weights.__getitem__
    middles = [(i, sum(map(w, mid))) for i, mid in _junction_middles(p.ttype)]
    sentinel = -1 - max_len * max((v for _, v in middles), default=0)
    table = [sentinel] * (2 * p.ttype.rank + 1) ** 3 + [0]
    for i, v in middles:
        table[i] = v
    return table


def _class_lengths(p: SimplexPoint, max_len: int) -> list[int]:
    """Per class of _classes_up_to, its sum in p's junction table."""
    table = _junction_table(p, max_len)
    sums, out = [0], []
    for up, nodes, mids, first, last in _class_prefixes(p.ttype.rank, max_len):
        sums = list(map(add, up(sums), mids(table)))
        out += map(add, nodes(sums), map(add, first(table), last(table)))
    return out


def brute_force_lambda(a: SimplexPoint, b: SimplexPoint, max_len: int):
    """Max ratio over all conjugacy classes of word length <= max_len, and
    its argmax classes in enumeration order: an oracle for the finiteness
    theorem, independent of the candidates; max_len is an int >= 1.  Classes
    are compared by integer cross-multiplication of their _class_lengths,
    tightened where below zero, and one Fraction is made for the winner."""
    _check_count("max_len", max_len)
    ta, tb = a.ttype, b.ttype
    if ta.rank != tb.rank:
        raise RankMismatch("points live in different Outer Spaces")
    wa, wb = a.code_weights.__getitem__, b.code_weights.__getitem__
    best_b, best_a = 0, 1  # every ratio is positive
    argmax: list = []
    for letters, lb, la in zip(_classes_up_to(ta.rank, max_len),
                               _class_lengths(b, max_len),
                               _class_lengths(a, max_len)):
        if lb < 0:
            lb = sum(map(wb, _tighten_cached(tb, letters)))
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
