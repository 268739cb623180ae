"""The asymmetric Lipschitz metric on Outer Space.

All stretch factors are exact rationals; distances are carried
multiplicatively and only converted to logarithms for display.  The maximal
stretch from A to B is attained on a candidate of A, which makes every
quantity here a finite exact maximum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from operator import add, itemgetter, mul, sub
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
from .words import ConjClass, _check_count, _class_walk, _walk_class


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
        try:
            return math.log(self.lam)
        except OverflowError:  # lam past float range; log reads big ints
            return math.log(self.lam.numerator) - math.log(self.lam.denominator)


def distance(a: SimplexPoint, b: SimplexPoint, mode: str = "right") -> Distance:
    """right = log stretch(a,b); left = log stretch(b,a); symmetric = sum."""
    if mode == "right":
        lam = stretch(a, b)
    elif mode == "left":
        lam = stretch(b, a)
    elif mode == "symmetric":
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
    """The middle of letter triple (p, x, n), at junction index
    (p * m + x) * m + n with m = 2 * rank + 1 and letters mod m (their
    _letter_paths indices), is the part of path(x) that survives
    cancellation with path(p) and path(n).  Returns the codes of all letter
    paths end to end, getters of each middle's end and start among their
    prefix sums, and a getter that spreads [sentinel, 0, *weights] over the
    junction indices and the zero slot m^3.  Triples whose cancellations
    reach all of path(x), as at p = x^-1, read the sentinel: there
    cancellation can cascade.  Each letter has the middle of (x, x, x)."""
    paths = _letter_paths(t)
    m, ends, starts, spread = len(paths), [], [], [0] * len(paths) ** 3 + [1]
    for x, px in enumerate(paths[1:], 1):
        base = sum(map(len, paths[:x]))
        his = [len(px) - _cancel(px, paths[n]) for n in range(1, m)]
        for p in range(1, m):
            lo = _cancel(paths[p], px)
            for n, hi in enumerate(his, 1):
                if lo < hi:
                    spread[(p * m + x) * m + n] = len(ends) + 2
                    ends.append(base + hi)
                    starts.append(base + lo)
    return (tuple(chain.from_iterable(paths)), itemgetter(*ends),
            itemgetter(*starts), itemgetter(*spread))


def _junction_table(p: SimplexPoint, max_len: int) -> list[int]:
    """p's junction table: each junction middle's weight (a difference of
    prefix sums of p's weights along the letter paths) at its index, the
    zero slot 0, elsewhere a sentinel below any sum of max_len entries.  By
    bounded cancellation (Cooper 1987), when every triple around a
    cyclically reduced class has a middle, the middles do not cancel and
    form the immersed loop: a class sums to its length numerator."""
    codes, ends, starts, spread = _junction_middles(p.ttype)
    sums = [0, *accumulate(map(p.code_weights.__getitem__, codes))]
    weights = list(map(sub, ends(sums), starts(sums)))
    return list(spread([-1 - max_len * max(weights), 0, *weights]))


def _class_lengths(p: SimplexPoint, max_len: int) -> list[int]:
    """Per class of _class_walk, its sum in p's junction table."""
    table = _junction_table(p, max_len)
    sums, out = [0], []
    for up, nodes, mids, first, last in _class_walk(p.ttype.rank, max_len)[1]:
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
    for letters, lb, la in zip(_class_walk(ta.rank, max_len)[0],
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
