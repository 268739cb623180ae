"""Slow exact twins of the oracle path, kept as differential-test oracles.

The enumerator below is the letter-tuple walk that ``cvn.words`` used before
it generated reduced necklaces directly: it tries every tuple over the
alphabet and keeps those equal to their canonical form, found by an O(L^2)
rotation scan.  ``conj_length`` is the per-edge ``Fraction`` sum that
``cvn.metric`` used before it summed integer numerators.  ``tighten`` builds
the petal loops from ``tree_path`` on every call, rewrites the class in the
basis of the labels and cancels (edge id, sign) steps, as ``cvn.graphs``
did before it kept one coded path per generator letter.
"""

from __future__ import annotations

import itertools

from cvn.graphs import tree_path
from cvn.words import ConjClass, Word, invert, rewrite_in_basis


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
