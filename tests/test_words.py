import functools
import inspect
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import words_oracle
from constructions import (
    NotPrimitive,
    extend_to_basis,
    is_primitive,
    random_automorphism,
)
from cvn import words
from cvn.errors import (
    IndexOutOfRange,
    NotABasis,
    ParamOutOfRange,
    RankMismatch,
    Unsupported,
)
from cvn.words import (
    ConjClass,
    Word,
    apply_endomorphism,
    conj_class,
    conj_normal_form,
    conjugacy_classes_up_to,
    cyclic_reduce,
    free_reduce,
    generator,
    invert,
    is_basis,
    reduce,
    rewrite_in_basis,
)


def letters_strategy(rank=2, max_len=10):
    alphabet = [s * m for m in range(1, rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(tuple)


def test_free_reduce_basic():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce(()) == ()


def test_reduce_rejects_bad_letters():
    with pytest.raises(IndexOutOfRange):
        reduce((0,), 2)
    with pytest.raises(IndexOutOfRange):
        reduce((3,), 2)


def test_invalid_letters_raise_even_when_they_cancel():
    for bad in ((3, -3), (1, 3, -3, 2), (0, 0), (-5, 5)):
        with pytest.raises(IndexOutOfRange):
            reduce(bad, 2)
        with pytest.raises(IndexOutOfRange):
            Word(bad, 2)
        with pytest.raises(IndexOutOfRange):
            conj_class(bad, 2)


def test_word_multiplication_and_inverse():
    x, y = generator(1, 2), generator(2, 2)
    w = x * y * x.inverse()
    assert w.letters == (1, 2, -1)
    assert (w * w.inverse()).is_trivial()


def test_cyclic_reduce():
    core, pre = cyclic_reduce((1, 2, -1))
    assert core == (2,)
    assert pre == (1,)
    core, pre = cyclic_reduce((1, 2))
    assert core == (1, 2)
    assert pre == ()


def _reduced_words(rank, max_len):
    """Every freely reduced word of the rank with at most max_len letters."""
    alphabet = [s * m for m in range(1, rank + 1) for s in (1, -1)]
    out = frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet
                    if not w or w[-1] != -a]
        out = out + frontier
    return out


@pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 4)])
def test_substitution_kernel_matches_its_loop_twins(rank, max_len):
    rng = random.Random(rank)
    maps = []
    for k in range(12):
        target = rng.choice((2, 3))
        short = _reduced_words(target, 3)
        images = [Word(rng.choice(short), target) for _ in range(rank)]
        if k % 2:  # _substitute must skip the empty entries
            images[rng.randrange(rank)] = Word((), target)
        maps.append(images)
    bases = [random_automorphism(rank, rng, 6) for _ in range(4)]
    for letters in _reduced_words(rank, max_len):
        assert cyclic_reduce(letters) == words_oracle.cyclic_reduce(letters)
        w = Word(letters, rank)
        for images in maps:
            assert (apply_endomorphism(w, images)
                    == words_oracle.apply_endomorphism_loop(w, images))
        for basis in bases:
            assert (rewrite_in_basis(w, basis).letters
                    == words_oracle.rewrite_letters_loop(
                        letters, tuple(b.letters for b in basis), rank))


def test_conj_normal_form_invariance():
    # x y x^-1 y and its conjugates / inverse land on one representative
    w = reduce((1, 2, -1, 2), 2)
    g = reduce((2, 2, 1), 2)
    conj = g * w * g.inverse()
    assert conj_normal_form(w) == conj_normal_form(conj)
    assert conj_normal_form(w) == conj_normal_form(w.inverse())


def _normal_form_oracle(letters, rank):
    # independent: min over explicitly listed rotations of both orientations,
    # with letter order 1 < -1 < 2 < -2 < ...
    core, _ = cyclic_reduce(free_reduce(letters))
    cands = []
    for seq in (core, invert(core)):
        cands.extend(seq[k:] + seq[:k] for k in range(len(seq)))
    key = lambda rot: [2 * abs(a) - (a > 0) for a in rot]
    return min(cands, key=key) if cands else ()


@given(letters_strategy(rank=2, max_len=8))
@settings(max_examples=200)
def test_conj_normal_form_matches_rotation_oracle(letters):
    got = conj_class(letters, 2).rep.letters
    assert got == _normal_form_oracle(letters, 2)


@given(letters_strategy(rank=2, max_len=8), letters_strategy(rank=2, max_len=4))
@settings(max_examples=100)
def test_conj_normal_form_conjugation_invariant(letters, conj):
    w = reduce(letters, 2)
    g = reduce(conj, 2)
    assert conj_normal_form(w) == conj_normal_form(g * w * g.inverse())


def test_apply_endomorphism():
    # x -> xy, y -> y applied to x y^-1 gives x
    images = [reduce((1, 2), 2), reduce((2,), 2)]
    w = reduce((1, -2), 2)
    assert apply_endomorphism(w, images).letters == (1,)


def test_apply_endomorphism_rejects_mismatched_images():
    # too few images, too many, and images of mixed ranks
    x, y = Word((1,), 2), Word((2,), 2)
    for w, images in [(Word((3,), 3), [x, y]), (Word((1,), 2), [x, y, y]),
                      (Word((1, 2), 2), [x, Word((2,), 3)])]:
        with pytest.raises(RankMismatch):
            apply_endomorphism(w, images)
    # a map F_2 -> F_3 is fine when its images share one rank
    z = apply_endomorphism(Word((1, -2), 2), [Word((3,), 3), Word((1,), 3)])
    assert z == Word((3, -1), 3)


def test_rewrite_in_standard_basis_is_identity():
    basis = [generator(1, 2), generator(2, 2)]
    w = reduce((1, 2, -1), 2)
    assert rewrite_in_basis(w, basis).letters == (1, 2, -1)


def test_rewrite_in_permuted_inverted_basis():
    basis = [generator(2, 2), generator(1, 2).inverse()]
    w = reduce((1, 2), 2)
    # x = b2^-1, y = b1
    assert rewrite_in_basis(w, basis).letters == (-2, 1)


def test_rewrite_in_nielsen_basis():
    # basis (xy, y): x = b1 b2^-1, y = b2
    basis = [reduce((1, 2), 2), reduce((2,), 2)]
    assert rewrite_in_basis(generator(1, 2), basis).letters == (1, -2)
    assert rewrite_in_basis(generator(2, 2), basis).letters == (2,)
    w = reduce((1, -2), 2)
    assert rewrite_in_basis(w, basis).letters == (1, -2, -2)


def test_rewrite_rejects_non_basis():
    with pytest.raises(NotABasis):
        rewrite_in_basis(generator(1, 2), [reduce((1, 1), 2), reduce((2,), 2)])
    with pytest.raises(NotABasis):
        rewrite_in_basis(
            generator(1, 2), [reduce((1, 2), 2), reduce((2, -1), 2)]
        )


def test_rank_mismatches_raise_rank_mismatch():
    # the letters fit rank 2, but the basis and the factor are of rank 3
    with pytest.raises(RankMismatch):
        rewrite_in_basis(Word((1, 2), 2), [Word((1,), 3), Word((2,), 3)])
    with pytest.raises(RankMismatch):
        Word((1,), 2) * Word((1,), 3)


def test_is_basis():
    assert is_basis([reduce((1, 2), 2), reduce((2,), 2)], 2)
    assert not is_basis([reduce((1, 2), 2), reduce((-2, -1), 2)], 2)
    assert is_basis(
        [reduce((1, 2, 3), 3), reduce((2, 3), 3), reduce((3,), 3)], 3
    )


@given(st.integers(0, 7))
@settings(max_examples=8, deadline=None)
def test_rewrite_round_trip_random_rank2_basis(seed):
    import random

    rng = random.Random(seed)
    basis = [generator(1, 2), generator(2, 2)]
    for _ in range(6):  # random automorphic images form a basis
        i, j = rng.sample([0, 1], 2)
        s = rng.choice([1, -1])
        other = basis[j] if s > 0 else basis[j].inverse()
        basis[i] = basis[i] * other if rng.random() < 0.5 else other * basis[i]
        if basis[i].is_trivial():
            basis[i] = generator(i + 1, 2)
    for trial in range(5):
        w = reduce(
            tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))),
            2,
        )
        coords = rewrite_in_basis(w, basis)
        back = apply_endomorphism(coords, basis)
        assert back == w


def test_extend_to_basis_generator():
    basis = extend_to_basis(generator(1, 2))
    assert rewrite_in_basis(generator(2, 2), basis)
    assert conj_normal_form(basis[0]) == conj_normal_form(generator(1, 2))


def test_extend_to_basis_xy():
    w = reduce((1, 2), 2)
    basis = extend_to_basis(w)
    assert is_basis(basis, 2)
    assert conj_normal_form(basis[0]) == conj_normal_form(w)


def test_extend_to_basis_conjugate_primitive():
    # y x y^-1 is primitive
    w = reduce((2, 1, -2), 2)
    basis = extend_to_basis(w)
    assert is_basis(basis, 2)
    assert conj_normal_form(basis[0]) == conj_normal_form(w)


def test_not_primitive():
    with pytest.raises(NotPrimitive):
        extend_to_basis(reduce((1, 1), 2))
    with pytest.raises(NotPrimitive):
        extend_to_basis(reduce((1, 2, 1, -2), 2))  # abelianizes to (2, 0)
    with pytest.raises(NotPrimitive):
        extend_to_basis(reduce((1, 2, -1, -2), 2))  # commutator
    assert not is_primitive(reduce((1, 1, 2, 2), 2))
    assert is_primitive(reduce((1, 1, 2), 2))  # {x, x^2 y} is a basis


def test_primitive_rank3():
    w = reduce((1, 2, 3), 3)
    basis = extend_to_basis(w)
    assert is_basis(basis, 3)
    assert conj_normal_form(basis[0]) == conj_normal_form(w)


def test_rank_cap():
    with pytest.raises(Unsupported):
        extend_to_basis(generator(1, 4))


def _conjugate(u: Word, v: Word) -> bool:
    """Whether u and v are conjugate, orientation kept: their cyclic
    reductions are rotations of each other."""
    cu, cv = cyclic_reduce(u.letters)[0], cyclic_reduce(v.letters)[0]
    return len(cu) == len(cv) and any(cv[i:] + cv[:i] == cu
                                      for i in range(max(len(cv), 1)))


def test_extend_to_basis_first_entry_keeps_orientation():
    # the first entry is conjugate to w, never to w^-1 (a class forgets
    # orientation, a basis entry does not), for w and w^-1 alike
    assert extend_to_basis(Word((-1,), 2))[0] == Word((-1,), 2)
    assert _conjugate(extend_to_basis(Word((-1, -2), 2))[0],
                      Word((-1, -2), 2))
    rng = random.Random(23)
    for rank in (2, 3):
        for _ in range(12):
            images = random_automorphism(rank, rng, rng.randint(2, 6))
            u = random_automorphism(rank, rng, 2)[0]
            w = u * images[rng.randrange(rank)] * u.inverse()
            for v in (w, w.inverse()):
                basis = extend_to_basis(v)
                assert is_basis(basis, rank)
                assert _conjugate(basis[0], v), v
                assert not _conjugate(basis[0], v.inverse()), v


def _basis_or_error(extend, w):
    try:
        return extend(w)
    except NotPrimitive:
        return NotPrimitive


def test_extend_to_basis_matches_its_twin():
    # every nonempty reduced word of rank 2 up to length 6 and of rank 3 up
    # to length 4: one basis inversion gives the basis, or NotPrimitive,
    # that n rewrites in the image basis gave
    start = time.perf_counter()
    outcomes = {True: 0, False: 0}
    for rank, max_len in ((2, 6), (3, 4)):
        alphabet = [s * m for m in range(1, rank + 1) for s in (1, -1)]
        for n in range(1, max_len + 1):
            for letters in itertools.product(alphabet, repeat=n):
                if free_reduce(letters) != letters:
                    continue
                w = Word(letters, rank)
                want = _basis_or_error(words_oracle.extend_to_basis, w)
                if want is not NotPrimitive and _conjugate(want[0],
                                                           w.inverse()):
                    # the twin's first entry can be conjugate to w^-1
                    want = [want[0].inverse(), *want[1:]]
                assert _basis_or_error(extend_to_basis, w) == want, w
                outcomes[want is not NotPrimitive] += 1
    assert sum(outcomes.values()) == 2392 and min(outcomes.values()) > 1000
    assert time.perf_counter() - start < 60


def test_conjugacy_class_enumeration_counts():
    # rank 1: classes x^k, unoriented, k = 1..L
    assert sum(1 for _ in conjugacy_classes_up_to(1, 4)) == 4
    seen = list(conjugacy_classes_up_to(2, 3))
    reps = {c.rep.letters for c in seen}
    assert len(reps) == len(seen)  # no duplicates
    assert (1,) in reps and (2,) in reps
    assert (-1,) not in reps  # inverse identified
    # oracle: count distinct canonical forms over all reduced words
    oracle = set()
    for length in range(1, 4):
        for tup in itertools.product([1, -1, 2, -2], repeat=length):
            red = free_reduce(tup)
            if red:
                oracle.add(_normal_form_oracle(red, 2))
    assert reps == oracle


@functools.lru_cache(maxsize=None)
def _oracle_classes(rank, max_len):
    return tuple(words_oracle.conjugacy_classes_up_to(rank, max_len))


@pytest.mark.parametrize("rank,max_len", [(1, 10), (2, 8), (3, 6), (4, 4),
                                           (4, 5), (5, 4)])
def test_class_enumeration_matches_letter_tuple_oracle(rank, max_len):
    fast = list(conjugacy_classes_up_to(rank, max_len))
    slow = list(_oracle_classes(rank, max_len))
    assert fast == slow  # the same classes in the same order


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 8), (3, 6), (4, 4),
                                           (4, 5), (5, 4)])
def test_letter_table_matches_letter_tuple_oracle(rank, max_len):
    # the one pruned FKM walk over all lengths, read as the letter table
    # that brute_force_lambda uses, in the oracle's order
    table = words._class_walk(rank, max_len)[0]
    assert list(table) == [g.rep.letters
                           for g in _oracle_classes(rank, max_len)]
    assert list(table) == [g.rep.letters
                           for g in conjugacy_classes_up_to(rank, max_len)]


def test_class_enumeration_is_a_generator_over_an_immutable_memo():
    assert inspect.isgeneratorfunction(conjugacy_classes_up_to)
    memo = words._class_walk(2, 3)[0]
    assert type(memo) is tuple
    assert all(type(letters) is tuple for letters in memo)
    assert words._class_walk(2, 3)[0] is memo
    assert tuple(g.rep.letters for g in conjugacy_classes_up_to(2, 3)) == memo


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 6), (3, 4)])
def test_classes_built_without_checks_equal_checked_ones(rank, max_len):
    # the enumeration and brute_force_lambda's argmax skip Word's checks;
    # the checked constructor accepts every letter tuple of the walk and
    # gives equal, equally hashed, canonical classes
    fast = list(conjugacy_classes_up_to(rank, max_len))
    slow = [ConjClass(Word(letters, rank), rank)
            for letters in words._class_walk(rank, max_len)[0]]
    assert fast == slow
    assert [hash(g) for g in fast] == [hash(g) for g in slow]
    assert all(conj_normal_form(g.rep) == g for g in fast)


@pytest.mark.parametrize("rank,max_len", [
    (0, 3), (-1, 3), (True, 3), (2.5, 3), ("3", 3), (None, 3),
    (2, 0), (2, -1), (2, True), (2, False), (2, 2.5), (2, "3"), (2, None),
])
def test_class_enumeration_rejects_bad_rank_and_max_len(rank, max_len):
    gen = conjugacy_classes_up_to(rank, max_len)  # a generator: no error yet
    with pytest.raises(ParamOutOfRange):
        next(gen)


def test_canonical_cyclic_matches_the_oracle():
    rng = random.Random(4)
    for _ in range(2000):
        rank = rng.randint(1, 4)
        alphabet = [s * m for m in range(1, rank + 1) for s in (1, -1)]
        n = rng.randint(1, 14)
        letters = tuple(rng.choice(alphabet) for _ in range(n))
        if rng.random() < 0.3:  # periodic words have several least rotations
            letters = letters[: rng.randint(1, 4)] * rng.randint(2, 4)
        assert words._canonical_cyclic(letters) == \
            words_oracle._canonical_cyclic(letters)


def test_least_rotation_is_the_least_of_all_rotations():
    # every word of up to 9 letters over three letters, periodic ones
    # (several least rotations) included
    for n in range(1, 10):
        for seq in itertools.product((1, -1, 2), repeat=n):
            want = min((seq[k:] + seq[:k] for k in range(n)),
                       key=lambda r: [*map(words._letter_key, r)])
            assert words._least_rotation(seq) == (
                tuple(map(words._letter_key, want)), want)


def test_plateau_basis_is_inverted_without_a_search():
    # a basis of F_3 whose Nielsen reduction needed a search at constant
    # total length; folding inverts it directly
    basis = ((-3, 1, 3), (1, 2), (-2, 3))
    want = ((2, 3, 1, -3, -2), (2, 3, -1, -3), (2, 3, -1))
    assert words._basis_inverse(basis, 3) == want
    assert words_oracle.basis_inverse(basis, 3) == want
    for m, c in enumerate(want, 1):
        assert free_reduce(itertools.chain.from_iterable(
            basis[b - 1] if b > 0 else invert(basis[-b - 1])
            for b in c)) == (m,)


def test_basis_inverse_rejects_letters_and_counts_outside_the_rank():
    for letters, rank in [(((3,), (1,)), 2), (((1,), (-3,)), 2),
                          (((1,),), 2), (((1,), (2,), (3,)), 2), ((), 1)]:
        with pytest.raises(NotABasis):
            words._basis_inverse(letters, rank)


def _inverse_or_error(inverse, letters, rank):
    try:
        return inverse(letters, rank)
    except NotABasis:
        return NotABasis


def _differential_inputs(rng):
    """(letters, rank): permuted automorphic images at ranks 1-4, long
    rank-3/4 bases, random non-bases, and words with letters beyond the
    rank."""
    for _ in range(400):
        rank = rng.randint(1, 4)
        basis = [w.letters for w in
                 random_automorphism(rank, rng, rng.randint(1, 12))]
        rng.shuffle(basis)
        yield tuple(basis), rank
    n = 0
    while n < 60:
        rank = rng.choice((3, 4))
        basis = tuple(w.letters for w in
                      random_automorphism(rank, rng, rng.randint(10, 30)))
        if 30 <= sum(map(len, basis)) <= 60:
            n += 1
            yield basis, rank
    for _ in range(400):
        rank = rng.randint(1, 4)
        yield tuple(free_reduce(rng.choice((1, -1)) * rng.randint(1, rank)
                                for _ in range(rng.randint(0, 5)))
                    for _ in range(rank)), rank
    for _ in range(200):  # rank words of a basis of F_(rank+1)
        rank = rng.randint(1, 3)
        basis = [w.letters for w in
                 random_automorphism(rank + 1, rng, rng.randint(0, 8))]
        rng.shuffle(basis)
        yield tuple(basis[:rank]), rank
    yield ((1, 1), (2,)), 2  # the proper subgroup (x^2, y)
    yield ((1, 2), (2, 1)), 2
    yield ((1, 2), (1, -2)), 2  # index 2
    yield ((2, 1, -2), (2,), ()), 3  # an empty word
    yield ((2, 1, -2), (1, 2, 1, -2, -1), (3,)), 3  # not cyclically reduced
    yield ((-3, 1, 3), (1, 2), (-2, 3)), 3


def test_basis_inverse_matches_nielsen_twin():
    start = time.perf_counter()
    decided = {True: 0, False: 0}
    for letters, rank in _differential_inputs(random.Random(20)):
        words._basis_inverse.cache_clear()
        want = _inverse_or_error(words_oracle.basis_inverse, letters, rank)
        got = _inverse_or_error(words._basis_inverse, letters, rank)
        assert got == want, (letters, rank)
        letter_rank = max([rank, *map(abs, itertools.chain(*letters))])
        basis = [Word(b, letter_rank) for b in letters]
        assert is_basis(basis, rank) == (want is not NotABasis)
        decided[want is not NotABasis] += 1
    words._basis_inverse.cache_clear()
    assert min(decided.values()) > 200
    assert time.perf_counter() - start < 60


def test_word_str():
    assert str(reduce((1, -2), 2)) == "x y^-1"
    assert str(reduce((), 2)) == "1"
