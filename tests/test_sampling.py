import random

from cvn.graphs import marking_equivalent
from constructions import _types, random_pair, random_point


def test_rank3_types_are_trivalent_with_six_edges():
    types = _types(3)
    assert len(types) > 2
    for t in types:
        assert t.is_trivalent()
        assert len(t.edges) == 6


def test_every_sampled_rank3_point_is_trivalent_with_six_edges():
    rng = random.Random(0)
    seen = []
    for _ in range(40):
        for p in (random_point(3, rng), *random_pair(3, rng, twist_steps=2)):
            assert p.ttype.is_trivalent()
            assert len(p.ttype.edges) == 6
            assert len(p.lengths) == 6
            seen.append(p.ttype)
    # the draws reach more than one marked type
    assert any(not marking_equivalent(seen[0], t) for t in seen[1:])
