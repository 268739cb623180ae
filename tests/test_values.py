"""Value semantics of the package's value classes: equality over every
field, the hash, the exact repr, immutability and keyword construction."""

from fractions import Fraction as F
from types import MappingProxyType

import pytest

from cvn.candidates import Candidate
from cvn.envelopes import EnvelopeSlice, Support
from cvn.geodesics import GeodesicPath, PositionCertificate, RayAudit
from cvn.graphs import Edge, MarkedGraph, SimplexPoint, TopologicalType
from cvn.metric import Distance, StretchReport
from cvn.polytope import HalfSpace
from cvn.svg import Layout
from cvn.words import ConjClass, Word

W = Word((1, -2), 2)
G, H = ConjClass(Word((1,), 2), 2), ConjClass(Word((2,), 2), 2)
E = Edge("e", "p", "q", Word((), 2))
T = TopologicalType(2, ("p", "q"), (E, Edge("f", "p", "q", Word((1,), 2))),
                    frozenset({"e"}))
T2 = TopologicalType(2, ("p", "r"), (E, Edge("f", "p", "q", Word((2,), 2))),
                     frozenset({"f"}))
P = SimplexPoint(T, (F(1, 3), F(2, 3)))
P2 = SimplexPoint(T2, (F(2, 3), F(1, 3)))

# per class: the fields of one instance, those of another differing in
# every field it can alone, the expected hash key (None: unhashable) and
# the exact repr of the first
CASES = [
    (Word, ((1, -2), 2), ((2,), 3), lambda x: (x.letters, x.rank),
     "Word(letters=(1, -2), rank=2)"),
    (ConjClass, (Word((1,), 2), 2), (Word((2,), 2), 3),
     lambda x: (x.rep.letters, x.rep.rank),
     "ConjClass(rep=Word(letters=(1,), rank=2), rank=2)"),
    (Edge, ("e", "p", "q", W), ("f", "r", "s", Word((2,), 2)),
     lambda x: (x.id, x.u, x.v, x.label),
     "Edge(id='e', u='p', v='q', label=Word(letters=(1, -2), rank=2))"),
    (TopologicalType, (2, ("p", "q"), (E,), frozenset({"e"})),
     (3, ("q",), (), frozenset()),
     lambda x: (x.rank, x.vertices, x.edges, x.tree),
     "TopologicalType(rank=2, vertices=('p', 'q'), edges=(Edge(id='e', "
     "u='p', v='q', label=Word(letters=(), rank=2)),), tree=frozenset({'e'}))"),
    (SimplexPoint, (T, (F(1, 3), F(2, 3))), (T2, (F(2, 3), F(1, 3))),
     lambda x: (x.ttype, x.lengths),
     "SimplexPoint(ttype=" + repr(T) + ", lengths=(Fraction(1, 3), "
     "Fraction(2, 3)))"),
    (Candidate, ("simple-loop", (("f", 0),), G, (0, 1)),
     ("barbell", (("e", 1),), H, (1, 0)),
     lambda x: (x.kind, x.path, x.word, x.counts),
     "Candidate(kind='simple-loop', path=(('f', 0),), word=ConjClass("
     "rep=Word(letters=(1,), rank=2), rank=2), counts=(0, 1))"),
    (StretchReport, (F(2), frozenset({G}), MappingProxyType({G: F(2)})),
     (F(2), frozenset(), MappingProxyType({G: F(2), H: F(1)})), None,
     "StretchReport(lam=Fraction(2, 1), candidate_witnesses=frozenset({"
     "ConjClass(rep=Word(letters=(1,), rank=2), rank=2)}), per_candidate="
     "mappingproxy({ConjClass(rep=Word(letters=(1,), rank=2), rank=2): "
     "Fraction(2, 1)}))"),
    (Distance, (F(3, 2), "right"), (F(2), "left"),
     lambda x: (x.lam, x.mode),
     "Distance(lam=Fraction(3, 2), mode='right')"),
    (HalfSpace, ((1, -2), 3, ("p",)), ((1, 2), 5, ("q",)),
     lambda x: (x.row, x.den, x.provenance),
     "HalfSpace(row=(1, -2), den=3, provenance=('p',))"),
    # a stand-in for the polytope, whose repr is an address
    (EnvelopeSlice, (T, G, "poly"), (T2, H, "other"),
     lambda x: (x.simplex, x.gamma, x.polytope),
     "EnvelopeSlice(simplex=" + repr(T) + ", gamma=ConjClass(rep=Word("
     "letters=(1,), rank=2), rank=2), polytope='poly')"),
    (Support, ((T,),), ((T, T2),), lambda x: (x.simplices,),
     "Support(simplices=(" + repr(T) + ",))"),
    (GeodesicPath, ((P,), (), (0,)), ((P, P2), (frozenset(),), (0, 1)),
     lambda x: (x.breakpoints, x.segment_witnesses, x.rigid_segments),
     "GeodesicPath(breakpoints=(" + repr(P) + ",), segment_witnesses=(), "
     "rigid_segments=(0,))"),
    (PositionCertificate, (G, (1, 2)), (H, ()), lambda x: (x.gamma, x.strict),
     "PositionCertificate(gamma=ConjClass(rep=Word(letters=(1,), rank=2), "
     "rank=2), strict=(1, 2))"),
    (RayAudit, ((P,), (0,), {0: 1}, 0), ((P2,), (), {}, 1), None,
     "RayAudit(points=(" + repr(P) + ",), crossings=(0,), dims={0: 1}, "
     "stable_from=0)"),
    (Layout, (((T, ((F(1), F(0)),)),),), ((),),
     lambda x: (x.placed,),
     "Layout(placed=((" + repr(T) + ", ((Fraction(1, 1), Fraction(0, 1)),)"
     "),))"),
]


@pytest.mark.parametrize("cls, args, other, key, text", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other, key, text):
    x = cls(*args)
    names = list(cls.__annotations__)
    assert len(names) == len(args)
    y = cls(**dict(zip(names, args)))  # keyword construction
    assert x == y and not x != y and x is not y
    assert x != object() and x != args
    for i, name in enumerate(names):  # each field takes part in equality
        if other[i] != args[i]:
            z = cls(*args[:i], other[i], *args[i + 1:])
            assert x != z and z != x, name
    assert repr(x) == text
    if key is None:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(key(x))
    for name in names + ["anything"]:
        with pytest.raises(AttributeError):
            setattr(x, name, args[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y


def test_geodesic_path_ignores_its_target():
    bare = GeodesicPath((P,), (), (0,))
    aimed = GeodesicPath((P,), (), (0,), target=P2)
    assert bare.target is None and aimed.target is P2
    assert aimed == bare and hash(aimed) == hash(bare)
    assert repr(aimed) == repr(bare)


def test_marked_graph_is_mutable_and_unhashable():
    g = MarkedGraph(2, ["v"], [("e", "v", "v", F(1), [1])], [])
    same = MarkedGraph(rank=2, vertices=["v"],
                       edges=[("e", "v", "v", F(1), [1])], tree=[])
    assert g == same
    assert repr(g) == ("MarkedGraph(rank=2, vertices=['v'], edges=[('e', "
                       "'v', 'v', Fraction(1, 1), [1])], tree=[])")
    with pytest.raises(TypeError):
        hash(g)
    g.tree = ["e"]
    assert g != same and g.tree == ["e"]
    del g.tree
    assert not hasattr(g, "tree")

