"""Value semantics of the package's value classes: equality over every
field, the hash, the exact repr, immutability and keyword construction;
and the base class as the twin of the overrides that the classes keep."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import MappingProxyType

import pytest

from cvn import values
from cvn.candidates import Candidate
from cvn.envelopes import EnvelopeSlice, Support
from cvn.geodesics import GeodesicPath, PositionCertificate, RayAudit
from cvn.graphs import (
    Edge,
    MarkedGraph,
    SimplexPoint,
    TopologicalType,
    resolutions,
    rose_type,
)
from cvn.metric import Distance, StretchReport
from cvn.polytope import HalfSpace
from constructions import random_pair
from cvn.svg import Layout
from cvn.values import Value
from cvn.words import ConjClass, Word, conj_class

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
    (Candidate, ("simple-loop", G, (0, 1)), ("barbell", H, (1, 0)),
     lambda x: (x.kind, x.word, x.counts),
     "Candidate(kind='simple-loop', word=ConjClass("
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
    assert x == y and not x != y
    assert (x is y) is (cls is TopologicalType)  # only types are interned
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


@pytest.mark.parametrize("cls, args, other, key, text", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_constructor_errors(cls, args, other, key, text):
    first = next(iter(cls.__annotations__))
    with pytest.raises(TypeError):  # too many positional arguments
        cls(*args, *args)
    with pytest.raises(TypeError):  # a missing field
        cls(*args[:-1])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*args, anything=args[0])
    with pytest.raises(TypeError):  # a field given both ways
        cls(*args, **{first: args[0]})


def _rebuilt_edges(t):
    """t's edges again, from new words: equal to them, sharing no field
    object with them but strings."""
    return tuple(Edge(e.id, e.u, e.v, Word(tuple(list(e.label.letters)),
                                            t.rank)) for e in t.edges)


def _rebuilt(t):
    """t again, edge by edge, from new words and containers: equal to t,
    and so t itself, since types are interned."""
    return TopologicalType(t.rank, tuple(list(t.vertices)), _rebuilt_edges(t),
                           frozenset(list(t.tree)))


def _equal_pairs():
    """Per class with overrides kept, and for edges, which keep none:
    equal objects built apart."""
    types = [(t, _rebuilt(t)) for t in resolutions(rose_type(3))]
    points = []
    for seed in range(8):
        for p in random_pair(2 + seed % 2, random.Random(seed)):
            points.append((p, SimplexPoint(_rebuilt(p.ttype),
                                           tuple(list(p.lengths)))))
    types += [(p.ttype, q.ttype) for p, q in points]
    edges = [ef for t, _ in types for ef in zip(t.edges, _rebuilt_edges(t))]
    words = [(e.label, f.label) for e, f in edges]
    classes = [conj_class(w.letters, w.rank) for w, _ in words if w.letters]
    classes = [(g, ConjClass(Word(tuple(list(g.rep.letters)), g.rank), g.rank))
               for g in classes]
    return {Word: words, Edge: edges, TopologicalType: types,
            SimplexPoint: points, ConjClass: classes}


def _with_field(x, i, value):
    """A copy of x with field i replaced, built past any checks."""
    y = object.__new__(type(x))
    fields = list(type(x)._values(x))
    fields[i] = value
    Value.__init__(y, *fields)
    return y


PAIRS = _equal_pairs()


@pytest.mark.parametrize("cls", PAIRS, ids=[c.__name__ for c in PAIRS])
def test_base_is_the_twin_of_the_overrides(cls):
    pairs = PAIRS[cls]
    assert len(pairs) >= 16
    seen = dict.fromkeys(cls._fields, 0)
    for x, y in pairs:
        assert (x is y) is (cls is TopologicalType)  # only types are interned
        assert (x == y) is Value.__eq__(x, y) is True
        if cls is ConjClass:  # a class hashes as its representative
            assert hash(x) == hash(y) == Value.__hash__(x.rep)
        else:
            assert hash(x) == hash(y) == Value.__hash__(x)
        for i, name in enumerate(cls._fields):
            # a field value of another object, differing from x's
            for u, _ in pairs:
                if getattr(u, name) != getattr(x, name):
                    z = _with_field(y, i, getattr(u, name))
                    assert (x == z) is Value.__eq__(x, z) is False, name
                    assert (z == x) is Value.__eq__(z, x) is False, name
                    seen[name] += 1
                    break
    assert min(seen.values()) > 0, seen


def _documented_overrides():
    """Per dunder, the classes that the cvn.values docstring lists as
    overriding it: the names in its bullet for that dunder."""
    found = {}
    for item in values.__doc__.split("\n- ")[1:]:
        dunder = re.match(r"``(__\w+__)``", item).group(1)
        found[dunder] = set(re.findall(r"``([A-Z]\w*)``", item))
    return found


def test_overrides_are_the_documented_ones():
    classes = Value.__subclasses__()
    assert len(classes) == 16
    documented = _documented_overrides()
    assert set(documented) == {"__eq__", "__hash__", "__init__", "__new__",
                               "__reduce__"}
    for dunder, names in documented.items():
        own = {c.__name__ for c in classes if dunder in vars(c)
               and vars(c)[dunder] is not getattr(Value, dunder)}
        assert own == names, dunder


_PICKLE_POINT = """
import pickle, sys
from cvn.graphs import theta_point
if sys.argv[1] == "dump":
    p = theta_point(1, 2, 3)
    hash(p)  # fills the cached hash before pickling
    sys.stdout.write(pickle.dumps(p).hex())
else:
    p = pickle.loads(bytes.fromhex(sys.stdin.read()))
    q = theta_point(1, 2, 3)
    print(p == q, hash(p) == hash(q), q in {p}, p in {q}, p.ttype is q.ttype)
"""


def test_pickled_point_hashes_in_the_loading_process():
    # string hashes differ between hash seeds, so a point may not carry
    # the hash of the process that pickled it
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(seed, arg, stdin=None):
        res = subprocess.run(
            [sys.executable, "-c", _PICKLE_POINT, arg], input=stdin,
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
            text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout

    dumped = run("1", "dump")
    assert run("2", "load", dumped).split() == ["True"] * 5
