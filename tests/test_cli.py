import copy
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvn.cli import _load_point, main, parse_word
from cvn.envelopes import envelope_slice, support
from cvn.geodesics import piecewise_rigid_geodesic, ray_dimension_audit
from cvn.graphs import (
    barbell_point,
    point_to_json,
    rose_point,
    theta_point,
    twisted_theta_point,
)
from cvn.metric import conj_length, stretch_report
from cvn.words import conj_class


@pytest.fixture
def files(tmp_path):
    pts = {
        "a": theta_point(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        "b": theta_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        "rose": rose_point([Fraction(5, 8), Fraction(3, 8)]),
        "tw": twisted_theta_point(Fraction(2, 5), Fraction(1, 10),
                                  Fraction(1, 2)),
        "bar": barbell_point(1, 1, 1),
    }
    out = {}
    for name, p in pts.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(point_to_json(p)))
        out[name] = str(f)
    return out


def test_parse_word_styles():
    assert parse_word("x y^-1", 2) == conj_class([1, -2], 2)
    assert parse_word("xy^-1", 2) == conj_class([1, -2], 2)
    assert parse_word("[1, -2]", 2) == conj_class([1, -2], 2)
    with pytest.raises(ValueError):
        parse_word("q", 2)


def test_validate_ok(files, capsys):
    assert main(["validate", files["a"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"]
    assert data["normalized"]["rank"] == 2


def test_validate_reduced_rejects_separating_edge(files, capsys):
    assert main(["validate", files["bar"], "--reduced"]) == 2
    assert "separating edge" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2}')
    assert main(["validate", str(bad)]) == 1


def test_validate_zero_denominator(tmp_path, files, capsys):
    data = json.loads(Path(files["a"]).read_text())
    data["edges"][0]["length"] = "1/0"
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.mark.parametrize("field, value", [
    ("label", [1.7]), ("label", [True]), ("rank", 2.9), ("length", True)])
def test_validate_rejects_non_integer_rank_letters_and_bool_length(
        tmp_path, capsys, field, value):
    # each was once read as an integer: [1], [1], rank 2 and length 1
    data = json.loads((FIXTURES / "a.json").read_text())
    if field == "rank":
        data["rank"] = value
    else:
        data["edges"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and field in err


def _integer_names(data):
    names = {v: i for i, v in enumerate(data["vertices"], 1)}
    data["vertices"] = list(names.values())
    for e in data["edges"]:
        e["from"], e["to"] = names[e["from"]], names[e["to"]]
    return data


@pytest.mark.parametrize("change, field", [
    (lambda d: {**d, "edges": 3}, "edges"),
    (lambda d: {**d, "vertices": 7}, "vertices"),
    (lambda d: {**d, "tree": None}, "tree"),
    (lambda d: {**d, "tree": [2]}, "tree"),
    (lambda d: {**d, "edges": [1] + d["edges"][1:]}, "edge"),
    (lambda d: [1, 2], "graph"),
    (_integer_names, "from"),
] + [(lambda d, k=k, v=v: {**d, "edges": [{**d["edges"][0], k: v}]
                           + d["edges"][1:]}, k)
     for k, v in [("label", None), ("length", None), ("length", [1]),
                  ("id", ["x"]), ("from", 1), ("to", None)]])
def test_validate_rejects_graph_json_of_the_wrong_shape(
        tmp_path, capsys, change, field):
    # each once died with a TypeError traceback, or, for integer vertex
    # names, passed validate and died in a later command
    data = change(json.loads((FIXTURES / "a.json").read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and field in err


def test_validate_rejects_an_infinite_length(tmp_path, capsys):
    data = json.loads((FIXTURES / "a.json").read_text())
    data["edges"][0]["length"] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(data))  # written as Infinity, which JSON reads
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("lengths, code", [
    (["1e5000"], 1), (["1e3000", "1e-3000"], 1), (["1e3000000"], 1),
    (["1e1900", "1e-1900"], 0)])
def test_validate_refuses_lengths_too_long_to_print(tmp_path, capsys,
                                                    lengths, code):
    # the refused ones each passed Fraction, the last after seconds there,
    # and died in a traceback printing their normalised lengths
    data = json.loads((FIXTURES / "a.json").read_text())
    for e, length in zip(data["edges"], lengths):
        e["length"] = length
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["validate", str(bad)]) == code
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    if code:
        assert err.startswith(f"input error: edge e{len(lengths)} ")
    else:
        assert json.loads(out)["ok"]


@pytest.mark.parametrize("word", ["[1.0]", "[1, 2.0]", "[1e0]", "[[1]]",
                                  "[true]", '["x"]', "[null]"])
def test_direction_letters_are_json_integers(files, capsys, word):
    assert main(["ray-audit", files["rose"], "--direction", word]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "direction letter" in err


# letter forms, inverses, JSON lists and junk; a word that starts with "-"
# is an option to argparse, such as --json
_DIRECTION_WORDS = st.one_of(
    st.lists(st.sampled_from(["x", "y", "z", "x^-1", "y^-1", "^-1", "^",
                              " ", "q", "[", "]", ",", "1"]),
             max_size=8).map("".join),
    st.lists(st.integers(-3, 3), max_size=8).map(json.dumps),
    st.text(max_size=8)).filter(lambda w: not w.startswith("-"))


@given(st.sampled_from(["rose", "a"]),
       st.lists(_DIRECTION_WORDS, min_size=1, max_size=3),
       st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_ray_audit_exits_cleanly_on_drawn_directions(name, words, steps):
    # ray-audit answers 0-3 and raises nothing, within a bound on its time
    start = time.monotonic()
    assert main(["ray-audit", str(FIXTURES / f"{name}.json"), "--direction",
                 *words, "--steps", str(steps)]) in (0, 1, 2, 3)
    assert time.monotonic() - start < 10


def _one_gigabyte():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("word", [
    "x" * 40000, "xy" * 20000, json.dumps([1, -2] * 20000, separators=",:")],
    ids=["x^40000", "(xy)^20000", "(xy^-1)^20000"])
def test_long_periodic_direction_audits_in_linear_space(files, word):
    # every rotation of such a word, and of its inverse, starts with a
    # least letter; the class is canonicalized without copying them all,
    # in a process held to 1 GB of address space
    root = Path(__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-m", "cvn.cli", "ray-audit", files["rose"],
         "--direction", word, "--json", os.devnull],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=20,
        preexec_fn=_one_gigabyte)
    assert res.returncode == 0, res.stderr[-500:]


def test_missing_file_and_bad_word_are_input_errors(files, capsys):
    assert main(["validate", "no-such-file.json"]) == 1
    assert "input error" in capsys.readouterr().err
    assert main(["ray-audit", files["rose"], "--direction", "q"]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [KeyError("edge"), ValueError("bad")])
def test_computation_fault_is_not_an_input_error(files, capsys, monkeypatch,
                                                 exc):
    import cvn.metric

    def broken(a, b, mode):
        raise exc

    monkeypatch.setattr(cvn.metric, "distance", broken)
    with pytest.raises(type(exc)):
        main(["distance", files["a"], files["b"]])
    assert "input error" not in capsys.readouterr().err


def test_validate_domain_error(tmp_path, files, capsys):
    data = json.loads(Path(files["a"]).read_text())
    data["edges"][0]["length"] = "-1/2"
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2


def test_validate_edge_to_unlisted_vertex_is_a_domain_error(tmp_path, capsys):
    bad = tmp_path / "stray.json"
    bad.write_text(json.dumps({
        "rank": 2, "vertices": ["o"], "tree": [],
        "edges": [{"id": "a", "from": "o", "to": "p", "length": "1",
                   "label": [1]},
                  {"id": "b", "from": "o", "to": "o", "length": "1",
                   "label": [2]}]}))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("DisconnectedGraph: ")
    assert "edge a" in err and "'p'" in err


@pytest.mark.parametrize("change, kind, name", [
    pytest.param(lambda d: d["vertices"].append("q"), "vertex", "q",
                 id="vertex"),
    pytest.param(lambda d: d["tree"].append("e2"), "tree entry", "e2",
                 id="tree"),
    pytest.param(lambda d: d["edges"][2].update(id="e1"), "edge id", "e1",
                 id="edge"),
])
def test_validate_reports_a_repeated_name(tmp_path, capsys, change, kind,
                                          name):
    # once: DisconnectedGraph, exit 0 (the tree read as a set) and
    # WrongRank("duplicate edge ids")
    data = json.loads((FIXTURES / "a.json").read_text())
    change(data)
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"DuplicateName: {kind} {name!r} is listed twice\n")


class _Obj(list):
    """A JSON object as its [key, value] pairs, so a key can repeat."""


def _text(v) -> str:
    if isinstance(v, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(x)}"
                               for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_text, v)) + "]"
    return json.dumps(v)


def _slots(v) -> list:
    """Every entry of every array and object in v, as (container, index)."""
    if not isinstance(v, list):
        return []
    out = [(v, i) for i in range(len(v))]
    for x in v:
        out += _slots(x[1] if isinstance(v, _Obj) else x)
    return out


_FUZZ_FIXTURES = {name: json.loads(
    (FIXTURES / f"{name}.json").read_text(),
    object_pairs_hook=lambda pairs: _Obj(map(list, pairs)))
    for name in ("a", "r3a")}
_EXTREMES = [None, True, False, 0, -1, 1, 3, 2 ** 63, -2 ** 63, 10 ** 40,
             1e308, -1e308, 5e-324, 0.5, float("inf"), float("nan"), "",
             "x", "p", "e1", "0", "-1/3", "1/0", "1e400", "1e-400", [], [0],
             ["p", "q"], _Obj()]


@given(st.sampled_from(sorted(_FUZZ_FIXTURES)),
       st.lists(st.tuples(st.sampled_from(["drop", "repeat", "retype"]),
                          st.integers(0, 10 ** 6),
                          st.sampled_from(_EXTREMES)),
                min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_validate_exits_cleanly_on_mutated_fixtures(name, mutations):
    # dropped, repeated and retyped keys and entries, extreme numbers:
    # validate answers 0, 1 or 2 and raises nothing
    data = copy.deepcopy(_FUZZ_FIXTURES[name])
    for kind, pick, value in mutations:
        slots = _slots(data)
        if not slots:
            break
        box, i = slots[pick % len(slots)]
        if kind == "drop":
            del box[i]
        elif kind == "repeat":
            box.insert(i, copy.deepcopy(box[i]))
        elif isinstance(box, _Obj):
            box[i][1] = copy.deepcopy(value)
        else:
            box[i] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(_text(data))
        assert main(["validate", str(path)]) in (0, 1, 2)


def test_candidates_output(files, capsys):
    assert main(["candidates", files["a"]]) == 0
    words = {c["word"] for c in json.loads(capsys.readouterr().out)["candidates"]}
    assert words == {"x", "y", "x y^-1"}


def test_distance_modes(files, capsys):
    assert main(["distance", files["a"], files["b"]]) == 0
    right = json.loads(capsys.readouterr().out)
    assert right["stretch"]["exact"] == "5/4"
    assert main(["distance", files["a"], files["b"],
                 "--mode", "symmetric"]) == 0
    sym = json.loads(capsys.readouterr().out)
    assert Fraction(sym["stretch"]["exact"]) >= Fraction(right["stretch"]["exact"])


def test_witnesses_output(files, capsys):
    assert main(["witnesses", files["a"], files["b"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [w["word"] for w in data["witnesses"]] == ["x"]
    assert data["per_candidate"]["x"]["exact"] == "5/4"


@pytest.mark.parametrize("command", ["distance", "witnesses", "geodesic"])
def test_stretch_past_float_range_prints_exactly(tmp_path, capsys, command):
    # a theta graph with lengths 1/3, 1e-400, 1e-400 validates and stretches
    # about 10^400 to b: float() of that and math.log of it raised
    # OverflowError
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(point_to_json(theta_point(
        Fraction(1, 3), Fraction(1, 10 ** 400), Fraction(1, 10 ** 400)))))
    assert main([command, str(tiny), str(FIXTURES / "b.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    lam = Fraction(out["stretch"]["exact"])
    assert lam > 10 ** 308 and out["stretch"]["approx"] is None
    if command == "distance":
        digits = len(str(lam.numerator)) - len(str(lam.denominator))
        assert abs(out["log"] / math.log(10) - digits) <= 1


def _exact(text: str) -> Fraction:
    """The ratio an "exact" string writes, read through Decimal, which
    reads any number of digits."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


# a.json with its first two lengths set to 1/(10^1900 + 1) and
# 1/(10^1900 + 7) in big-u.json, and to 1/(10^1900 + 3) and
# 1/(10^1900 + 9) in big-v.json: each validates, and the stretch between
# them has about 7,600 digits over 7,600, where str() of an int raises
# ValueError past 4,300.
BIG_PAIR = [str(Path(__file__).resolve().parent / "fixtures" / f"big-{x}.json")
            for x in "uv"]


@pytest.mark.parametrize("command", ["distance", "witnesses"])
def test_ratio_past_the_int_string_limit_prints_every_digit(capsys, command):
    assert main([command, *BIG_PAIR]) == 0
    out = json.loads(capsys.readouterr().out)
    rep = stretch_report(*map(_load_point, BIG_PAIR))
    exact = out["stretch"]["exact"]
    assert len(exact) > 2 * 4300 and _exact(exact) == rep.lam
    if command == "witnesses":
        assert {g: _exact(r["exact"]) for g, r
                in out["per_candidate"].items()} == {
            str(g): r for g, r in rep.per_candidate.items()}


def _lengths(points) -> list:
    return [[_exact(e["length"]) for e in p["edges"]] for p in points]


@pytest.mark.parametrize("argv", [
    ["validate", "{u}"], ["envelope", "{u}", "{v}"],
    ["envelope", "{u}", "{v}", "--json", "{out}.json", "--svg", "{out}.svg"],
    ["geodesic", "{u}", "{v}"],
    ["geodesic", "{u}", "{v}", "--json", "{out}.json", "--svg", "{out}.svg"],
    ["ray-audit", "{u}", "--direction", "x", "y"]],
    ids=lambda argv: argv[0] + ("-files" if "--json" in argv else ""))
def test_every_number_past_the_int_string_limit_prints_exactly(tmp_path,
                                                               capsys, argv):
    # envelope and geodesic ended in ValueError from str() of a vertex
    # coordinate or a breakpoint length past 4,300 digits
    u, v = BIG_PAIR
    argv = [arg.format(u=u, v=v, out=tmp_path / "out") for arg in argv]
    start = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - start < 10
    text = capsys.readouterr().out
    out = json.loads(text)
    if "--json" in argv:
        assert (tmp_path / "out.json").read_text() == text
        assert (tmp_path / "out.svg").read_text().startswith("<?xml")
    a, b = _load_point(u), _load_point(v)
    command = argv[0]
    if command == "validate":
        assert _lengths([out["normalized"]]) == [list(a.lengths)]
    elif command == "ray-audit":
        audit = ray_dimension_audit(a, [conj_class([1], 2),
                                        conj_class([2], 2)], 2)
        assert _lengths(out["points"]) == [list(p.lengths)
                                           for p in audit.points]
    else:
        rep = stretch_report(a, b)
        assert _exact(out["stretch"]["exact"]) == rep.lam
    if command == "envelope":
        maximal = [t for t in support(a, b).simplices if t.is_trivalent()]
        assert [s["edges"] for s in out["slices"]] == [
            [e.id for e in t.edges] for t in maximal]
        assert [[list(map(_exact, x)) for x in s["vertices"]]
                for s in out["slices"]] == [
            [list(x) for x in envelope_slice(a, b, t).polytope.vertices]
            for t in maximal]
        assert max(len(c) for s in out["slices"] for x in s["vertices"]
                   for c in x) > 4300
    elif command == "geodesic":
        path = piecewise_rigid_geodesic(a, b)
        assert _lengths(out["breakpoints"]) == [list(p.lengths)
                                                for p in path.breakpoints]
        assert max(len(e["length"]) for p in out["breakpoints"]
                   for e in p["edges"]) > 4300


def test_verify_appendix_prints_ratios_past_the_int_string_limit(capsys):
    # each parameter is inside the bound on one length, but the ratios
    # of A1 carry the digits of both
    eps, delta = Fraction(1, 10 ** 4290 + 1), Fraction(1, 10 ** 4295 + 3)
    assert main(["verify-appendix", "A1", "--eps", str(eps),
                 "--delta", str(delta)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]
    assert [out["params"][k]["exact"] for k in ("eps", "delta")] == [
        str(eps), str(delta)]
    half = Fraction(1, 2)
    a = theta_point(half + delta, eps, 1 - (half + delta) - eps)
    c = twisted_theta_point(half - delta, eps, 1 - (half - delta) - eps)
    x = conj_class([1], 2)
    exact = out["ratio_x"]["exact"]
    assert len(exact) > 4300
    assert _exact(exact) == conj_length(a, x) / conj_length(c, x)


@pytest.mark.parametrize("argv", [
    ["R2i", "--a", "1/3"], ["R2i", "--eps", "1/3"], ["A1", "--b", "1/3"],
    ["A1", "--d", "1/3"], ["A2", "--delta", "1/100"], ["A2", "--eps", "1/3"]])
def test_verify_appendix_refuses_a_parameter_its_scenario_does_not_read(
        capsys, argv):
    assert main(["verify-appendix", *argv]) == 1
    out, err = capsys.readouterr()
    assert not out and f"does not read {argv[1]}" in err


def test_envelope_json_and_svg(files, tmp_path, capsys):
    svg = tmp_path / "env.svg"
    out = tmp_path / "env.json"
    assert main(["envelope", files["a"], files["b"],
                 "--svg", str(svg), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    verts = {tuple(v) for s in data["slices"] for v in s["vertices"]}
    assert ("2/7", "3/7", "2/7") in verts
    assert ("7/13", "3/13", "3/13") in verts
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<polygon" in text


def test_envelope_svg_deterministic(files, tmp_path):
    outs = []
    for k in range(2):
        svg = tmp_path / f"e{k}.svg"
        main(["envelope", files["a"], files["tw"], "--svg", str(svg)])
        outs.append(svg.read_bytes())
    assert outs[0] == outs[1]


def test_geodesic_output(files, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["geodesic", files["a"], files["b"],
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["breakpoints"]) == 3
    assert data["rigid"] in (True, False)
    assert data["stretch"]["exact"] == "5/4"
    mids = [e["length"] for e in data["breakpoints"][1]["edges"]]
    assert mids == ["2/7", "3/7", "2/7"]


def test_general_position_output(files, capsys):
    assert main(["general-position", files["a"], files["b"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["general_position"] is True
    assert data["witness"] == "x"
    assert main(["general-position", files["a"], files["b"],
                 "--via", "in"]) == 0


def test_general_position_rose_error(files, capsys):
    assert main(["general-position", files["rose"], files["a"]]) == 2


def test_ray_audit_output(files, capsys):
    assert main(["ray-audit", files["rose"], "--direction", "x", "y",
                 "--steps", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["crossings"][-1] == 2
    assert all(entry["dim"] == 1 for entry in data["dims"])


def test_verify_appendix_a1(files, capsys):
    assert main(["verify-appendix", "A1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"]
    assert data["ratio_x"]["exact"] == "61/59"
    assert data["ratio_xy"]["exact"] == "11/9"


def test_verify_appendix_a1_bad_params():
    # delta too large relative to eps
    assert main(["verify-appendix", "A1", "--delta", "1/5"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["A2", "--a", "1e-30000000"], 1), (["A2", "--a", "1e-5000"], 1),
    (["A1", "--eps", "1/3", "--delta", "1e-5000"], 1),
    (["A1", "--a", "1/0"], 1), (["A2", "--a", "1e-4000"], 0),
    (["A1", "--eps", "1/3", "--delta", "1e-4000"], 0)])
def test_verify_appendix_refuses_parameters_too_long_to_print(capsys, argv,
                                                             code):
    # parameters take the bound on graph lengths: the refused ones were
    # read by Fraction (the first for minutes) and died printing, or in
    # ZeroDivisionError
    start = time.monotonic()
    assert main(["verify-appendix", *argv]) == code
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    if code:
        assert f"error: argument {argv[-2]}: " in err
    else:
        params = json.loads(out)["params"]
        assert params[argv[-2][2:]]["exact"] == "1/1" + "0" * 4000


def test_verify_appendix_a2(capsys):
    assert main(["verify-appendix", "A2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"]
    assert data["interval"][0]["exact"] == "1/3"
    assert data["interval"][1]["exact"] == "5/12"
    assert data["checks"]["forward"] and data["checks"]["backward"]


def test_verify_appendix_r2i(capsys):
    assert main(["verify-appendix", "R2i"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"]
    assert data["stretches"]["a_to_b"]["exact"] == "9/8"
    assert data["stretches"]["b_to_a"]["exact"] == "4/3"
    assert "x y^-1" in data["witness_sets"]["a_b"]


def test_cli_output_deterministic(files, capsys):
    runs = []
    for _ in range(2):
        main(["witnesses", files["a"], files["tw"]])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_candidates_output_independent_of_hash_seed():
    root = Path(__file__).resolve().parent.parent
    fixture = root / "perfbench" / "fixtures" / "r3a.json"
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(root / "src"))
        res = subprocess.run(
            [sys.executable, "-m", "cvn.cli", "candidates", str(fixture)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        outs.add(res.stdout)
    assert len(outs) == 1


def test_bad_budget_exits_2(files, capsys):
    assert main(["support", files["a"], files["b"], "--budget", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParamOutOfRange: ")
    assert "Traceback" not in err


def test_budget_zero_exits_3(files, capsys):
    assert main(["support", files["a"], files["b"], "--budget", "0"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["geodesic", "a", "b", "--budget", "1"],
    ["ray-audit", "rose", "--direction", "x", "y", "--steps", "4",
     "--budget", "2"],
])
def test_walker_and_ray_step_budgets_exit_3(files, capsys, argv):
    argv = [files.get(x, x) for x in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_ray_audit_bad_steps_exits_2(files, capsys):
    assert main(["ray-audit", files["rose"], "--direction", "x", "y",
                 "--steps", "-3"]) == 2
    assert capsys.readouterr().err.startswith("ParamOutOfRange: ")


def test_cvn_budget_variable_is_not_read(files):
    # the budget comes from --budget or its default, never the environment
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, CVN_BUDGET="abc", PYTHONPATH=str(root / "src"))
    res = subprocess.run(
        [sys.executable, "-m", "cvn.cli", "support", files["a"], files["b"]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)


@pytest.mark.parametrize("command", ["envelope", "geodesic"])
def test_svg_at_rank3_leaves_no_output(command, tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    fixtures = root / "perfbench" / "fixtures"
    svg, out = tmp_path / "x.svg", tmp_path / "y.json"
    assert main([command, str(fixtures / "r3a.json"),
                 str(fixtures / "r3b.json"),
                 "--svg", str(svg), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Unsupported: ")
    assert not svg.exists() and not out.exists()


_COLD_START = """
import contextlib, io, json, sys
from cvn.cli import main

fx = sys.argv[1]
runs = [
    ["validate", f"{fx}/a.json"],
    ["candidates", f"{fx}/a.json"],
    ["distance", f"{fx}/a.json", f"{fx}/b.json"],
    ["witnesses", f"{fx}/a.json", f"{fx}/b.json"],
    ["envelope", f"{fx}/a.json", f"{fx}/b.json"],
    ["support", f"{fx}/a.json", f"{fx}/b.json"],
    ["geodesic", f"{fx}/a.json", f"{fx}/b.json"],
    ["general-position", f"{fx}/a.json", f"{fx}/b.json"],
    ["ray-audit", f"{fx}/rose.json", "--direction", "x", "y", "--steps", "2"],
    ["verify-appendix", "A1"],
]
seen = {}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[argv[0]] = [code, sorted(m for m in sys.modules
                                  if m.startswith("cvn") or m in
                                  ("dataclasses", "inspect"))]
print(json.dumps(seen))
"""


def test_cold_start_imports():
    # every subcommand runs without dataclasses or inspect, and validate
    # and candidates load none of the geometry layers
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run(
        [sys.executable, "-c", _COLD_START,
         str(root / "perfbench" / "fixtures")],
        env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout)
    assert len(seen) == 10
    for command, (code, modules) in seen.items():
        assert code == 0, command
        assert "dataclasses" not in modules and "inspect" not in modules
    geometry = {"cvn.polytope", "cvn.envelopes", "cvn.geodesics", "cvn.svg"}
    for command in ("validate", "candidates"):
        assert not geometry & set(seen[command][1]), command
    assert geometry <= set(seen["geodesic"][1])
