"""Command line front end.

Reads marked graphs from JSON files, runs the library, prints JSON with
every number as an exact rational string plus a decimal approximation.

Exit codes: 0 success, 1 I/O or parse failure, 2 domain validation
failure, 3 computation budget exceeded.  Only reading files and parsing
graphs and words counts as parsing: a ValueError or KeyError raised by a
computation is a fault of the program and is not reported as bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import BudgetExceeded, CvnError, ParamOutOfRange
from .graphs import (
    _exact,
    _json_int,
    _json_length,
    graph_from_json,
    is_connected,
    point_to_json,
    rose_type,
    theta_point,
    twisted_theta_point,
    validate_and_normalize,
)
from .words import ConjClass, class_order, conj_class

# Each subcommand imports the layers it uses when it runs, so a process
# compiles and loads only those: validate needs graphs and words alone,
# candidates adds cvn.candidates, and neither loads polytope, envelopes,
# geodesics or svg.  The value classes are plain classes on cvn.values,
# so no subcommand imports dataclasses (nor inspect, ast and dis with it).

_NAMES = "xyzuvw"


def _rat(q: Fraction) -> dict:
    """q as an exact string and a float; the float is None past float
    range, where float(q) raises OverflowError."""
    try:
        approx = float(q)
    except OverflowError:
        approx = None
    return {"exact": _exact(q), "approx": approx}


def parse_word(text: str, rank: int) -> ConjClass:
    """Accept 'x y^-1', 'xy^-1' or a JSON integer list like [1,-2]."""
    text = text.strip()
    if text.startswith("["):
        return conj_class([_json_int(a, "direction letter")
                           for a in json.loads(text)], rank)
    letters = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _NAMES:
            raise ValueError(f"unknown generator {ch!r}")
        val = _NAMES.index(ch) + 1
        i += 1
        if text[i:i + 3] == "^-1":
            val = -val
            i += 3
        letters.append(val)
    return conj_class(letters, rank)


class _InputError(Exception):
    """A file, graph or word on the command line that cannot be read."""


@contextmanager
def _parsing():
    """The parse stage: its read and parse failures become _InputError,
    while domain errors (CvnError) pass through unchanged."""
    try:
        yield
    except (OSError, ArithmeticError, KeyError, ValueError) as exc:
        raise _InputError(exc) from exc


def _load_point(path: str):
    with _parsing(), open(path) as fh:
        return validate_and_normalize(graph_from_json(fh.read()))


def _separating_edges(p) -> list[str]:
    t = p.ttype
    return [e.id for e in t.edges if not e.is_loop()
            and not is_connected(t.vertices, [f for f in t.edges if f != e])]


def _emit(obj, json_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")


def _write(path, text) -> None:
    """Write text to the file at path, when both are given."""
    if path and text is not None:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    p = _load_point(args.graph)
    if args.reduced:
        sep = _separating_edges(p)
        if sep:
            print(f"separating edge: {', '.join(sep)}", file=sys.stderr)
            return 2
    _emit({"ok": True, "normalized": point_to_json(p)})
    return 0


def cmd_candidates(args) -> int:
    from .candidates import enumerate_candidates

    p = _load_point(args.graph)
    out = []
    for c in enumerate_candidates(p.ttype):
        out.append({"word": str(c.word),
                    "letters": list(c.word.rep.letters),
                    "kind": c.kind})
    _emit({"candidates": out})
    return 0


def cmd_distance(args) -> int:
    from .metric import distance

    a = _load_point(args.a)
    b = _load_point(args.b)
    d = distance(a, b, args.mode)
    _emit({"mode": d.mode, "stretch": _rat(d.lam), "log": d.log})
    return 0


def cmd_witnesses(args) -> int:
    from .metric import stretch_report

    a = _load_point(args.a)
    b = _load_point(args.b)
    rep = stretch_report(a, b)
    cw = sorted(rep.candidate_witnesses, key=class_order)
    _emit({
        "stretch": _rat(rep.lam),
        "witnesses": [{"word": str(g), "letters": list(g.rep.letters)}
                      for g in cw],
        "per_candidate": {str(g): _rat(r)
                          for g, r in sorted(rep.per_candidate.items(),
                                             key=lambda kv: str(kv[0]))},
    })
    return 0


def cmd_envelope(args) -> int:
    from .envelopes import reference_witness
    from .metric import stretch
    from .svg import envelope_vertices_json, render_envelope_svg

    a = _load_point(args.a)
    b = _load_point(args.b)
    # the picture is made first: a rank it cannot draw fails before any
    # output is printed or any file is opened
    svg = render_envelope_svg(a, b, budget=args.budget) if args.svg else None
    slices = envelope_vertices_json(a, b, budget=args.budget)
    obj = {"stretch": _rat(stretch(a, b)),
           "witness": str(reference_witness(a, b)),
           "slices": slices}
    _emit(obj, args.json)
    _write(args.svg, svg)
    return 0


def cmd_support(args) -> int:
    from .envelopes import support

    a = _load_point(args.a)
    b = _load_point(args.b)
    sup = support(a, b, args.budget)
    _emit({"simplices": [
        {"edges": [e.id for e in t.edges],
         "labels": {e.id: list(e.label.letters) for e in t.non_tree_edges()}}
        for t in sup.simplices]})
    return 0


def cmd_geodesic(args) -> int:
    from .geodesics import is_rigid, piecewise_rigid_geodesic
    from .metric import stretch
    from .svg import render_envelope_svg

    a = _load_point(args.a)
    b = _load_point(args.b)
    path = piecewise_rigid_geodesic(a, b, budget=args.budget)
    rigid = is_rigid(path, budget=args.budget)
    obj = {
        "breakpoints": [point_to_json(p) for p in path.breakpoints],
        "segment_witnesses": [sorted(str(g) for g in w)
                              for w in path.segment_witnesses],
        "rigid_segments": list(path.rigid_segments),
        "rigid": rigid,
        "stretch": _rat(stretch(a, b)),
    }
    svg = (render_envelope_svg(a, b, path=path.breakpoints,
                               budget=args.budget) if args.svg else None)
    _emit(obj, args.json)
    _write(args.svg, svg)
    return 0


def cmd_general_position(args) -> int:
    from .geodesics import general_position

    a = _load_point(args.a)
    b = _load_point(args.b)
    ok, cert = general_position(a, b, via=args.via)
    obj = {"general_position": ok}
    if cert is not None:
        obj["witness"] = str(cert.gamma)
        obj["strict_constraints"] = [list(s) for s in cert.strict]
    _emit(obj)
    return 0


def cmd_ray_audit(args) -> int:
    from .geodesics import ray_dimension_audit

    a = _load_point(args.graph)
    with _parsing():
        direction = [parse_word(w, a.ttype.rank) for w in args.direction]
    audit = ray_dimension_audit(a, direction, args.steps,
                                budget=args.budget)
    obj = {
        "points": [point_to_json(p) for p in audit.points],
        "crossings": list(audit.crossings),
        "dims": [{"i": i, "j": j, "dim": d}
                 for (i, j), d in sorted(audit.dims.items())],
        "stable_from": audit.stable_from,
    }
    _emit(obj, args.json)
    return 0


def _frac(text: str) -> Fraction:
    """A verify-appendix parameter, of the size a graph length may have."""
    try:
        return _json_length(text, "parameter")
    except (ArithmeticError, ValueError) as exc:  # such as 1/0
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _verify_a1(a, delta, eps):
    from .envelopes import envelope_slice
    from .metric import conj_length, stretch_report
    from .polytope import feasible

    if not (0 < eps and 0 < delta < a * eps and a + delta + eps < 1):
        raise ParamOutOfRange("need 0 < delta < a*eps and valid lengths")
    A = theta_point(a + delta, eps, 1 - (a + delta) - eps)
    C = twisted_theta_point(a - delta, eps, 1 - (a - delta) - eps)
    rank2 = 2
    xy_inv = conj_class([1, -2], rank2)
    xy = conj_class([1, 2], rank2)
    cw_ac = stretch_report(A, C).candidate_witnesses
    cw_ca = stretch_report(C, A).candidate_witnesses
    rose = rose_type(2)
    joint = (envelope_slice(A, C, rose).polytope.halfspaces
             + envelope_slice(C, A, rose).polytope.halfspaces)
    both_ways = feasible(joint, 2)
    return {
        "ratio_x": _rat(conj_length(A, conj_class([1], 2))
                        / conj_length(C, conj_class([1], 2))),
        "ratio_xy": _rat(conj_length(A, xy) / conj_length(C, xy)),
        "checks": {
            "cw_a_to_c_is_xy_inverse": cw_ac == frozenset({xy_inv}),
            "cw_c_to_a_is_xy": cw_ca == frozenset({xy}),
            "no_common_rose_point": not both_ways,
        },
    }


def _verify_a2(a, b, c, d):
    from .geodesics import on_geodesic
    from .graphs import barbell_point, rose_point

    if not (0 < a and 0 < b and a + b < 1 and 0 < c and 0 < d
            and c + d < 1):
        raise ParamOutOfRange("lengths must be positive and sum below 1")
    if a / (c + d) > (1 - a - b) / (1 - c):
        raise ParamOutOfRange("parameters fall in the mirrored branch; "
                              "swap the roles of the two loops")
    A = barbell_point(a, b, 1 - a - b)
    C = twisted_theta_point(c, d, 1 - c - d)
    lo = a / (1 - b)
    hi = (c + d) / (1 + d)
    nonempty = lo <= hi
    result = {"interval": [_rat(lo), _rat(hi)],
              "checks": {"interval_nonempty": nonempty}}
    if nonempty:
        alpha = (lo + hi) / 2
        B = rose_point([alpha, 1 - alpha])
        result["midpoint"] = _rat(alpha)
        result["checks"]["forward"] = on_geodesic(A, B, C)
        result["checks"]["backward"] = on_geodesic(C, B, A)
    return result


def _verify_r2i():
    from .geodesics import check_gluing
    from .metric import stretch, stretch_report

    A = theta_point(1, 1, 1)
    B = theta_point(2, 1, 1)
    C = theta_point(1, Fraction(1, 3), 1)
    x = conj_class([1], 2)
    y = conj_class([2], 2)
    xy_inv = conj_class([1, -2], 2)
    w_ab = stretch_report(A, B).candidate_witnesses
    w_bc = stretch_report(B, C).candidate_witnesses
    w_ca = stretch_report(C, A).candidate_witnesses
    return {
        "stretches": {"a_to_b": _rat(stretch(A, B)),
                      "b_to_a": _rat(stretch(B, A))},
        "witness_sets": {"a_b": sorted(str(g) for g in w_ab),
                         "b_c": sorted(str(g) for g in w_bc),
                         "c_a": sorted(str(g) for g in w_ca)},
        "checks": {
            "witnesses_a_b": {x, xy_inv} <= w_ab,
            "witnesses_b_c": {y, xy_inv} <= w_bc,
            "witnesses_c_a": {x, y} <= w_ca,
            "glue_at_b": bool(check_gluing(A, B, C)),
            "glue_at_c": bool(check_gluing(B, C, A)),
            "glue_at_a": bool(check_gluing(C, A, B)),
        },
    }


# each verify-appendix scenario: its function, and the parameters it
# reads with their defaults; each parameter is an option of the command
_SCENARIOS = {
    "A1": (_verify_a1, {"a": Fraction(1, 2), "delta": Fraction(1, 100),
                        "eps": Fraction(1, 10)}),
    "A2": (_verify_a2, {"a": Fraction(1, 4), "b": Fraction(1, 4),
                        "c": Fraction(3, 10), "d": Fraction(1, 5)}),
    "R2i": (_verify_r2i, {}),
}
_PARAMETERS = sorted({name for _, defaults in _SCENARIOS.values()
                      for name in defaults})


def cmd_verify_appendix(args) -> int:
    verify, defaults = _SCENARIOS[args.which]
    params = dict(defaults)
    for name in _PARAMETERS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in defaults:
            raise _InputError(f"verify-appendix {args.which} does not "
                              f"read --{name}")
        params[name] = value
    result = {"scenario": args.which, **verify(**params)}
    if params:
        result["params"] = {k: _rat(v) for k, v in params.items()}
    result["pass"] = all(result["checks"].values())
    _emit(result, args.json)
    return 0 if result["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cvn",
        description="Exact computations in rank n Outer Space with the "
                    "asymmetric Lipschitz metric.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a marked graph file")
    p.add_argument("graph")
    p.add_argument("--reduced", action="store_true",
                   help="also reject separating edges")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("candidates", help="list candidate loops")
    p.add_argument("graph")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("distance", help="one sided or symmetrized distance")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", default="right",
                   choices=["right", "left", "symmetric"])
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("witnesses", help="maximally stretched candidates")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_witnesses)

    p = sub.add_parser("envelope", help="envelope polytope of a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--svg")
    p.add_argument("--json")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("support", help="simplices meeting the envelope")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("geodesic", help="piecewise rigid geodesic")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--svg")
    p.add_argument("--json")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("general-position", help="general position test")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--via", default="out", choices=["out", "in"])
    p.set_defaults(func=cmd_general_position)

    p = sub.add_parser("ray-audit",
                       help="walk an out-envelope ray and record "
                            "envelope dimensions")
    p.add_argument("graph")
    p.add_argument("--direction", nargs="+", required=True,
                   help="words such as x y or 'xy^-1'")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--json")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_ray_audit)

    p = sub.add_parser("verify-appendix",
                       help="re-run a worked scenario and report pass/fail")
    p.add_argument("which", choices=list(_SCENARIOS))
    for name in _PARAMETERS:
        p.add_argument(f"--{name}", type=_frac)
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify_appendix)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except CvnError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
