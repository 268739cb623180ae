"""The four benchmark workloads: inputs, ops, canonical outputs and checks.

Every workload builds its inputs from the seed with public constructors of
``cvn`` only (``cvn.sampling`` is not used, so fixing it cannot change a
workload).  Ops run in rounds; a round is the workload's fixed op mix, and a
run always ends on a round boundary so the mix is the same in every run.

An op is ``Op(key, run, canon, check, collect)``: ``run`` is the timed
call, ``canon`` turns its result into the canonical text that goes into the
digest, ``check`` verifies the result outside the timed region and returns a
list of problems (empty when correct), and ``collect`` gathers what a traced
child process recorded.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
FIXTURES = HERE / "fixtures"


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], list]
    # called outside the timed region with (result, op id) in traced runs
    collect: Callable[[object, int], None] | None = None


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _point(ttype, rng, lo, hi):
    from cvn.graphs import SimplexPoint

    nums = [rng.randint(lo, hi) for _ in ttype.edges]
    total = sum(nums)
    return SimplexPoint(ttype, tuple(Fraction(k, total) for k in nums))


def _pjson(p) -> dict:
    from cvn.graphs import point_to_json

    return point_to_json(p)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _by_length(classes):
    return sorted(classes, key=lambda g: (len(g.rep), g.rep.letters))


def _envelope_problems(a, b, delta, vertices, lam) -> list:
    """Every vertex c that is a point of the space satisfies
    stretch(a,c) * stretch(c,b) = stretch(a,b)."""
    from cvn.errors import NotAForest
    from cvn.graphs import point_from_coords
    from cvn.metric import stretch

    bad = []
    for v in vertices:
        try:
            c = point_from_coords(delta, v)
        except NotAForest:
            continue  # ideal corner: its zero set is not a forest
        if stretch(a, c) * stretch(c, b) != lam:
            bad.append(f"envelope vertex {[str(x) for x in v]} off "
                       f"the geodesic")
    return bad


def random_trivalent_type(rank, rng):
    """A trivalent marked type: blow up the rose at random until every
    vertex has valency three."""
    from cvn.graphs import blow_up_vertex, rose_type

    t = rose_type(rank)
    while True:
        fat = [v for v in t.vertices if t.valency(v) >= 4]
        if not fat:
            return t
        v = rng.choice(fat)
        half = t.half_edges_at(v)
        rng.shuffle(half)
        k = rng.randint(2, len(half) - 2)
        t = blow_up_vertex(t, v, half[:k], half[k:])


def _rank2_builders():
    from cvn.graphs import barbell_point, theta_point, twisted_theta_point

    return theta_point, twisted_theta_point, barbell_point


# ---------------------------------------------------------------------------
# oracle: metric core against the brute-force oracle.
# ---------------------------------------------------------------------------

ORACLE_POOL = 48  # rounds of fresh pairs built in set-up


def oracle_setup(seed: int) -> dict:
    rng = random.Random(f"oracle-{seed}")
    r2_types = [build(1, 1, 1).ttype for build in _rank2_builders()]
    rounds = []
    for _ in range(ORACLE_POOL):
        r2 = (_point(rng.choice(r2_types), rng, 1, 12),
              _point(rng.choice(r2_types), rng, 1, 12))
        r3 = (_point(random_trivalent_type(3, rng), rng, 1, 12),
              _point(random_trivalent_type(3, rng), rng, 1, 12))
        r2b = (_point(rng.choice(r2_types), rng, 1, 12),
               _point(rng.choice(r2_types), rng, 1, 12))
        rounds.append(((r2, 8), (r2b, 8), (r3, 6)))
    return {"rounds": rounds}


def _oracle_op(key, a, b, max_len) -> Op:
    from cvn.metric import brute_force_lambda, distance, stretch_report

    def run():
        sym = distance(a, b, "symmetric")
        rep = stretch_report(a, b)
        return sym, rep, brute_force_lambda(a, b, max_len)

    def canon(res):
        sym, rep, (lam_bf, argmax) = res
        return _dumps({
            "a": _pjson(a), "b": _pjson(b), "sym": str(sym.lam),
            "lam": str(rep.lam),
            "witnesses": [str(g) for g in _by_length(rep.candidate_witnesses)],
            "brute": str(lam_bf), "argmax": [str(g) for g in argmax]})

    def check(res):
        sym, rep, (lam_bf, argmax) = res
        bad = []
        if rep.lam != lam_bf:
            bad.append(f"lambda {rep.lam} != brute force {lam_bf}")
        if not rep.candidate_witnesses <= set(argmax):
            bad.append("a candidate witness is not a brute-force argmax")
        if sym.lam < 1:
            bad.append(f"symmetric stretch {sym.lam} < 1")
        return bad

    return Op(key, run, canon, check)


def oracle_round(state, r: int) -> list[Op]:
    rounds = state["rounds"]
    k = r % len(rounds)
    return [_oracle_op(f"{k}.{i}", a, b, max_len)
            for i, ((a, b), max_len) in enumerate(rounds[k])]


def oracle_inputs(state) -> str:
    return sha(_dumps([[[_pjson(p) for p in pair], n]
                       for rnd in state["rounds"] for pair, n in rnd]))


# ---------------------------------------------------------------------------
# geodesic-r2: envelopes, SVG and the geodesic walker at rank 2.
# ---------------------------------------------------------------------------

GEODESIC_POOL = 16


def geodesic_setup(seed: int) -> dict:
    from cvn.geodesics import general_position

    rng = random.Random(f"geodesic-r2-{seed}")
    builders = _rank2_builders()
    rounds = []
    for _ in range(GEODESIC_POOL):
        pairs = []
        for build_a in builders:
            for build_b in builders:
                for _ in range(100):
                    a = build_a(*(rng.randint(4, 8) for _ in range(3)))
                    b = build_b(*(rng.randint(4, 8) for _ in range(3)))
                    if general_position(a, b)[0]:
                        break
                else:
                    raise RuntimeError("no pair in general position")
                pairs.append((a, b))
        rounds.append(pairs)
    return {"rounds": rounds}


def _geodesic_op(key, a, b) -> Op:
    from cvn.envelopes import support
    from cvn.geodesics import is_rigid, piecewise_rigid_geodesic
    from cvn.metric import same_point, stretch
    from cvn.svg import envelope_vertices_json, render_envelope_svg

    def run():
        env = envelope_vertices_json(a, b)
        svg = render_envelope_svg(a, b)
        path = piecewise_rigid_geodesic(a, b)
        return env, svg, path, is_rigid(path)

    def canon(res):
        env, svg, path, rigid = res
        return _dumps({
            "a": _pjson(a), "b": _pjson(b), "envelope": env,
            "svg": sha(svg),
            "breakpoints": [_pjson(p) for p in path.breakpoints],
            "witnesses": [sorted(str(g) for g in w)
                          for w in path.segment_witnesses],
            "rigid_segments": list(path.rigid_segments), "rigid": rigid})

    def check(res):
        env, svg, path, rigid = res
        lam = stretch(a, b)
        bad = []
        pts = path.breakpoints
        prod = Fraction(1)
        for p, q in zip(pts, pts[1:]):
            prod *= stretch(p, q)
        if prod != lam:
            bad.append(f"breakpoint stretches multiply to {prod}, not {lam}")
        if pts[0] is not a or not same_point(pts[-1], b):
            bad.append("path does not run from a to b")
        maximal = [t for t in support(a, b).simplices if len(t.edges) == 3]
        if [[e.id for e in t.edges] for t in maximal] != \
                [s["edges"] for s in env]:
            bad.append("envelope slices do not match the support")
        for t, s in zip(maximal, env):
            verts = [tuple(Fraction(x) for x in v) for v in s["vertices"]]
            bad += _envelope_problems(a, b, t, verts, lam)
        if not svg.startswith("<?xml"):
            bad.append("svg output is not an SVG document")
        return bad

    return Op(key, run, canon, check)


def geodesic_round(state, r: int) -> list[Op]:
    rounds = state["rounds"]
    k = r % len(rounds)
    return [_geodesic_op(f"{k}.{i}", a, b)
            for i, (a, b) in enumerate(rounds[k])]


def geodesic_inputs(state) -> str:
    return sha(_dumps([[_pjson(p) for p in pair]
                       for rnd in state["rounds"] for pair in rnd]))


# ---------------------------------------------------------------------------
# rank3: the polytope layer at ambient dimension 6.
# ---------------------------------------------------------------------------

# one fresh pair per chart of a sweep, so a run averages over many pairs
RANK3_PAIRS = 105
# one vertex enumeration (about 4 s) per this many sweeps (about 5 s each),
# so that the sweep ops, whose costs spread widely from pair to pair, are
# sampled often enough for a steady median
RANK3_VERTEX_EVERY = 2
# the slice whose vertices are enumerated sits in the chart of a; drawing a
# from the types with the fewest candidates (7) gives the smallest star
# system, so one dimension-6 vertex enumeration fits in a run
RANK3_SOURCE_CANDIDATES = 7


def chart_key(t, classes) -> tuple:
    """Canonical sort key of a marked type, independent of how it was
    produced: the translation lengths of a fixed list of classes at the
    uniform metric, then the JSON of that uniform point as a tie-break."""
    from cvn.candidates import edge_counts
    from cvn.graphs import SimplexPoint

    n = len(t.edges)
    uniform = SimplexPoint(t, (Fraction(1, n),) * n)
    return (tuple(sum(edge_counts(t, g)) for g in classes),
            _dumps(_pjson(uniform)))


def rank3_setup(seed: int) -> dict:
    from cvn.candidates import enumerate_candidates
    from cvn.graphs import resolutions, rose_type
    from cvn.words import conjugacy_classes_up_to

    classes = list(conjugacy_classes_up_to(3, 3))
    charts = sorted(resolutions(rose_type(3)),
                    key=lambda t: chart_key(t, classes))
    sources = [t for t in charts
               if len(enumerate_candidates(t)) == RANK3_SOURCE_CANDIDATES]
    rng = random.Random(f"rank3-{seed}")
    pairs = [(_point(rng.choice(sources), rng, 4, 8),
              _point(rng.choice(charts), rng, 4, 8))
             for _ in range(RANK3_PAIRS)]
    return {"charts": charts, "pairs": pairs}


def _rank3_vertex_op(key, a, b) -> Op:
    from cvn.envelopes import envelope_slice
    from cvn.metric import stretch

    def run():
        poly = envelope_slice(a, b, a.ttype).polytope
        return poly.vertices, poly.skeleton_edges

    def canon(res):
        vs, edges = res
        return _dumps({"a": _pjson(a), "b": _pjson(b),
                       "vertices": [[str(x) for x in v] for v in vs],
                       "edges": [list(e) for e in edges]})

    def check(res):
        vs, edges = res
        if not vs:
            return ["the slice through a has no vertices"]
        return _envelope_problems(a, b, a.ttype, vs, stretch(a, b))

    return Op(key, run, canon, check)


def _rank3_sweep_op(key, a, b, chart) -> Op:
    from cvn.envelopes import envelope_slice

    def run():
        return envelope_slice(a, b, chart).polytope.is_feasible()

    return Op(key, run, lambda res: str(int(res)), lambda res: [])


def rank3_round(state, r: int) -> list[Op]:
    """A sweep over all trivalent charts with the pairs rotating across
    charts; every RANK3_VERTEX_EVERY-th round, round 0 first, begins with
    one vertex enumeration."""
    pairs = state["pairs"]
    k = r % len(pairs)
    ops = []
    if r % RANK3_VERTEX_EVERY == 0:
        ops.append(_rank3_vertex_op(f"{r}.v{k}", *pairs[k]))
    for j, chart in enumerate(state["charts"]):
        i = (r + j) % len(pairs)
        ops.append(_rank3_sweep_op(f"{r}.s{j}.{i}", *pairs[i], chart))
    return ops


def rank3_inputs(state) -> str:
    return sha(_dumps({"pairs": [[_pjson(p) for p in pair]
                                 for pair in state["pairs"]],
                       "charts": [_dumps([[e.id, e.u, e.v,
                                           list(e.label.letters)]
                                          for e in t.edges])
                                  for t in state["charts"]]}))


# ---------------------------------------------------------------------------
# cli-r2: one `python -m cvn.cli` process per op on checked-in fixtures.
# ---------------------------------------------------------------------------

# (name, argv with {fixture} placeholders and {out}/ side files)
CLI_OPS = (
    ("validate-theta", ["validate", "{a}"]),
    ("validate-barbell", ["validate", "{bar}"]),
    ("candidates-twisted", ["candidates", "{tw}"]),
    ("distance-sym", ["distance", "{a}", "{b}", "--mode", "symmetric"]),
    ("distance-tw-bar", ["distance", "{tw}", "{bar}"]),
    ("witnesses-theta", ["witnesses", "{a}", "{b}"]),
    ("witnesses-bar-tw", ["witnesses", "{bar}", "{tw}"]),
    ("envelope-theta", ["envelope", "{a}", "{b}", "--json",
                        "{out}/envelope-theta.json", "--svg",
                        "{out}/envelope-theta.svg"]),
    ("envelope-twisted", ["envelope", "{a}", "{tw}", "--svg",
                          "{out}/envelope-twisted.svg"]),
    ("support-theta", ["support", "{a}", "{b}"]),
    ("geodesic-theta", ["geodesic", "{a}", "{b}", "--json",
                        "{out}/geodesic-theta.json", "--svg",
                        "{out}/geodesic-theta.svg"]),
    ("general-position", ["general-position", "{a}", "{b}"]),
    ("ray-audit", ["ray-audit", "{rose}", "--direction", "x", "y",
                   "--steps", "4"]),
    ("verify-A1", ["verify-appendix", "A1"]),
    ("verify-A2", ["verify-appendix", "A2"]),
    ("verify-R2i", ["verify-appendix", "R2i"]),
    ("validate-r3", ["validate", "{r3a}"]),
    ("candidates-r3", ["candidates", "{r3a}"]),
    ("distance-r3", ["distance", "{r3a}", "{r3b}", "--mode", "symmetric"]),
    ("witnesses-r3", ["witnesses", "{r3a}", "{r3b}"]),
)
CLI_EXPECTED_EXIT = 0
CLI_TIMEOUT_S = 120


def cli_setup(seed: int) -> dict:
    from cvn.graphs import graph_from_json, validate_and_normalize

    files = {}
    for path in sorted(FIXTURES.glob("*.json")):
        validate_and_normalize(graph_from_json(path.read_text()))
        files[path.stem] = str(path.relative_to(ROOT))
    out = OUT / "cli"
    out.mkdir(parents=True, exist_ok=True)
    files["out"] = str(out.relative_to(ROOT))
    ops = [(name, [arg.format(**files) for arg in argv])
           for name, argv in CLI_OPS]
    golden = json.loads((HERE / "golden.json").read_text())
    return {"ops": ops, "seed": seed,
            "golden": golden.get("cli_outputs", {}), "variants": {},
            "tracer": None, "import_s": [], "cache": {}}


def cli_command(argv, traced_spans=None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "cvn.cli", *argv]
    return [sys.executable, str(HERE / "launch.py"), str(traced_spans),
            *argv]


def cli_env() -> dict:
    import os

    env = {k: v for k, v in os.environ.items() if k != "CVN_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _side_files(argv) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--json", "--svg")]


def _cli_op(state, name, argv, spans: Path) -> Op:
    known = state["golden"].get(name, [])
    traced = state["tracer"] is not None

    def run():
        for f in _side_files(argv):
            (ROOT / f).unlink(missing_ok=True)
        proc = subprocess.run(cli_command(argv, spans if traced else None),
                              cwd=ROOT, env=cli_env(), capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        side = {f: sha((ROOT / f).read_bytes())
                for f in _side_files(argv) if (ROOT / f).exists()}
        return proc, side

    def outputs(res):
        proc, side = res
        return _dumps({"exit": proc.returncode, "stdout": sha(proc.stdout),
                       "files": side})

    def canon(res):
        # outputs known to be equivalent map to the first recorded one
        text = outputs(res)
        return known[0] if text in known else text

    def check(res):
        proc, _ = res
        text = outputs(res)
        bad = []
        if proc.returncode != CLI_EXPECTED_EXIT:
            bad.append(f"exit code {proc.returncode}, expected "
                       f"{CLI_EXPECTED_EXIT}: {proc.stderr.decode()[-300:]}")
        else:
            json.loads(proc.stdout)
        if text not in known:
            bad.append(f"output {text} is not a golden output")
        elif len(known) > 1:
            state["variants"][name] = len(known)
        return bad

    def collect(res, op_id):
        data = json.loads(spans.read_text())
        spans.unlink()
        state["tracer"].merge(data["spans"], op_id)
        state["import_s"].append(data["import_s"])
        for k, (hits, misses) in data["cache"].items():
            h, m = state["cache"].get(k, (0, 0))
            state["cache"][k] = (h + hits, m + misses)
        if data["leftover"]:
            raise RuntimeError(f"wrappers left behind: {data['leftover']}")

    return Op(name, run, canon, check, collect if traced else None)


def cli_round(state, r: int) -> list[Op]:
    ops = list(state["ops"])
    random.Random(f"cli-r2-{state['seed']}-{r}").shuffle(ops)
    return [_cli_op(state, name, argv, OUT / f"spans-{r}-{name}.json")
            for name, argv in ops]


def cli_inputs(state) -> str:
    return sha(_dumps([[name, argv] for name, argv in state["ops"]]))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    round: Callable[..., list]
    inputs: Callable[[dict], str]
    # rounds every pass runs at least; the digest covers exactly these
    digest_rounds: int
    # seconds one round takes at the quiet reference speed (see README.md)
    round_s: float
    # a pass lasts this share of --seconds, so that the whole set of runs
    # fits its time while each workload gets the rounds its figures need
    # to settle (README.md, "Run length")
    share: float = 1.0
    # set-ups per run, each in a fresh process; setup_s is their median
    setup_samples: int = 5
    # digest lines are sorted when the op order within a round is seeded
    sort_digest: bool = False
    in_process: bool = True


WORKLOADS = {
    "cli-r2": Workload("cli-r2", cli_setup, cli_round, cli_inputs, 1, 2.4,
                       share=0.8, sort_digest=True, in_process=False),
    "oracle": Workload("oracle", oracle_setup, oracle_round, oracle_inputs,
                       3, 1.2, share=1.1),
    "geodesic-r2": Workload("geodesic-r2", geodesic_setup, geodesic_round,
                            geodesic_inputs, 2, 0.8, share=0.55),
    # round_s is the mean of a round with and one without a vertex
    # enumeration
    "rank3": Workload("rank3", rank3_setup, rank3_round, rank3_inputs, 1,
                      6.7, share=1.1, setup_samples=3),
}
