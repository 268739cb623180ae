"""The cvn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then times whole rounds of its
ops, closed loop with one client.  A pass runs as many rounds as take
``share`` x S seconds at the quiet reference speed (see ``round_s`` and
``share`` in workloads.py) and starts from empty program caches.  Every
time is normalised to that speed by the host-speed probes of speed.py,
which keeps the slow spells of a shared machine out of the figures.  With
``--trace 0`` one pass is timed.  With ``--trace 1`` two passes of half
that length run: the first untraced, the second with the tracing wrappers
installed, after rebuilding the inputs under tracing; the ratio of the two
throughputs is the tracing overhead.

Every result is checked outside the timed region, the traced and untraced
passes must give the same canonical outputs, and the digest of the first
rounds must match the golden digest where one is recorded.  Each metric is
printed by name with its unit; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A wrong answer or a digest mismatch exits with code 1.
"""

import time

T0 = time.perf_counter()

import speed  # noqa: E402
from speed import Sampler  # noqa: E402

# probes the host's speed while main() runs
SAMPLER = Sampler()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_PERCENTILE = 90
TAIL_MIN_ABOVE = 10  # samples a tail percentile needs beyond it


def percentile(sorted_vals, p):
    """Linear interpolation between closest ranks."""
    pos = p / 100 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """p90, or the highest percentile with at least ten samples above it."""
    for p in range(TAIL_PERCENTILE, 0, -1):
        if n - 1 - int(p / 100 * (n - 1)) >= TAIL_MIN_ABOVE:
            return p
    raise ValueError(f"{n} samples leave no percentile with "
                     f"{TAIL_MIN_ABOVE} samples above it")


class Pass:
    """Timings and results of one pass over whole rounds of ops."""

    def __init__(self):
        self.marks: list[tuple] = []  # (start, end) sampler marks per op
        self.results: list = []  # (op, result or error, op id, round)
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.marks)

    @property
    def latencies(self) -> list[float]:
        """Op times at the quiet reference speed (see speed.py)."""
        return [SAMPLER.normalised(a, b) for a, b in self.marks]

    @property
    def raw_latencies(self) -> list[float]:
        return [SAMPLER.raw(a, b) for a, b in self.marks]

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)


def rounds_for(wl, seconds: float) -> int:
    """Rounds per pass: a fixed count for a given run length, so a slow
    spell of the machine lengthens the run instead of changing its ops."""
    return max(wl.digest_rounds, round(seconds * wl.share / wl.round_s))


def run_pass(wl, state, rounds: int, tracer=None) -> Pass:
    """Time ``rounds`` rounds of ops, starting from empty program caches."""
    from cvn.errors import CvnError
    from tracer import clear_caches

    clear_caches()
    ps = Pass()
    for r in range(rounds):
        for op in wl.round(state, r):
            op_id = ps.attempted
            if tracer is not None:
                tracer.current_op = op_id
            start = SAMPLER.mark()
            try:
                res = op.run()
            except CvnError as exc:
                res = exc
                ps.failed += 1
            ps.marks.append((start, SAMPLER.mark()))
            ps.results.append((op, res, op_id, r))
    if tracer is not None:
        tracer.current_op = -1
    return ps


def finish_pass(wl, ps: Pass):
    """Outside the timed region: collect traces, check every result and
    return (problems, canonical output per op, digest of the digest
    rounds)."""
    from cvn.errors import CvnError
    from workloads import sha

    problems = []
    texts = []
    for op, res, op_id, r in ps.results:
        if isinstance(res, CvnError):
            text = f"failed {type(res).__name__}"
        else:
            if op.collect is not None:
                op.collect(res, op_id)
            text = op.canon(res)
            problems += [f"{op.key}: {p}" for p in op.check(res)]
        texts.append(f"{op.key}\t{text}\n")
    n = sum(1 for *_, r in ps.results if r < wl.digest_rounds)
    lines = sorted(texts[:n]) if wl.sort_digest else texts[:n]
    return problems, texts, sha("".join(lines))


def compare_passes(first, second) -> list:
    _, texts1, _ = first
    _, texts2, _ = second
    if texts1 == texts2:
        return []
    bad = [a.split("\t")[0] for a, b in zip(texts1, texts2) if a != b]
    return [f"two passes disagree on {bad[:5]}"]


def golden_problem(wl, seed, digest):
    golden = json.loads((HERE / "golden.json").read_text())
    golden = golden["digests"].get(wl.name, {})
    want = golden.get("*", golden.get(str(seed)))
    if want is None:
        return None, "no golden digest for this seed"
    if want != digest:
        return f"digest {digest} != golden {want}", "golden mismatch"
    return None, "matches golden"


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def spec_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(problems, *states) -> None:
    variants = {}
    for st in states:
        variants.update(st.get("variants", {}))
    for name, n in sorted(variants.items()):
        print(f"  KNOWN DEFECT: {name} gave one of {n} golden outputs; its "
              f"stdout depends on the hash seed (see golden.json notes)")
    for msg in problems:
        print(f"  WRONG: {msg}", file=sys.stderr)


def emit(correct, attempted, failed, metrics, kind):
    units = spec_units(kind)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json {kind}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def main_workload(args) -> int:
    os.environ.pop("CVN_BUDGET", None)  # the default budget, always
    # one CPU for this process and the CLI children it starts, so that the
    # speed probes measure the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import OUT, WORKLOADS

    wl = WORKLOADS[args.workload]
    t = time.perf_counter()
    import cvn.cli  # noqa: F401  (every layer module)

    import_s = time.perf_counter() - t
    if Path(cvn.__file__).resolve().parent != ROOT / "src" / "cvn":
        raise ImportError(f"cvn imported from {cvn.__file__}, not from "
                          f"{ROOT / 'src'}")
    state = wl.setup(args.seed)
    setup_s = SAMPLER.normalised((T0, 0.0), SAMPLER.mark())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    OUT.mkdir(exist_ok=True)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    if args.trace:
        return traced_run(args, wl, state, import_s)

    setups = [setup_s] + [child_setup_s(args)
                          for _ in range(wl.setup_samples - 1)]
    rounds = rounds_for(wl, args.seconds)
    ps = run_pass(wl, state, rounds)
    problems, _, digest = finish_pass(wl, ps)
    bad, note = golden_problem(wl, args.seed, digest)
    problems += [bad] if bad else []
    lat = sorted(t * 1000 for t in ps.latencies)
    raw = sorted(t * 1000 for t in ps.raw_latencies)
    p = tail_percentile(len(lat))
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1000 * len(lat) / sum(lat),
        "op_p50_ms": percentile(lat, 50),
        "op_p90_ms": percentile(lat, p),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    attempted, failed = ps.attempted, ps.failed
    print(f"  {rounds} rounds, {attempted} ops "
          f"({failed} of {attempted} failed, failed_frac "
          f"{failed / attempted:.4g}); op_p90_ms is p{p} over {len(lat)} "
          f"samples")
    print(f"  set-up samples: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"  wall clock, not normalised (informational): "
          f"{1000 * len(raw) / sum(raw):.4g} ops/s, p50 "
          f"{percentile(raw, 50):.4g} ms, p{p} {percentile(raw, p):.4g} ms; "
          f"host slowdown median "
          f"{statistics.median(SAMPLER.probe_s) / speed.PROBE_REF_S:.3g}x "
          f"over {len(SAMPLER.probe_s)} probes")
    print(f"  digest {digest} ({note}); src/ lines {src_lines()} "
          f"(informational)")
    report(problems, state)
    emit(not problems, attempted, failed, metrics, "end_to_end")
    return 1 if problems else 0


def traced_run(args, wl, state, import_s) -> int:
    import tracer as tr
    from workloads import OUT

    # two passes, each half the length of an untraced run
    rounds = rounds_for(wl, args.seconds / 2)
    plain = run_pass(wl, state, rounds)
    done_plain = finish_pass(wl, plain)

    spans = tr.Tracer()
    with tr.Installed(spans):
        tr.clear_caches()
        state_t = wl.setup(args.seed)
        if not wl.in_process:
            state_t["tracer"] = spans
        traced = run_pass(wl, state_t, rounds, tracer=spans)
        cache = tr.cache_stats()
    problems = [f"wrappers left installed: {name}"
                for name in tr.leftover_wrappers()]
    if wl.inputs(state_t) != wl.inputs(state):
        problems.append("inputs rebuilt under tracing differ")
    done_traced = finish_pass(wl, traced)
    problems += done_plain[0] + done_traced[0]
    problems += compare_passes(done_plain, done_traced)
    bad, note = golden_problem(wl, args.seed, done_plain[2])
    problems += [bad] if bad else []
    if not wl.in_process:
        cache = state_t["cache"]
        import_s = statistics.median(state_t["import_s"])
    metrics = tr.layer_metrics(spans, cache, import_s)
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
    out = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    spans.write(out)
    print(f"  {rounds} rounds, {plain.attempted} ops untraced then "
          f"traced; {len(spans)} spans written to {out.relative_to(ROOT)}")
    print(f"  digest {done_plain[2]} ({note}); traced digest "
          f"{'equal' if done_traced[2] == done_plain[2] else 'DIFFERENT'}")
    report(problems, state, state_t)
    emit(not problems, plain.attempted + traced.attempted,
         plain.failed + traced.failed, metrics, "per_layer")
    return 1 if problems else 0


def main_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = 1
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1]) if lines and \
            lines[-1].startswith("{") else None
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return main_all(args)
    with SAMPLER:
        return main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
