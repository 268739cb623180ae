"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

They check the self-time arithmetic on a synthetic span tree, that traced
and untraced runs give identical digests, that the tracer sees calls made
through every namespace that bound a function by name, and that removing
the wrappers restores every binding.
"""

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import FIXTURES, OUT, ROOT, WORKLOADS, cli_env  # noqa: E402


def _bindings():
    """Every name bound in a cvn module, and Polytope's attributes."""
    import cvn.cli  # noqa: F401
    from cvn.polytope import Polytope

    out = {}
    for mod in tr._cvn_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
    for attr, obj in vars(Polytope).items():
        out[("Polytope", attr)] = obj
    return out


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        t = tr.Tracer()
        root = t.add_span("a.root", 0.0, 10.0, -1)
        t.add_span("b.left", 1.0, 4.0, root)
        right = t.add_span("b.right", 5.0, 9.0, root)
        t.add_span("c.leaf", 6.0, 7.0, right)
        t.add_span("c.leaf", 7.5, 8.0, right)
        t.add_span("a.root", 12.0, 13.0, -1)
        self.assertEqual(t.self_times(), [3.0, 3.0, 2.5, 1.0, 0.5, 1.0])
        self.assertEqual(t.self_by_name(), {"a.root": 4.0, "b.left": 3.0,
                                            "b.right": 2.5, "c.leaf": 1.5})
        self.assertEqual(t.total("a.root"), 11.0)

    def test_nested_same_name_counts_once_in_total(self):
        t = tr.Tracer()
        outer = t.add_span("x.f", 0.0, 5.0, -1)
        t.add_span("x.f", 1.0, 2.0, outer)
        self.assertEqual(t.total("x.f"), 5.0)
        self.assertEqual(sum(t.self_by_name().values()), 5.0)

    def test_merge_keeps_parents(self):
        child = tr.Tracer()
        a = child.add_span("x.f", 0.0, 2.0, -1)
        child.add_span("x.g", 0.5, 1.0, a)
        t = tr.Tracer()
        t.add_span("y.h", 0.0, 1.0, -1)
        t.merge(child.dump(), op=7)
        self.assertEqual(list(t.parent), [-1, -1, 1])
        self.assertEqual(list(t.op), [-1, 7, 7])
        self.assertEqual(t.self_by_name()["x.f"], 1.5)


class Wrappers(unittest.TestCase):
    def test_every_binding_restored(self):
        before = _bindings()
        spans = tr.Tracer()
        with tr.Installed(spans) as installed:
            self.assertTrue(installed.saved)
            self.assertTrue(tr.leftover_wrappers())
        self.assertEqual(tr.leftover_wrappers(), [])
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)

    def test_calls_seen_through_every_namespace(self):
        from cvn.graphs import theta_point, twisted_theta_point

        a = theta_point(1, 2, 3)
        b = twisted_theta_point(3, 1, 2)
        spans = tr.Tracer()
        with tr.Installed(spans):
            import cvn.envelopes
            import cvn.svg

            cvn.envelopes.support(a, b)  # calls feasible bound in envelopes
            cvn.svg.envelope_vertices_json(a, b)  # Polytope.vertices
        self.assertGreater(spans.calls["polytope.feasible"], 0)
        self.assertGreater(spans.calls["polytope.vertices"], 0)
        self.assertGreater(spans.counts["envelopes.support.checked"], 0)
        self.assertEqual(spans.stack, [])

    def test_generator_wrapper_yields_the_same_classes(self):
        from cvn.words import conjugacy_classes_up_to

        plain = list(conjugacy_classes_up_to(2, 4))
        spans = tr.Tracer()
        with tr.Installed(spans):
            import cvn.words

            traced = list(cvn.words.conjugacy_classes_up_to(2, 4))
        self.assertEqual(plain, traced)
        self.assertEqual(spans.calls["words.conjugacy_classes_up_to"], 1)
        self.assertEqual(spans.counts["words.classes_enumerated"],
                         len(plain))

    def test_cached_properties_still_cache(self):
        from cvn.polytope import HalfSpace, Polytope

        spans = tr.Tracer()
        with tr.Installed(spans):
            p = Polytope(2, [HalfSpace.make([1, -1], ("t",))])
            self.assertEqual(p.vertices, p.vertices)
        self.assertEqual(spans.calls["polytope.vertices"], 1)


class Digests(unittest.TestCase):
    def _digests(self, wl):
        state = wl.setup(3)
        plain = run.finish_pass(wl, run.run_pass(wl, state, 1))
        spans = tr.Tracer()
        with tr.Installed(spans):
            tr.clear_caches()
            state_t = wl.setup(3)
            if not wl.in_process:
                state_t["tracer"] = spans
            traced = run.run_pass(wl, state_t, 1, tracer=spans)
        traced = run.finish_pass(wl, traced)
        self.assertEqual(plain[0], [])
        self.assertEqual(traced[0], [])
        self.assertEqual(tr.leftover_wrappers(), [])
        self.assertGreater(len(spans), 0)
        return plain, traced

    def test_traced_equals_untraced_geodesic(self):
        plain, traced = self._digests(
            dataclasses.replace(WORKLOADS["geodesic-r2"], digest_rounds=1))
        self.assertEqual(plain[2], traced[2])
        self.assertEqual(plain[1], traced[1])

    def test_traced_equals_untraced_oracle(self):
        plain, traced = self._digests(
            dataclasses.replace(WORKLOADS["oracle"], digest_rounds=1))
        self.assertEqual(plain[2], traced[2])

    def test_launcher_matches_plain_cli(self):
        OUT.mkdir(exist_ok=True)
        spans = OUT / "selftest-spans.json"
        argv = ["witnesses", str(FIXTURES / "a.json"),
                str(FIXTURES / "b.json")]
        env = cli_env()
        plain = subprocess.run(
            [sys.executable, "-m", "cvn.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, check=True, timeout=60)
        traced = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(spans), *argv],
            cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        self.assertEqual(plain.stdout, traced.stdout)
        data = json.loads(spans.read_text())
        spans.unlink()
        self.assertEqual(data["leftover"], [])
        self.assertIn("cli.main", data["spans"]["names"])


class Speed(unittest.TestCase):
    REF = speed.PROBE_REF_S

    def _sampler(self, probe_s, step=0.1):
        s = speed.Sampler()
        s.starts = [i * step for i in range(len(probe_s))]
        s.probe_s = list(probe_s)
        return s

    def test_normalised_scales_and_subtracts_handler_time(self):
        s = self._sampler([2 * self.REF] * 10)
        self.assertAlmostEqual(s.slowdown(0.15, 0.65), 2.0)
        self.assertAlmostEqual(s.raw((0.15, 0.0), (0.65, 0.01)), 0.49)
        self.assertAlmostEqual(s.normalised((0.15, 0.0), (0.65, 0.01)),
                               0.245)

    def test_preempted_probes_are_trimmed(self):
        s = self._sampler([self.REF] * 8 + [50 * self.REF] * 2)
        self.assertAlmostEqual(s.slowdown(0.0, 1.0), 1.0)

    def test_mean_follows_a_host_switching_within_an_interval(self):
        # the two slowest of ten are trimmed; a median would read 1.0
        s = self._sampler([self.REF] * 6 + [2 * self.REF] * 4)
        self.assertAlmostEqual(s.slowdown(0.0, 1.0), 10 / 8)

    def test_short_interval_takes_the_nearest_probes(self):
        s = self._sampler([self.REF] * 5 + [3 * self.REF] * 5)
        # no probe starts inside either interval: the five nearest are
        # taken, 0.5 .. 0.9 and 0.0 .. 0.4
        self.assertAlmostEqual(s.slowdown(0.75, 0.76), 3.0)
        self.assertAlmostEqual(s.slowdown(0.0, 0.01), 1.0)

    def test_too_few_probes_without_a_sampler(self):
        with self.assertRaises(RuntimeError):
            self._sampler([self.REF] * 3).slowdown(0.0, 1.0)

    def test_live_sampler_probes_and_stops(self):
        with speed.Sampler() as s:
            start = s.mark()
            t = start[0]
            while s.mark()[0] - t < 0.3:
                speed.probe()
            end = s.mark()
        self.assertGreaterEqual(len(s.probe_s), 5)
        self.assertGreater(end[1], start[1])
        self.assertLess(s.raw(start, end), end[0] - start[0])
        self.assertGreater(s.normalised(start, end), 0)
        n = len(s.probe_s)
        speed.probe()
        self.assertEqual(len(s.probe_s), n)


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_above(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 90)
        p = run.tail_percentile(40)
        self.assertEqual(p, 76)
        vals = list(range(40))
        cut = run.percentile(vals, p)
        self.assertGreaterEqual(sum(v > cut for v in vals), 10)
        self.assertLess(sum(v > run.percentile(vals, p + 1) for v in vals),
                        10)
        with self.assertRaises(ValueError):
            run.tail_percentile(10)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(run.percentile([5.0], 90), 5.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
