"""Tests of the benchmark's own logic (no dyncert computation runs).

    python3 perfbench/selftest.py
"""

import json
import sys
import tempfile
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, merge, self_times  # noqa: E402


def span(name, start, end, parent=-1, **tags):
    return Span(name, start, end, parent, tags)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0),
                 span("c", 2.0, 3.0, 1), span("d", 6.0, 7.0, 0)]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        # two worker threads under one parent: [1, 5] and [3, 7] cover 6
        spans = [span("p", 0.0, 10.0), span("w", 1.0, 5.0, 0),
                 span("w", 3.0, 7.0, 0)]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_children_clipped_to_parent(self):
        spans = [span("p", 0.0, 10.0), span("w", 8.0, 12.0, 0),
                 span("w", 9.0, 9.5, 0)]
        self.assertEqual(self_times(spans)[0], 8.0)

    def test_merge_rebases_parents(self):
        one = {"spans": [["a", 0, 2, -1, {}], ["b", 0, 1, 0, {}]],
               "counters": {"n": 1}}
        spans, counters = merge([one, one])
        self.assertEqual([s.parent for s in spans], [-1, 0, -1, 2])
        self.assertEqual(counters, {"n": 2})

    def test_worker_thread_spans_hang_under_main_thread(self):
        t = Tracer()
        outer = t.open("outer")
        worker = threading.Thread(target=lambda: t.close(t.open("inner")))
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        t.close(outer)
        spans = t.finished()
        self.assertEqual(spans[1].parent, 0)

    def test_layer_metrics_rates_and_counts(self):
        spans = [span("simulate.run_protocol", 0.0, 4.0, rounds=1000),
                 span("spectra.eigenfunction_grid", 1.0, 3.0, 0,
                      model="pendulum", family="pendulum", points=50),
                 span("cli.main", 0.0, 1.0, exit=3),
                 span("cli.main", 1.0, 2.0, exit=0)]
        m = layers.layer_metrics(spans, {"numerics.matvec.calls": 7},
                                 {"cli.bytes_written": 1, "src.lines": 2,
                                  "trace.overhead_s": 0.5})
        self.assertEqual(m["simulate.rounds_per_s"]["value"], 500.0)
        self.assertEqual(m["spectra.eigenfunction_grid.pendulum.points_per_s"]["value"], 25.0)
        self.assertEqual(m["numerics.matvec.calls"]["value"], 7)
        self.assertEqual(m["cli.exit_nonzero"]["value"], 1)
        self.assertEqual(m["cli.commands"]["value"], 2)


class FailureCountingTest(unittest.TestCase):
    REF = {"outputs": {"scan": {"kind": "rows", "value": [[0.5, 0.6, ""],
                                                          [1.0, 0.7, ""],
                                                          [1.5, 0.8, ""]]},
                       "q/p3": {"kind": "p3", "value": 0.7}},
           "seeded": {}, "known_failures": []}

    def failed(self, outputs):
        ops, _, _ = checks.check(outputs, self.REF, seed=0)
        return sorted(name for name, ok, _ in ops if not ok)

    def test_nan_and_error_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text("tau,p3_max,error\n0.5,nan,\n1.0,0.7,\n"
                            '1.5,nan,"no level lies in [0.0, 0.0]"\n')
            out = {"scan": workloads.file_record(path),
                   "q/p3": {"kind": "p3", "value": 0.7}}
        self.assertEqual(self.failed(out), ["scan/row0", "scan/row2"])

    def test_reference_tolerance(self):
        rows = {"kind": "rows", "value": self.REF["outputs"]["scan"]["value"]}
        self.assertEqual(self.failed({"scan": rows, "q/p3": {"kind": "p3", "value": 0.7 + 1e-10}}), [])
        self.assertEqual(self.failed({"scan": rows, "q/p3": {"kind": "p3", "value": 0.7 + 1e-8}}), ["q/p3"])

    def test_nonzero_exit_raised_error_and_missing_output(self):
        out = {"scan": {"error": "ConvergenceError: grid"},
               "cli/x/exit": {"kind": "exit", "value": 3}}
        self.assertEqual(self.failed(out), ["cli/x/exit", "q/p3", "scan"])

    def test_statistical_rules(self):
        base = {"scan": self.REF["outputs"]["scan"], "q/p3": self.REF["outputs"]["q/p3"]}
        mc = {"kind": "mc", "p3_hat": 0.70, "stderr": 0.001, "exact": 0.6955}
        self.assertEqual(self.failed({**base, "mc": mc}), ["mc"])
        self.assertEqual(self.failed({**base, "mc": dict(mc, exact=0.6965)}), [])
        oracle = {"kind": "oracle", "value": 2.0 / 3.0 + 1e-9}
        self.assertEqual(self.failed({**base, "o": oracle}), ["o"])

    def test_numpy_scalar_reprs_read_as_numbers(self):
        self.assertEqual(workloads._leaf("np.float64(-8.5)"), -8.5)
        self.assertEqual(workloads._leaf("inf"), "inf")
        self.assertEqual(workloads._leaf("q,density"), "q,density")


def _module_function(x):
    return x + 1


class WrapperRestoreTest(unittest.TestCase):
    def test_restore_puts_back_every_original(self):
        module = types.ModuleType("fake")
        module.f = _module_function

        class Box:
            @staticmethod
            def load(x):
                return x * 2

            def save(self, x):
                raise ValueError(x)

        originals = (module.f, Box.__dict__["load"], Box.__dict__["save"])
        t = Tracer()
        t.wrap(module, "f", "fake.f", lambda tags, a, k, r: tags.update(r=r))
        t.wrap(Box, "load", "box.load")
        t.wrap(Box, "save", "box.save")
        self.assertEqual(module.f(1), 2)
        self.assertEqual(Box.load(3), 6)
        with self.assertRaises(ValueError):
            Box().save(1)
        self.assertEqual(t.restore(), [])
        self.assertIs(module.f, originals[0])
        self.assertIs(Box.__dict__["load"], originals[1])
        self.assertIs(Box.__dict__["save"], originals[2])
        names = [(s.name, s.tags) for s in t.finished()]
        self.assertEqual(names, [("fake.f", {"r": 2}), ("box.load", {}),
                                 ("box.save", {"error": "ValueError"})])

    def test_install_on_dyncert_restores(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        try:
            from dyncert import cli, protocol, spectra
        except ImportError as exc:  # the source tree is not beside perfbench
            self.skipTest(str(exc))
        before = (protocol.max_score, protocol.HermitianOperator, cli.main,
                  spectra.SpectrumSlice.__dict__["load"])
        t = Tracer()
        layers.install(t)
        self.assertIsNot(protocol.max_score, before[0])
        self.assertEqual(t.restore(), [])
        after = (protocol.max_score, protocol.HermitianOperator, cli.main,
                 spectra.SpectrumSlice.__dict__["load"])
        for a, b in zip(before, after):
            self.assertIs(a, b)


class BenchmarkFileTest(unittest.TestCase):
    def test_matches_the_harness(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(n, u, b) for n, u, b, _moves, _fn in layers.METRICS])


if __name__ == "__main__":
    unittest.main()
