"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Kept out of pytest's default file pattern so the library's test suite does
not collect it.
"""

import json
import math
import unittest
from pathlib import Path

import library
import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load():
    _, modules = library.load()
    return modules, library.api(modules)


MODULES, API = _load()


def traced_round(workload):
    tracer = spans.Tracer()
    with tracer.patched(spans.cross_layer_targets(MODULES)):
        run.run_round(workload.ops, spans.traced_api(tracer, API))
    return spans.span_counts(tracer.take())


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first, again, other = cls(API, 1), cls(API, 1), cls(API, 2)
                self.assertEqual(first.inputs, again.inputs)
                self.assertEqual([op.key for op in first.ops], [op.key for op in again.ops])
                self.assertNotEqual(first.inputs, other.inputs)


class Spans(unittest.TestCase):
    def test_span_counts_repeat_and_cover_the_expected_layers(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                workload = cls(API, 7)
                first, second = traced_round(workload), traced_round(workload)
                self.assertEqual(first, second)
                for span_name in workload.expects:
                    self.assertGreater(first[span_name], 0, span_name)

    def test_self_time_excludes_same_thread_children(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.take()
        own = spans.self_ns([inner, outer])
        self.assertEqual(own[id(outer)], (outer.end - outer.start) - (inner.end - inner.start))
        self.assertEqual(own[id(inner)], inner.end - inner.start)


class Checks(unittest.TestCase):
    def test_wrong_oracle_value_is_counted_as_a_failure(self):
        workload = workloads.WORKLOADS["oracle_sweep"](API, 3)
        outs = run.run_round(workload.ops, API)["outs"]
        refs = workload.references(API)
        self.assertEqual(run.check_round(workload.ops, outs, refs), 0)
        outs[("table", 2, 1)][100] += 1
        self.assertEqual(run.check_round(workload.ops, outs, refs), 1)

    def test_wrong_reference_is_counted_as_a_failure(self):
        workload = workloads.WORKLOADS["gsum_exact"](API, 3)
        outs = run.run_round(workload.ops, API)["outs"]
        refs = workload.references(API)
        self.assertEqual(run.check_round(workload.ops, outs, refs), 0)
        bw_key = next(op.key for op in workload.ops if op.key[0] == "bw")
        refs[bw_key] += 1
        self.assertEqual(run.check_round(workload.ops, outs, refs), 1)

    def test_latencies_scale_by_the_chunks_around_them(self):
        nominal = run.REF_NOMINAL_S
        # a host at half speed from the third chunk on: its chunks take twice as long
        chunks = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal]
        scaled = run.host_scaled([1.0, 1.0, 2.0, 2.0], [0, 1, 3, 4], chunks)
        for got, want in zip(scaled, [1.0, 2 / 3, 1.0, 1.0], strict=True):
            self.assertAlmostEqual(got, want)

    def test_harrell_davis_quantile(self):
        self.assertAlmostEqual(run.hd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5), 3.0)
        self.assertAlmostEqual(run.hd_quantile([2.5] * 7, 0.9), 2.5)
        values = [float(i) for i in range(1000)]
        self.assertAlmostEqual(run.hd_quantile(values, 0.9), 899.5, delta=1.0)

    def test_tail_has_ten_samples_beyond_it(self):
        for n, percentile in ((122, 90.0), (220, 95.0), (3203, 99.0), (20_000, 99.9)):
            p, beyond = run.tail_percentile(n)
            self.assertEqual(p, percentile)
            self.assertGreaterEqual(beyond, 10)
            self.assertEqual(beyond, n - math.ceil(p / 100 * n))


class Definition(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_runner_reports(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(spans.PER_LAYER)
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        reported = set(spans.round_metrics([])) | set(spans.setup_metrics([]))
        self.assertEqual(reported | {"trace.overhead_frac"}, {m[0] for m in spans.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
