"""Tests of the benchmark's own statistics and naming.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNNER = (HERE / "runner.cc").read_text()
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def runner_layer_names():
    """Every per-layer metric name the runner assigns."""
    names = set(re.findall(r'layer\["([^"]+)"\]', RUNNER))
    block = re.search(r"for \(const char\* k : \{(.*?)\}\)", RUNNER, re.S)
    names |= set(re.findall(r'"([^"]+)"', block.group(1)))
    return names


def runner_workload_names():
    return re.findall(r'\{"([A-Za-z0-9_.-]+)", \d+, \d+, (?:true|false)',
                      RUNNER)


def runner_min_requests():
    return int(re.search(r"constexpr size_t kMinRequests = (\d+);",
                         RUNNER).group(1))


def fake_end_to_end_raw(requests, repeat=()):
    return {
        "workload": "w", "mode": "end_to_end", "seed": 1, "host": {},
        "setup_s": [3.0, 2.0, 4.0], "request_ms": requests,
        "request_repeat": list(repeat), "tables": 10 * len(requests),
        "wall_s": 2.0, "cpu_ms": 100.0, "peak_rss_mib": 40.0,
        "f1_micro": 0.5, "scanned_column_ratio": 0.9,
        "p2_column_share": 0.9, "mean_columns": 5.0, "distinct_tables": 10,
        "attempted": 10, "failed": 0, "invariants_ok": True,
        "violations": [],
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(v, 50), 3)
        self.assertEqual(stats.percentile(v, 100), 5)
        self.assertEqual(stats.percentile(v, 1), 1)
        self.assertEqual(stats.percentile(list(range(1, 101)), 95), 95)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)

    def test_min_samples_keeps_ten_beyond(self):
        for p in (50, 90, 95, 99):
            n = stats.min_samples(p)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10, p)
            self.assertLess(stats.samples_beyond(n - 1, p), 10, p)
            for more in range(n, n + 500):  # never fewer with more samples
                self.assertGreaterEqual(stats.samples_beyond(more, p), 10)

    def test_p95_needs_two_hundred_requests(self):
        self.assertEqual(stats.MIN_REQUESTS, 200)
        self.assertEqual(runner_min_requests(), stats.MIN_REQUESTS)

    def test_samples_beyond_counts_strictly_above(self):
        values = list(range(200))
        cut = stats.percentile(values, 95)
        self.assertEqual(sum(1 for x in values if x > cut),
                         stats.samples_beyond(len(values), 95))


class CentralTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        v = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.median(v), 5.5)
        self.assertEqual(stats.quartiles(v),
                         tuple(statistics.quantiles(v, n=4)))
        q1, _, q3 = stats.quartiles(v)
        self.assertAlmostEqual(stats.relative_spread(v), (q3 - q1) / 5.5)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class NamesTest(unittest.TestCase):
    def test_benchmark_names_are_valid_and_unique(self):
        names = ([w["name"] for w in BENCH["workloads"]]
                 + [m["name"] for m in BENCH["end_to_end"]]
                 + [m["name"] for m in BENCH["per_layer"]])
        for n in names:
            self.assertRegex(n, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_runner_workloads_match(self):
        self.assertEqual(runner_workload_names(),
                         [w["name"] for w in BENCH["workloads"]])

    def test_runner_layer_metrics_match(self):
        self.assertEqual(runner_layer_names(),
                         {m["name"] for m in BENCH["per_layer"]})

    def test_end_to_end_result_matches(self):
        raw = fake_end_to_end_raw([float(x) for x in range(1, 301)])
        result, report = run.assemble(BENCH, raw, trace=False)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in BENCH["end_to_end"]])
        for m in BENCH["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        props = report["properties"]
        self.assertGreaterEqual(props["request_ms_p95_samples_beyond"], 10)
        self.assertNotIn("repeat_share", props)
        self.assertEqual(result["metrics"]["request_ms_p95"]["value"], 285.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 3.0)

    def test_traced_result_matches(self):
        layer = {n: 1.0 for n in runner_layer_names()}
        raw = {"workload": "w", "mode": "trace", "seed": 1, "host": {},
               "tables": 3, "layer": layer, "self_ms": {}, "spans": 12,
               "trace_file": "", "attempted": 3, "failed": 0,
               "invariants_ok": True, "violations": []}
        result, _ = run.assemble(BENCH, raw, trace=True)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in BENCH["per_layer"]])

    def test_too_few_requests_fail_the_run(self):
        raw = fake_end_to_end_raw([1.0] * (stats.MIN_REQUESTS - 1))
        with self.assertRaises(ValueError):
            run.assemble(BENCH, raw, trace=False)

    def test_router_splits_repeats(self):
        requests = [10.0] * 100 + [20.0] * 200
        raw = fake_end_to_end_raw(requests, repeat=[1] * 100 + [0] * 200)
        _, report = run.assemble(BENCH, raw, trace=False)
        props = report["properties"]
        self.assertAlmostEqual(props["repeat_share"], 1 / 3)
        self.assertEqual(props["repeat_request_ms_p50"], 10.0)
        self.assertEqual(props["first_request_ms_p50"], 20.0)

    def test_invariant_violation_is_incorrect(self):
        raw = fake_end_to_end_raw([1.0] * stats.MIN_REQUESTS)
        raw["invariants_ok"] = False
        result, _ = run.assemble(BENCH, raw, trace=False)
        self.assertFalse(result["correct"])

    def test_layer_map_covers_every_layer_metric(self):
        layers = json.loads((HERE / "layers.json").read_text())["layers"]
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        for name, entry in layers.items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]), workloads, name)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 BENCH["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
