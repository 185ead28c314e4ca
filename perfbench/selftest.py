"""Self-checks of the benchmark harness (not part of the package's test suite).

    python3 perfbench/selftest.py

Each workload runs a fixed number of calls instead of a fixed time, so counts
are comparable between runs. Takes about a minute on one core.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # pins BLAS before numpy is imported

sys.path.insert(0, str(run.SRC))

CALLS = {"gd-trace": 1, "sharpness-segment": 1, "sgd-erp": 3, "preset-w200": 1}
EXACT = tuple(name for name in run.PER_LAYER_UNITS
              if name.endswith(("calls_per_item", "repeat_frac", "hvps_per_call", ".failed")))


class TracedRuns(unittest.TestCase):

    def test_traced_counts_repeat_and_match_untraced_items(self):
        for name, calls in CALLS.items():
            with self.subTest(workload=name):
                first = run.run(name, 0, None, True, max_calls=calls)
                second = run.run(name, 0, None, True, max_calls=calls)
                bare = run.run(name, 0, None, False, max_calls=calls)
                for report in (first, second, bare):
                    self.assertTrue(report.correct, report.reasons)
                self.assertEqual({k: first.metrics[k] for k in EXACT},
                                 {k: second.metrics[k] for k in EXACT})
                self.assertEqual(set(first.metrics), set(run.PER_LAYER_UNITS))
                self.assertEqual(set(bare.metrics), set(run.END_TO_END_UNITS))
                untraced, traced = first.phases
                self.assertEqual(untraced.items, traced.items)
                self.assertEqual(traced.items, bare.phases[0].items)
                self.assertEqual(first.fingerprints[1], bare.fingerprints[0])


class BenchmarkFile(unittest.TestCase):

    def test_names_and_units_match_the_harness(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)


class BareDirectory(unittest.TestCase):

    def test_fails_without_the_package_sources(self):
        here = Path(__file__).resolve().parent
        run.BUILD_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            shutil.copytree(here, Path(tmp) / here.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{here.name}/run.py", "--workload", "gd-trace",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
