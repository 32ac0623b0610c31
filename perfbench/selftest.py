"""The benchmark's own tests, at toy sizes.  Run from the root of a checkout:

    python3 perfbench/selftest.py

The name does not match test_*.py, so the repository's test suite does not
collect these.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        names = {False: {m["name"] for m in BENCH["end_to_end"]},
                 True: {m["name"] for m in BENCH["per_layer"]}}
        self.assertLessEqual({w["name"] for w in BENCH["workloads"]},
                             set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, record = run.run(workload, 1, 0.0, trace,
                                             tiny=True)
                    self.assertEqual(set(result["metrics"]), names[trace])
                    self.assertTrue(result["correct"], record["errors"])
                    self.assertEqual(result["failed"], 0)


class MutationTest(unittest.TestCase):
    def _failed_frac(self, mutate):
        jobs = workloads.jobs_for("seq-catalog", 1, tiny=True)
        mutate(jobs)
        result, _ = run.run("seq-catalog", 1, 0.0, True, jobs=jobs)
        self.assertFalse(result["correct"])
        return result["metrics"]["ops_failed_frac"]["value"]

    def test_wrong_pinned_digest_fails(self):
        def mutate(jobs):
            jobs[0]["digest"] = "0" * 64
        self.assertGreater(self._failed_frac(mutate), 0)

    def test_wrong_expected_exit_code_fails(self):
        def mutate(jobs):
            assert jobs[2]["rc"] == 1
            jobs[2]["rc"] = 0
        self.assertGreater(self._failed_frac(mutate), 0)


class TracerTest(unittest.TestCase):
    def test_no_wrapper_left_after_a_traced_run(self):
        sys.path.insert(0, str(run.SRC))
        import lrckit
        import lrckit.cli

        def snapshot():
            spaces = tracing._namespaces("lrckit") + [
                lrckit.Mat, lrckit.LinearCode, lrckit.Graph, lrckit.GF]
            return {(id(ns), k): v for ns in spaces
                    for k, v in vars(ns).items()}

        before = snapshot()
        tracer = tracing.Tracer()
        tracer.install(lrckit)
        try:
            self.assertIn("lrckit.verify.mat_rank",
                          tracing.leftover_wrappers("lrckit"))
            argv = ["construct", "mr-r12", "--m", "2", "--r", "2"]
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(lrckit.cli.main(argv), 0)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.leftover_wrappers("lrckit"), [])
        self.assertEqual(snapshot(), before)
        self.assertGreater(tracer.summary()["metrics"]["matrix.mat_builds"],
                           0)


class LayoutTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = run.ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *BENCH["command"][1:], "--workload",
                 "seq-catalog", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
