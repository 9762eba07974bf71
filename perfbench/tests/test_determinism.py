#!/usr/bin/env python3
"""Determinism self-test of the repository benchmark.

    python3 perfbench/tests/test_determinism.py

For every workload, two runs with the same seed and Jobs must write
identical logs: the edit stream, the dirty-TU list and the passes run
and skipped of every build, the remote hits, and the code cost at each
checkpoint. A different seed must give a different log. These are the
exact-repeat counts a performance change may cite. Daemon coalescing
counts are timing-dependent and are not in the log.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

# Timed builds per run: enough to reach the first code-cost checkpoint
# (the 10th build, or the 10th daemon round of three requests).
BUILDS = {"edit-loop": 12, "wide-rebuild": 12, "daemon-fleet": 33}
LOGS = os.path.join(run.ROOT, ".bench_work", "determinism")


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(LOGS, exist_ok=True)

    def log_of(self, workload, seed, tag):
        path = os.path.join(LOGS, f"{workload}-{seed}-{tag}.log")
        cmd = [self.binary, "--workload", workload, "--seed", str(seed),
               "--builds", str(BUILDS[workload]), "--log", path]
        out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=run.RUN_TIMEOUT_S)
        self.assertEqual(out.returncode, 0, f"{workload} seed {seed} failed")
        self.assertIsNotNone(run.result_of(out.stdout))
        with open(path) as f:
            return f.read()

    def check(self, workload):
        first = self.log_of(workload, 1, "a")
        self.assertIn("checkpoint cost=", first)
        self.assertEqual(first, self.log_of(workload, 1, "b"),
                         f"{workload}: same seed, different log")
        self.assertNotEqual(first, self.log_of(workload, 2, "a"),
                            f"{workload}: different seeds, same log")

    def test_edit_loop(self):
        self.check("edit-loop")

    def test_wide_rebuild(self):
        self.check("wide-rebuild")

    def test_daemon_fleet(self):
        self.check("daemon-fleet")


if __name__ == "__main__":
    unittest.main()
