#!/usr/bin/env python3
"""--strategy parsing of selfsched-run.

Every strategy the help names runs and exits 0.  A malformed value -- an
unknown or removed name, trailing characters after a number, a number out
of range or a missing one -- is refused with exit 2 before anything runs.

Registered with ctest (label: unit) from tools/CMakeLists.txt; also runs
standalone: python3 tools/test_run_strategy.py build/tools/selfsched-run
"""

import os
import subprocess
import sys
import tempfile
import unittest

RUN = None

# A small nest: one Doall of eight iterations per instance of a Doall of 3.
PROGRAM = """PARAM N = 3
DOALL I = 1, N
  LOOP inner J = 1, 8 COST 10
END
"""


class StrategyFlagTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.program = os.path.join(cls.tmp.name, "small.loop")
        with open(cls.program, "w") as f:
            f.write(PROGRAM)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_with(self, value):
        return subprocess.run([RUN, "--procs", "2", "--strategy", value,
                               self.program],
                              capture_output=True, text=True, timeout=30)

    def test_valid_values_run(self):
        for value in ("self", "chunk:1", "chunk:3", "gss", "factoring",
                      "trapezoid", "adaptive", "adaptive:0", "adaptive:50"):
            with self.subTest(value=value):
                r = self.run_with(value)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                self.assertIn("iterations=24", r.stdout)

    def test_malformed_values_are_refused(self):
        for value in ("bogus", "factoring2", "tss2", "chunk:3x", "chunk:",
                      "chunk:0", "chunk:-1", "chunk: 3", "chunk:+3",
                      "chunk:99999999999999999999", "adaptive:abc",
                      "adaptive:", "adaptive:-1", "adaptive:5ms",
                      "adaptive:99999999999999999999"):
            with self.subTest(value=value):
                r = self.run_with(value)
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn("bad --strategy value", r.stderr)
                self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_run_strategy.py <selfsched-run binary>")
    RUN = sys.argv.pop(1)
    unittest.main()
