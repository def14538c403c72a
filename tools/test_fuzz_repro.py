#!/usr/bin/env python3
"""Replay-input validation of selfsched-fuzz.

A repro file whose strategy_kind names a removed or unknown strategy, or
whose strategy_chunk is below 1, must be refused with exit 2 and an error
that names the key.  A file that still carries the retired strategy_aux,
index_shards or pool_shards key must load, with the key ignored.

Registered with ctest (label: unit) from tools/CMakeLists.txt; also runs
standalone: python3 tools/test_fuzz_repro.py build/tools/selfsched-fuzz
"""

import os
import subprocess
import sys
import tempfile
import unittest

FUZZ = None


def repro(**extra):
    lines = ["selfsched-repro v1", "controller canonical", "seed 1"]
    fields = {"program_seed": 5, "procs": 2, "depth": 2}
    fields.update(extra)
    lines += [f"extra {k} {v}" for k, v in fields.items()]
    lines += ["decisions 0", "end"]
    return "\n".join(lines) + "\n"


class ReplayInputTest(unittest.TestCase):
    def replay(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.repro")
            with open(path, "w") as f:
                f.write(text)
            return subprocess.run([FUZZ, "--replay", path],
                                  capture_output=True, text=True, timeout=30)

    def assert_refused(self, text, key):
        r = self.replay(text)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn(key, r.stderr)

    def test_removed_kinds_are_refused(self):
        # 5, 6, 7, 8 and 9 were batched factoring, weighted factoring, tuned
        # trapezoid, random steal and the online-tuned adaptive kind.
        for kind in (5, 6, 7, 8, 9):
            self.assert_refused(repro(strategy_kind=kind), "strategy_kind")

    def test_unknown_kind_is_refused(self):
        self.assert_refused(repro(strategy_kind=42), "strategy_kind")

    def test_chunk_below_one_is_refused(self):
        self.assert_refused(repro(strategy_kind=1, strategy_chunk=0),
                            "strategy_chunk")

    def assert_ignored(self, **retired):
        # An empty decision trace cannot replay a real run, so compare the
        # outcome with and without the key instead of expecting success.
        plain = self.replay(repro(strategy_kind=2, strategy_chunk=1))
        old = self.replay(repro(strategy_kind=2, strategy_chunk=1, **retired))
        self.assertNotEqual(old.returncode, 2, old.stderr)
        self.assertEqual((old.returncode, old.stdout),
                         (plain.returncode, plain.stdout))

    def test_retired_aux_key_is_ignored(self):
        self.assert_ignored(strategy_aux=99)

    def test_retired_index_shards_key_is_ignored(self):
        self.assert_ignored(index_shards=4)

    def test_retired_pool_shards_key_is_ignored(self):
        self.assert_ignored(pool_shards=2)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_fuzz_repro.py <selfsched-fuzz binary>")
    FUZZ = sys.argv.pop(1)
    unittest.main()
