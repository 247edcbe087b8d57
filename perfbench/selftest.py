"""Tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload makes a tiny pass through the same command the full
benchmark uses, traced and untraced; each correctness check is fed a
deliberately wrong answer and must catch it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

from common import LiveRecord, TableOracle, Vocab, check_answers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def records(stdout: str):
    return [json.loads(line) for line in stdout.strip().splitlines()
            if line.startswith("{")]


class TinyPasses(unittest.TestCase):
    """Every workload runs end to end on tiny inputs, both modes."""

    def check_pass(self, workload: str, trace: int):
        proc = run(workload, 3, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        names = {m["name"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), names)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        kinds = [r.get("record") for r in records(proc.stdout)[:-1]]
        self.assertEqual(kinds, ["input", "host", "ops"])
        # Only the named shutdown fault may fail; everything else must not.
        ops = records(proc.stdout)[-2]
        for op, counts in ops.items():
            if isinstance(counts, dict) and op != "shutdown":
                self.assertEqual(counts["failed"], 0, op)
        return proc

    def test_batch_lookup(self):
        self.check_pass("batch-lookup", 0)

    def test_batch_lookup_traced(self):
        self.check_pass("batch-lookup", 1)

    def test_serve_tcp(self):
        proc = self.check_pass("serve-tcp", 0)
        ops = records(proc.stdout)[-2]
        self.assertGreaterEqual(ops["shutdown"]["attempted"], 1)

    def test_serve_tcp_traced(self):
        self.check_pass("serve-tcp", 1)

    def test_mixed_rw(self):
        self.check_pass("mixed-rw", 0)

    def test_mixed_rw_traced(self):
        self.check_pass("mixed-rw", 1)


class Fingerprints(unittest.TestCase):
    def test_same_seed_same_input(self):
        """Two processes, one seed: the same generated input."""
        first, second = run("batch-lookup", 5, 0), run("batch-lookup", 5, 0)
        self.assertEqual(first.returncode, 0, first.stderr[-3000:])
        self.assertEqual(second.returncode, 0, second.stderr[-3000:])
        inputs = [r for p in (first, second) for r in records(p.stdout)
                  if r.get("record") == "input"]
        self.assertEqual(len(inputs), 2)
        self.assertEqual(inputs[0], inputs[1])

    def test_without_program_exits_nonzero(self):
        """Only BENCHMARK.json and the benchmark: fail, print no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("batch-lookup", 1, 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checks(unittest.TestCase):
    """Each correctness check catches a deliberately wrong answer."""

    def setUp(self):
        from_keys = {"a": np.array([1, 5, 9, 13], dtype=np.int64),
                     "b": np.array([1, 2, 1, 3], dtype=np.int64)}
        values = {"v": np.array(["x", "y", "z", "x"]),
                  "n": np.array([10, 20, 30, 40], dtype=np.int64)}
        flat = TableOracle.flatten(("a", "b"), from_keys)
        vocab = Vocab.of(values)
        self.oracle = TableOracle(("a", "b"), flat, vocab.encode(values),
                                  vocab)
        self.query = {"a": np.array([5, 9, 3, 13, 99], dtype=np.int64),
                      "b": np.array([2, 1, 1, 3, 1], dtype=np.int64)}

    def right(self):
        found, values = self.oracle.expect(self.query)
        return found.copy(), {n: v.copy() for n, v in values.items()}

    def test_right_answer_passes(self):
        found, values = self.right()
        np.testing.assert_array_equal(found, [True, True, False, True,
                                              False])
        self.assertEqual(list(values["v"][found]), ["y", "z", "x"])
        self.assertEqual(
            check_answers(found, values, *self.oracle.expect(self.query)), 0)

    def test_flipped_value_fails(self):
        found, values = self.right()
        values["n"][1] += 1
        self.assertEqual(
            check_answers(found, values, *self.oracle.expect(self.query)), 1)
        found, values = self.right()
        values["v"][0] = "z"
        self.assertEqual(
            check_answers(found, values, *self.oracle.expect(self.query)), 1)

    def test_miss_reported_as_found_fails(self):
        found, values = self.right()
        found[2] = True
        self.assertEqual(
            check_answers(found, values, *self.oracle.expect(self.query)), 1)

    def test_hit_reported_as_miss_fails(self):
        found, values = self.right()
        found[0] = False
        self.assertEqual(
            check_answers(found, values, *self.oracle.expect(self.query)), 1)

    def test_served_reply_checked_like_a_call(self):
        """JSON replies (lists) go through the same check."""
        found, values = self.right()
        reply = {"found": [bool(f) for f in found],
                 "values": {n: v.tolist() for n, v in values.items()}}
        reply["values"]["v"][3] = "y"
        self.assertEqual(check_answers(reply["found"], reply["values"],
                                       *self.oracle.expect(self.query)), 1)

    def test_deleted_key_still_found_fails(self):
        vocab = np.array(["p", "q"])
        record = LiveRecord(10, "value", vocab)
        record.put(np.array([2, 4, 6]), np.array(["p", "q", "p"]))
        query = {"key": np.array([2, 4, 6, 11, -1])}
        found, values = record.expect(query)
        self.assertEqual(check_answers(found, values,
                                       *record.expect(query)), 0)
        record.drop(np.array([4]))
        # The store still answering key 4 as live is now wrong.
        self.assertEqual(check_answers(found, values,
                                       *record.expect(query)), 1)

    def test_updated_value_must_be_new(self):
        vocab = np.array(["p", "q"])
        record = LiveRecord(10, "value", vocab)
        record.put(np.array([2, 4]), np.array(["p", "p"]))
        stale = record.expect({"key": np.array([2, 4])})
        record.put(np.array([4]), np.array(["q"]))
        self.assertEqual(check_answers(*stale,
                                       *record.expect({"key":
                                                       np.array([2, 4])})), 1)


if __name__ == "__main__":
    unittest.main()
