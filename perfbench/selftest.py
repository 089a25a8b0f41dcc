"""The benchmark's own tests.

    python3 perfbench/selftest.py

* the same seed gives byte-identical generated inputs, another seed others;
* two traced runs of the same ops give exactly equal counts (calls, cells,
  flats, yields, bytes) and outputs equal to an untraced run, and the spans
  written out add up to the same counts;
* after a traced run every binding in the package is the original function;
* every per-layer metric in ``BENCHMARK.json`` names a traced function or
  module, and a name that does not is caught;
* the answer checks reject a wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import Loop, untraced  # noqa: E402
from tracer import Tracer  # noqa: E402


def cheap_ops(ops, per_kind: int = 2):
    """The ``per_kind`` smallest ops of each kind, in round order."""
    keep = set()
    for kind in {op.kind for op in ops}:
        same = sorted((op for op in ops if op.kind == kind), key=lambda op: op.size)
        keep.update(id(op) for op in same[:per_kind])
    return [op for op in ops if id(op) in keep]


def package_functions() -> dict[tuple[str, str], object]:
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "tropmap" or name.startswith("tropmap.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=os.path.dirname(HERE))
        cls.tm = workloads.import_tropmap()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def build(self, name, seed):
        return workloads.build(name, self.tm, seed, self.workdir)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = [op.inputs for op in self.build(name, 7)]
                again = [op.inputs for op in self.build(name, 7)]
                other = [op.inputs for op in self.build(name, 8)]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def traced_round(self, ops, digests):
        tracer = Tracer()
        loop = Loop(ops, tracer)
        loop.digests = dict(digests)
        tracer.install()
        try:
            loop.run(0, 1)
        finally:
            tracer.uninstall()
        self.assertEqual(loop.failures, [])
        totals = tracer.totals()
        path = os.path.join(self.workdir, "spans.jsonl")
        tracer.write_spans(path)
        written = {}
        with open(path, encoding="utf-8") as fh:
            header = json.loads(next(fh))
            for line in fh:
                span = dict(zip(header["fields"], json.loads(line)))
                name = header["names"][span["function"]]
                calls, work = written.get(name, (0, 0))
                written[name] = (calls + span["call"], work + span["work"])
        counts = {name: (t["calls"], t["work"]) for name, t in totals.items()}
        self.assertEqual(written, counts)
        return counts

    def test_traced_counts_repeat_and_outputs_match(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                ops = cheap_ops(self.build(name, 3))
                plain = Loop(ops)
                plain.run(0, 1)
                self.assertEqual(plain.failures, [])
                first = self.traced_round(ops, plain.digests)
                second = self.traced_round(ops, plain.digests)
                self.assertEqual(first, second)
                self.assertGreater(first["cli.main" if name != "face_search" else "moduli.is_face"][0], 0)

    def test_originals_restored(self):
        before = package_functions()
        ops = cheap_ops(self.build("degeneration", 5), per_kind=1)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertTrue(Tracer.leftover_wrappers())
            self.assertIsNot(self.tm.moduli.rank, before[("tropmap.moduli", "rank")])
            Loop(ops, tracer).run(0, 1)
        finally:
            tracer.uninstall()
        after = package_functions()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        self.assertEqual(Tracer.leftover_wrappers(), [])

    def test_per_layer_metrics_name_traced_functions(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        self.assertEqual(untraced(names, tracer.names), [])
        self.assertEqual(untraced(["exactgeom.no_such_function.calls"], tracer.names),
                         ["exactgeom.no_such_function.calls"])

    def test_checks_reject_wrong_answers(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                op = cheap_ops(self.build(name, 4), per_kind=1)[0]
                out = op.run()
                self.assertTrue(op.check(out))
                self.assertFalse(op.check(corrupt(out)))


def corrupt(out: str) -> str:
    """Flip one answer in an op's output."""
    r = json.loads(out)
    if "results" in r:  # cone envelope
        r["results"]["dim"] += 1
    elif "verdict" in r:  # pipeline
        v = json.loads(r["verdict"])
        v["results"]["rule"] = "R5"
        r["verdict"] = json.dumps(v)
    elif "located" in r:  # orthant fan
        r["cones"] -= 1
    else:  # face witness
        r["contracted"] = r["contracted"][1:]
    return json.dumps(r)


if __name__ == "__main__":
    unittest.main()
