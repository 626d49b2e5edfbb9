"""Smoke test of the benchmark itself: every workload at its smallest size,
timed and traced.  It checks that the result is well formed and that the
reference checks ran; it has no timing bounds.

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchSmoke(unittest.TestCase):
    def check_result(self, context, result, declared):
        names = [m["name"] for m in declared]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], context["errors"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for m in declared:
            metric = result["metrics"][m["name"]]
            self.assertEqual(set(metric), {"value", "unit"}, m["name"])
            self.assertEqual(metric["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metric["value"]), m["name"])
        # every op that returned was checked against its reference
        self.assertEqual(context["checks"], result["attempted"] - result["failed"])
        json.dumps(result)

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                context, result = run.run(workload, 1, 0.1, False, small=True)
                self.check_result(context, result, CONTRACT["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                # times are scaled by the host's speed, sampled during the run
                self.assertGreater(context["speed_samples"], 0)
                self.assertEqual(set(context["measured"]), set(result["metrics"]))
                # known-defect inputs run apart and are reported, not timed
                defects = context["known_defect"]
                self.assertLessEqual(defects["failed"], defects["ops"])

    def test_traced(self):
        context, result = run.run("relations", 1, 0.1, True, small=True)
        self.check_result(context, result, CONTRACT["per_layer"])
        self.assertEqual(len(context["spans"]), 3)
        for path in context["spans"]:
            spans = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
            self.assertTrue(spans)
            for s in spans:
                self.assertLessEqual(s["start_ns"], s["end_ns"])
        self.assertGreater(result["metrics"]["learning.queries"]["value"], 0)
        # the cli pass runs `ubisim.cli.main`: every layer span lies inside
        # a `cli.<subcommand>` op span, directly or through another layer span
        cli_path = next(p for p in context["spans"] if "/spans-cli-" in p)
        spans = [json.loads(line) for line in Path(cli_path).read_text(encoding="utf-8").splitlines()]
        by_id = {s["id"]: s for s in spans}
        ops = {s["op"] for s in spans if s["name"].startswith("cli.")}
        self.assertGreaterEqual(len(ops), len(gen.cli(1, small=True)))
        for s in spans:
            if s["op"] == "setup" or s["name"].startswith("cli."):
                continue
            parent = by_id[s["parent"]]
            while not parent["name"].startswith("cli."):
                self.assertLessEqual(parent["start_ns"], s["start_ns"])
                parent = by_id[parent["parent"]]
            self.assertEqual(parent["op"], s["op"])
            self.assertLessEqual(s["end_ns"], parent["end_ns"])

    def test_contract_names_workloads(self):
        self.assertEqual([w["name"] for w in CONTRACT["workloads"]], list(run.WORKLOADS))


class References(unittest.TestCase):
    """The closed forms agree with the general reference algorithms."""

    def test_cycles(self):
        for n in (3, 7, 12):
            m = gen.mealy_cycle("c", n)
            self.assertEqual(ref.mealy_relation(m), ref.cycle_relation(m))
            sa = gen.sa_cycle("c", n)
            self.assertEqual(ref.ioco_relation(sa), ref.cycle_relation(sa))
            merge = gen.merge_cycle("c", n)
            for k in range(1, n):
                verdict, classes = ref.congruence(merge, "c0", f"c{k}")
                self.assertEqual((verdict, classes), ("quotient", ref.merge_cycle_classes(n, k)))

    def test_tree_apartness_matches_pair_graph(self):
        rng = random.Random(7)
        hidden = gen.random_mealy(rng, "h", 6, 1.0, total=True)
        delta = {(s, i): (o, d) for s, i, o, d in hidden["trans"]}
        children = {}
        for batch in gen.learner_script(rng, gen.MEALY_INPUTS, 3, 25):
            for w in batch:
                ref.add_word(children, tuple(w), ref.run(delta, "s0", w)[0])
        nodes = sorted({()} | {c for kids in children.values() for _, c in kids.values()})
        tree = gen.mealy("t", gen.MEALY_INPUTS, gen.MEALY_OUTPUTS, nodes,
                         [[u, i, o, c] for u, kids in children.items() for i, (o, c) in kids.items()])
        compatible = ref.mealy_relation(tree)
        for u in nodes:
            for v in nodes:
                self.assertEqual(ref.tree_apart(children, u, v), (u, v) not in compatible)


if __name__ == "__main__":
    unittest.main()
