#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload briefly, twice (default seed, then the held-out
seed), untraced and traced, and checks that:
  - every run is correct and its JSON carries exactly the metrics and
    units BENCHMARK.json declares;
  - the deterministic counts (mcu_mcycles_per_img, compiler.plans,
    sim.iss_tiles, artifact.bytes) repeat exactly across the two runs;
  - mixed_registry_open warms from the registry with 0 compiles and 0 ISS
    tiles, while the compiling workloads do both.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 20250)  # default, held-out
SECONDS = 2
EXACT = ("compiler.plans", "sim.iss_tiles", "artifact.bytes")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def check_workload(self, workload):
        runs = {}
        for seed in SEEDS:
            for trace, declared in ((0, BENCH["end_to_end"]),
                                    (1, BENCH["per_layer"])):
                res = run(workload, seed, trace)
                self.assertTrue(res["correct"], res)
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(
                    [(k, v["unit"]) for k, v in res["metrics"].items()],
                    [(m["name"], m["unit"]) for m in declared])
                runs[(seed, trace)] = {k: v["value"]
                                       for k, v in res["metrics"].items()}
        a, b = SEEDS
        self.assertEqual(runs[(a, 0)]["mcu_mcycles_per_img"],
                         runs[(b, 0)]["mcu_mcycles_per_img"])
        for name in EXACT:
            self.assertEqual(runs[(a, 1)][name], runs[(b, 1)][name], name)
        return runs[(a, 1)]

    def test_resnet18_nm_closed(self):
        layers = self.check_workload("resnet18_nm_closed")
        self.assertGreater(layers["compiler.plans"], 0)
        self.assertGreater(layers["sim.iss_tiles"], 0)
        self.assertEqual(layers["artifact.bytes"], 0)

    def test_vit_ffn_open(self):
        layers = self.check_workload("vit_ffn_open")
        self.assertGreater(layers["compiler.plans"], 0)
        self.assertGreater(layers["sim.iss_tiles"], 0)

    def test_mixed_registry_open_cold_starts_from_registry(self):
        layers = self.check_workload("mixed_registry_open")
        self.assertEqual(layers["compiler.plans"], 0)
        self.assertEqual(layers["sim.iss_tiles"], 0)
        self.assertGreater(layers["artifact.bytes"], 0)
        self.assertGreater(layers["artifact.load_ms"], 0)


if __name__ == "__main__":
    unittest.main()
