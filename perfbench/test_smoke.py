#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny problem sizes.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced and checks that each metric named in
BENCHMARK.json prints with its unit, that the committed digests match at the
committed seed, that simulated results agree between traced and untraced
runs, and that a wrong committed digest is counted as failed iterations.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that must be nonzero on the workload exercising the layer.
EXERCISED = {
    "fft_remap": ["exp.map_overhead_ms", "algo.fft_naive_ms", "algo.fft_dif_ms",
                  "sim.messages", "sim.msgs_per_s"],
    "packet_clean": ["exp.map_overhead_ms", "net.run_packet_sim_ms",
                     "net.delivered", "net.kernel.simd_windows"],
    "packet_faulted": ["net.kernel.faulted_simd_windows", "fault.dropped",
                       "fault.retransmitted"],
    "mc_explore": ["mc.detector.runs", "mc.retransmit_race.explore_ms",
                   "mc.send_ack_mutant.run_scenario_us"],
}


def bench(workload, trace, seed=1):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    digest = next(l for l in lines if "timed iterations" in l).split("digest ")[1]
    return json.loads(lines[-1]), digest.split(",")[0]


class Smoke(unittest.TestCase):
    def check_metrics(self, result, wanted, positive):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, plain_digest = bench(w, 0)
                self.check_metrics(plain, SPEC["end_to_end"], positive=True)
                traced, traced_digest = bench(w, 1)
                self.check_metrics(traced, SPEC["per_layer"], positive=False)
                self.assertEqual(plain_digest, traced_digest)
                for name in EXERCISED[w] + ["trace.iter_ms", "host.ref_ms"]:
                    self.assertGreater(traced["metrics"][name]["value"], 0, name)

    def test_other_seed_checks_invariants_only(self):
        result, _ = bench("packet_faulted", 0, seed=7)
        self.assertTrue(result["correct"])

    def test_wrong_committed_digest_raises_error_rate(self):
        sys.path.insert(0, HERE)
        import run
        with open(os.path.join(HERE, "golden.json")) as f:
            right = json.load(f)["digests"]["packet_clean@tiny"]
        wrong = "%016x" % (int(right, 16) ^ 1)
        r = subprocess.run([run.build(), "--workload", "packet_clean", "--seed", "1",
                            "--seconds", "0.2", "--tiny", "--expect-digest", wrong],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(r.returncode, 0)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])

if __name__ == "__main__":
    unittest.main()
