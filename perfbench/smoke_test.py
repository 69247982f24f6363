#!/usr/bin/env python3
"""The benchmark's own tests, on tiny runs of every workload.

    python3 perfbench/smoke_test.py

Checks that each workload prints every metric BENCHMARK.json names, with its
unit, in both modes and with every output check passing; that two runs with
one seed agree on every deterministic metric; that another seed changes the
simulated outcome; that layers.json maps every per-layer metric to exactly
one layer; and that the gprof namespace mapping sends names where it should.
Takes about a minute once the build exists.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gprof_layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
SPEC_SEEDS = LAYERS["seeds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("sim_response_ms_mean", "sim_response_ms_top1pct_mean", "sim_slo_frac",
                 "served_frac")


def bench(workload, seed, trace):
    """(stdout lines, final JSON) of one smoke-length run."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                          "--length", "smoke"], cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("digest "))


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, SPEC_SEEDS["default"], trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_same_seed_same_outcome_other_seed_differs(self):
        workload = "petstore_ladder"
        lines_a, a = bench(workload, SPEC_SEEDS["default"], 0)
        lines_b, b = bench(workload, SPEC_SEEDS["default"], 0)
        lines_c, _ = bench(workload, SPEC_SEEDS["held_out"], 0)
        self.assertEqual(digest(lines_a), digest(lines_b))
        for name in DETERMINISTIC:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)
        self.assertNotEqual(digest(lines_a), digest(lines_c))

    def test_layer_map_covers_every_per_layer_metric_once(self):
        mapped = [m for layer in LAYERS["layers"] for m in layer["metrics"]]
        self.assertEqual(len(mapped), len(set(mapped)))
        self.assertEqual(set(mapped), {m["name"] for m in SPEC["per_layer"]})
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for layer in LAYERS["layers"]:
            self.assertLessEqual(set(layer["moves"]), end_to_end, layer["layer"])
            self.assertLessEqual(set(layer["shows_on"]), set(WORKLOADS), layer["layer"])

    def test_gprof_namespace_mapping(self):
        cases = {
            "mutsvc::sim::Simulator::run_until(mutsvc::sim::SimTime)": "sim",
            "mutsvc::simrace::configure(std::vector<unsigned int>)": "sim",
            "mutsvc::core::Experiment::execute_at(mutsvc::net::NodeId)::{lambda()#1}"
            "::operator()() const": "core",
            "mutsvc::apps::petstore::(anonymous namespace)::BrowserScript::next()": "apps",
            "bool mutsvc::db::operator<(mutsvc::db::Value const&, mutsvc::db::Value const&)":
                "db",
            "mutsvc::net::RmiTransport::call(int) [clone .actor]": "net",
            "std::_Function_handler<void (mutsvc::db::Database&), mutsvc::apps::petstore::"
            "PetStoreApp::driver() const::{lambda(mutsvc::db::Database&)#1}>::_M_invoke("
            "std::_Any_data const&, mutsvc::db::Database&)": "apps",
            "perfbench::run(perfbench::Options const&)": "other",
            "void std::vector<int, std::allocator<int> >::_M_realloc_insert<int>(int&&)": None,
        }
        for name, layer in cases.items():
            self.assertEqual(gprof_layers.layer_of(name), layer, name)

    def test_callers_decide_for_template_code(self):
        self_s = {"std::foo()": 1.0, "mutsvc::net::A::f()": 0.5, "mutsvc::db::B::g()": 0.25}
        callers = {"std::foo()": [("mutsvc::net::A::f()", 3), ("mutsvc::db::B::g()", 1)]}
        layers = gprof_layers.attribute(self_s, callers)
        self.assertAlmostEqual(layers["net"], 0.5 + 0.75)
        self.assertAlmostEqual(layers["db"], 0.25 + 0.25)
        self.assertAlmostEqual(sum(layers.values()), sum(self_s.values()))


if __name__ == "__main__":
    unittest.main()
