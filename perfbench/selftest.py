"""Self-tests of the benchmark: generators, oracles, traced replay, schema.

usage: python3 perfbench/selftest.py     (from the repository root; ~10 s)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from coronapoly.graphs import parse_graph6  # noqa: E402
from coronapoly.indpoly import independence_polynomial  # noqa: E402
from coronapoly.roots import verify_bounds  # noqa: E402
from coronapoly.search import group_by_polynomial  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("CORONAPOLY_MAX_N", None)


def cli(args: list[str], script: list[str] | None = None) -> bytes:
    program = script if script is not None else ["-m", "coronapoly.cli"]
    return subprocess.run([sys.executable, *program, *args], env=ENV, cwd=ROOT,
                          stdout=subprocess.PIPE, check=True).stdout


class Generators(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in ("bounds", "poly-large", "classify"):
            with self.subTest(name):
                first = workloads.generate(name, 3, 40)
                self.assertEqual(first, workloads.generate(name, 3, 40))
                self.assertNotEqual(first[0], workloads.generate(name, 4, 40)[0])
                self.assertEqual(len(first[0]), 40)

    def test_graphs_are_what_the_workload_promises(self):
        for line in workloads.generate("poly-large", 5, 30)[0]:
            n, edges = workloads.decode_g6(line)
            self.assertEqual(workloads.encode_g6(n, edges), line)
            degrees = {sum(v in e for e in edges) for v in range(n)}
            self.assertTrue(workloads._is_forest(n, edges) or len(degrees) == 1)
        lines, origin = workloads.generate("classify", 5, 80)
        self.assertEqual(sorted(origin), sorted(list(range(10)) * 8))

    def test_replay_runs_single_process(self):
        argv = workloads.WORKLOADS["classify"].argv("x.g6")
        self.assertIn("2", argv)
        self.assertEqual(workloads.single_process(argv)[argv.index("--jobs") + 1], "1")


class Oracles(unittest.TestCase):
    def test_poly_rejects_a_corrupted_line(self):
        lines = workloads.generate("poly-large", 2, 6)[0]
        good = [str(independence_polynomial(parse_graph6(g))) for g in lines]
        self.assertEqual(workloads.check_poly("\n".join(good), lines), 0)
        for k in (0, 1):  # a regular graph and a tree
            coeffs = workloads.parse_poly_text(good[k])
            coeffs[3] += 1
            bad = list(good)
            bad[k] = " + ".join(f"{c}x^{i}" for i, c in enumerate(coeffs))
            self.assertEqual(workloads.check_poly("\n".join(bad), lines), 1)
        self.assertEqual(workloads.check_poly("\n".join(good[:-1]), lines), 1)

    def test_bounds_suite_rejects_failures(self):
        lines = ["x"] * 5
        ok = {"suite": "bounds", "checked": 5, "failures": [], "pass": True}
        self.assertEqual(workloads.check_bounds_suite(json.dumps(ok), lines), 0)
        self.assertEqual(workloads.check_bounds_suite(json.dumps({**ok, "checked": 4}), lines), 1)
        failing = {**ok, "failures": ["G?: failed bounds ['annulus']"], "pass": False}
        self.assertEqual(workloads.check_bounds_suite(json.dumps(failing), lines), 1)

    def test_unreadable_output_fails_every_graph(self):
        for text in ("not json", "{}", "[]"):
            self.assertEqual(run.check_output("catalog-hamidoune", text, [], None, None), 996)

    def test_root_reports_reject_a_wrong_multiplicity(self):
        lines = workloads.generate("bounds", 2, 3)[0]

        def report(line):
            payload = verify_bounds(parse_graph6(line)).to_json()
            payload["graph"] = line
            return payload

        reports = [report(line) for line in lines]
        text = "\n".join(json.dumps(r) for r in reports)
        self.assertEqual(workloads.check_root_reports(text, lines), 0)
        reports[1]["real_roots"][0]["multiplicity"] += 1
        text = "\n".join(json.dumps(r) for r in reports)
        self.assertEqual(workloads.check_root_reports(text, lines), 1)

    def test_classes_reject_a_moved_member_and_a_wrong_verdict(self):
        lines, origin = workloads.generate("classify", 7, 160)
        good = group_by_polynomial(lines).to_json()
        self.assertEqual(workloads.check_classes(json.dumps(good), lines, origin), 0)

        moved = json.loads(json.dumps(good))
        member = moved["classes"][0]["members"].pop()
        moved["classes"][1]["members"].append(member)
        self.assertGreater(workloads.check_classes(json.dumps(moved), lines, origin), 0)

        # a lost member leaves the ``graphs`` count as it was; a duplicate too
        dropped = json.loads(json.dumps(good))
        next(c for c in dropped["classes"] if len(c["members"]) > 1)["members"].pop()
        self.assertEqual(workloads.check_classes(json.dumps(dropped), lines, origin), 1)
        doubled = json.loads(json.dumps(good))
        doubled["classes"][0]["members"].append(doubled["classes"][0]["members"][0])
        self.assertEqual(workloads.check_classes(json.dumps(doubled), lines, origin), 1)

        flipped = json.loads(json.dumps(good))
        cls = next(c for c in flipped["classes"] if len(c["members"]) > 1)
        cls["all_isomorphic"] = not cls["all_isomorphic"]
        self.assertEqual(workloads.check_classes(json.dumps(flipped), lines, origin),
                         len(cls["members"]))

    def test_hamidoune_pins_the_catalog_counts(self):
        good = {**workloads.HAMIDOUNE_EXPECT, "failures": []}
        self.assertEqual(workloads.check_hamidoune(json.dumps(good), 996), 0)
        bad = {**good, "nonreal_contrast_count": 251}
        self.assertEqual(workloads.check_hamidoune(json.dumps(bad), 996), 1)


class Replay(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)

    def test_traced_stdout_equals_untraced(self):
        for name, size in (("poly-large", 6), ("classify", 200), ("bounds", 20)):
            with self.subTest(name):
                path = run.WORK / f"selftest-{name}.g6"
                path.write_text("\n".join(workloads.generate(name, 1, size)[0]) + "\n")
                argv = workloads.single_process(workloads.WORKLOADS[name].argv(str(path)))
                stats = run.WORK / "selftest-stats.json"
                plain = cli(argv)
                replay = cli(argv, script=[str(HERE / "traced.py"), str(stats)])
                self.assertEqual(plain, replay)
                summary = json.loads(stats.read_text())
                metrics = traced.layer_metrics(summary, summary["main_s"], summary["main_s"])
                self.assertEqual(set(metrics), set(traced.LAYER_METRICS))
                self.assertGreater(metrics["indpoly.independence_polynomial.calls"], 0)

    def test_no_source_tree_exits_nonzero_without_a_result(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


class Schema(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(k, v[0], v[1]) for k, v in traced.LAYER_METRICS.items()])


if __name__ == "__main__":
    unittest.main()
