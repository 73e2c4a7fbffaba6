"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import romancrit.harness as harness  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _bindings() -> list:
    out = [owner.__dict__[attr] for owner, attr, _ in TRACED]
    out.append(harness.Facts)
    out.extend(harness.CLAIMS.values())
    return out


def _small_ops(workload: str, workdir: Path) -> list[wl.Op]:
    """A few ops of each workload, cheap enough to run traced in a test."""
    if workload == "verify-upto6":
        return wl.build_verify_upto6(1, workdir, orders=range(5))
    ref = wl.load_reference(workload)
    if workload == "verify-file8":
        items = wl.FILE8_MIX.draw(1, ref)[:40] + [((f, None), ref["families"][f]) for f in wl.FILE8_MIX.families]
        return [wl.file_op(ref, items, workdir / "small.g6")]
    return wl.stream_ops(workload, wl.STREAM_MIX[workload].draw(1, ref)[:12], ref)


def _canonical(out) -> str:
    if isinstance(out, list):  # verify reports
        return wl.reports_json(out)
    first, second = out
    if isinstance(first, str):  # (graph6, criticality report)
        return first + json.dumps(second.to_json_dict())
    return repr((first.n, first.adj, second))  # (graph, gamma result)


class GeneratorTest(unittest.TestCase):
    def test_equal_seeds_give_identical_lines(self):
        for name, mix in (
            ("verify-file8", wl.FILE8_MIX),
            ("report-stream", wl.REPORT_MIX),
            ("gamma-stream", wl.GAMMA_MIX),
        ):
            ref = wl.load_reference(name)
            first = mix.draw(7, ref)
            self.assertEqual(first, mix.draw(7, ref), name)
            self.assertNotEqual(first, mix.draw(8, ref), name)
            self.assertEqual(len(first), len(mix.cells) * mix.per_cell + len(mix.families) * mix.copies)

    def test_encoder_matches_graph6_layout(self):
        # pairs in the order (0,1), (0,2), (1,2): only edge (1,2)
        self.assertEqual(wl.encode_graph6(3, [False, False, True]), "BG")
        self.assertEqual(wl.encode_graph6(0, []), "?")


class TracerTest(unittest.TestCase):
    def test_restores_every_binding(self):
        before = _bindings()
        with Tracer() as tr:
            self.assertNotEqual([id(b) for b in _bindings()], [id(b) for b in before])
            harness.verify_claims(["carac-lemma"], ("enumerate", 4), workers=1)
        self.assertTrue(all(a is b for a, b in zip(before, _bindings())))
        self.assertGreater(tr.calls("solver.gamma_r"), 0)

    def test_restores_after_an_exception(self):
        before = _bindings()
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError("boom")
        self.assertTrue(all(a is b for a, b in zip(before, _bindings())))

    def test_outputs_are_byte_identical_under_tracing(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in run.WORKLOAD_NAMES:
                ops = _small_ops(workload, Path(tmp))
                plain = [op.run() for op in ops]
                with Tracer() as tr:
                    traced = [op.run() for op in ops]
                self.assertTrue(tr.spans, workload)
                for op, a, b in zip(ops, plain, traced):
                    self.assertTrue(op.check(a), workload)
                    self.assertTrue(op.check(b), workload)
                    self.assertEqual(_canonical(a), _canonical(b), workload)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            wl.percentile([(float(i), 1) for i in range(999)], 0.99)
        with self.assertRaises(ValueError):
            wl.percentile([(1.0, 989), (2.0, 10)], 0.99)

    def test_nearest_rank(self):
        self.assertEqual(wl.percentile([(float(i), 1) for i in range(1000)], 0.99), 989.0)
        self.assertEqual(wl.percentile([(1.0, 990), (2.0, 10)], 0.99), 1.0)
        self.assertEqual(wl.percentile([(2.0, 1), (1.0, 20)], 0.5), 1.0)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOAD_NAMES))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        claims = wl.load_reference("verify-file8")["claims"]
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_names(claims)
        )


if __name__ == "__main__":
    unittest.main()
