"""Seeded inputs, timed passes and output checks for the benchmark workloads.

Each workload is a closed loop from one process: the next operation starts
when the previous one returns. A pass runs every operation of the workload
once; its composition depends on the seed only, never on how fast the program
is, so every pass of a run measures the same mix.

The seeded workloads draw their graphs from fixed pools. Graph ``i`` of a pool
cell comes from ``random.Random(<cell seed> + i)`` and only ``random()`` is
used, which the standard library keeps reproducible across versions. The run
seed picks which pool graphs a pass holds and in what order. Every pool graph
has a reference output recorded by ``record.py`` from the romancrit 0.1.0
code, before any optimisation, so each operation of a run is checked byte for
byte against what that code printed for the same graph.

The program receives only graph6 lines (or an enumerate order). The graph6
encoder here is the benchmark's own, so inputs do not depend on the code
under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import romancrit as rc

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The same tuples as GAMMA4_CLAIMS and DUAL_CLAIMS in tests/test_acceptance.py.
GAMMA4_CLAIMS = (
    "elementary4-list",
    "carac-lemma",
    "carac2-theorem",
    "saturated4-degrees",
    "ecrit4-degrees",
    "half-bound",
    "threequarter-bound",
    "cutvertex-lemma",
    "cut-structure-prop",
    "classification-theorem",
)
DUAL_CLAIMS = (
    "nonelementary-components",
    "gamma-le-3-degree",
    "vcrit-partition-lemma",
    "saturated-partition-prop",
    "edge-removal-gamma",
    "ecrit-condition-prop",
)
UPTO6_BLOCKS = (("gamma4", GAMMA4_CLAIMS), ("dual", DUAL_CLAIMS))
UPTO6_ORDERS = range(7)

# Workers for every verify_claims call. One process keeps every span in view
# when tracing, and on a shared two-CPU machine the second CPU's capacity comes
# and goes: the same order-6 block took 0.74-2.05 s on two workers against
# 1.31-2.06 s on one, which spread two-worker figures by a quarter between runs.
WORKERS = 1

# Lines per stream compared against the command-line tool in every run.
CLI_SAMPLE = 32


class BenchmarkError(Exception):
    """The benchmark itself cannot run: missing reference, drifted generator."""


# -- graph generation --------------------------------------------------------


def encode_graph6(n: int, bits: list[bool]) -> str:
    """graph6 line of an order-n graph from its column-major upper-triangle bits."""
    if not 0 <= n < 63:
        raise ValueError(f"graph6 order must be in 0..62, got {n}")
    if len(bits) != n * (n - 1) // 2:
        raise ValueError("bit count does not match the order")
    padded = bits + [False] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(padded), 6):
        val = 0
        for b in padded[k : k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def random_graph6(rng: random.Random, n: int, p: float) -> str:
    """G(n, p) with pairs drawn in graph6 order (0,1), (0,2), (1,2), (0,3), ..."""
    return encode_graph6(n, [rng.random() < p for j in range(1, n) for i in range(j)])


def _draw_index(rng: random.Random, k: int) -> int:
    return min(int(rng.random() * k), k - 1)


def _shuffle(rng: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _draw_index(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _sample(rng: random.Random, population: int, k: int) -> list[int]:
    idx = list(range(population))
    for i in range(k):
        j = i + _draw_index(rng, population - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


@dataclass(frozen=True)
class Mix:
    """A pass made of seeded random graphs per (order, density) cell plus
    fixed family members, each fixed member repeated ``copies`` times."""

    tag: int  # keeps the pools of different workloads apart
    cells: tuple[tuple[int, float], ...]
    per_cell: int
    pool: int
    families: tuple[str, ...]  # "tag:n" keys; their graph6 is in the reference
    copies: int

    def pool_graph6(self, cell: int) -> list[str]:
        n, p = self.cells[cell]
        base = (self.tag * 1000 + cell) * 1_000_000
        return [random_graph6(random.Random(base + i), n, p) for i in range(self.pool)]

    def draw(self, seed: int, ref: dict) -> list[tuple[Key, str]]:
        """(reference key, graph6 line) for every line of one pass, in order."""
        rng = random.Random(seed)
        items = []
        for cell, (n, p) in enumerate(self.cells):
            pool = self.pool_graph6(cell)
            key = f"{n}:{p}"
            if _digest("\n".join(pool)) != ref["pool_sha256"][key]:
                raise BenchmarkError(f"pool {key} differs from the recorded one")
            for i in sorted(_sample(rng, self.pool, self.per_cell)):
                items.append(((key, i), pool[i]))
        for fam in self.families:
            items.extend([((fam, None), ref["families"][fam])] * self.copies)
        _shuffle(rng, items)
        return items


# A pool graph is (cell, index); a family member is (tag:n, None).
Key = tuple


def reference_value(ref: dict, key: Key):
    """The recorded output of one pool graph or family member."""
    group, index = key
    if index is None:
        return ref["family_outputs"][group]
    return ref["outputs"][group][index]


FILE8_MIX = Mix(
    tag=1,
    cells=tuple((8, p) for p in (0.3, 0.5, 0.7, 0.85)),
    per_cell=500,
    pool=2000,
    families=("dn:8", "dn:10", "dn:12"),
    copies=1,
)
# The fixed members are repeated so that the slowest percent of a pass is
# made of copies of one graph (C13 in report-stream, C20 in gamma-stream):
# p99 then repeats from seed to seed instead of jumping between graphs.
REPORT_MIX = Mix(
    tag=2,
    cells=tuple((n, p) for n in range(9, 14) for p in (0.3, 0.5, 0.7)),
    per_cell=59,
    pool=256,
    families=("dn:8", "dn:10", "dn:12")
    + tuple(f"cycle:{n}" for n in range(9, 14)),
    copies=16,
)
GAMMA_MIX = Mix(
    tag=3,
    cells=tuple((n, p) for n in range(16, 21) for p in (0.15, 0.2, 0.3)),
    per_cell=64,
    pool=256,
    families=tuple(f"cycle:{n}" for n in range(15, 22)),
    copies=6,
)


# -- operations and passes ---------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One call into romancrit whose result the caller waits for."""

    run: Callable[[], Any]
    check: Callable[[Any], bool]  # output -> matches the reference
    graphs: int  # graphs whose verdict this call returns


@dataclass
class Pass:
    wall_s: float
    graphs: int
    latencies: list[float]  # seconds per op, in op order
    attempted: int
    failed: int


def run_pass(ops: list[Op], tracer=None) -> Pass:
    """Run every op once, timing each; check outputs after the clock stops.

    With a tracer, only the timed loop runs inside it.
    """
    outputs = []
    latencies = []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        wall = perf_counter() - start
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            ok = False
        else:
            try:
                ok = op.check(out)
            except Exception as exc:  # a check that cannot run is a failed op
                traceback.print_exception(exc, file=sys.stderr)
                ok = False
        failed += not ok
    return Pass(wall, sum(op.graphs for op in ops), latencies, len(ops), failed)


def percentile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of weighted (value, weight) samples.

    Refuses (ValueError) unless at least ten samples lie beyond the rank, so
    a reported tail percentile always rests on ten observations or more.
    """
    total = sum(w for _, w in samples)
    rank = max(1, math.ceil(round(q * total, 9)))
    if total - rank < 10:
        raise ValueError(
            f"percentile {q} of {total} samples has {total - rank} beyond it; need 10"
        )
    seen = 0
    for value, weight in sorted(samples):
        seen += weight
        if seen >= rank:
            return value
    raise AssertionError("unreachable")  # pragma: no cover


# -- references --------------------------------------------------------------


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise BenchmarkError(f"missing reference {path}") from None


def reports_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports])


def _verify_op(claims, source, expected: str, graphs: int) -> Op:
    return Op(
        run=lambda: rc.verify_claims(claims, source, workers=WORKERS),
        check=lambda reports: reports_json(reports) == expected,
        graphs=graphs,
    )


# -- verify-upto6 ------------------------------------------------------------


def build_verify_upto6(seed: int, workdir: Path, orders=UPTO6_ORDERS) -> list[Op]:
    # The enumeration is the whole input, so the seed changes nothing here.
    ref = load_reference("verify-upto6")
    return [
        _verify_op(
            claims,
            ("enumerate", n),
            json.dumps(ref["reports"][block][n]),
            1 << n * (n - 1) // 2,
        )
        for block, claims in UPTO6_BLOCKS
        for n in orders
    ]


# -- verify-file8 ------------------------------------------------------------


def expected_file_reports(ref: dict, items: list[tuple[Key, str]], label: str) -> str:
    """The reports the reference code gives for this file, from per-graph records."""
    claims = ref["claims"]
    in_hyp = [0] * len(claims)
    cex: list[list[tuple[str, str]]] = [[] for _ in claims]
    for key, g6 in items:
        mask, diags = reference_value(ref, key)
        for ci in range(len(claims)):
            in_hyp[ci] += mask >> ci & 1
        for ci, diag in diags:
            cex[ci].append((g6, diag))
    return json.dumps(
        [
            {
                "claim": cid,
                "source": label,
                "graphs_scanned": len(items),
                "graphs_in_hypothesis": in_hyp[ci],
                "counterexamples": [
                    {"graph6": g6, "diagnostic": d} for g6, d in sorted(cex[ci])
                ],
            }
            for ci, cid in enumerate(claims)
        ]
    )


def file_op(ref: dict, items: list[tuple[Key, str]], path: Path) -> Op:
    """One verify_claims call over a graph6 file holding the items."""
    path.write_text("".join(g6 + "\n" for _, g6 in items), encoding="ascii")
    expected = expected_file_reports(ref, items, f"file:{path}")
    return _verify_op(ref["claims"], ("file", str(path)), expected, len(items))


def build_verify_file8(seed: int, workdir: Path) -> list[Op]:
    ref = load_reference("verify-file8")
    items = FILE8_MIX.draw(seed, ref)
    return [file_op(ref, items, workdir / f"verify-file8-seed{seed}.g6")]


# -- streams -----------------------------------------------------------------


def _fmt_set(labels, label: int) -> str:
    return "{" + ",".join(str(v) for v, x in enumerate(labels) if x == label) + "}"


def render_gamma(line: str, res) -> str:
    """The line ``romancrit gamma`` prints for one input line."""
    labels = res.witness.labels
    return (
        f"{line} gamma={res.gamma} V2={_fmt_set(labels, 2)}"
        f" V1={_fmt_set(labels, 1)} V0={_fmt_set(labels, 0)}"
    )


def render_report(g6: str, rep) -> str:
    """The line ``romancrit report`` prints for one graph."""
    out = {"graph6": g6}
    out.update(rep.to_json_dict())
    return json.dumps(out, separators=(",", ":"))


def gamma_run(line: str):
    g = rc.parse_graph6(line)
    return g, rc.roman_number(g)


def report_run(line: str):
    g = rc.parse_graph6(line)
    rep = rc.criticality_report(g)
    return rc.emit_graph6(g), rep


def render(workload: str, line: str, out) -> str:
    if workload == "gamma-stream":
        return render_gamma(line, out[1])
    return render_report(*out)


def _stream_check(workload: str, line: str, expected: str, out) -> bool:
    if workload == "gamma-stream":
        g, res = out
        if not (rc.is_roman(g, res.witness) and res.witness.weight == res.gamma):
            return False
    return _digest(render(workload, line, out)) == expected


STREAM_MIX = {"report-stream": REPORT_MIX, "gamma-stream": GAMMA_MIX}
STREAM_RUN = {"report-stream": report_run, "gamma-stream": gamma_run}
STREAM_COMMAND = {"report-stream": "report", "gamma-stream": "gamma"}


def stream_ops(workload: str, items: list[tuple[Key, str]], ref: dict) -> list[Op]:
    run = STREAM_RUN[workload]
    return [
        Op(
            run=lambda line=line: run(line),
            check=lambda out, line=line, e=reference_value(ref, key): _stream_check(
                workload, line, e, out
            ),
            graphs=1,
        )
        for key, line in items
    ]


def build_stream(workload: str, seed: int, workdir: Path) -> list[Op]:
    ref = load_reference(workload)
    return stream_ops(workload, STREAM_MIX[workload].draw(seed, ref), ref)


def cli_check(workload: str, seed: int, workdir: Path, env: dict) -> tuple[int, int]:
    """Run ``romancrit gamma|report`` on the first lines of the pass and compare
    what it prints with the reference. Returns (lines attempted, lines failed)."""
    ref = load_reference(workload)
    items = STREAM_MIX[workload].draw(seed, ref)[:CLI_SAMPLE]
    path = workdir / f"{workload}-seed{seed}-cli.g6"
    path.write_text("".join(g6 + "\n" for _, g6 in items), encoding="ascii")
    cmd = [sys.executable, "-m", "romancrit.cli", STREAM_COMMAND[workload], "--input", str(path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    failed = sum(
        i >= len(lines) or _digest(lines[i]) != reference_value(ref, key)
        for i, (key, _) in enumerate(items)
    )
    # report exits 2 when a report carries a dual-path diagnostic; gamma exits 0
    allowed = (0,) if workload == "gamma-stream" else (0, 2)
    if proc.returncode not in allowed:
        print(f"cli exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        failed = max(failed, 1)
    return len(items), failed


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload == "verify-upto6":
        return build_verify_upto6(seed, workdir)
    if workload == "verify-file8":
        return build_verify_file8(seed, workdir)
    return build_stream(workload, seed, workdir)


def env_for_children(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))
