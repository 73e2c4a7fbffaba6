"""Record the reference outputs the benchmark checks every run against.

Run once, at the commit whose behaviour is the reference:

    python3 bench/record.py

It imports romancrit from ``src/``, evaluates every pool graph of every
seeded workload and the whole verify-upto6 scan, and writes
``bench/reference/<workload>.json``. Stream outputs are stored as digests of
the exact line ``romancrit gamma`` / ``romancrit report`` prints; the script
also runs the command-line tool over each whole pool and stops if any line it
prints differs from the rendered library output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import romancrit as rc  # noqa: E402

import workloads as wl  # noqa: E402


def _write(name: str, data: dict) -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _pool_items(mix: wl.Mix) -> tuple[dict, dict, list[tuple[wl.Key, str]]]:
    """(pool digests, family graph6, every (key, graph6) of the pools)."""
    digests, families, items = {}, {}, []
    for cell, (n, p) in enumerate(mix.cells):
        pool = mix.pool_graph6(cell)
        key = f"{n}:{p}"
        digests[key] = wl._digest("\n".join(pool))
        items.extend(((key, i), g6) for i, g6 in enumerate(pool))
    for fam in mix.families:
        tag, n = fam.split(":")
        families[fam] = rc.emit_graph6(rc.gen_family(tag, int(n)))
        items.append(((fam, None), families[fam]))
    return digests, families, items


def _reference(digests, families, items, values) -> dict:
    outputs: dict[str, list] = {}
    family_outputs = {}
    for ((group, index), _), value in zip(items, values):
        if index is None:
            family_outputs[group] = value
        else:
            outputs.setdefault(group, []).append(value)
    return {
        "pool_sha256": digests,
        "families": families,
        "outputs": outputs,
        "family_outputs": family_outputs,
    }


def record_upto6() -> None:
    reports = {
        block: [
            [r.to_json_dict() for r in rc.verify_claims(claims, ("enumerate", n), workers=2)]
            for n in wl.UPTO6_ORDERS
        ]
        for block, claims in wl.UPTO6_BLOCKS
    }
    _write("verify-upto6", {"reports": reports})


def _graph_record(claims: list[str], g6: str) -> list:
    """[bitmask of claims whose hypothesis holds, [[claim index, diagnostic]]]."""
    reps = rc.verify_claims(claims, ("graphs", (rc.parse_graph6(g6),)), workers=1)
    mask = sum(r.graphs_in_hypothesis << ci for ci, r in enumerate(reps))
    return [mask, [[ci, c.diagnostic] for ci, r in enumerate(reps) for c in r.counterexamples]]


def record_file8() -> None:
    claims = list(rc.CLAIMS)
    digests, families, items = _pool_items(wl.FILE8_MIX)
    values = [_graph_record(claims, g6) for _, g6 in items]
    ref = {"claims": claims}
    ref.update(_reference(digests, families, items, values))
    _write("verify-file8", ref)


def record_stream(workload: str, work: Path) -> None:
    digests, families, items = _pool_items(wl.STREAM_MIX[workload])
    run = wl.STREAM_RUN[workload]
    lines = [wl.render(workload, g6, run(g6)) for _, g6 in items]
    path = work / f"{workload}-pool.g6"
    path.write_text("".join(g6 + "\n" for _, g6 in items), encoding="ascii")
    cmd = [sys.executable, "-m", "romancrit.cli", wl.STREAM_COMMAND[workload], "--input", str(path)]
    proc = subprocess.run(cmd, env=wl.env_for_children(ROOT / "src"), capture_output=True, text=True)
    if proc.stdout.splitlines() != lines:
        raise SystemExit(f"{workload}: command-line output differs from the library output")
    _write(workload, _reference(digests, families, items, [wl._digest(x) for x in lines]))


def main() -> None:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    record_upto6()
    record_file8()
    record_stream("report-stream", work)
    record_stream("gamma-stream", work)


if __name__ == "__main__":
    main()
