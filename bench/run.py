"""Benchmark for romancrit: four seeded workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S          # every workload in turn

Workloads (BENCHMARK.json says why each is there, and gates verify-upto6 and
gamma-stream; the other two run by name or with the rest when --workload is
left out):
  verify-upto6   the gamma_r=4 claim block, then the dual-route block, one
                 serial verify_claims call per order 0..6 over the labeled
                 graphs
  verify-file8   all 19 claims in one verify_claims call over a graph6 file
                 of seeded order-8 graphs plus dn:8, dn:10, dn:12
  report-stream  parse_graph6 then criticality_report per line
  gamma-stream   parse_graph6 then roman_number per line

``--trace 0`` reports the end-to-end metrics from untraced passes:
graphs_per_s, latency_ms.p50, latency_ms.p99, setup_s and peak_rss_mb.
A pass runs every operation once; a run makes at least three passes and
keeps each operation's fastest. A graph's latency is the time from the call
that takes it until that call returns its verdict; on the verify workloads
that is the whole verify_claims call, weighted by the graphs it scans.
graphs_per_s is the graphs of one pass over the sum of those fastest
operation times. ``--trace 1`` runs passes alternately untraced and traced
and reports per-layer calls and self time, per pass, plus the tracing
overhead (traced minus untraced pass time). Claim hypothesis and check times
include what they call, so the first claim to need gamma_r pays for it.

Every operation's output is compared with a reference recorded from the
romancrit 0.1.0 code (``bench/reference``, written by ``bench/record.py``),
the stream lines also with what the command-line tool prints; an exception
or a mismatch is a failed operation. Known counterexamples are part of the
reference and never count as failures. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Scratch files, the
result record with its environment stamp, and the trace go to
``.bench_work/`` in the checkout. romancrit is imported from ``src/`` of the
checkout this file sits in; nothing is installed.

Tests of the benchmark itself:
    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# Untraced passes per run at least, so each op's fastest pass is a best of three.
MIN_PASSES = 3
# Fresh interpreters timed for setup_s: SETUP_SAMPLES at the start and again
# after the first pass to end in each fifth of the run, so the median spans
# the run. One more before them only warms the bytecode cache.
SETUP_SAMPLES = 2
SETUP_POINTS = 5
SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import romancrit, romancrit.cli\n"
    "print(time.perf_counter() - t0)\n"
)

END_TO_END_UNITS = {
    "graphs_per_s": "graphs/s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TIMED_FUNCTIONS = {
    "solver": ("minimal_partitions", "roman_number"),
    "criticality": (
        "first_non_critical_vertex",
        "first_unsaturated_nonedge",
        "first_non_ecritical_edge",
        "first_gamma_changing_edge",
        "criticality_report",
    ),
    "gamma4": (
        "vcrit4_by_degrees",
        "saturated4_by_degrees",
        "ecrit4_by_degrees",
        "high_class_bounds",
        "classify_critical4",
        "local8_conditions",
        "local8_fast",
        "_witness_pairs_raw",
        "_cut_structure",
    ),
    "graph6": ("parse_graph6", "emit_graph6"),
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def setup_times(env: dict, count: int) -> list[float]:
    """Seconds from a fresh interpreter's first statement until romancrit,
    with its command-line layer, is imported; one per interpreter."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", SETUP_CHILD],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            ).stdout
        )
        for _ in range(count)
    ]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are any pool workers and the
    # set-up and command-line subprocesses, all waited for by now.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    # The benchmark may run from an exported tree with no repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "romancrit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workers: int) -> dict:
    return {
        "nproc": nproc(),
        "workers": workers,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "loadavg_1m_start": os.getloadavg()[0],
        "cpu_isolation": "none",
        "kernel_tuning": "none",
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, passes, setup: list[float]) -> dict:
    """Each op's latency is its fastest pass. On a shared machine, phases of
    tens of seconds run the same op up to twice as slow; across runs, the
    fastest of a few passes spread half as wide as their median did."""
    best = [min(p.latencies[i] for p in passes) for i in range(len(ops))]
    samples = [(t, op.graphs) for t, op in zip(best, ops)]
    metrics = {
        "graphs_per_s": sum(op.graphs for op in ops) / sum(best),
        "latency_ms.p50": wl.percentile(samples, 0.50) * 1000,
        "latency_ms.p99": wl.percentile(samples, 0.99) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer_names(claims) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [
        ("solver.gamma_r.calls_per_graph", "ratio"),
        ("solver.gamma_r.calls.from_harness", "count"),
        ("solver.gamma_r.calls.from_criticality", "count"),
        ("solver.gamma_r.calls.from_gamma4", "count"),
        ("solver.gamma_r.self_s", "s"),
    ]
    for module, fns in TIMED_FUNCTIONS.items():
        for fn in fns:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
    names += [
        ("criticality.partition_routes.self_s", "s"),
        ("iso.is_isomorphic.calls", "count"),
        ("iso.is_isomorphic.self_s", "s"),
        ("iso.is_isomorphic.true_frac", "ratio"),
        ("graphs.gen_family.calls", "count"),
        ("graphs.edits.calls", "count"),
        ("graphs.edits.self_s", "s"),
        ("harness.facts_per_graph", "ratio"),
        ("harness.graph_from_edge_mask.self_s", "s"),
        ("harness.self_s", "s"),
    ]
    for cid in claims:
        names += [(f"harness.claim.{cid}.hypothesis_s", "s"), (f"harness.claim.{cid}.check_s", "s")]
    names += [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


def _layer_values(tr, graphs: int) -> dict:
    """Per-pass values from one traced pass."""
    v = {
        "solver.gamma_r.calls_per_graph": tr.calls("solver.gamma_r") / graphs,
        "solver.gamma_r.self_s": tr.self_s("solver.gamma_r"),
        "criticality.partition_routes.self_s": tr.self_s("criticality.partition_routes"),
        "iso.is_isomorphic.true_frac": (
            tr.results_true.get("iso.is_isomorphic", 0) / tr.calls("iso.is_isomorphic")
            if tr.calls("iso.is_isomorphic")
            else 0.0
        ),
        "harness.facts_per_graph": tr.facts_built / graphs,
        "harness.self_s": tr.self_s("harness"),
    }
    for caller in ("harness", "criticality", "gamma4"):
        v[f"solver.gamma_r.calls.from_{caller}"] = tr.callers.get(("solver.gamma_r", caller), 0)
    spans = [f"{m}.{fn}" for m, fns in TIMED_FUNCTIONS.items() for fn in fns]
    spans += ["iso.is_isomorphic", "graphs.edits"]
    for span in spans:
        v[f"{span}.calls"] = tr.calls(span)
        v[f"{span}.self_s"] = tr.self_s(span)
    v["graphs.gen_family.calls"] = tr.calls("graphs.gen_family")
    v["harness.graph_from_edge_mask.self_s"] = tr.self_s("harness.graph_from_edge_mask")
    for name in tr.spans:
        if name.startswith("harness.claim."):
            v[name + "_s"] = tr.total_s(name)
    return v


def per_layer(tracers, untraced, traced, claims) -> dict:
    """Counts from the first traced pass (they repeat exactly); times are
    medians over traced passes."""
    graphs = traced[0].graphs
    values = [_layer_values(tr, graphs) for tr in tracers]
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    out = {}
    for name, unit in per_layer_names(claims):
        if name == "trace.overhead_s":
            value = overhead
        elif name == "trace.overhead_frac":
            value = overhead / statistics.median(p.wall_s for p in untraced)
        elif unit == "s":
            value = statistics.median(v.get(name, 0.0) for v in values)
        else:
            value = values[0].get(name, 0)
        out[name] = _metric(value, unit)
    return out


def run_workload(args) -> int:
    WORKDIR.mkdir(exist_ok=True)
    env = wl.env_for_children(SRC)
    stamp = environment(wl.WORKERS)
    claims = wl.load_reference("verify-file8")["claims"]

    if not args.trace:
        setup_times(env, 1)
        setup = setup_times(env, SETUP_SAMPLES)
    ops = wl.build(args.workload, args.seed, WORKDIR)
    attempted = failed = 0
    untraced, traced, tracers = [], [], []
    setup_point = 0
    start = perf_counter()
    while True:
        if args.trace:
            # The untraced twin gives the tracing overhead.
            untraced.append(wl.run_pass(ops))
            tracers.append(Tracer())
            traced.append(wl.run_pass(ops, tracers[-1]))
            last = untraced[-1].wall_s + traced[-1].wall_s
            enough = True
        else:
            untraced.append(wl.run_pass(ops))
            point = int((perf_counter() - start) * SETUP_POINTS / args.seconds)
            if point > setup_point:
                setup_point = point
                setup += setup_times(env, SETUP_SAMPLES)
            last = untraced[-1].wall_s
            enough = len(untraced) >= MIN_PASSES
        if enough and perf_counter() - start + last > args.seconds:
            break
    for p in untraced + traced:
        attempted += p.attempted
        failed += p.failed
    if args.workload in wl.STREAM_MIX:
        cli_attempted, cli_failed = wl.cli_check(args.workload, args.seed, WORKDIR, env)
        attempted += cli_attempted
        failed += cli_failed

    if args.trace:
        metrics = per_layer(tracers, untraced, traced, claims)
    else:
        metrics = end_to_end(ops, untraced, setup)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if not args.trace:
        graphs = sum(op.graphs for op in ops)
        print(f"{args.workload} latency samples {graphs} graphs, fastest of {len(untraced)} passes each")
    print("env " + json.dumps(stamp))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, env=stamp,
                  passes=[p.wall_s for p in untraced], traced_passes=[p.wall_s for p in traced],
                  op_latencies=[p.latencies for p in untraced])
    if tracers:
        record["trace"] = tracers[0].to_json()
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


WORKLOAD_NAMES = ("verify-upto6", "verify-file8", "report-stream", "gamma-stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "romancrit" / "__init__.py").is_file():
        print(f"error: {SRC}/romancrit not found; run from a romancrit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import romancrit

    if Path(romancrit.__file__).resolve().parent != SRC / "romancrit":
        print(f"error: imported romancrit from {romancrit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    global wl, Tracer
    import workloads as wl
    from tracer import Tracer

    try:
        return run_workload(args)
    except wl.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
