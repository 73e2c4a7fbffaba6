"""Time the solver and criticality layers.

    python3 tools/bench_solver.py --src parent=/path/to/parent/src \\
        --src change=src --out BENCH_12.json
    python3 tools/bench_solver.py              # one column, ./src, to stdout

Each ``--src [NAME=]DIR`` names a directory that holds the ``romancrit``
package, so one script times two checkouts on the same graphs. Each source
runs in one long-lived interpreter of this script (``--column DIR``), which
times the row it is asked for. In each of ROUNDS (six) rounds every row is
timed in every column back to back, the column that goes first alternating
from row to row and from round to round, so that no source always runs
first and a slow spell of the machine falls on both columns of a row. The
record holds one column per source, side by side. Every timing is the best
of three calls in each round, and the best of the rounds, on:

  C15 .. C24              cycles, where gamma_r = ceil(2n/3) makes the sweep long
  G(24, 0.1) #0 .. #4     random graphs, stdlib ``random`` seeded with SEED
  C20+C20, C12+C12+C12    disjoint unions of cycles, orders 40 and 36
  G(40, 0.03)             a sparse random graph from the same seeded stream
  G(20, 0.15) #0 .. #4,   the sparse orders whose lines are the slowest of
  G(18, 0.2) #0 .. #4     the gamma-stream benchmark, from the same stream

and the three operations are ``gamma_r(g)``, ``gamma_at_most(g, gamma - 1)``
(a full sweep that finds nothing) and ``minimal_partitions(g)``. The
criticality rows time ``is_v_critical``, ``is_roman_saturated``,
``is_e_critical`` and ``minimal_partitions`` on:

  order-6 classes         one call per class representative, summed (156)
  C12+C12                 order 24, the largest minimal_partitions accepts

An operation that raises ``TooLarge`` in any round is recorded as
"refused"; ``gamma_at_most`` takes its limit from this column's ``gamma_r``,
so it is refused with it. The totals add only the rows every column timed.
Stdlib only; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from functools import partial
from time import perf_counter

REPEATS = 3
ROUNDS = 6
CYCLES = range(15, 25)
RANDOM_ORDER = 24
RANDOM_P = 0.1
RANDOM_COUNT = 5
SPARSE = (40, 0.03)
TAIL = ((20, 0.15), (18, 0.2))
TAIL_COUNT = 5
SEED = 9
OPS = ("gamma_r", "gamma_at_most", "minimal_partitions")
CRITICALITY_OPS = (
    "is_v_critical",
    "is_roman_saturated",
    "is_e_critical",
    "minimal_partitions",
)


def _random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _cycles(rc, *orders: int):
    edges, base = [], 0
    for n in orders:
        edges += [(base + v, base + (v + 1) % n) for v in range(n)]
        base += n
    return rc.graph_new(base, edges)


def _graphs(rc) -> list[tuple[str, object]]:
    out = [(f"C{n}", rc.gen_family("cycle", n)) for n in CYCLES]
    rng = random.Random(SEED)
    n = RANDOM_ORDER
    for i in range(RANDOM_COUNT):
        g = rc.graph_new(n, _random_edges(rng, n, RANDOM_P))
        out.append((f"G({n},{RANDOM_P})#{i}", g))
    out.append(("C20+C20", _cycles(rc, 20, 20)))
    out.append(("C12+C12+C12", _cycles(rc, 12, 12, 12)))
    n, p = SPARSE
    out.append((f"G({n},{p})", rc.graph_new(n, _random_edges(rng, n, p))))
    for n, p in TAIL:
        for i in range(TAIL_COUNT):
            g = rc.graph_new(n, _random_edges(rng, n, p))
            out.append((f"G({n},{p})#{i}", g))
    return out


def _criticality_sets(rc) -> list[tuple[str, list]]:
    from romancrit.harness import graph_from_edge_mask, isomorphism_classes

    reps = [graph_from_edge_mask(6, rep) for rep, _ in isomorphism_classes(6)]
    return [("order-6 classes", reps), ("C12+C12", [_cycles(rc, 12, 12)])]


def _best(rc, call) -> float | str:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        try:
            call()
        except rc.TooLarge:
            return "refused"
        best = min(best, perf_counter() - t0)
    return round(best, 7)


def _rows(rc) -> list[tuple[dict, object]]:
    """A row per (operation, graph): its op, graph and gamma, and the call
    to time, None for a gamma_at_most whose gamma_r is refused."""
    rows = []
    for name, g in _graphs(rc):
        try:
            gamma = rc.gamma_r(g)
        except rc.TooLarge:
            gamma = None
        calls = {
            "gamma_r": partial(rc.gamma_r, g),
            "gamma_at_most": (
                None if gamma is None else partial(rc.gamma_at_most, g, gamma - 1)
            ),
            "minimal_partitions": partial(rc.minimal_partitions, g),
        }
        for op in OPS:
            rows.append(({"op": op, "graph": name, "gamma": gamma}, calls[op]))
    for name, graphs in _criticality_sets(rc):
        gamma = rc.gamma_r(graphs[0]) if len(graphs) == 1 else None
        for op in CRITICALITY_OPS:
            call = partial(_each, getattr(rc, op), graphs)
            rows.append(({"op": op, "graph": name, "gamma": gamma}, call))
    return rows


def _each(call, graphs: list) -> list:
    return [call(g) for g in graphs]


def serve_column(src: str) -> None:
    """The child for one source: print its rows, without timings, as one
    JSON line, then for each row index read from stdin print that row's
    seconds, best of REPEATS, or "refused", as one JSON line."""
    sys.path.insert(0, os.path.abspath(src))
    import romancrit as rc

    rows = _rows(rc)
    print(json.dumps([row for row, _ in rows]), flush=True)
    for line in sys.stdin:
        call = rows[int(line)][1]
        s = "refused" if call is None else _best(rc, call)
        print(json.dumps(s), flush=True)


def _reply(name: str, child: subprocess.Popen):
    line = child.stdout.readline()
    if not line:
        raise SystemExit(f"bench_solver: column {name} exited with {child.wait()}")
    return json.loads(line)


def _faster(a: float | str, b: float | str) -> float | str:
    """The better of two rounds' timings of one row; a refusal stays a
    refusal."""
    return "refused" if "refused" in (a, b) else min(a, b)


def _parse_source(text: str) -> tuple[str, str]:
    name, sep, path = text.partition("=")
    return (name, path) if sep else (text, text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        action="append",
        metavar="[NAME=]DIR",
        help="directory holding the romancrit package (repeatable)",
    )
    parser.add_argument(
        "--column",
        metavar="DIR",
        help="serve DIR's rows in this process: time the row each stdin line names",
    )
    parser.add_argument("--out", metavar="FILE", default=None)
    args = parser.parse_args(argv)
    if args.column:
        serve_column(args.column)
        return 0

    sources = dict(_parse_source(s) for s in args.src or ["src"])
    names = list(sources)
    children = {
        name: subprocess.Popen(
            [sys.executable, __file__, "--column", path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for name, path in sources.items()
    }
    try:
        columns = {name: _reply(name, child) for name, child in children.items()}
        keys = [[(c["op"], c["graph"]) for c in cells] for cells in columns.values()]
        if any(k != keys[0] for k in keys):
            raise SystemExit("bench_solver: the sources list different rows")
        for r in range(ROUNDS):
            for i in range(len(keys[0])):
                for name in names[:: -1 if (r + i) % 2 else 1]:
                    child = children[name]
                    child.stdin.write(f"{i}\n")
                    child.stdin.flush()
                    s = _reply(name, child)
                    cell = columns[name][i]
                    cell["s"] = _faster(cell["s"], s) if "s" in cell else s
    finally:
        for child in children.values():
            child.stdin.close()
            child.wait()
    rows = []
    for i, row in enumerate(columns[names[0]]):
        cells = [columns[name][i] for name in names]
        solved = [c["gamma"] for c in cells if c["gamma"] is not None]
        rows.append(
            {
                "op": row["op"],
                "graph": row["graph"],
                "gamma": solved[0] if solved else None,
                "seconds": {name: c["s"] for name, c in zip(names, cells)},
            }
        )
    timed = [
        r for r in rows if not any(isinstance(s, str) for s in r["seconds"].values())
    ]
    record = {
        "what": (
            f"solver and criticality layers, best of {REPEATS} calls per"
            f" operation in each of {ROUNDS} rounds, one long-lived process"
            " per column, each row timed in every column back to back with"
            " the first column alternating per row and per round, seconds;"
            " totals over the rows every column timed"
        ),
        "seed": SEED,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "columns": names,
        "totals": {
            op: {
                name: round(sum(r["seconds"][name] for r in timed if r["op"] == op), 7)
                for name in names
            }
            for op in dict.fromkeys(OPS + CRITICALITY_OPS)
        },
        "rows": rows,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
