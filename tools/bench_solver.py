"""Time the solver layer: gamma_r, gamma_at_most and minimal_partitions.

    python3 tools/bench_solver.py --src parent=/path/to/parent/src \\
        --src change=src --out BENCH_9.json
    python3 tools/bench_solver.py              # one column, ./src, to stdout

Each ``--src [NAME=]DIR`` names a directory that holds the ``romancrit``
package, so one script times two checkouts on the same graphs. Each source
runs in a fresh interpreter of this script (``--column DIR``), one after
another, and the record holds one column per source, side by side. Every
timing is the best of three calls on:

  C15 .. C24              cycles, where gamma_r = ceil(2n/3) makes the sweep long
  G(24, 0.1) #0 .. #4     random graphs, stdlib ``random`` seeded with SEED

and the three operations are ``gamma_r(g)``, ``gamma_at_most(g, gamma - 1)``
(a full sweep that finds nothing) and ``minimal_partitions(g)``. Stdlib only;
nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from time import perf_counter

REPEATS = 3
CYCLES = range(15, 25)
RANDOM_ORDER = 24
RANDOM_P = 0.1
RANDOM_COUNT = 5
SEED = 9
OPS = ("gamma_r", "gamma_at_most", "minimal_partitions")


def _graphs(rc) -> list[tuple[str, object]]:
    out = [(f"C{n}", rc.gen_family("cycle", n)) for n in CYCLES]
    rng = random.Random(SEED)
    n = RANDOM_ORDER
    for i in range(RANDOM_COUNT):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < RANDOM_P
        ]
        out.append((f"G({n},{RANDOM_P})#{i}", rc.graph_new(n, edges)))
    return out


def _best(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best


def time_source(src: str) -> list[dict]:
    """One column: a row per (operation, graph), seconds best of REPEATS."""
    sys.path.insert(0, os.path.abspath(src))
    import romancrit as rc

    rows = []
    for name, g in _graphs(rc):
        gamma = rc.gamma_r(g)
        calls = {
            "gamma_r": lambda: rc.gamma_r(g),
            "gamma_at_most": lambda: rc.gamma_at_most(g, gamma - 1),
            "minimal_partitions": lambda: rc.minimal_partitions(g),
        }
        for op in OPS:
            rows.append(
                {"op": op, "graph": name, "gamma": gamma, "s": _best(calls[op])}
            )
    return rows


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
        help="time DIR in this process and print its rows as JSON",
    )
    parser.add_argument("--out", metavar="FILE", default=None)
    args = parser.parse_args(argv)
    if args.column:
        print(json.dumps(time_source(args.column)))
        return 0

    sources = dict(_parse_source(s) for s in args.src or ["src"])
    columns = {}
    for name, path in sources.items():
        child = subprocess.run(
            [sys.executable, __file__, "--column", path],
            check=True,
            capture_output=True,
            text=True,
        )
        columns[name] = json.loads(child.stdout)
    names = list(columns)
    rows = [
        {
            "op": row["op"],
            "graph": row["graph"],
            "gamma": row["gamma"],
            "seconds": {name: round(columns[name][i]["s"], 5) for name in names},
        }
        for i, row in enumerate(columns[names[0]])
    ]
    record = {
        "what": f"solver layer, best of {REPEATS} calls per operation, seconds",
        "seed": SEED,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "columns": names,
        "totals": {
            op: {
                name: round(sum(r["seconds"][name] for r in rows if r["op"] == op), 4)
                for name in names
            }
            for op in OPS
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
