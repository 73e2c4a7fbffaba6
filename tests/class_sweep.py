"""The orbit sweep that finds the isomorphism classes of orders 0-8, and the
writer of ``romancrit._class_table`` from them.

The tier-1 tests import this module as the oracle of the table at orders
0-7. Run as a script, it does the two order-8 checks that are too slow for
tier-1:

    PYTHONPATH=src python tests/class_sweep.py table > src/romancrit/_class_table.py
    PYTHONPATH=src python tests/class_sweep.py orbits

``table`` sweeps orders 0-8 and prints the module; the file must come out
byte-identical (about 100 s, with a 256 MiB seen-map at order 8).
``orbits`` reads the table's order 8 and checks that every representative is
the smallest mask of its orbit and that the orbit has the listed size (about
60 s). Distinct orbit minima make the classes distinct, and sizes that sum to
2^28 make them cover every labeled graph, so this proves order 8 of the table
without the seen-map.
"""

from __future__ import annotations

import sys
import textwrap
from typing import Sequence

from romancrit.harness import EdgePermutations, isomorphism_classes

# The seen-map takes one byte per labeled graph: 256 MiB at order 8, 64 GiB
# at order 9.
SWEEP_MAX_ORDER = 8

TABLE_COMMAND = (
    "PYTHONPATH=src python tests/class_sweep.py table > src/romancrit/_class_table.py"
)

_TABLE_DOC = '''"""Isomorphism classes of the graphs of orders 0-{top}, one string per order.

``CLASSES[n]`` lists ``rep:size`` tokens in ascending ``rep``: the smallest
edge mask of each class, the integer of the upper triangle that graph6 writes
out (pair (i, j), i < j, on bit j(j-1)/2 + i; ``graph6.edge_mask``), and its
number of labeled copies, n!/|Aut|. The class counts are OEIS A000088.
``romancrit.harness.isomorphism_classes`` reads this table, the only source
of classes, instead of sweeping every labeled mask. The file is the output of
the orbit sweep in ``tests/class_sweep.py``, written by

    {command}

A test fails unless the file is that output at orders 0-7, byte for byte;
the script's ``orbits`` mode checks every class of order 8.
"""
'''


def sweep_classes(n: int) -> list[tuple[int, int]]:
    """The (representative, class size) pairs of order n, by an orbit sweep.

    Masks are walked in ascending order; each one not yet seen is the smallest
    mask of its class and marks its orbit seen. Orders above
    ``SWEEP_MAX_ORDER`` are refused before the seen-map is allocated.
    """
    if n > SWEEP_MAX_ORDER:
        raise ValueError(
            f"the class sweep stops at order {SWEEP_MAX_ORDER}: its seen-map "
            f"would take 2^{n * (n - 1) // 2} bytes"
        )
    seen = bytearray(1 << (n * (n - 1) // 2))
    perms = EdgePermutations(n)
    classes = []
    rep = 0
    while rep >= 0:
        orbit = perms.orbit(rep)
        for mask in orbit:
            seen[mask] = 1
        classes.append((rep, len(orbit)))
        rep = seen.find(0, rep + 1)
    return classes


def table_module(classes: Sequence[Sequence[tuple[int, int]]]) -> str:
    """Source of ``_class_table`` holding ``classes[n]`` for every order n."""
    top = len(classes) - 1
    lines = [_TABLE_DOC.format(top=top, command=TABLE_COMMAND), "CLASSES = ("]
    for n, order in enumerate(classes):
        lines.append(f"    # order {n}: A000088({n}) = {len(order)}")
        rows = textwrap.wrap(" ".join(f"{rep}:{size}" for rep, size in order), 70)
        lines.extend(f'    "{row} "' for row in rows[:-1])
        lines.append(f'    "{rows[-1]}",')
    lines.append(")")
    return "\n".join(lines) + "\n"


def check_orbits(n: int, classes: Sequence[tuple[int, int]]) -> None:
    """Raise AssertionError unless each representative is the smallest mask
    of its orbit and the orbit has the listed size."""
    perms = EdgePermutations(n)
    for rep, size in classes:
        orbit = perms.orbit(rep)
        if min(orbit) != rep or len(orbit) != size:
            raise AssertionError(
                f"order {n}: class {rep}:{size} has an orbit of {len(orbit)} "
                f"masks from {min(orbit)}"
            )


def main(argv: Sequence[str]) -> int:
    if list(argv) == ["table"]:
        sys.stdout.write(
            table_module([sweep_classes(n) for n in range(SWEEP_MAX_ORDER + 1)])
        )
        return 0
    if list(argv) == ["orbits"]:
        n = SWEEP_MAX_ORDER
        classes = isomorphism_classes(n)
        reps = [rep for rep, _ in classes]
        if reps != sorted(set(reps)):
            raise AssertionError(f"order {n}: representatives do not ascend")
        if sum(size for _, size in classes) != 1 << (n * (n - 1) // 2):
            raise AssertionError(f"order {n}: sizes do not sum to 2^C(n,2)")
        check_orbits(n, classes)
        print(f"order {n}: {len(classes)} classes, every orbit checked")
        return 0
    print("usage: class_sweep.py table | orbits", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
