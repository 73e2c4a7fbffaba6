"""Hand-made mutants of the solver, criticality and graph kernels and of
``Facts``, and the tests that must catch them.

    python3 tools/mutants.py               # every mutant
    python3 tools/mutants.py NAME ...      # the named ones
    python3 tools/mutants.py --list        # names and files

Each mutant is a file under ``src/``, an exact old text, its replacement and
the tests expected to fail. The old text must occur exactly once in the file;
otherwise the tool stops with an error before running anything, so a mutant
that no longer matches the code is noticed, never skipped. ``src/`` and
``tests/`` are copied to a temporary directory once; each mutant is written
into the copy, its tests run there with ``python -m pytest``, and the file is
restored. A mutant is killed when one of its tests fails or the run times
out, and survives when they all pass. Every survivor is reported, and the
exit status is 1 if there is one. The checkout itself is never written.
Stdlib only; pytest must be importable.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

CRIT = "src/romancrit/criticality.py"
SOLVER = "src/romancrit/solver.py"
GRAPHS = "src/romancrit/graphs.py"

T_KERNELS = "tests/test_criticality.py::test_mask_kernels_match_graph_object_predicates"
T_FIRST = "tests/test_criticality.py::test_first_failures_match_definition"
T_AT_MOST = "tests/test_solver.py::test_at_most_boundaries"
T_AT_MOST_EXH = "tests/test_solver.py::test_gamma_at_most_matches_gamma_r_exhaustive"
T_GOSPER = "tests/test_solver.py::test_light_sets_matches_gosper_sweep_random"
T_SPLIT = "tests/test_solver.py::test_split_matches_whole_graph_sweep"
T_SUMMED = "tests/test_solver.py::test_sweep_guard_sums_the_charge_over_components"
T_TWO_C20 = "tests/test_solver.py::test_sweep_guard_admits_two_c20_by_components"
T_PAIRS_SPLIT = "tests/test_solver.py::test_partitions_split_matches_whole_graph_sweep"
T_SMALL_COMPS = "tests/test_solver.py::test_minimal_partitions_of_small_components"
T_KNOWN_GAMMA = (
    "tests/test_solver.py::test_partitions_split_with_known_gamma_solves_all_but_the_last"
)
T_ROUTES = "tests/test_criticality.py::test_e_critical_routes_agree_random"
T_SAT_ROUTES = "tests/test_criticality.py::test_saturated_routes_agree_random"
T_REPORT = "tests/test_criticality.py::test_criticality_report_matches_public_routes"
T_WARM = "tests/test_criticality.py::test_every_predicate_reads_a_warm_facts_as_its_graph"
T_RELABELED = (
    "tests/test_criticality.py::test_relabeled_facts_carry_only_what_names_no_vertex"
)
T_COMPONENTS = "tests/test_graphs.py::test_component_masks_match_a_search_over_neighbor_sets"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # derived masks in criticality.py
    Mutant(
        "delete-vertex-compress-off-by-one",
        CRIT,
        "        low = (1 << v) - 1\n",
        "        low = (2 << v) - 1\n",
        (T_KERNELS, T_FIRST),
    ),
    Mutant(
        "delete-edge-or-for-xor",
        CRIT,
        "    h[u] ^= 1 << v\n    h[v] ^= 1 << u\n",
        "    h[u] |= 1 << v\n    h[v] |= 1 << u\n",
        (T_KERNELS, T_FIRST),
    ),
    # _at_most in solver.py
    Mutant(
        "size-one-exit-dropped",
        SOLVER,
        "        if max(map(int.bit_count, closed)) >= n + 2 - limit:\n"
        "            return True\n",
        "",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    Mutant(
        "size-one-exit-need-one-less",
        SOLVER,
        ">= n + 2 - limit:",
        ">= n + 1 - limit:",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    Mutant(
        "size-one-exit-need-one-more",
        SOLVER,
        ">= n + 2 - limit:",
        ">= n + 3 - limit:",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    Mutant(
        "size-one-exit-limit-off-by-one",
        SOLVER,
        "        if limit < 2:\n",
        "        if limit < 3:\n",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    Mutant(
        "all-ones-shortcut-strict",
        SOLVER,
        "    if n <= limit:  # every vertex labeled 1\n",
        "    if n < limit:  # every vertex labeled 1\n",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    # the sweep primitive
    Mutant(
        "light-sets-reversed-leaf-order",
        SOLVER,
        "            y = 0\n"
        "            for c in closed[:x]:\n"
        "                if (cov | c).bit_count() >= need:\n"
        "                    c |= cov\n"
        "                    need = c.bit_count()\n"
        "                    yield sets[d] | 1 << x | 1 << y, full ^ c\n"
        "                y += 1\n",
        "            y = x\n"
        "            for c in reversed(closed[:x]):\n"
        "                y -= 1\n"
        "                if (cov | c).bit_count() >= need:\n"
        "                    c |= cov\n"
        "                    need = c.bit_count()\n"
        "                    yield sets[d] | 1 << x | 1 << y, full ^ c\n",
        (T_GOSPER,),
    ),
    # the component split
    Mutant(
        "split-reversed-renumbering",
        SOLVER,
        "        bit = {v: 1 << i for i, v in enumerate(verts)}\n",
        "        bit = {v: 1 << i for i, v in enumerate(reversed(verts))}\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-no-lift",
        SOLVER,
        "        out |= 1 << verts[low.bit_length() - 1]\n",
        "        out |= low\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-lower-bound-one-per-component",
        SOLVER,
        "    slack = limit - small.bit_count() - 2 * len(parts)\n",
        "    slack = limit - small.bit_count() - len(parts)\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-cap-one-less",
        SOLVER,
        "        cap = slack + 2\n",
        "        cap = slack + 1\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-guard-not-summed",
        SOLVER,
        "        sets += sum(comb(m, k) for k in range(1, k_max + 1))\n",
        "        sets = sum(comb(m, k) for k in range(1, k_max + 1))\n",
        (T_SUMMED,),
    ),
    Mutant(
        "split-never-applied",
        SOLVER,
        "_SPLIT_ORDER = 10\n",
        "_SPLIT_ORDER = 1 << 30\n",
        (T_TWO_C20,),
    ),
    Mutant(
        "split-small-components-one-set-dropped",
        SOLVER,
        "    gamma, s, rest = small.bit_count(), 0, small\n",
        "    gamma, s, rest = small.bit_count(), 0, 0\n",
        (T_SPLIT,),
    ),
    # minimal partitions by components
    Mutant(
        "partitions-k2-option-dropped",
        SOLVER,
        "            choices.append(((0, comp), (v, 0), (comp ^ v, 0)))\n",
        "            choices.append(((0, comp), (v, 0)))\n",
        (T_PAIRS_SPLIT, T_SMALL_COMPS),
    ),
    Mutant(
        "partitions-k1-label-dropped",
        SOLVER,
        "    pairs = [(0, lone)]\n",
        "    pairs = [(0, 0)]\n",
        (T_PAIRS_SPLIT, T_SMALL_COMPS),
    ),
    Mutant(
        "partitions-product-unsorted",
        SOLVER,
        "    pairs.sort()\n",
        "",
        (T_PAIRS_SPLIT, T_SMALL_COMPS),
    ),
    Mutant(
        "partitions-known-gamma-to-first-component",
        SOLVER,
        "        if left is not None and i == len(parts) - 1:\n",
        "        if left is not None and i == 0:\n",
        (T_PAIRS_SPLIT, T_KNOWN_GAMMA),
    ),
    Mutant(
        "partitions-known-gamma-not-reduced",
        SOLVER,
        "            if left is not None:\n                left -= w\n",
        "",
        (T_PAIRS_SPLIT, T_KNOWN_GAMMA),
    ),
    Mutant(
        "partitions-known-gamma-ignored",
        SOLVER,
        "        if left is not None and i == len(parts) - 1:\n",
        "        if False:\n",
        (T_KNOWN_GAMMA,),
    ),
    # the partition routes
    Mutant(
        "pivot-unpinned-reads-v2",
        CRIT,
        "                unpinned |= m1\n",
        "                unpinned |= m2\n",
        (T_ROUTES,),
    ),
    Mutant(
        "saturated-partners-one-sided",
        CRIT,
        "            elif m1 & bit:\n                partners |= m2\n",
        "",
        (T_SAT_ROUTES,),
    ),
    # Facts
    Mutant(
        "unsaturated-nonedge-settles-wrong-verdict",
        CRIT,
        "    f._sat = hit is None\n",
        "    f._sat = hit is not None\n",
        (T_REPORT, T_FIRST, T_WARM),
    ),
    Mutant(
        "relabeled-carries-degree-classes",
        CRIT,
        "        copy._gamma, copy._vc, copy._ec, copy._sat = (\n"
        "            self._gamma, self._vc, self._ec, self._sat\n"
        "        )\n",
        "        copy._gamma, copy._vc, copy._ec, copy._sat, copy._classes = (\n"
        "            self._gamma, self._vc, self._ec, self._sat, self._classes\n"
        "        )\n",
        (T_RELABELED,),
    ),
    # the component walk in graphs.py
    Mutant(
        "component-walk-keeps-removed-vertices",
        GRAPHS,
        "        left = self.full_mask & ~without\n",
        "        left = self.full_mask\n",
        (T_COMPONENTS,),
    ),
)


def _check(mutants: list[Mutant]) -> None:
    """Stop before running anything if a mutant's old text does not occur
    exactly once in its file."""
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            raise SystemExit(
                f"mutants: {m.name}: old text occurs {count} times in {m.path}"
            )


def _run(m: Mutant, copy: Path) -> str:
    target = copy / m.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(m.old, m.new), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        target.write_text(original, encoding="utf-8")
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:
        return "killed"
    tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    raise SystemExit(f"mutants: {m.name}: pytest exited {proc.returncode}: {tail[0]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}")
        return 0
    _check(chosen)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="romancrit-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        for m in chosen:
            verdict = _run(m, copy)
            print(f"{verdict:17} {m.name}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed", end="")
    print(f"; survivors: {', '.join(survivors)}" if survivors else "")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
