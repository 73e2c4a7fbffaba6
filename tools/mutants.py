"""Hand-made mutants of the solver, criticality and graph kernels, of
``Facts``, of the enumeration guard, the class table reader and scan loop,
of the ``gamma4`` degree routes, of the graph6 codec, of the one graph6 reader
and the ``gen`` order check, and of the harness claim checks, and the tests
that must catch them.

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
HARNESS = "src/romancrit/harness.py"
GAMMA4 = "src/romancrit/gamma4.py"
GRAPH6 = "src/romancrit/graph6.py"
CLI = "src/romancrit/cli.py"

T_KERNELS = "tests/test_criticality.py::test_mask_kernels_match_graph_object_predicates"
T_FIRST = "tests/test_criticality.py::test_first_failures_match_definition"
T_AT_MOST = "tests/test_solver.py::test_at_most_boundaries"
T_AT_MOST_EXH = "tests/test_solver.py::test_gamma_at_most_matches_gamma_r_exhaustive"
T_AT_MOST_GUARD = "tests/test_solver.py::test_at_most_guard_sits_before_the_size_one_exit"
T_AT_MOST_BRUTE = "tests/test_solver.py::test_gamma_at_most_matches_the_brute_force_minima"
T_AT_MOST_FLOORS = "tests/test_solver.py::test_gamma_at_most_below_gamma_on_cycles_sweeps_no_set"
T_AT_MOST_STOP = "tests/test_solver.py::test_gamma_at_most_stops_at_its_first_set_light_enough"
T_GOSPER = "tests/test_solver.py::test_light_sets_matches_gosper_sweep_random"
T_BOUND = "tests/test_solver.py::test_light_sets_prefix_bound_matches_gosper_sweep"
T_SKEWED = "tests/test_solver.py::test_light_sets_filtered_leaf_matches_gosper_sweep_on_skewed_degrees"
T_TABLES = "tests/test_solver.py::test_tables_are_built_once_per_solve_and_filter_from_the_split_order"
T_PACKING = "tests/test_solver.py::test_tables_packing_is_a_maximal_2_packing"
T_SPARSE = "tests/test_solver.py::test_light_sets_matches_gosper_sweep_on_sparse_graphs"
T_ADMITTED = "tests/test_solver.py::test_light_sets_tests_exactly_the_prefixes_the_bounds_admit"
T_BELOW = "tests/test_solver.py::test_light_sets_with_below_matches_a_brute_force_sweep"
T_PROMISE = (
    "tests/test_solver.py::"
    "test_lightest_and_sweep_pairs_promise_below_what_every_smaller_set_weighs"
)
T_ORACLE_SPARSE = "tests/test_solver.py::test_roman_number_matches_oracle_on_sparse_graphs"
T_GOSPER_WITNESS = "tests/test_solver.py::test_roman_number_matches_gosper_sweep"
T_SPLIT = "tests/test_solver.py::test_split_matches_whole_graph_sweep"
T_BRUTE = "tests/test_solver.py::test_roman_number_and_partitions_match_a_brute_force_sweep"
T_FLOORS = "tests/test_solver.py::test_floors_and_the_sizes_lightest_sweeps"
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
T_CUT_FIRST = (
    "tests/test_gamma4.py::test_first_cut_vertex_without_pendant_and_the_cutvertex_check"
)
T_QUERIES = "tests/test_graphs.py::test_neighbor_queries"
T_COMPONENTS = "tests/test_graphs.py::test_component_masks_match_a_search_over_neighbor_sets"
T_CLASS_COUNTS = "tests/test_harness.py::test_isomorphism_class_counts"
T_TABLE_SWEEP = "tests/test_harness.py::test_class_table_matches_the_sweep"
T_GUARDS = "tests/test_harness.py::test_enumeration_guards"
T_TABLE_ORDERS = "tests/test_harness.py::test_class_table_orders"
T_LABELED_SCAN = "tests/test_harness.py::test_class_scan_matches_labeled_scan"
T_ORBITS = "tests/test_harness.py::test_orbits_are_the_relabelings"
T_GUARD_EXPANSION = "tests/test_harness.py::test_class_scan_expands_guard_errors"
T_NO_EXPANSION = "tests/test_harness.py::test_scan_without_expansion_builds_no_permutations"
T_SIZE_ONE = "tests/test_harness.py::test_size_one_classes_never_expand"
T_VCRIT4 = "tests/test_gamma4.py::test_vcrit4_by_degrees_agrees_with_direct_route"
T_VCRIT4_EX = "tests/test_gamma4.py::test_vcrit4_by_degrees_examples"
T_SAT4 = "tests/test_gamma4.py::test_saturated4_by_degrees_agrees_with_direct_route"
T_SAT4_EX = "tests/test_gamma4.py::test_saturated4_by_degrees_examples"
T_ECRIT4 = "tests/test_gamma4.py::test_ecrit4_by_degrees_agrees_with_direct_route"
T_ECRIT4_EX = "tests/test_gamma4.py::test_ecrit4_by_degrees_examples"
T_LOCAL8_RULE = "tests/test_gamma4.py::test_local8_literal_b_follows_docstring_rule"
T_LOCAL8_TWINS = "tests/test_gamma4.py::test_local8_routes_can_disagree_on_twin_low_vertices"
T_LOCAL8_PENDANT = "tests/test_gamma4.py::test_local8_on_pendant_family"
T_LOCAL8_SPARSE = (
    "tests/test_gamma4.py::test_local8_fast_a_and_c_on_order8_classes_with_sparse_low_vertices"
)
T_CATALOG = "tests/test_gamma4.py::test_catalog_verdict_matches_search_on_classes"
T_CATALOG_DN = "tests/test_gamma4.py::test_catalog_verdict_on_relabeled_and_swapped_pendant_family"
T_CATALOG_NEAR = "tests/test_gamma4.py::test_catalog_verdict_rejects_nearby_degree_sequences"
T_G6_ENCODE = "tests/test_graph6.py::test_known_encodings"
T_G6_DECODE = "tests/test_graph6.py::test_known_decodings"
T_G6_EMIT_NX = "tests/test_graph6.py::test_emit_matches_networkx"
T_G6_PARSE_NX = "tests/test_graph6.py::test_parse_matches_networkx"
T_G6_PADDING = "tests/test_graph6.py::test_parse_rejects_nonzero_padding"
T_G6_ORACLE = "tests/test_graph6.py::test_codec_matches_the_bitwise_oracle"
T_G6_LINE_ENDS = "tests/test_graph6.py::test_both_readers_keep_other_separators_in_the_line"
T_G6_REPS = "tests/test_graph6.py::test_class_representatives_are_graph6_edge_masks"
T_G6_STRICT = "tests/test_graph6.py::test_only_ascii_whitespace_is_stripped"
T_CLI_STRICT = "tests/test_cli.py::test_stdin_and_input_file_strip_only_ascii_whitespace"
T_SAME_BYTES = "tests/test_cli.py::test_stdin_and_input_file_read_the_same_bytes_alike"
T_STDIN_BYTES = "tests/test_cli.py::test_stdin_bytes_and_line_ends"
T_GEN_ORDER = (
    "tests/test_cli.py::test_gen_refuses_an_order_graph6_cannot_hold_before_generating"
)
T_CARAC = "tests/test_harness.py::test_carac_claims_over_order5"
T_CHASE = "tests/test_harness.py::test_witness_chase_lands_iff_a_degree_is_n_minus_3"
T_CHASE_REPORT = "tests/test_harness.py::test_carac_lemma_reports_a_failing_chase"
T_CUT_ORDER5 = "tests/test_harness.py::test_cut_structure_finds_same_graphs_at_order5"
T_LOCAL8_ODD = "tests/test_harness.py::test_local8_reports_odd_order_qualifier"
T_LOCAL8_ROUTES = "tests/test_harness.py::test_local8_reports_route_disagreement"
T_LOCAL8_CRIT = "tests/test_harness.py::test_local8_reports_the_criticality_conjunction"


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
    # the size-1 pass of _lightest, and _at_most, in solver.py
    Mutant(
        "size-one-weight-one-less",
        SOLVER,
        "        w = n + 2 - top\n",
        "        w = n + 1 - top\n",
        (T_AT_MOST, T_AT_MOST_EXH, T_BRUTE),
    ),
    Mutant(
        "size-one-weight-one-more",
        SOLVER,
        "        w = n + 2 - top\n",
        "        w = n + 3 - top\n",
        (T_AT_MOST, T_AT_MOST_EXH, T_BRUTE),
    ),
    Mutant(
        "size-one-last-maximiser",
        SOLVER,
        "        c = max(closed, key=int.bit_count)\n",
        "        c = max(reversed(closed), key=int.bit_count)\n",
        (T_BRUTE, T_GOSPER_WITNESS),
    ),
    Mutant(
        "size-one-index-of-the-largest-mask",
        SOLVER,
        "best_s, best_rest = w, 1 << closed.index(c),",
        "best_s, best_rest = w, 1 << closed.index(max(closed)),",
        (T_BRUTE, T_GOSPER_WITNESS),
    ),
    Mutant(
        "all-ones-shortcut-strict",
        SOLVER,
        "    if n <= limit:  # every vertex labeled 1\n",
        "    if n < limit:  # every vertex labeled 1\n",
        (T_AT_MOST, T_AT_MOST_EXH),
    ),
    Mutant(
        "lightest-stop-ignores-enough",
        SOLVER,
        "                    if w == floor or w <= enough:\n",
        "                    if w == floor:\n",
        (T_AT_MOST_STOP,),
    ),
    Mutant(
        "lightest-sweeps-sizes-past-enough",
        SOLVER,
        "    while 2 * k < best > enough:\n",
        "    while 2 * k < best:\n",
        (T_AT_MOST_STOP,),
    ),
    Mutant(
        "at-most-room-ignored",
        SOLVER,
        "    return room >= 0\n",
        "    return True\n",
        (T_SPLIT, T_AT_MOST_BRUTE),
    ),
    # the sweep primitive
    Mutant(
        "light-sets-reversed-leaf-order",
        SOLVER,
        "            for y in ys:\n"
        "                if y >= x:\n"
        "                    break\n",
        "            for y in reversed(ys):\n"
        "                if y >= x:\n"
        "                    continue\n",
        (T_GOSPER,),
    ),
    # the last level, which runs the y below x in by[need - |cov|]: from
    # order _SPLIT_ORDER up only those with |N[y]| >= need - |cov|, below it
    # one range of all the vertices
    Mutant(
        "leaf-threshold-one-over",
        SOLVER,
        "            t = need - cb\n",
        "            t = need - cb + 1\n",
        (T_GOSPER, T_BOUND, T_SKEWED),
    ),
    Mutant(
        "leaf-threshold-from-top",
        SOLVER,
        "            t = need - cb\n",
        "            t = top[x]\n",
        (T_GOSPER, T_BOUND, T_SKEWED),
    ),
    Mutant(
        "leaf-threshold-not-clamped",
        SOLVER,
        "            if t < 0:\n                t = 0\n",
        "",
        (T_GOSPER,),
    ),
    Mutant(
        "leaf-list-strictly-above-the-threshold",
        SOLVER,
        "if c.bit_count() >= t]\n",
        "if c.bit_count() > t]\n",
        (T_GOSPER, T_BOUND, T_SKEWED),
    ),
    Mutant(
        "leaf-breaks-past-x",
        SOLVER,
        "                if y >= x:\n",
        "                if y > x:\n",
        (T_GOSPER,),
    ),
    Mutant(
        "leaf-covers-with-the-vertex-below-y",
        SOLVER,
        "                c = cov | closed[y]\n",
        "                c = cov | closed[y - 1]\n",
        (T_GOSPER,),
    ),
    Mutant(
        "leaf-list-reversed",
        SOLVER,
        "            for y in ys:\n",
        "            for y in reversed(ys):\n",
        (T_GOSPER, T_BOUND, T_SKEWED),
    ),
    Mutant(
        "leaf-unfiltered-from-order-11",
        SOLVER,
        "    if n < _SPLIT_ORDER:\n        return [top, reach, [range(n)]",
        "    if n <= _SPLIT_ORDER:\n        return [top, reach, [range(n)]",
        (T_TABLES,),
    ),
    Mutant(
        "leaf-shared-range-drops-the-last-vertex",
        SOLVER,
        "[range(n)]",
        "[range(n - 1)]",
        (T_TABLES,),
    ),
    Mutant(
        "sweep-pairs-tables-only-from-the-split-order",
        SOLVER,
        "    tables = _tables(closed, n) if gamma >= 4 else None\n",
        "    tables = _tables(closed, n) if n >= _SPLIT_ORDER else None\n",
        (T_TABLES,),
    ),
    Mutant(
        "sweep-pairs-tables-from-gamma-5",
        SOLVER,
        "    tables = _tables(closed, n) if gamma >= 4 else None\n",
        "    tables = _tables(closed, n) if gamma > 4 else None\n",
        (T_TABLES,),
    ),
    # the packing bound from order _SPLIT_ORDER up, which skips a prefix
    # above the last level with |pack & ~cov| > n - need + r; a looser
    # bound only skips less, so the test that counts the prefixes tested
    # and taken to the last level catches it
    Mutant(
        "packing-bound-one-over",
        SOLVER,
        "(pack & ~cov).bit_count() > n - need + k - 1 - d:\n",
        "(pack & ~cov).bit_count() > n - need + k - 1 - d + 1:\n",
        (T_ADMITTED,),
    ),
    Mutant(
        "packing-bound-at-the-boundary",
        SOLVER,
        "(pack & ~cov).bit_count() > n - need + k - 1 - d:\n",
        "(pack & ~cov).bit_count() >= n - need + k - 1 - d:\n",
        (T_SPARSE, T_ORACLE_SPARSE, T_ADMITTED),
    ),
    Mutant(
        "packing-gate-reads-r-as-k-minus-d",
        SOLVER,
        "    dead = n + k - 1 - (pack or 0).bit_count()\n",
        "    dead = n + k - (pack or 0).bit_count()\n",
        (T_ADMITTED,),
    ),
    Mutant(
        "packing-of-vertices-not-neighborhoods",
        SOLVER,
        "            used |= c\n",
        "            used |= 1 << closed.index(c)\n",
        (T_PACKING, T_SPARSE, T_ADMITTED),
    ),
    Mutant(
        "packing-at-every-order",
        SOLVER,
        "(m + 1), 0]\n",
        "(m + 1), None]\n",
        (T_TABLES,),
    ),
    Mutant(
        "packing-built-for-size-two-sweeps",
        SOLVER,
        "    if pack is None and last:\n",
        "    if pack is None:\n",
        (T_TABLES,),
    ),
    Mutant(
        "packing-by-descending-closed-neighborhood",
        SOLVER,
        "    for c in sorted(closed, key=int.bit_count):\n",
        "    for c in sorted(closed, key=int.bit_count, reverse=True):\n",
        (T_PACKING, T_ADMITTED),
    ),
    # the prefix bound at every level; a looser bound (top[x + 1], the
    # largest closed neighborhood overall, or reach[x + 1], which adds
    # closed[x], already in the cover) only skips less and is no mutant
    Mutant(
        "prefix-bound-top-clause-at-need",
        SOLVER,
        "            or cb + (k - 1 - d) * top[x] < need\n",
        "            or cb + (k - 1 - d) * top[x] <= need\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-reach-clause-at-need",
        SOLVER,
        "            or (cov | reach[x]).bit_count() < need\n",
        "            or (cov | reach[x]).bit_count() <= need\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-one-pick-short",
        SOLVER,
        "            or cb + (k - 1 - d) * top[x] < need\n",
        "            or cb + (k - 2 - d) * top[x] < need\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-top-misses-the-vertex-below-x",
        SOLVER,
        "            or cb + (k - 1 - d) * top[x] < need\n",
        "            or cb + (k - 1 - d) * top[x - 1] < need\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-reach-misses-the-vertex-below-x",
        SOLVER,
        "            or (cov | reach[x]).bit_count() < need\n",
        "            or (cov | reach[x - 1]).bit_count() < need\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-no-running-max",
        SOLVER,
        "        if c.bit_count() > m:\n"
        "            m = c.bit_count()\n"
        "        acc |= c\n"
        "        top.append(m)\n",
        "        acc |= c\n"
        "        top.append(c.bit_count())\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-no-running-or",
        SOLVER,
        "        reach.append(acc)\n",
        "        reach.append(c)\n",
        (T_BOUND,),
    ),
    Mutant(
        "prefix-bound-top-one-short",
        SOLVER,
        "            m = c.bit_count()\n",
        "            m = c.bit_count() - 1\n",
        (T_BOUND,),
    ),
    # the private-vertex bound at every level: a prefix is skipped when its
    # least element adds fewer than pmin = below + 2 - limit vertices to the
    # cover of those above it; _lightest promises the best weight at the
    # start of a size, _sweep_pairs gamma_r
    Mutant(
        "private-bound-pmin-one-over",
        SOLVER,
        "    # cover of those above it, or the prefix is skipped\n"
        "    pmin = need + below + 2 - n - 2 * k\n",
        "    # cover of those above it, or the prefix is skipped\n"
        "    pmin = need + below + 3 - n - 2 * k\n",
        (T_BELOW, T_ADMITTED, T_BRUTE),
    ),
    Mutant(
        "private-bound-at-pmin",
        SOLVER,
        "            cb - cnts[d] < pmin\n",
        "            cb - cnts[d] <= pmin\n",
        (T_BELOW, T_ADMITTED, T_BRUTE),
    ),
    Mutant(
        "private-bound-pmin-not-raised",
        SOLVER,
        "                    pmin = need + below + 2 - n - 2 * k\n",
        "",
        (T_ADMITTED,),
    ),
    Mutant(
        "lightest-promises-one-over-best",
        SOLVER,
        "best - 1, tables, best):\n",
        "best - 1, tables, best + 1):\n",
        (T_PROMISE, T_BRUTE),
    ),
    Mutant(
        "sweep-pairs-promises-one-over-gamma",
        SOLVER,
        "gamma, tables, gamma)\n",
        "gamma, tables, gamma + 1)\n",
        (T_PROMISE, T_BRUTE),
    ),
    # the size floors and the two size loops that read them
    Mutant(
        "floors-kth-size-left-out-of-reach",
        SOLVER,
        "        rest -= c\n        floors.append(2 * k + max(rest, 0))\n",
        "        floors.append(2 * k + max(rest, 0))\n        rest -= c\n",
        (T_FLOORS, T_BRUTE),
    ),
    Mutant(
        "floors-one-over",
        SOLVER,
        "        floors.append(2 * k + max(rest, 0))\n",
        "        floors.append(2 * k + max(rest, 0) + 1)\n",
        (T_FLOORS, T_BRUTE),
    ),
    Mutant(
        "lightest-skips-only-above-best",
        SOLVER,
        "        if floor < best:\n",
        "        if floor <= best:\n",
        (T_FLOORS,),
    ),
    Mutant(
        "lightest-stops-one-over-the-floor",
        SOLVER,
        "                    if w == floor or w <= enough:\n",
        "                    if w <= floor + 1 or w <= enough:\n",
        (T_BRUTE,),
    ),
    Mutant(
        "lightest-size-two-floor-one-over",
        SOLVER,
        "        floor = floors[k] if floors else 4 + max(0, n - 2 * top)\n",
        "        floor = floors[k] if floors else 5 + max(0, n - 2 * top)\n",
        (T_BRUTE,),
    ),
    Mutant(
        "lightest-size-two-floor-from-one-neighborhood",
        SOLVER,
        "        floor = floors[k] if floors else 4 + max(0, n - 2 * top)\n",
        "        floor = floors[k] if floors else 4 + max(0, n - top)\n",
        (T_BRUTE, T_FLOORS),
    ),
    Mutant(
        "lightest-size-two-on-the-bare-floor",
        SOLVER,
        "        floor = floors[k] if floors else 4 + max(0, n - 2 * top)\n",
        "        floor = floors[k] if floors else 4\n",
        (T_FLOORS, T_AT_MOST_FLOORS),
    ),
    Mutant(
        "sweep-pairs-skips-a-size-at-gamma",
        SOLVER,
        "        if floors[k] <= gamma\n",
        "        if floors[k] < gamma\n",
        (T_BRUTE, T_PAIRS_SPLIT),
    ),
    Mutant(
        "sweep-pairs-size-one-floor-one-over",
        SOLVER,
        "    floors = _floors(closed, n) if gamma >= 6 else (0, 2, 4)\n",
        "    floors = _floors(closed, n) if gamma >= 6 else (0, 3, 4)\n",
        (T_BRUTE,),
    ),
    Mutant(
        "sweep-pairs-size-two-floor-one-over",
        SOLVER,
        "    floors = _floors(closed, n) if gamma >= 6 else (0, 2, 4)\n",
        "    floors = _floors(closed, n) if gamma >= 6 else (0, 2, 5)\n",
        (T_BRUTE,),
    ),
    # the solve plan, _components, and its use by gamma_mask and _at_most
    Mutant(
        "components-k1-made-a-part",
        SOLVER,
        "        if comp.bit_count() == 1:\n",
        "        if comp.bit_count() == 0:\n",
        (T_SPLIT,),
    ),
    Mutant(
        "components-k2-kept-in-the-mask",
        SOLVER,
        "        if comp.bit_count() == 1:\n",
        "        if comp.bit_count() <= 2:\n",
        (T_PAIRS_SPLIT, T_SMALL_COMPS),
    ),
    Mutant(
        "components-guard-skipped-for-the-whole-graph",
        SOLVER,
        "            parts.append((None, closed))\n            break\n",
        "            return 0, [(None, closed)]\n",
        (T_AT_MOST_GUARD,),
    ),
    Mutant(
        "lift-identity-case-dropped",
        SOLVER,
        "    if verts is None:\n        return mask\n",
        "",
        (T_GOSPER_WITNESS,),
    ),
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
        "    room = limit - lone.bit_count() - 2 * len(parts)\n",
        "    room = limit - lone.bit_count() - len(parts)\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-cap-one-less",
        SOLVER,
        "        m, cap = len(sub), room + 2\n",
        "        m, cap = len(sub), room + 1\n",
        (T_SPLIT,),
    ),
    Mutant(
        "split-last-part-stops-one-under",
        SOLVER,
        "cap if i == last else 0",
        "cap - 1 if i == last else 0",
        (T_AT_MOST_STOP,),
    ),
    Mutant(
        "split-every-part-stops-early",
        SOLVER,
        "cap if i == last else 0",
        "cap",
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
        "        if comp == full:\n",
        "        if True:\n",
        (T_TWO_C20,),
    ),
    Mutant(
        "split-isolated-vertices-one-set-dropped",
        SOLVER,
        "    gamma, s, rest = lone.bit_count(), 0, lone\n",
        "    gamma, s, rest = lone.bit_count(), 0, 0\n",
        (T_SPLIT,),
    ),
    # minimal partitions by parts
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
    Mutant(
        "relabeled-carries-closed-masks",
        CRIT,
        "        copy = Facts(g)\n",
        "        copy = Facts(g)\n        g._closed = self.g.closed\n",
        (T_RELABELED,),
    ),
    # the closed-neighborhood masks every reader shares
    Mutant(
        "closed-masks-drop-the-self-bit",
        GRAPHS,
        "            self._closed = tuple([m | 1 << v for v, m in enumerate(self.adj)])\n",
        "            self._closed = self.adj\n",
        (T_QUERIES, T_AT_MOST),
    ),
    Mutant(
        "closed-mask-skips-the-range-check",
        GRAPHS,
        "        self._check_vertex(v)\n        return self.closed[v]\n",
        "        return self.closed[v]\n",
        (T_QUERIES,),
    ),
    # the component walk in graphs.py, shared by Graph and the solve plan
    Mutant(
        "component-walk-keeps-removed-vertices",
        GRAPHS,
        "        return component_walk(self.adj, self.full_mask & ~without)\n",
        "        return component_walk(self.adj, self.full_mask)\n",
        (T_COMPONENTS,),
    ),
    Mutant(
        "component-walk-stops-at-the-first-neighbors",
        GRAPHS,
        "            frontier ^= low | new\n",
        "            frontier ^= low\n",
        (T_COMPONENTS, T_SPLIT),
    ),
    # isomorphism_classes reading the class table
    Mutant(
        "class-tokens-read-size-first",
        HARNESS,
        "        for rep, size in (token.split(\":\") for token in CLASSES[n].split())\n",
        "        for size, rep in (token.split(\":\") for token in CLASSES[n].split())\n",
        (T_CLASS_COUNTS, T_TABLE_SWEEP),
    ),
    Mutant(
        "class-tokens-of-the-next-order",
        HARNESS,
        "CLASSES[n].split()",
        "CLASSES[min(n + 1, len(CLASSES) - 1)].split()",
        (T_CLASS_COUNTS, T_TABLE_SWEEP),
    ),
    # the one enumeration guard, at the class table's top order
    Mutant(
        "enumeration-guard-refuses-the-top-order",
        HARNESS,
        "    if n > ENUMERATION_MAX_ORDER:\n",
        "    if n >= ENUMERATION_MAX_ORDER:\n",
        (T_GUARDS,),
    ),
    Mutant(
        "enumeration-guard-one-order-past-the-table",
        HARNESS,
        "    if n > ENUMERATION_MAX_ORDER:\n",
        "    if n > ENUMERATION_MAX_ORDER + 1:\n",
        (T_GUARDS,),
    ),
    Mutant(
        "enumeration-guard-below-the-table",
        HARNESS,
        "ENUMERATION_MAX_ORDER = 8\n",
        "ENUMERATION_MAX_ORDER = 7\n",
        (T_GUARDS, T_TABLE_ORDERS),
    ),
    Mutant(
        "class-table-read-without-the-guard",
        HARNESS,
        "    _enumeration_guard(n)\n    from ._class_table import CLASSES\n",
        "    from ._class_table import CLASSES\n",
        (T_GUARDS,),
    ),
    # _scan and _class_units: weighting and the expansion rule
    Mutant(
        "class-scan-weighs-each-class-once",
        HARNESS,
        "            acc[claim.id][0] += size\n",
        "            acc[claim.id][0] += 1\n",
        (T_LABELED_SCAN,),
    ),
    Mutant(
        "scan-counts-each-unit-once",
        HARNESS,
        "        scanned += size\n",
        "        scanned += 1\n",
        (T_LABELED_SCAN,),
    ),
    Mutant(
        "class-scan-weighs-expanded-classes-too",
        HARNESS,
        "                expand.append(claim)\n                continue\n",
        "                expand.append(claim)\n"
        "                acc[claim.id][0] += held * size\n"
        "                continue\n",
        (T_LABELED_SCAN,),
    ),
    Mutant(
        "class-scan-skips-guard-errors",
        HARNESS,
        "            if size > 1:\n",
        "            if size > 1 and not diags[0].startswith(\"guard-error\"):\n",
        (T_GUARD_EXPANSION,),
    ),
    Mutant(
        "class-scan-expands-held-classes",
        HARNESS,
        "        if diags:\n            if size > 1:\n",
        "        if diags or held:\n            if size > 1:\n",
        (T_NO_EXPANSION,),
    ),
    Mutant(
        "scan-expands-size-one-units",
        HARNESS,
        "            if size > 1:\n",
        "            if size > 0:\n",
        (T_SIZE_ONE,),
    ),
    Mutant(
        "class-scan-expands-the-representative-only",
        HARNESS,
        "        for mask in sorted(perms.orbit(edge_mask(g))):\n",
        "        for mask in sorted(perms.orbit(edge_mask(g)))[:1]:\n",
        (T_LABELED_SCAN,),
    ),
    Mutant(
        "edge-permutations-row-major-pairs",
        HARNESS,
        "        pairs = [(i, j) for j in range(n) for i in range(j)]\n",
        "        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]\n",
        (T_ORBITS, T_TABLE_SWEEP),
    ),
    # the gamma4 degree routes
    Mutant(
        "vcrit4-counts-the-vertex-itself",
        GAMMA4,
        "    return all(high & ~c for c in f.g.closed)\n",
        "    return all(high & ~m for m in f.g.adj)\n",
        (T_VCRIT4, T_VCRIT4_EX),
    ),
    Mutant(
        "vcrit4-any-vertex",
        GAMMA4,
        "    return all(high & ~c for c in f.g.closed)\n",
        "    return any(high & ~c for c in f.g.closed)\n",
        (T_VCRIT4, T_VCRIT4_EX),
    ),
    Mutant(
        "saturated4-reads-the-high-class",
        GAMMA4,
        "    low = sorted(f.degree_classes.low)\n    return all(",
        "    low = sorted(f.degree_classes.high)\n    return all(",
        (T_SAT4, T_SAT4_EX),
    ),
    Mutant(
        "saturated4-any-pair",
        GAMMA4,
        "    return all(f.g.adj[u] >> v & 1 for u, v in combinations(low, 2))\n",
        "    return any(f.g.adj[u] >> v & 1 for u, v in combinations(low, 2))\n",
        (T_SAT4, T_SAT4_EX),
    ),
    Mutant(
        "ecrit4-edge-ends-not-excused",
        GAMMA4,
        "        if not any(not high & ~c & ~pair for c in g.closed):\n",
        "        if not any(not high & ~c for c in g.closed):\n",
        (T_ECRIT4, T_ECRIT4_EX),
    ),
    Mutant(
        "ecrit4-one-edge-end-excused",
        GAMMA4,
        "        pair = 1 << x | 1 << y\n",
        "        pair = 1 << x\n",
        (T_ECRIT4, T_ECRIT4_EX),
    ),
    Mutant(
        "local8-fast-low-includes-pivot",
        GAMMA4,
        "    low_degs = [d for d in g.degrees() if d < pivot]\n",
        "    low_degs = [d for d in g.degrees() if d <= pivot]\n",
        (T_LOCAL8_PENDANT, T_LOCAL8_RULE, T_LOCAL8_SPARSE),
    ),
    Mutant(
        "local8-fast-b-strict",
        GAMMA4,
        "        len(low_degs) <= 1,\n",
        "        len(low_degs) < 1,\n",
        (T_LOCAL8_PENDANT, T_LOCAL8_RULE),
    ),
    Mutant(
        "local8-fast-b-admits-two",
        GAMMA4,
        "        len(low_degs) <= 1,\n",
        "        len(low_degs) <= 2,\n",
        (T_LOCAL8_TWINS, T_LOCAL8_RULE),
    ),
    Mutant(
        "local8-fast-c-admits-degree-two",
        GAMMA4,
        "        all(d <= 1 for d in low_degs),\n",
        "        all(d <= 2 for d in low_degs),\n",
        (T_LOCAL8_RULE, T_LOCAL8_SPARSE),
    ),
    # the catalog by degree sequence
    Mutant(
        "catalog-order4-admits-degree-two",
        GAMMA4,
        "    if n == 4 and max(degs) <= 1:\n",
        "    if n == 4 and max(degs) <= 2:\n",
        (T_CATALOG, T_CATALOG_NEAR),
    ),
    Mutant(
        "catalog-c5-any-order",
        GAMMA4,
        "    if n == 5 and all(d == 2 for d in degs):\n",
        "    if all(d == 2 for d in degs):\n",
        (T_CATALOG, T_CATALOG_NEAR),
    ),
    Mutant(
        "catalog-elementary-index-shifted",
        GAMMA4,
        "[g.edge_count()]\n",
        "[g.edge_count() - 1]\n",
        (T_CATALOG,),
    ),
    Mutant(
        "catalog-dn-high-degree-n-minus-2",
        GAMMA4,
        "    if n >= 6 and sorted(degs) == [1] + [n - 3] * (n - 1):\n",
        "    if n >= 6 and sorted(degs) == [1] + [n - 2] * (n - 1):\n",
        (T_CATALOG, T_CATALOG_DN),
    ),
    Mutant(
        "catalog-dn-pendant-degree-zero",
        GAMMA4,
        "    if n >= 6 and sorted(degs) == [1] + [n - 3] * (n - 1):\n",
        "    if n >= 6 and sorted(degs) == [0] + [n - 3] * (n - 1):\n",
        (T_CATALOG, T_CATALOG_NEAR),
    ),
    Mutant(
        "cut-vertex-largest-first",
        GAMMA4,
        "    for v in sorted(g.cut_vertices()):\n",
        "    for v in sorted(g.cut_vertices(), reverse=True):\n",
        (T_CUT_FIRST,),
    ),
    Mutant(
        "cut-vertex-pendant-test-counts-pairs",
        GAMMA4,
        "        if not any(c.bit_count() == 1 for c in g.component_masks(1 << v)):\n",
        "        if not any(c.bit_count() <= 2 for c in g.component_masks(1 << v)):\n",
        (T_CUT_FIRST,),
    ),
    Mutant(
        "cut-structure-c5-unrecognised",
        GAMMA4,
        "    if catalog_verdict(f) == IS_C5:\n",
        "    if False:\n",
        (T_CUT_ORDER5,),
    ),
    # the graph6 codec: bit order, padding and the byte range
    Mutant(
        "graph6-emit-bits-lsb-first",
        GRAPH6,
        '_BYTE = [chr(63 + int(format(v, "06b")[::-1], 2)) for v in range(64)]\n',
        "_BYTE = [chr(63 + v) for v in range(64)]\n",
        (T_G6_ENCODE, T_G6_EMIT_NX),
    ),
    Mutant(
        "graph6-emit-column-reversed",
        GRAPH6,
        "        bits |= (adj[j] & ((1 << j) - 1)) << k\n",
        '        bits |= int(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1], 2) << k\n',
        (T_G6_ENCODE, T_G6_EMIT_NX),
    ),
    Mutant(
        "graph6-parse-bits-lsb-first",
        GRAPH6,
        '_BITS = str.maketrans({chr(63 + v): format(v, "06b") for v in range(64)})\n',
        '_BITS = str.maketrans({chr(63 + v): format(v, "06b")[::-1] for v in range(64)})\n',
        (T_G6_DECODE, T_G6_PARSE_NX),
    ),
    Mutant(
        "graph6-parse-column-reversed",
        GRAPH6,
        "        col = bits & ((1 << j) - 1)\n",
        '        col = int(format(bits & ((1 << j) - 1), f"0{j}b")[::-1], 2)\n',
        (T_G6_DECODE, T_G6_PARSE_NX),
    ),
    Mutant(
        "graph6-padding-unchecked",
        GRAPH6,
        "    if bits >> nbits:\n",
        "    if False:\n",
        (T_G6_PADDING,),
    ),
    Mutant(
        "graph6-padding-first-bit-unchecked",
        GRAPH6,
        "    if bits >> nbits:\n",
        "    if bits >> nbits + 1:\n",
        (T_G6_PADDING,),
    ),
    Mutant(
        "graph6-range-below-unchecked",
        GRAPH6,
        '    if min(s) < "?" or max(s) > "~":\n',
        '    if max(s) > "~":\n',
        (T_G6_ORACLE,),
    ),
    Mutant(
        "edge-mask-drops-column-1",
        GRAPH6,
        "    bits = k = 0\n    for j in range(1, g.n):\n",
        "    bits, k = 0, 1\n    for j in range(2, g.n):\n",
        (T_G6_ENCODE, T_G6_REPS),
    ),
    Mutant(
        "graph6-strips-like-str-strip",
        GRAPH6,
        'GRAPH6_BLANKS = " \\t\\n\\r\\x0b\\x0c"\n',
        "GRAPH6_BLANKS = None\n",
        (T_G6_ORACLE, T_G6_STRICT, T_CLI_STRICT),
    ),
    Mutant(
        "graph6-lines-split-at-every-line-break",
        GRAPH6,
        "    lines = io.StringIO(text, newline=None)\n",
        "    lines = text.splitlines()\n",
        (T_G6_LINE_ENDS,),
    ),
    # the one graph6 reader, for stdin and files, and the gen order check
    Mutant(
        "reader-stdin-as-utf8",
        HARNESS,
        '    fh = io.TextIOWrapper(binary, encoding="latin-1")\n',
        '    fh = io.TextIOWrapper(binary, encoding="latin-1" if path else "utf-8")\n',
        (T_SAME_BYTES, T_STDIN_BYTES),
    ),
    Mutant(
        "reader-stdin-with-surrogate-escapes",
        HARNESS,
        '    fh = io.TextIOWrapper(binary, encoding="latin-1")\n',
        '    fh = io.TextIOWrapper(binary, encoding="latin-1" if path else "utf-8",'
        ' errors="surrogateescape")\n',
        (T_SAME_BYTES, T_STDIN_BYTES),
    ),
    Mutant(
        "reader-stdin-split-at-lf-only",
        HARNESS,
        '    fh = io.TextIOWrapper(binary, encoding="latin-1")\n',
        '    fh = io.TextIOWrapper(binary, encoding="latin-1",'
        ' newline=None if path else "\\n")\n',
        (T_SAME_BYTES, T_STDIN_BYTES),
    ),
    Mutant(
        "reader-parses-eagerly",
        HARNESS,
        "        yield from (parse_graph6(line) for line in fh if line.strip(GRAPH6_BLANKS))\n",
        "        yield from list(parse_graph6(line) for line in fh if line.strip(GRAPH6_BLANKS))\n",
        (T_STDIN_BYTES,),
    ),
    Mutant(
        "reader-closes-stdin",
        HARNESS,
        "            fh.detach()  # leaves sys.stdin open\n",
        "            fh.close()\n",
        (T_SAME_BYTES,),
    ),
    Mutant(
        "gen-order-unchecked",
        CLI,
        "    if args.n is not None and args.n >= 63:\n",
        "    if False:\n",
        (T_GEN_ORDER,),
    ),
    Mutant(
        "gen-order-off-by-one",
        CLI,
        "    if args.n is not None and args.n >= 63:\n",
        "    if args.n is not None and args.n > 63:\n",
        (T_GEN_ORDER,),
    ),
    # the harness claim checks
    Mutant(
        "carac-lemma-one-witness-enough",
        HARNESS,
        "    all_witnessed = all(pairs)\n",
        "    all_witnessed = any(pairs)\n",
        (T_CARAC,),
    ),
    Mutant(
        "carac-lemma-chase-skipped",
        HARNESS,
        "    if f.v_critical and all_witnessed:\n",
        "    if False:\n",
        (T_CHASE_REPORT,),
    ),
    Mutant(
        "carac-lemma-chase-lands-on-x-only",
        HARNESS,
        "    return any(a2 in (x, b) for a2, _ in pairs[a])\n",
        "    return any(a2 == x for a2, _ in pairs[a])\n",
        (T_CHASE, T_CHASE_REPORT),
    ),
    Mutant(
        "cut-structure-verdict-inverted",
        HARNESS,
        "    if not _cut_structure(f):\n",
        "    if _cut_structure(f):\n",
        (T_CUT_ORDER5,),
    ),
    Mutant(
        "local8-route-disagreement-ignored",
        HARNESS,
        "    if lit != fast:\n",
        "    if False:\n",
        (T_LOCAL8_ROUTES,),
    ),
    Mutant(
        "local8-family-check-dropped",
        HARNESS,
        "    if conj != matches:\n",
        "    if False:\n",
        (T_LOCAL8_ODD,),
    ),
    Mutant(
        "local8-criticality-check-dropped",
        HARNESS,
        "    if conj != critical:\n",
        "    if False:\n",
        (T_LOCAL8_CRIT,),
    ),
    Mutant(
        "local8-criticality-without-saturated",
        HARNESS,
        "    critical = f.v_critical and f.e_critical and f.saturated\n",
        "    critical = f.v_critical and f.e_critical\n",
        (T_LOCAL8_CRIT,),
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
