"""Per-layer spans for romancrit, recorded from outside the package.

The tracer replaces each traced function at the binding its caller looks it
up through. ``from .solver import gamma_r`` copies the binding into the
importing module, so ``romancrit.harness.gamma_r``, ``romancrit.criticality
.gamma_r`` and ``romancrit.gamma4.gamma_r`` are wrapped one by one; that also
yields per-caller call counts. Claim hypotheses and checks are wrapped by
swapping the entries of ``romancrit.harness.CLAIMS``.

Spans are aggregated in memory as they close (a serial order-6 scan opens
millions) and written out by the caller at the end. A span's self time is its
duration minus the time covered by its child spans. Every patched binding is
restored when the ``with`` block exits.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

import romancrit
import romancrit.criticality as criticality
import romancrit.gamma4 as gamma4
import romancrit.graphs as graphs
import romancrit.harness as harness

# (module or class, attribute, span name). A span name shared by several
# bindings aggregates them; the binding's owner is kept as the caller.
TRACED = (
    (romancrit, "parse_graph6", "graph6.parse_graph6"),
    (romancrit, "emit_graph6", "graph6.emit_graph6"),
    (romancrit, "roman_number", "solver.roman_number"),
    (romancrit, "criticality_report", "criticality.criticality_report"),
    (romancrit, "verify_claims", "harness"),
    (harness, "parse_graph6", "graph6.parse_graph6"),
    (harness, "emit_graph6", "graph6.emit_graph6"),
    (harness, "graph_from_edge_mask", "harness.graph_from_edge_mask"),
    (harness, "gamma_r", "solver.gamma_r"),
    (harness, "minimal_partitions", "solver.minimal_partitions"),
    (harness, "first_non_critical_vertex", "criticality.first_non_critical_vertex"),
    (harness, "first_unsaturated_nonedge", "criticality.first_unsaturated_nonedge"),
    (harness, "first_non_ecritical_edge", "criticality.first_non_ecritical_edge"),
    (harness, "first_gamma_changing_edge", "criticality.first_gamma_changing_edge"),
    (harness, "nonelementary_by_components", "criticality.nonelementary_by_components"),
    (harness, "_saturated_over_partitions", "criticality.partition_routes"),
    (harness, "_pivot_condition", "criticality.partition_routes"),
    (harness, "vcrit4_by_degrees", "gamma4.vcrit4_by_degrees"),
    (harness, "saturated4_by_degrees", "gamma4.saturated4_by_degrees"),
    (harness, "ecrit4_by_degrees", "gamma4.ecrit4_by_degrees"),
    (harness, "high_class_bounds", "gamma4.high_class_bounds"),
    (harness, "classify_critical4", "gamma4.classify_critical4"),
    (harness, "local8_conditions", "gamma4.local8_conditions"),
    (harness, "local8_fast", "gamma4.local8_fast"),
    (harness, "_witness_pairs_raw", "gamma4._witness_pairs_raw"),
    (harness, "_cut_structure", "gamma4._cut_structure"),
    (harness, "is_isomorphic", "iso.is_isomorphic"),
    (harness, "gen_family", "graphs.gen_family"),
    (criticality, "gamma_r", "solver.gamma_r"),
    (criticality, "minimal_partitions", "solver.minimal_partitions"),
    (criticality, "first_non_critical_vertex", "criticality.first_non_critical_vertex"),
    (criticality, "first_unsaturated_nonedge", "criticality.first_unsaturated_nonedge"),
    (criticality, "first_non_ecritical_edge", "criticality.first_non_ecritical_edge"),
    (criticality, "is_v_critical", "criticality.is_v_critical"),
    (criticality, "_saturated_over_partitions", "criticality.partition_routes"),
    (criticality, "_pivot_condition", "criticality.partition_routes"),
    (gamma4, "gamma_r", "solver.gamma_r"),
    (gamma4, "is_v_critical", "criticality.is_v_critical"),
    (gamma4, "is_e_critical", "criticality.is_e_critical"),
    (gamma4, "is_roman_saturated", "criticality.is_roman_saturated"),
    (gamma4, "is_isomorphic", "iso.is_isomorphic"),
    (gamma4, "gen_family", "graphs.gen_family"),
    (graphs.Graph, "delete_vertex", "graphs.edits"),
    (graphs.Graph, "add_edge", "graphs.edits"),
    (graphs.Graph, "delete_edge", "graphs.edits"),
)


def _owner_name(owner) -> str:
    return getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]


class Tracer:
    """Context manager: patch on enter, restore on exit, aggregate spans."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.callers: dict[tuple[str, str], int] = {}  # (name, binding owner) -> calls
        self.edges: dict[tuple[str, str], int] = {}  # (parent span, span) -> calls
        self.results_true: dict[str, int] = {}  # name -> calls returning True
        self.facts_built = 0
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple] = []  # (setter, original)

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in TRACED:
                self._patch_attr(owner, attr, self._wrap(getattr(owner, attr), name, _owner_name(owner)))
            self._patch_attr(harness, "Facts", self._count_facts(harness.Facts))
            for cid, claim in list(harness.CLAIMS.items()):
                traced = dataclasses.replace(
                    claim,
                    hypothesis=self._wrap(claim.hypothesis, f"harness.claim.{cid}.hypothesis", "harness"),
                    check=self._wrap(claim.check, f"harness.claim.{cid}.check", "harness"),
                )
                self._patch_item(harness.CLAIMS, cid, traced)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    def _patch_attr(self, owner, attr, new) -> None:
        original = owner.__dict__[attr]
        self._patches.append((lambda v: setattr(owner, attr, v), original))
        setattr(owner, attr, new)

    def _patch_item(self, table: dict, key, new) -> None:
        original = table[key]
        self._patches.append((lambda v: table.__setitem__(key, v), original))
        table[key] = new

    def _count_facts(self, facts_cls):
        def facts(g):
            self.facts_built += 1
            return facts_cls(g)

        return facts

    def _wrap(self, fn, name: str, owner: str):
        stack = self._stack
        spans = self.spans
        callers = self.callers
        edges = self.edges
        results_true = self.results_true

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dt
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                key = (name, owner)
                callers[key] = callers.get(key, 0) + 1
                edge = (parent, name)
                edges[edge] = edges.get(edge, 0) + 1
            if result is True:
                results_true[name] = results_true.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def to_json(self) -> dict:
        return {
            "spans": {
                k: {"calls": int(c), "total_s": t, "self_s": s}
                for k, (c, t, s) in sorted(self.spans.items())
            },
            "callers": [[n, o, c] for (n, o), c in sorted(self.callers.items())],
            "edges": [[p, n, c] for (p, n), c in sorted(self.edges.items())],
            "facts_built": self.facts_built,
        }
