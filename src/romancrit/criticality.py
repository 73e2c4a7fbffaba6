"""Criticality and saturation predicates for Roman domination.

Each notion has a direct definition (recompute gamma_r after a vertex or
edge change) and, where the theory provides one, an equivalent reformulation
in terms of minimum-weight partitions. Both routes are kept side by side so
the harness can check them against each other; the harness's
``criticality_report`` reads them through one ``Facts``.
"""

from __future__ import annotations

from .errors import InvalidOrder, NotVCritical
from .graphs import Graph
from .solver import RomanAssignment, gamma_r, minimal_partitions


def is_nonelementary(g: Graph) -> bool:
    """True iff gamma_r(g) < n, i.e. some assignment beats the all-1 labeling."""
    return gamma_r(g) < g.n


def nonelementary_by_components(g: Graph) -> bool:
    """Structural route: some connected component has at least 3 vertices."""
    return any(len(c) >= 3 for c in g.connected_components())


def first_non_critical_vertex(g: Graph) -> tuple[int, int] | None:
    """Smallest v where deletion fails to drop gamma_r by exactly 1."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    base = gamma_r(g)
    for v in range(g.n):
        after = gamma_r(g.delete_vertex(v))
        if after != base - 1:
            return v, after
    return None


def is_v_critical(g: Graph) -> bool:
    """True iff deleting any one vertex drops gamma_r by exactly 1."""
    return first_non_critical_vertex(g) is None


def v_critical_by_partitions(g: Graph) -> bool:
    """Partition route: every vertex is labeled 1 in some minimum assignment."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    union = 0
    for p in minimal_partitions(g):
        union |= p.label_mask(1)
    return union == g.full_mask


def first_unsaturated_nonedge(g: Graph) -> tuple[int, int, int] | None:
    """Smallest non-edge whose addition fails to drop gamma_r by exactly 1."""
    base = gamma_r(g)
    for u, v in g.non_edges():
        after = gamma_r(g.add_edge(u, v))
        if after != base - 1:
            return u, v, after
    return None


def is_roman_saturated(g: Graph) -> bool:
    """True iff adding any one missing edge drops gamma_r by exactly 1.

    Complete graphs satisfy this vacuously.
    """
    return first_unsaturated_nonedge(g) is None


def _saturated_over_partitions(g: Graph, parts: list[RomanAssignment]) -> bool:
    for u, v in g.non_edges():
        if not any(
            {p.labels[u], p.labels[v]} == {1, 2}
            for p in parts
        ):
            return False
    return True


def saturated_by_partitions(g: Graph) -> bool:
    """Partition route: each non-adjacent pair is split 1/2 by some minimum
    assignment."""
    return _saturated_over_partitions(g, minimal_partitions(g))


def first_gamma_changing_edge(g: Graph) -> tuple[int, int, int] | None:
    """Smallest edge of a v-critical graph whose removal changes gamma_r."""
    if not is_v_critical(g):
        raise NotVCritical("edge-removal invariance is stated for v-critical graphs")
    base = gamma_r(g)
    for u, v in g.edges():
        after = gamma_r(g.delete_edge(u, v))
        if after != base:
            return u, v, after
    return None


def edge_removal_preserves_gamma(g: Graph) -> bool:
    """True iff every single-edge removal keeps gamma_r unchanged."""
    return first_gamma_changing_edge(g) is None


def first_non_ecritical_edge(g: Graph) -> tuple[int, int] | None:
    """Smallest edge whose removal leaves the graph v-critical.

    Caller guarantees g itself is v-critical.
    """
    for u, v in g.edges():
        if is_v_critical(g.delete_edge(u, v)):
            return u, v
    return None


def is_e_critical(g: Graph) -> bool:
    """True iff g is v-critical and no single-edge removal stays v-critical.

    Edgeless v-critical graphs qualify vacuously.
    """
    if not is_v_critical(g):
        return False
    return first_non_ecritical_edge(g) is None


def _edge_pinned(g: Graph, x: int, y: int, m0: int, m2: int) -> bool:
    # One endpoint labeled 0 whose only 2-labeled closed neighbor is the other.
    if m0 >> x & 1 and m2 >> y & 1 and g.closed_mask(x) & m2 == 1 << y:
        return True
    if m0 >> y & 1 and m2 >> x & 1 and g.closed_mask(y) & m2 == 1 << x:
        return True
    return False


def _pivot_condition(g: Graph, parts: list[RomanAssignment]) -> bool:
    masks = [(p.label_mask(0), p.label_mask(1), p.label_mask(2)) for p in parts]
    for x, y in g.edges():
        found = False
        for pivot in range(g.n):
            bit = 1 << pivot
            if all(
                _edge_pinned(g, x, y, m0, m2)
                for m0, m1, m2 in masks
                if m1 & bit
            ):
                found = True
                break
        if not found:
            return False
    return True


def e_critical_condition(g: Graph) -> bool:
    """Partition route for e-criticality.

    True iff every edge has a pivot vertex such that each minimum assignment
    labeling the pivot 1 pins the edge: one endpoint is labeled 0 and the
    other is its unique 2-labeled closed neighbor.
    """
    if not is_v_critical(g):
        raise NotVCritical("the pivot condition is stated for v-critical graphs")
    return _pivot_condition(g, minimal_partitions(g))
