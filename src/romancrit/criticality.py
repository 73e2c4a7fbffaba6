"""Criticality and saturation predicates for Roman domination.

Each notion has a direct definition (recompute gamma_r after a vertex or
edge change) and, where the theory provides one, an equivalent reformulation
in terms of minimum-weight partitions. Both routes are kept side by side so
the harness can check them against each other; the harness's
``criticality_report`` reads them through one ``Facts``.

The definitions never solve gamma_r for a modified graph just to compare it.
Three bounds turn each comparison into one ``gamma_at_most`` question:
deleting a vertex or adding an edge lowers gamma_r by at most 1 (relabel the
vertex 1, or the 0-endpoint that leaned on the new edge 1), and deleting an
edge never lowers it (an assignment of G - e is one of G). So "drops by
exactly 1" is "gamma_r(G') <= gamma_r(G) - 1", and "edge removal keeps
gamma_r" is "gamma_r(G - e) <= gamma_r(G)". gamma_r is solved only for the
one vertex or edge a witness reports, and not even there for a non-edge:
adding an edge never raises gamma_r, so a failing non-edge leaves it as it
was. Each predicate takes the caller's known gamma_r(g) as ``gamma``; left
out, it is solved here.
"""

from __future__ import annotations

from .errors import InvalidOrder, NotVCritical
from .graphs import Graph
from .solver import RomanAssignment, gamma_at_most, gamma_r, minimal_partitions


def is_nonelementary(g: Graph) -> bool:
    """True iff gamma_r(g) < n, i.e. some assignment beats the all-1 labeling."""
    return gamma_r(g) < g.n


def nonelementary_by_components(g: Graph) -> bool:
    """Structural route: some connected component has at least 3 vertices."""
    return any(len(c) >= 3 for c in g.connected_components())


def _first_non_critical(g: Graph, gamma: int | None) -> tuple[int, Graph] | None:
    """(v, G - v) for the smallest v whose deletion fails to drop gamma_r by
    exactly 1, else None."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    if gamma is None:
        gamma = gamma_r(g)
    for v in range(g.n):
        h = g.delete_vertex(v)
        if not gamma_at_most(h, gamma - 1):
            return v, h
    return None


def first_non_critical_vertex(
    g: Graph, *, gamma: int | None = None
) -> tuple[int, int] | None:
    """Smallest v where deletion fails to drop gamma_r by exactly 1, with
    gamma_r after the deletion."""
    hit = _first_non_critical(g, gamma)
    if hit is None:
        return None
    v, h = hit
    return v, gamma_r(h)


def is_v_critical(g: Graph, *, gamma: int | None = None) -> bool:
    """True iff deleting any one vertex drops gamma_r by exactly 1."""
    return _first_non_critical(g, gamma) is None


def v_critical_by_partitions(g: Graph) -> bool:
    """Partition route: every vertex is labeled 1 in some minimum assignment."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    union = 0
    for p in minimal_partitions(g):
        union |= p.label_mask(1)
    return union == g.full_mask


def first_unsaturated_nonedge(
    g: Graph, *, gamma: int | None = None
) -> tuple[int, int, int] | None:
    """Smallest non-edge whose addition fails to drop gamma_r by exactly 1,
    with gamma_r after the addition."""
    limit = (gamma_r(g) if gamma is None else gamma) - 1
    for u, v in g.non_edges():
        if not gamma_at_most(g.add_edge(u, v), limit):
            return u, v, limit + 1
    return None


def is_roman_saturated(g: Graph, *, gamma: int | None = None) -> bool:
    """True iff adding any one missing edge drops gamma_r by exactly 1.

    Complete graphs satisfy this vacuously.
    """
    return first_unsaturated_nonedge(g, gamma=gamma) is None


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


def first_gamma_changing_edge(
    g: Graph, *, gamma: int | None = None, v_critical: bool | None = None
) -> tuple[int, int, int] | None:
    """Smallest edge of a v-critical graph whose removal changes gamma_r,
    with gamma_r after the removal.

    A caller that has already decided v-criticality passes the verdict as
    ``v_critical``; left out, it is decided here.
    """
    if gamma is None:
        gamma = gamma_r(g)
    if v_critical is None:
        v_critical = is_v_critical(g, gamma=gamma)
    if not v_critical:
        raise NotVCritical("edge-removal invariance is stated for v-critical graphs")
    for u, v in g.edges():
        h = g.delete_edge(u, v)
        if not gamma_at_most(h, gamma):
            return u, v, gamma_r(h)
    return None


def edge_removal_preserves_gamma(g: Graph) -> bool:
    """True iff every single-edge removal keeps gamma_r unchanged."""
    return first_gamma_changing_edge(g) is None


def first_non_ecritical_edge(
    g: Graph, *, gamma: int | None = None
) -> tuple[int, int] | None:
    """Smallest edge whose removal leaves the graph v-critical.

    Caller guarantees g itself is v-critical.
    """
    if gamma is None:
        gamma = gamma_r(g)
    for u, v in g.edges():
        h = g.delete_edge(u, v)
        after = gamma if gamma_at_most(h, gamma) else gamma_r(h)
        if is_v_critical(h, gamma=after):
            return u, v
    return None


def is_e_critical(g: Graph, *, gamma: int | None = None) -> bool:
    """True iff g is v-critical and no single-edge removal stays v-critical.

    Edgeless v-critical graphs qualify vacuously.
    """
    if gamma is None:
        gamma = gamma_r(g)
    if not is_v_critical(g, gamma=gamma):
        return False
    return first_non_ecritical_edge(g, gamma=gamma) is None


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
    gamma = gamma_r(g)
    if not is_v_critical(g, gamma=gamma):
        raise NotVCritical("the pivot condition is stated for v-critical graphs")
    return _pivot_condition(g, minimal_partitions(g, gamma=gamma))
