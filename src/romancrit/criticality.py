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

The definitions work on closed-neighborhood masks, not Graph objects. Each
takes G's masks once and derives every modified graph's masks in a copied
list: G - v by dropping v's mask and shifting every bit above v down by one,
G + uv and G - uv by flipping bit v of u's mask and bit u of v's. The yes/no
question goes to the solver's ``_at_most`` on those masks, and a Graph is
built only for the one vertex or edge whose gamma_r a witness reports. Each
derived graph is swept whole, never only over the sets that touch the
changed vertex or edge: with gamma_r(G) known, "G + uv has a set of weight
gamma - 1 through u or v" says exactly that some minimum assignment of G
splits u and v 1/2, which is the partition route, so the definition would
no longer be an independent check of it.

The partition routes read each minimum assignment as its (V2, V1) masks, in
ascending V2 order, from the solver's ``_partition_pairs``.
"""

from __future__ import annotations

from .errors import InvalidOrder, NotVCritical
from .graphs import Graph
# minimal_partitions is not called here; bench/tracer.py wraps this binding
from .solver import (
    _at_most,
    _closed_masks,
    _partition_pairs,
    gamma_mask,
    gamma_r,
    minimal_partitions,  # noqa: F401
)


def is_nonelementary(g: Graph) -> bool:
    """True iff gamma_r(g) < n, i.e. some assignment beats the all-1 labeling."""
    return gamma_r(g) < g.n


def nonelementary_by_components(g: Graph) -> bool:
    """Structural route: some connected component has at least 3 vertices."""
    return any(len(c) >= 3 for c in g.connected_components())


def _toggle_edge(closed: list[int], u: int, v: int) -> list[int]:
    """A copy of the closed-neighborhood masks with the pair uv flipped: G + uv
    for a non-edge, G - uv for an edge."""
    h = closed.copy()
    h[u] ^= 1 << v
    h[v] ^= 1 << u
    return h


def _critical_miss(closed: list[int], n: int, gamma: int) -> int | None:
    """The smallest v whose deletion fails to drop gamma_r from gamma to
    gamma - 1, else None. G - v keeps each mask's bits below v and shifts
    those above it down by one, as Graph.delete_vertex renumbers."""
    for v in range(n):
        low = (1 << v) - 1
        h = [m & low | m >> 1 & ~low for m in closed]
        del h[v]
        if not _at_most(h, n - 1, gamma - 1):
            return v
    return None


def _first_non_critical(g: Graph, gamma: int | None) -> int | None:
    """The smallest v whose deletion fails to drop gamma_r by exactly 1."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    if gamma is None:
        gamma = gamma_r(g)
    return _critical_miss(_closed_masks(g), g.n, gamma)


def first_non_critical_vertex(
    g: Graph, *, gamma: int | None = None
) -> tuple[int, int] | None:
    """Smallest v where deletion fails to drop gamma_r by exactly 1, with
    gamma_r after the deletion."""
    v = _first_non_critical(g, gamma)
    if v is None:
        return None
    return v, gamma_r(g.delete_vertex(v))


def is_v_critical(g: Graph, *, gamma: int | None = None) -> bool:
    """True iff deleting any one vertex drops gamma_r by exactly 1."""
    return _first_non_critical(g, gamma) is None


def _pairs(g: Graph) -> list[tuple[int, int]]:
    return _partition_pairs(_closed_masks(g), g.n)


def v_critical_by_partitions(g: Graph) -> bool:
    """Partition route: every vertex is labeled 1 in some minimum assignment."""
    if g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    union = 0
    for _, m1 in _pairs(g):
        union |= m1
    return union == g.full_mask


def first_unsaturated_nonedge(
    g: Graph, *, gamma: int | None = None
) -> tuple[int, int, int] | None:
    """Smallest non-edge whose addition fails to drop gamma_r by exactly 1,
    with gamma_r after the addition."""
    limit = (gamma_r(g) if gamma is None else gamma) - 1
    closed = _closed_masks(g)
    for u, v in g.non_edges():
        if not _at_most(_toggle_edge(closed, u, v), g.n, limit):
            return u, v, limit + 1
    return None


def is_roman_saturated(g: Graph, *, gamma: int | None = None) -> bool:
    """True iff adding any one missing edge drops gamma_r by exactly 1.

    Complete graphs satisfy this vacuously.
    """
    return first_unsaturated_nonedge(g, gamma=gamma) is None


def _saturated_over_partitions(g: Graph, pairs: list[tuple[int, int]]) -> bool:
    # each vertex's split partners: the vertices some minimum (V2, V1)
    # labels 1 while it is labeled 2, or 2 while it is labeled 1
    full = g.full_mask
    for u, adj in enumerate(g.adj):
        bit = 1 << u
        partners = 0
        for m2, m1 in pairs:
            if m2 & bit:
                partners |= m1
            elif m1 & bit:
                partners |= m2
        if full & ~(adj | bit | partners):
            return False
    return True


def saturated_by_partitions(g: Graph) -> bool:
    """Partition route: each non-adjacent pair is split 1/2 by some minimum
    assignment."""
    return _saturated_over_partitions(g, _pairs(g))


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
    closed = _closed_masks(g)
    for u, v in g.edges():
        if not _at_most(_toggle_edge(closed, u, v), g.n, gamma):
            return u, v, gamma_r(g.delete_edge(u, v))
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
    n = g.n
    closed = _closed_masks(g)
    for u, v in g.edges():
        h = _toggle_edge(closed, u, v)
        after = gamma if _at_most(h, n, gamma) else gamma_mask(h, n)[0]
        if _critical_miss(h, n, after) is None:
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


def _pivot_condition(g: Graph, pairs: list[tuple[int, int]]) -> bool:
    # An edge xy is pinned by (V2, V1) when one endpoint is labeled 0 and
    # the other is its only 2-labeled closed neighbor. A pivot serves the
    # edge iff no minimum assignment labels it 1 without pinning the edge,
    # so some vertex does iff those assignments' V1 do not cover V.
    closed = _closed_masks(g)
    full = g.full_mask
    for x, y in g.edges():
        unpinned = 0
        for m2, m1 in pairs:
            if not (
                closed[x] & m2 == 1 << y and not m1 >> x & 1
                or closed[y] & m2 == 1 << x and not m1 >> y & 1
            ):
                unpinned |= m1
        if unpinned == full:
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
    return _pivot_condition(g, _partition_pairs(_closed_masks(g), g.n, gamma))
