"""Criticality and saturation predicates for Roman domination, and
``Facts``, the per-graph evaluation context they read.

Each notion has a direct definition (recompute gamma_r after a vertex or
edge change) and, where the theory provides one, an equivalent reformulation
in terms of minimum-weight partitions. Both routes are kept side by side so
the harness can check them against each other.

Every public predicate here and in ``gamma4`` takes a ``Graph`` or a
``Facts`` as its first positional argument. From a bare Graph it builds a
fresh Facts; from a Facts it reads gamma_r, the verdicts, the partitions and
the degree classes already there, and computes only what is missing. The
first-failure functions settle the verdict their sweep decides in the Facts
they were given, so no verdict is swept for twice. ``Facts`` in turn decides
gamma_r and the verdicts through this module's bindings of ``gamma_r``,
``is_v_critical``, ``is_roman_saturated`` and ``is_e_critical``, which
bench/tracer.py wraps.

The definitions never solve gamma_r for a modified graph just to compare it.
Three bounds turn each comparison into one ``gamma_at_most`` question:
deleting a vertex or adding an edge lowers gamma_r by at most 1 (relabel the
vertex 1, or the 0-endpoint that leaned on the new edge 1), and deleting an
edge never lowers it (an assignment of G - e is one of G). So "drops by
exactly 1" is "gamma_r(G') <= gamma_r(G) - 1", and "edge removal keeps
gamma_r" is "gamma_r(G - e) <= gamma_r(G)". gamma_r is solved only for the
one vertex or edge a witness reports, and not even there for a non-edge:
adding an edge never raises gamma_r, so a failing non-edge leaves it as it
was.

The definitions work on closed-neighborhood masks, not Graph objects. Each
reads G's masks from ``Graph.closed``, built once per graph, and derives
every modified graph's masks in a copied list: G - v by dropping v's mask
and shifting every bit above v down by one, G + uv and G - uv by flipping
bit v of u's mask and bit u of v's. The yes/no question goes to the solver's
``_at_most`` on those masks, and a Graph is built only for the one vertex or
edge whose gamma_r a witness reports. Each derived graph is swept whole,
never only over the sets that touch the changed vertex or edge: with
gamma_r(G) known, "G + uv has a set of weight gamma - 1 through u or v" says
exactly that some minimum assignment of G splits u and v 1/2, which is the
partition route, so the definition would no longer be an independent check
of it.

The partition routes read each minimum assignment as its (V2, V1) masks, in
ascending V2 order, from ``Facts.partitions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidOrder, NotVCritical
from .graphs import Graph
# minimal_partitions is not called here; bench/tracer.py wraps this binding
from .solver import (
    _at_most,
    _partition_pairs,
    _partitions_guard,
    gamma_mask,
    gamma_r,
    minimal_partitions,  # noqa: F401
)


@dataclass(frozen=True)
class DegreeClasses:
    high: frozenset[int]  # degree exactly n-3
    low: frozenset[int]  # degree below n-3
    other: frozenset[int]  # degree above n-3


def degree_classes(g: Graph) -> DegreeClasses:
    pivot = g.n - 3
    high, low, other = [], [], []
    for v, d in enumerate(g.degrees()):
        if d == pivot:
            high.append(v)
        elif d < pivot:
            low.append(v)
        else:
            other.append(v)
    return DegreeClasses(frozenset(high), frozenset(low), frozenset(other))


class Facts:
    """Per-graph lazy cache of gamma_r, the three criticality verdicts, the
    minimum partitions and the degree classes: the one evaluation context
    that every predicate, the claims and ``criticality_report`` read. It
    holds each minimum partition as its (V2, V1) masks, by ascending V2; a
    slot holds None until it is computed. The masks are ``g.closed``."""

    __slots__ = ("g", "_gamma", "_vc", "_ec", "_sat", "_parts", "_classes")

    def __init__(self, g: Graph):
        self.g = g
        self._gamma = self._vc = self._ec = self._sat = None
        self._parts = self._classes = None

    def relabeled(self, g: Graph) -> Facts:
        """Facts of g, an isomorphic copy of this graph: gamma_r and the
        verdicts carry over; the partitions and degree classes, which name
        vertices, do not, and the masks are g's own."""
        copy = Facts(g)
        copy._gamma, copy._vc, copy._ec, copy._sat = (
            self._gamma, self._vc, self._ec, self._sat
        )
        return copy

    @property
    def gamma(self) -> int:
        if self._gamma is None:
            self._gamma = gamma_r(self.g)
        return self._gamma

    @property
    def nonelementary(self) -> bool:
        return self.gamma < self.g.n

    @property
    def v_critical(self) -> bool:
        if self._vc is None:
            self._vc = is_v_critical(self)
        return self._vc

    @property
    def e_critical(self) -> bool:
        if self._ec is None:
            self._ec = is_e_critical(self)
        return self._ec

    @property
    def saturated(self) -> bool:
        if self._sat is None:
            self._sat = is_roman_saturated(self)
        return self._sat

    @property
    def partitions(self) -> list[tuple[int, int]]:
        if self._parts is None:
            # refuse the order before gamma_r is solved for it
            _partitions_guard(self.g.n)
            self._parts = _partition_pairs(self.g.closed, self.g.n, self.gamma)
        return self._parts

    @property
    def degree_classes(self) -> DegreeClasses:
        if self._classes is None:
            self._classes = degree_classes(self.g)
        return self._classes


def _facts(g: Graph | Facts) -> Facts:
    """g itself if it is a Facts, else a fresh Facts of the graph g."""
    return g if isinstance(g, Facts) else Facts(g)


def is_nonelementary(g: Graph | Facts) -> bool:
    """True iff gamma_r < n, i.e. some assignment beats the all-1 labeling."""
    return _facts(g).nonelementary


def nonelementary_by_components(g: Graph | Facts) -> bool:
    """Structural route: some connected component has at least 3 vertices."""
    return any(c.bit_count() >= 3 for c in _facts(g).g.component_masks())


def _toggle_edge(closed: Sequence[int], u: int, v: int) -> list[int]:
    """A copy of the closed-neighborhood masks with the pair uv flipped: G + uv
    for a non-edge, G - uv for an edge."""
    h = list(closed)
    h[u] ^= 1 << v
    h[v] ^= 1 << u
    return h


def _critical_miss(closed: Sequence[int], n: int, gamma: int) -> int | None:
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


def _first_non_critical(f: Facts) -> int | None:
    """The smallest v whose deletion fails to drop gamma_r by exactly 1."""
    if f.g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    return _critical_miss(f.g.closed, f.g.n, f.gamma)


def first_non_critical_vertex(g: Graph | Facts) -> tuple[int, int] | None:
    """Smallest v where deletion fails to drop gamma_r by exactly 1, with
    gamma_r after the deletion."""
    f = _facts(g)
    v = None if f._vc else _first_non_critical(f)
    f._vc = v is None
    return None if v is None else (v, gamma_r(f.g.delete_vertex(v)))


def is_v_critical(g: Graph | Facts) -> bool:
    """True iff deleting any one vertex drops gamma_r by exactly 1."""
    f = _facts(g)
    if f._vc is None:
        f._vc = _first_non_critical(f) is None
    return f._vc


def v_critical_by_partitions(g: Graph | Facts) -> bool:
    """Partition route: every vertex is labeled 1 in some minimum assignment."""
    f = _facts(g)
    if f.g.n == 0:
        raise InvalidOrder("criticality needs order >= 1")
    union = 0
    for _, m1 in f.partitions:
        union |= m1
    return union == f.g.full_mask


def first_unsaturated_nonedge(g: Graph | Facts) -> tuple[int, int, int] | None:
    """Smallest non-edge whose addition fails to drop gamma_r by exactly 1,
    with gamma_r after the addition."""
    f = _facts(g)
    hit = None
    if not f._sat:
        g, limit, closed = f.g, f.gamma - 1, f.g.closed
        for u, v in g.non_edges():
            if not _at_most(_toggle_edge(closed, u, v), g.n, limit):
                hit = u, v, limit + 1
                break
    f._sat = hit is None
    return hit


def is_roman_saturated(g: Graph | Facts) -> bool:
    """True iff adding any one missing edge drops gamma_r by exactly 1.

    Complete graphs satisfy this vacuously.
    """
    f = _facts(g)
    if f._sat is None:
        f._sat = first_unsaturated_nonedge(f) is None
    return f._sat


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


def saturated_by_partitions(g: Graph | Facts) -> bool:
    """Partition route: each non-adjacent pair is split 1/2 by some minimum
    assignment."""
    f = _facts(g)
    return _saturated_over_partitions(f.g, f.partitions)


def first_gamma_changing_edge(g: Graph | Facts) -> tuple[int, int, int] | None:
    """Smallest edge of a v-critical graph whose removal changes gamma_r,
    with gamma_r after the removal."""
    f = _facts(g)
    if not f.v_critical:
        raise NotVCritical("edge-removal invariance is stated for v-critical graphs")
    g, gamma, closed = f.g, f.gamma, f.g.closed
    for u, v in g.edges():
        if not _at_most(_toggle_edge(closed, u, v), g.n, gamma):
            return u, v, gamma_r(g.delete_edge(u, v))
    return None


def edge_removal_preserves_gamma(g: Graph | Facts) -> bool:
    """True iff every single-edge removal keeps gamma_r unchanged."""
    return first_gamma_changing_edge(g) is None


def first_non_ecritical_edge(g: Graph | Facts) -> tuple[int, int] | None:
    """Smallest edge whose removal leaves the graph v-critical.

    Caller guarantees g itself is v-critical. The e-critical verdict is
    settled only in a Facts that already holds g as v-critical.
    """
    f = _facts(g)
    if f._ec:
        return None
    g, gamma, closed, n = f.g, f.gamma, f.g.closed, f.g.n
    hit = None
    for u, v in g.edges():
        h = _toggle_edge(closed, u, v)
        after = gamma if _at_most(h, n, gamma) else gamma_mask(h, n)[0]
        if _critical_miss(h, n, after) is None:
            hit = u, v
            break
    if f._vc:
        f._ec = hit is None
    return hit


def is_e_critical(g: Graph | Facts) -> bool:
    """True iff g is v-critical and no single-edge removal stays v-critical.

    Edgeless v-critical graphs qualify vacuously.
    """
    f = _facts(g)
    if f._ec is None:
        f._ec = f.v_critical and first_non_ecritical_edge(f) is None
    return f._ec


def _pivot_condition(g: Graph, pairs: list[tuple[int, int]]) -> bool:
    # An edge xy is pinned by (V2, V1) when one endpoint is labeled 0 and
    # the other is its only 2-labeled closed neighbor. A pivot serves the
    # edge iff no minimum assignment labels it 1 without pinning the edge,
    # so some vertex does iff those assignments' V1 do not cover V.
    closed = g.closed
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


def e_critical_condition(g: Graph | Facts) -> bool:
    """Partition route for e-criticality.

    True iff every edge has a pivot vertex such that each minimum assignment
    labeling the pivot 1 pins the edge: one endpoint is labeled 0 and the
    other is its unique 2-labeled closed neighbor.
    """
    f = _facts(g)
    if not f.v_critical:
        raise NotVCritical("the pivot condition is stated for v-critical graphs")
    return _pivot_condition(f.g, f.partitions)
