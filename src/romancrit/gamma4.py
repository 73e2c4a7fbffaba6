"""Degree-level structure of graphs with Roman domination number 4.

For these graphs criticality and saturation collapse to statements about
vertices of degree n-3 ("high") versus lower degree ("low"). Each predicate
here is the degree-based route; the direct-definition route lives in
criticality.py, and the harness checks the two against each other.

Every public predicate takes a ``Graph`` or a ``Facts`` as its first
positional argument and reads gamma_r, the verdicts and the degree classes
from that ``Facts`` (a bare Graph gets a fresh one). Its preconditions are
checked on those values, so a Facts raises exactly where its graph does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import PreconditionViolated
from .graphs import Graph
# DegreeClasses and degree_classes are re-exported from here
from .criticality import DegreeClasses, Facts, _facts, degree_classes  # noqa: F401
# not called here; bench/tracer.py wraps these bindings
from .criticality import is_e_critical, is_roman_saturated, is_v_critical  # noqa: F401
from .graphs import gen_family  # noqa: F401
from .iso import is_isomorphic  # noqa: F401
from .solver import gamma_r  # noqa: F401


def _require_gamma4(f: Facts) -> None:
    if f.gamma != 4:
        raise PreconditionViolated(f"needs gamma_r = 4, got {f.gamma}")
    if f.gamma >= f.g.n:
        raise PreconditionViolated("needs a nonelementary graph (gamma_r < order)")


def _require_v_critical4(f: Facts) -> None:
    if not f.v_critical:
        raise PreconditionViolated("needs a v-critical graph")


def vcrit4_by_degrees(g: Graph | Facts) -> bool:
    """Degree route to v-criticality at gamma_r = 4.

    True iff every vertex has a non-neighbor of degree n-3.
    """
    f = _facts(g)
    _require_gamma4(f)
    high = sum(1 << v for v in f.degree_classes.high)
    return all(high & ~c for c in f.g.closed)


def _witness_pairs_raw(g: Graph, x: int) -> list[tuple[int, int]]:
    full = g.full_mask
    out = []
    for a, c in enumerate(g.closed):
        if a == x:
            continue
        comp = full & ~c
        if comp.bit_count() == 2 and comp >> x & 1:
            b = (comp ^ (1 << x)).bit_length() - 1
            out.append((a, b))
    return out


def witness_pairs(g: Graph | Facts, x: int) -> list[tuple[int, int]]:
    """All pairs (a, b) with N[a] = V minus {x, b}, ascending by a."""
    f = _facts(g)
    _require_gamma4(f)
    f.g._check_vertex(x)
    return _witness_pairs_raw(f.g, x)


def neighborhood_witness(g: Graph | Facts, x: int) -> tuple[int, int] | None:
    """Smallest pair (a, b) with N[a] = V minus {x, b}, or None."""
    pairs = witness_pairs(g, x)
    return pairs[0] if pairs else None


def witness_chase_ok(g: Graph | Facts, x: int) -> bool:
    """Chase every witness pair (a, b) of x: each needs some witness pair
    at a that lands back in {x, b}. Vacuously false when x has no witness
    at all."""
    f = _facts(g)
    pairs = witness_pairs(f, x)
    return bool(pairs) and all(
        any(a2 in (x, b) for a2, _ in _witness_pairs_raw(f.g, a)) for a, b in pairs
    )


def saturated4_by_degrees(g: Graph | Facts) -> bool:
    """Degree route to saturation at gamma_r = 4.

    True iff every two vertices of degree below n-3 are adjacent.
    """
    f = _facts(g)
    _require_gamma4(f)
    low = sorted(f.degree_classes.low)
    return all(f.g.adj[u] >> v & 1 for u, v in combinations(low, 2))


def ecrit4_by_degrees(g: Graph | Facts) -> bool:
    """Degree route to e-criticality at gamma_r = 4 (v-critical inputs).

    True iff every edge (x, y) has a vertex v such that each degree-(n-3)
    vertex outside N[v] is x or y.
    """
    f = _facts(g)
    _require_gamma4(f)
    _require_v_critical4(f)
    g = f.g
    high = sum(1 << v for v in f.degree_classes.high)
    for x, y in g.edges():
        pair = 1 << x | 1 << y
        if not any(not high & ~c & ~pair for c in g.closed):
            return False
    return True


def high_class_bounds(g: Graph | Facts) -> tuple[bool, bool]:
    """(2|high| >= n, 4|high| >= 3n).

    The first bound is asserted for v-critical graphs, the second for
    v-critical saturated ones; this evaluates both, callers supply context.
    """
    f = _facts(g)
    _require_gamma4(f)
    high = len(f.degree_classes.high)
    return (2 * high >= f.g.n, 4 * high >= 3 * f.g.n)


def first_cut_vertex_without_pendant(g: Graph | Facts) -> int | None:
    """The smallest cut vertex whose deletion leaves no single-vertex
    component, or None."""
    g = _facts(g).g
    for v in sorted(g.cut_vertices()):
        if not any(c.bit_count() == 1 for c in g.component_masks(1 << v)):
            return v
    return None


def every_cut_vertex_leaves_pendant_component(g: Graph | Facts) -> bool:
    return first_cut_vertex_without_pendant(g) is None


def _cut_structure(f: Facts) -> bool:
    g = f.g
    if catalog_verdict(f) == IS_C5:
        return True
    low = sorted(f.degree_classes.low)
    if len(low) != 1:
        return False
    v = low[0]
    if g.degree(v) != 1:
        return False
    neighbor = g.adj[v].bit_length() - 1
    return neighbor in g.cut_vertices()


def cut_vertex_structure(g: Graph | Facts) -> bool:
    """Cut-vertex facts for nonelementary v-critical graphs at gamma_r = 4.

    Always checks that every cut vertex leaves a single-vertex component;
    when the graph is also e-critical and saturated, additionally checks it
    is the 5-cycle or has exactly one low vertex, pendant on a cut vertex.
    """
    f = _facts(g)
    _require_gamma4(f)
    _require_v_critical4(f)
    ok = every_cut_vertex_leaves_pendant_component(f)
    if ok and f.saturated and f.e_critical:
        ok = _cut_structure(f)
    return ok


NOT_CRITICAL = "NotCritical"
CRITICAL_BUT_UNCLASSIFIED = "CriticalButUnclassified"
IS_C5 = "IsC5"
IS_DN = "IsDn"
ELEMENTARY_G1 = "ElementaryG1"
ELEMENTARY_G2 = "ElementaryG2"
ELEMENTARY_G3 = "ElementaryG3"


@dataclass(frozen=True)
class Classification:
    verdict: str
    order: int | None = None

    def __str__(self) -> str:
        if self.order is not None:
            return f"{self.verdict}({self.order})"
        return self.verdict


def catalog_verdict(g: Graph | Facts) -> str | None:
    """The catalog member g is isomorphic to, read from its degrees, or
    None: ElementaryG1, G2 or G3 (order 4, maximum degree at most 1, by
    edge count 0, 1 or 2), IsC5 (order 5, 2-regular) or IsDn (order
    n >= 6, degrees [1] + [n - 3] * (n - 1)).

    Each member is fixed by its degree sequence. An order-4 graph of
    maximum degree at most 1 is a matching, fixed by its edge count. The
    one 2-regular graph of order 5 is C5, since a cycle has at least 3
    vertices. In the complement of a graph with the last sequence, the
    degree-1 vertex p misses only its neighbour q, and every other vertex
    has degree 2. So the complement minus p keeps q at degree 2 and leaves
    every other vertex at degree 1: a P3 centred on q plus a perfect
    matching, which forces n even. All such graphs are isomorphic, and
    D_n (graphs._dn) is one of them.
    """
    g = _facts(g).g
    n = g.n
    degs = g.degrees()
    if n == 4 and max(degs) <= 1:
        return (ELEMENTARY_G1, ELEMENTARY_G2, ELEMENTARY_G3)[g.edge_count()]
    if n == 5 and all(d == 2 for d in degs):
        return IS_C5
    if n >= 6 and sorted(degs) == [1] + [n - 3] * (n - 1):
        return IS_DN
    return None


def classify_critical4(g: Graph | Facts) -> Classification:
    """Sort a graph into the gamma_r = 4 criticality catalog.

    Elementary side (order 4): v-critical graphs are one of the three
    catalog graphs. Nonelementary side: v-critical, e-critical, saturated
    graphs are the 5-cycle or a member of the even pendant family. Anything
    critical that is no catalog member is reported as
    CriticalButUnclassified; everything else is NotCritical. Membership is
    read from catalog_verdict.
    """
    f = _facts(g)
    n = f.g.n
    if n < 4 or f.gamma != 4 or not f.v_critical:
        return Classification(NOT_CRITICAL)
    if n > 4 and (not f.saturated or not f.e_critical):
        return Classification(NOT_CRITICAL)
    verdict = catalog_verdict(f) or CRITICAL_BUT_UNCLASSIFIED
    return Classification(verdict, n if verdict == IS_DN else None)


def _nonneighbors(g: Graph, v: int) -> list[int]:
    return [u for u in range(g.n) if u != v and not g.adj[v] >> u & 1]


def local8_conditions(g: Graph | Facts) -> tuple[bool, bool, bool]:
    """Literal sweep of the three local adjacency conditions (order >= 8).

    With roles {v2,v3,v4}, {v5,v6,v7}, {v5,v6} symmetric, tuples reduce to
    combinations:
      a: some v1 has three non-neighbors v2, v3, v4, with no condition on
         the adjacency among v2, v3, v4 (requiring them pairwise
         non-adjacent gives a different condition, e.g. on HNiZeV]; only
         the paper's abstract is at hand, so which reading it intends is
         unsettled);
      b: whenever v1 has non-neighbors v2, v3, v4, every choice of distinct
         v5..v8 leaves v8 with at least 5 neighbors among v1..v7;
      c: in the same situation v1 is adjacent to at most one of v5, v6.
    """
    g = _require_order8(g)
    adj = g.adj
    cond_a = any(True for _ in _local8_situations(g))
    cond_b = all(
        (adj[v8] & (used | 1 << v5 | 1 << v6 | 1 << v7)).bit_count() >= 5
        for _, used, rest in _local8_situations(g)
        for v8 in rest
        for v5, v6, v7 in combinations([u for u in rest if u != v8], 3)
    )
    cond_c = not any(
        adj[v1] >> v5 & 1 and adj[v1] >> v6 & 1
        for v1, _, rest in _local8_situations(g)
        for v5, v6 in combinations(rest, 2)
    )
    return (cond_a, cond_b, cond_c)


def _local8_situations(g: Graph) -> Iterator[tuple[int, int, list[int]]]:
    """Each (v1, mask of v1..v4, the other vertices) with v2, v3, v4
    non-neighbors of v1, ascending by v1 and then by the triple."""
    n = g.n
    for v1 in range(n):
        for v2, v3, v4 in combinations(_nonneighbors(g, v1), 3):
            used = 1 << v1 | 1 << v2 | 1 << v3 | 1 << v4
            yield v1, used, [u for u in range(n) if not used >> u & 1]


def local8_fast(g: Graph | Facts) -> tuple[bool, bool, bool]:
    """Degree shortcuts for the three conditions of local8_conditions:
    a: some vertex has degree below n-3;
    b: at most one vertex has degree below n-3;
    c: every vertex of degree below n-3 has degree at most 1.

    a and c match the literal conditions; b does not. Calling a vertex of
    degree below n-3 low, the literal b holds exactly when there is at most
    one low vertex, or when every low vertex has degree n-4 and no two low
    vertices are adjacent. With two or more such low vertices the routes
    split (GMzmtk). test_local8_literal_b_follows_docstring_rule checks that
    rule on seeded gamma_r = 4 graphs of orders 8-10, random and with planted
    low vertices of degree n-4.
    """
    g = _require_order8(g)
    pivot = g.n - 3
    low_degs = [d for d in g.degrees() if d < pivot]
    return (
        bool(low_degs),
        len(low_degs) <= 1,
        all(d <= 1 for d in low_degs),
    )


def _require_order8(g: Graph | Facts) -> Graph:
    """The graph of g, once its gamma_r = 4 and order >= 8 are checked."""
    f = _facts(g)
    _require_gamma4(f)
    if f.g.n < 8:
        raise PreconditionViolated(f"needs order >= 8, got {f.g.n}")
    return f.g
