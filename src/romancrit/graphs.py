"""Immutable simple graphs on vertices 0..n-1, stored as per-vertex bitmasks.

Bit j of ``adj[v]`` is set iff {v, j} is an edge. All mutating operations
return a new graph; deletion compacts indices above the removed vertex,
preserving order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    EdgeExists,
    IndexOutOfRange,
    InvalidOrder,
    NoSuchEdge,
    SelfLoop,
)


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # Trusted constructor: callers must pass a symmetric, loop-free
        # adjacency table. Use graph_new() to build from an edge list.
        self.n = n
        self.adj = adj

    # -- queries ---------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return _mask_to_set(self.adj[v])

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return _mask_to_set(self.adj[v] | (1 << v))

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        return _pairs_above(self.adj)

    def non_edges(self) -> list[tuple[int, int]]:
        """All non-adjacent pairs (u, v) with u < v, lexicographically sorted."""
        full = self.full_mask
        return _pairs_above([full & ~m for m in self.adj])

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- copy-on-write mutations ------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoop(f"cannot add loop at {u}")
        if self.adj[u] >> v & 1:
            raise EdgeExists(f"edge ({u}, {v}) already present")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def delete_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoop(f"no loop at {u} to delete")
        if not self.adj[u] >> v & 1:
            raise NoSuchEdge(f"edge ({u}, {v}) not present")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; vertices above v shift down by one (order preserved)."""
        self._check_vertex(v)
        low = (1 << v) - 1
        adj = []
        for u in range(self.n):
            if u == v:
                continue
            m = self.adj[u]
            adj.append((m & low) | ((m >> (v + 1)) << v))
        return Graph(self.n - 1, tuple(adj))

    # -- connectivity ------------------------------------------------------

    def component_masks(self, without: int = 0) -> list[int]:
        """Vertex masks of the connected components of the graph minus the
        vertices in the mask ``without``, ordered by smallest member; the
        vertices keep their numbers."""
        left = self.full_mask & ~without
        comps = []
        while left:
            comp = frontier = left & -left
            while frontier:
                low = frontier & -frontier
                new = self.adj[low.bit_length() - 1] & left & ~comp
                comp |= new
                frontier ^= low | new
            left ^= comp
            comps.append(comp)
        return comps

    def connected_components(self) -> list[frozenset[int]]:
        """Maximal connected vertex sets, ordered by smallest member."""
        return [_mask_to_set(c) for c in self.component_masks()]

    def cut_vertices(self) -> frozenset[int]:
        """Vertices whose deletion increases the number of components."""
        base = len(self.component_masks())
        return frozenset(
            v for v in range(self.n) if len(self.component_masks(1 << v)) > base
        )

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _pairs_above(rows: Iterable[int]) -> list[tuple[int, int]]:
    """(u, v) for every bit v above u of rows[u], ascending by u, then v."""
    out = []
    for u, m in enumerate(rows):
        m &= -2 << u
        while m:
            low = m & -m
            out.append((u, low.bit_length() - 1))
            m ^= low
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def graph_new(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph of order n from an edge list. Duplicate edges collapse."""
    if n < 0:
        raise InvalidOrder(f"order must be >= 0, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not 0 <= u < n:
            raise IndexOutOfRange(f"vertex {u} not in 0..{n - 1}")
        if not 0 <= v < n:
            raise IndexOutOfRange(f"vertex {v} not in 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"loop at {u} not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# -- generators ------------------------------------------------------------


def _empty(n: int) -> Graph:
    if n < 0:
        raise InvalidOrder("empty graph needs order >= 0")
    return graph_new(n)


def _complete(n: int) -> Graph:
    if n < 0:
        raise InvalidOrder("complete graph needs order >= 0")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def _path(n: int) -> Graph:
    if n < 1:
        raise InvalidOrder("path needs order >= 1")
    return graph_new(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidOrder("cycle needs order >= 3")
    return graph_new(n, [(i, (i + 1) % n) for i in range(n)])


def _xn(n: int) -> Graph:
    """Each vertex i is adjacent to everything except i-2 and i+2 (mod n)."""
    if n < 5:
        raise InvalidOrder("this family needs order >= 5")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if j not in ((i + 2) % n, (i - 2) % n)
    ]
    return graph_new(n, edges)


def _dn(n: int) -> Graph:
    """Pendant-plus-near-clique family: order n even, >= 6.

    Vertices 2..n-3 form the middle block, complete except for the
    non-adjacent pairs (2,3), (4,5), ..., (n-4, n-3). Vertices 0 and 1 are
    adjacent to each other and to the whole middle block; vertex n-2 is
    adjacent to the middle block and to the pendant vertex n-1.
    """
    if n < 6 or n % 2:
        raise InvalidOrder("this family needs even order >= 6")
    edges = [(0, 1), (n - 2, n - 1)]
    for j in range(2, n - 2):
        edges.append((j, n - 2))
        edges.append((0, j))
        edges.append((1, j))
    skipped = {(i, i + 1) for i in range(2, n - 2, 2)}
    for i in range(2, n - 2):
        for j in range(i + 1, n - 2):
            if (i, j) not in skipped:
                edges.append((i, j))
    return graph_new(n, edges)


def _fixed_order_4(edges: list[tuple[int, int]], n: int | None) -> Graph:
    if n is not None and n != 4:
        raise InvalidOrder("this family has fixed order 4")
    return graph_new(4, edges)


_FAMILIES = {
    "empty": _empty,
    "complete": _complete,
    "path": _path,
    "cycle": _cycle,
    "xn": _xn,
    "dn": _dn,
}

_FIXED_4 = {
    "elem1": [],
    "elem2": [(0, 1)],
    "elem3": [(0, 1), (2, 3)],
}

FAMILY_TAGS = tuple(_FAMILIES) + tuple(_FIXED_4)


def gen_family(tag: str, n: int | None = None) -> Graph:
    """Generate a named family member; tag is case-insensitive."""
    key = tag.lower()
    if key in _FIXED_4:
        return _fixed_order_4(_FIXED_4[key], n)
    if key not in _FAMILIES:
        raise InvalidOrder(f"unknown family {tag!r}; known: {', '.join(FAMILY_TAGS)}")
    if n is None:
        raise InvalidOrder(f"family {tag!r} needs an order argument")
    return _FAMILIES[key](n)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply a permutation: vertex v of g becomes perm[v] of the result."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidOrder("not a permutation of the vertex set")
    adj = [0] * g.n
    for v in range(g.n):
        m = g.adj[v]
        t = 0
        while m:
            low = m & -m
            t |= 1 << perm[low.bit_length() - 1]
            m ^= low
        adj[perm[v]] = t
    return Graph(g.n, tuple(adj))
