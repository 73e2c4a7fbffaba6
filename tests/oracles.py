"""Graph builders shared by the test modules.

``random_graph`` is the one seeded G(n, p) draw: a test that fixes its seed
and its calls fixes its graphs, whichever module it sits in.
``v_critical_by_definition`` is the one brute-force v-criticality test.
"""

from __future__ import annotations

import random

from romancrit import Graph, graph_new, roman_number_oracle


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """G(n, p): each pair u < v, in lexicographic order, is an edge when
    rng.random() < p."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph_new(n, edges)


def v_critical_by_definition(g: Graph, gamma_of=roman_number_oracle) -> bool:
    """Deleting any one vertex lowers gamma_of by exactly one; gamma_of
    defaults to the 3^n oracle."""
    base = gamma_of(g)
    return all(gamma_of(g.delete_vertex(v)) == base - 1 for v in range(g.n))


def matching_complement_plus_isolated(n: int) -> Graph:
    """K_{n-1} minus a perfect matching, plus one isolated vertex (n odd)."""
    assert n % 2 == 1 and n >= 5
    m = n - 1
    edges = [
        (u, v)
        for u in range(m)
        for v in range(u + 1, m)
        if u + m // 2 != v
    ]
    return graph_new(n, edges)
