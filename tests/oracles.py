"""Graph builders shared by the test modules.

``random_graph`` is the one seeded G(n, p) draw: a test that fixes its seed
and its calls fixes its graphs, whichever module it sits in.
``v_critical_by_definition`` is the one brute-force v-criticality test.
``emit_graph6_bitwise`` and ``parse_graph6_bitwise`` are the graph6 codec
one bit at a time, the reference for the whole-integer codec in ``romancrit``.
"""

from __future__ import annotations

import random

from romancrit import (
    Graph,
    MalformedGraph6,
    TooLarge,
    graph_new,
    roman_number_oracle,
)


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


def emit_graph6_bitwise(g: Graph) -> str:
    """graph6 of g, one pair and one bit at a time."""
    if g.n >= 63:
        raise TooLarge(f"graph6 emitter supports order < 63, got {g.n}")
    n = g.n
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6_bitwise(line: str) -> Graph:
    """The graph of a graph6 line, one byte and one bit at a time, with the
    checks, their order and their messages of romancrit's parser."""
    # ASCII whitespace only, the set bytes.strip() strips
    s = line.strip(" \t\n\r\x0b\x0c")
    s = s.removeprefix(">>graph6<<")
    if not s:
        raise MalformedGraph6("empty graph6 line")
    codes = [ord(c) - 63 for c in s]
    for c in codes:
        if not 0 <= c <= 63:
            raise MalformedGraph6(f"byte {c + 63} out of graph6 range 63..126")
    if codes[0] == 63:
        raise TooLarge("graph6 orders >= 63 are not supported")
    n = codes[0]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(codes) - 1 != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} data bytes for order {n}, got {len(codes) - 1}"
        )
    bits = []
    for c in codes[1:]:
        for shift in range(5, -1, -1):
            bits.append(c >> shift & 1)
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))
