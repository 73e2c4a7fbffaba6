"""graph6 encoding and decoding for graphs of order < 63.

One printable line per graph: byte 63+n, then the upper triangle of the
adjacency matrix in column-major order ((0,1), (0,2), (1,2), (0,3), ...),
packed 6 bits per byte (most significant first) with value offset 63 and
zero padding in the final byte.
"""

from __future__ import annotations

from .errors import MalformedGraph6, TooLarge
from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"


def emit_graph6(g: Graph) -> str:
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


def parse_graph6(line: str) -> Graph:
    s = line.strip()
    s = s.removeprefix(GRAPH6_HEADER)
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


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse every non-blank line of a graph6 document."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]
