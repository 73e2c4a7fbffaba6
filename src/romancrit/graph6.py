"""graph6 encoding and decoding for graphs of order < 63.

One printable line per graph: byte 63+n, then the upper triangle of the
adjacency matrix in column-major order ((0,1), (0,2), (1,2), (0,3), ...),
packed 6 bits per byte (most significant first) with value offset 63 and
zero padding in the final byte.

The package's one edge mask is that triangle as an integer, pair k on bit
k: pair (i, j), i < j, on bit j(j-1)/2 + i, so column j is the j bits from
bit j(j-1)/2 up and reads as the lower adjacency mask of j. ``edge_mask``
ORs each column in and ``graph_from_edge_mask`` peels each column off; the
class table and the copy listings use it too. The decoder reads the data
bytes as the mask through one translate table and one int(..., 2); the
encoder writes each 6-bit chunk of it through one table.

``orbit`` lists the masks of every relabeling of a graph by walking its
mask through all n! vertex orders in plain changes, one swap of adjacent
vertices per step, each swap two delta swaps on the mask.
"""

from __future__ import annotations

import io

from .errors import MalformedGraph6, TooLarge
from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"
# blanks around a line: ASCII whitespace, as bytes.strip() strips; str.strip()
# would also drop 0x1C-0x1F, 0x85 and 0xA0, bytes outside 63..126
GRAPH6_BLANKS = " \t\n\r\x0b\x0c"

# a data byte -> its six bits, most significant first; the translated data,
# reversed, is the binary numeral of the triangle with pair k on bit k
_BITS = str.maketrans({chr(63 + v): format(v, "06b") for v in range(64)})
# six bits of the triangle, pair 6i on bit 0 -> the data byte that holds them
_BYTE = [chr(63 + int(format(v, "06b")[::-1], 2)) for v in range(64)]


def edge_mask(g: Graph) -> int:
    """The edge mask of g: pair (i, j), i < j, on bit j(j-1)/2 + i."""
    adj = g.adj
    bits = k = 0
    for j in range(1, g.n):
        bits |= (adj[j] & ((1 << j) - 1)) << k
        k += j
    return bits


def graph_from_edge_mask(n: int, bits: int) -> Graph:
    """The order-n graph whose edge mask is bits; a bit at C(n, 2) or above,
    which names no pair, raises ValueError."""
    adj = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)
        bits >>= j
        adj[j] = col
        b = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= b
            col ^= low
    if bits:
        raise ValueError(f"edge mask of order {n} sets a bit past its C(n, 2) pairs")
    return Graph(n, tuple(adj))


def plain_changes(n: int) -> list[int]:
    """The n! - 1 steps of plain changes on n items, step i swapping the
    items at positions i and i + 1 (the Steinhaus-Johnson-Trotter order;
    Knuth, TAOCP 4A, 7.2.1.2, Algorithm P). From any order of the items,
    the steps visit each of the n! orders once. The last item sweeps from
    the right end to the left and back; between sweeps, the items without
    it take one step of plain changes on n - 1 items."""
    if n < 2:
        return []
    left, right = range(n - 2, -1, -1), range(n - 1)
    steps = [*left]
    for k, i in enumerate(plain_changes(n - 1)):
        if k % 2:
            steps.append(i)
            steps.extend(left)
        else:
            # the last item sits at position 0, so the others start at 1
            steps.append(i + 1)
            steps.extend(right)
    return steps


def orbit_walk(n: int) -> list[tuple[int, int, int, int]]:
    """The plain-changes walk on order-n edge masks, one swap of vertices i
    and i + 1 per step, as (near, far, i, 1 + 2^i): near marks pairs (i, j),
    j > i + 1, one bit below (i + 1, j) in column j; far marks pairs (a, i),
    a < i, column i, i bits below (a, i + 1); pair (i, i + 1) stays."""
    swaps = []
    for i in range(n - 1):
        near = sum(1 << (j * (j - 1) // 2 + i) for j in range(i + 2, n))
        far = ((1 << i) - 1) << (i * (i - 1) // 2)
        swaps.append((near, far, i, 1 + (1 << i)))
    return [swaps[i] for i in plain_changes(n)]


def orbit(mask: int, walk: list[tuple[int, int, int, int]]) -> set[int]:
    """The edge masks of every relabeling of the graph with this mask,
    ``walk`` being ``orbit_walk`` of its order."""
    masks = {mask}
    add = masks.add
    for near, far, i, spread in walk:
        # two delta swaps, t | t << d written t * (1 + 2^d): near bits are
        # 2+ apart and far's run is i bits long, so the terms never overlap
        mask ^= ((mask ^ mask >> 1) & near) * 3 | ((mask ^ mask >> i) & far) * spread
        add(mask)
    return masks


def emit_graph6(g: Graph) -> str:
    if g.n >= 63:
        raise TooLarge(f"graph6 emitter supports order < 63, got {g.n}")
    bits = edge_mask(g)
    nbits = g.n * (g.n - 1) // 2
    return chr(63 + g.n) + "".join([_BYTE[bits >> i & 63] for i in range(0, nbits, 6)])


def parse_graph6(line: str) -> Graph:
    s = line.strip(GRAPH6_BLANKS)
    s = s.removeprefix(GRAPH6_HEADER)
    if not s:
        raise MalformedGraph6("empty graph6 line")
    if min(s) < "?" or max(s) > "~":
        for c in s:
            if not "?" <= c <= "~":
                raise MalformedGraph6(f"byte {ord(c)} out of graph6 range 63..126")
    if s[0] == "~":
        raise TooLarge("graph6 orders >= 63 are not supported")
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} data bytes for order {n}, got {len(s) - 1}"
        )
    bits = int(s[1:].translate(_BITS)[::-1] or "0", 2)
    if bits >> nbits:
        raise MalformedGraph6("nonzero padding bits")
    return graph_from_edge_mask(n, bits)


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse every non-blank line of a graph6 document. Lines end at LF, CR
    or CR LF, by the universal-newline rule of io, as in harness.read_graph6;
    any other character stays in its line. A line is blank when it holds
    only GRAPH6_BLANKS."""
    lines = io.StringIO(text, newline=None)
    return [parse_graph6(line) for line in lines if line.strip(GRAPH6_BLANKS)]
