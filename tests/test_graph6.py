from __future__ import annotations

import random

import networkx as nx
import pytest

from romancrit import (
    Graph,
    MalformedGraph6,
    TooLarge,
    emit_graph6,
    gen_family,
    graph_new,
    parse_graph6,
    read_graph6_lines,
)
from romancrit.harness import (
    ENUMERATION_MAX_ORDER,
    graph_from_edge_mask,
    isomorphism_classes,
    iter_labeled_graphs,
    read_graph6,
)
from oracles import emit_graph6_bitwise, parse_graph6_bitwise, random_graph


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- fixed encodings ---------------------------------------------------------


def test_known_encodings():
    assert emit_graph6(gen_family("complete", 4)) == "C~"
    assert emit_graph6(graph_new(2)) == "A?"
    assert emit_graph6(gen_family("cycle", 5)) == "Dhc"
    assert emit_graph6(graph_new(0)) == "?"
    assert emit_graph6(graph_new(1)) == "@"


def test_known_decodings():
    assert parse_graph6("C~") == gen_family("complete", 4)
    assert parse_graph6("A?") == graph_new(2)
    assert parse_graph6("Dhc") == gen_family("cycle", 5)


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<C~") == gen_family("complete", 4)


def test_leading_trailing_whitespace_tolerated():
    assert parse_graph6("  Dhc\n") == gen_family("cycle", 5)
    assert parse_graph6(" \t\x0b\x0cDhc\r\n") == gen_family("cycle", 5)


# -- the edge mask -----------------------------------------------------------


def test_class_representatives_are_graph6_edge_masks():
    # every class of orders 0-8: the representative is the integer whose bit
    # j(j-1)/2 + i is pair (i, j), i < j, read here one pair at a time, and
    # its graph's graph6 is the bitwise oracle's
    for n in range(ENUMERATION_MAX_ORDER + 1):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for rep, _ in isomorphism_classes(n):
            g = graph_from_edge_mask(n, rep)
            assert g.n == n
            mask = sum(1 << k for k, (i, j) in enumerate(pairs) if g.adjacent(i, j))
            assert mask == rep
            assert emit_graph6(g) == emit_graph6_bitwise(g)


# -- round trips -------------------------------------------------------------


def test_round_trip_random():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randrange(0, 13)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        assert parse_graph6(emit_graph6(g)) == g


def test_round_trip_all_small():
    for n in range(0, 6):
        for g in iter_labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_emit_matches_networkx():
    rng = random.Random(987)
    for _ in range(1000):
        n = rng.randrange(0, 13)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        want = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert emit_graph6(g) == want


def test_parse_matches_networkx():
    rng = random.Random(988)
    for _ in range(300):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        line = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        parsed = parse_graph6(line)
        back = nx.from_graph6_bytes(line.encode())
        assert parsed.n == back.number_of_nodes()
        assert set(parsed.edges()) == {tuple(sorted(e)) for e in back.edges()}


# -- the whole-integer codec against the bit-by-bit oracle ------------------


def _random_line(rng: random.Random, n: int) -> str:
    # a valid line of order n < 63: the pairs, in graph6 order, are the
    # bits of one seeded integer, thinned or filled by up to two more, most
    # significant first, written out 6 at a time
    nbits = n * (n - 1) // 2
    x = rng.getrandbits(nbits)
    for _ in range(rng.randrange(3)):
        y = rng.getrandbits(nbits)
        x = x & y if rng.random() < 0.5 else x | y
    bits = (format(x, f"0{nbits}b") if nbits else "") + "0" * (-nbits % 6)
    return chr(63 + n) + "".join(
        chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6)
    )


def _mutated(rng: random.Random, line: str) -> str:
    # one edit that may break the line: a character replaced, deleted or
    # inserted (below, inside and above 63..126, or U+2028), the last byte
    # redrawn (padding bits), the order byte made 63, the header or
    # whitespace added, or a separator other than LF, CR and CR LF inside
    i = rng.randrange(len(line))
    c = chr(
        rng.choice(
            (
                rng.randrange(0, 63),
                rng.randrange(63, 127),
                rng.randrange(127, 300),
                0x2028,
            )
        )
    )
    kind = rng.randrange(8)
    if kind == 0:
        return line[:i] + c + line[i + 1 :]
    if kind == 1:
        return line[:i] + line[i + 1 :]
    if kind == 2:
        return line[:i] + c + line[i:]
    if kind == 3:
        return line[:-1] + chr(rng.randrange(63, 127))
    if kind == 4:
        return "~" + line[1:]
    if kind == 5:
        return ">>graph6<<" + line
    if kind == 6:
        return " \t" + line + "\n"
    return line[:i] + rng.choice(" \x85\x0b\x1c") + line[i:]


def _outcome(f, arg):
    try:
        return f(arg)
    except Exception as exc:
        return type(exc), str(exc)


def test_codec_matches_the_bitwise_oracle():
    # 20,000 seeded valid lines, every order 0-62 and then the least of
    # three uniform draws, so that the oracle's bit loops stay short on most,
    # decode to the oracle's graph and encode back to the same line, as the
    # oracle encodes every eighth; 4,000 edits of them, and the degenerate
    # lines, give the same graph or the same exception type and message;
    # order 63 is refused alike
    rng = random.Random(2701)
    orders = list(range(63))
    orders += [min(rng.randrange(63) for _ in range(3)) for _ in range(20_000 - 63)]
    valid = [_random_line(rng, n) for n in orders]
    for i, line in enumerate(valid):
        g = parse_graph6_bitwise(line)
        assert parse_graph6(line) == g, line
        assert emit_graph6(g) == line, line
        if i % 8 == 0:
            assert emit_graph6_bitwise(g) == line, line
    edited = ["", "   ", ">>graph6<<", "\x85", "~", "?", "@", "A"]
    edited += [_mutated(rng, line) for line in valid[:4000]]
    seen = set()
    for line in edited:
        want = _outcome(parse_graph6_bitwise, line)
        assert _outcome(parse_graph6, line) == want, repr(line)
        seen.add(
            "graph" if isinstance(want, Graph) else f"{want[0].__name__} {want[1].split()[0]}"
        )
    # every outcome occurs: a graph, order 63, and each malformed message
    assert seen == {
        "graph",
        "TooLarge graph6",
        "MalformedGraph6 empty",
        "MalformedGraph6 byte",
        "MalformedGraph6 expected",
        "MalformedGraph6 nonzero",
    }
    k63 = graph_new(63)
    assert _outcome(emit_graph6, k63) == _outcome(emit_graph6_bitwise, k63)


# -- error handling ----------------------------------------------------------


def test_order_62_round_trips_and_63_is_refused():
    # 62 is the largest order the one-byte prefix encodes
    g = random_graph(random.Random(62), 62)
    line = emit_graph6(g)
    assert line[0] == "}" and len(line) == 1 + (62 * 61 // 2 + 5) // 6
    assert parse_graph6(line) == g
    assert emit_graph6(parse_graph6(line)) == line
    assert parse_graph6(emit_graph6(gen_family("complete", 62))).edge_count() == 1891
    with pytest.raises(TooLarge):
        emit_graph6(graph_new(63))
    with pytest.raises(TooLarge):
        parse_graph6("~" + line[1:])


def test_emit_rejects_large_order():
    with pytest.raises(TooLarge):
        emit_graph6(graph_new(63))


def test_parse_rejects_malformed_lines():
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6("   ")
    with pytest.raises(MalformedGraph6):
        parse_graph6("C~\x07")
    with pytest.raises(MalformedGraph6):
        parse_graph6("C")  # order 4 needs one data byte
    with pytest.raises(MalformedGraph6):
        parse_graph6("C~~")  # one data byte too many
    with pytest.raises(TooLarge):
        parse_graph6("~??")  # order-63 prefix


def test_parse_rejects_nonzero_padding():
    # order 2 uses one payload bit; the other five must stay zero, the
    # first of them too
    assert parse_graph6("A_").edge_count() == 1
    for line in ("A~", "AO"):
        with pytest.raises(MalformedGraph6):
            parse_graph6(line)


def test_read_graph6_lines_skips_blanks():
    graphs = read_graph6_lines("C~\n\n  \nDhc\n")
    assert graphs == [gen_family("complete", 4), gen_family("cycle", 5)]


def test_read_graph6_lines_propagates_errors():
    with pytest.raises(MalformedGraph6):
        read_graph6_lines("C~\nC\n")


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
def test_both_readers_end_lines_at_lf_cr_and_crlf(tmp_path, end):
    text = f"C~{end}{end}Dhc{end}"
    path = tmp_path / "g.g6"
    path.write_bytes(text.encode("latin-1"))
    want = [gen_family("complete", 4), gen_family("cycle", 5)]
    assert read_graph6_lines(text) == want
    assert list(read_graph6(str(path))) == want


@pytest.mark.parametrize("sep", ["\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_both_readers_keep_other_separators_in_the_line(tmp_path, sep):
    # str.splitlines breaks at these too; neither reader does, so the line
    # holds a byte outside 63..126 and both name it
    text = f"Dhc{sep}C~\n"
    path = tmp_path / "g.g6"
    path.write_bytes(text.encode("latin-1"))
    message = f"byte {ord(sep)} out of graph6 range 63..126"
    with pytest.raises(MalformedGraph6, match=message):
        read_graph6_lines(text)
    with pytest.raises(MalformedGraph6, match=message):
        list(read_graph6(str(path)))
    with pytest.raises(MalformedGraph6, match="byte 8232 out of graph6 range"):
        read_graph6_lines("Dhc\u2028C~\n")


@pytest.mark.parametrize("byte", ["\x1c", "\x85", "\xa0"])
@pytest.mark.parametrize("line", ["{}Dhc", "Dhc{}", "{}"])
def test_only_ascii_whitespace_is_stripped(tmp_path, line, byte):
    # the parser and both readers strip ASCII whitespace alone: a byte that
    # str.strip() would drop, at either end of a line or alone on one, stays
    # in its line, which is not blank, and is named
    line = line.format(byte)
    message = f"byte {ord(byte)} out of graph6 range 63..126"
    text = f"C~\n{line}\n"
    path = tmp_path / "g.g6"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(MalformedGraph6, match=message):
        parse_graph6(line)
    with pytest.raises(MalformedGraph6, match=message):
        read_graph6_lines(text)
    with pytest.raises(MalformedGraph6, match=message):
        list(read_graph6(str(path)))
