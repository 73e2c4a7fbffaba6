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
from romancrit.harness import iter_labeled_graphs
from oracles import random_graph


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
