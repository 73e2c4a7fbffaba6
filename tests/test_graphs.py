from __future__ import annotations

import random

import pytest

from romancrit import (
    FAMILY_TAGS,
    EdgeExists,
    Graph,
    IndexOutOfRange,
    InvalidOrder,
    NoSuchEdge,
    SelfLoop,
    gen_family,
    graph_new,
    is_isomorphic,
    relabel,
)


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph_new(n, edges)


# -- construction ------------------------------------------------------------


def test_graph_new_basic():
    g = graph_new(4, [(0, 1), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert not g.adjacent(0, 2)
    assert g.degrees() == (1, 2, 2, 1)


def test_graph_new_rejects_bad_input():
    with pytest.raises(InvalidOrder):
        graph_new(-1)
    with pytest.raises(SelfLoop):
        graph_new(3, [(1, 1)])
    with pytest.raises(IndexOutOfRange):
        graph_new(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        graph_new(3, [(-1, 2)])


def test_graph_new_duplicate_edge_is_idempotent():
    g = graph_new(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_empty_graph_orders():
    g = graph_new(0)
    assert g.n == 0
    assert g.edges() == []
    assert g.connected_components() == []


# -- queries -----------------------------------------------------------------


def test_neighbor_queries():
    g = graph_new(5, [(0, 1), (0, 2), (3, 4)])
    assert g.neighbors(0) == frozenset({1, 2})
    assert g.closed_neighborhood(0) == frozenset({0, 1, 2})
    assert g.closed_mask(3) == (1 << 3) | (1 << 4)
    assert g.degree(0) == 2
    with pytest.raises(IndexOutOfRange):
        g.degree(5)
    with pytest.raises(IndexOutOfRange):
        g.neighbors(-1)


def test_non_edges_partition_pairs():
    # both lists in lexicographic order, against a literal loop over pairs
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randrange(0, 9)
        g = _random_graph(rng, n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert g.edges() == [(u, v) for u, v in pairs if v in g.neighbors(u)]
        assert g.non_edges() == [(u, v) for u, v in pairs if v not in g.neighbors(u)]


# -- mutations ---------------------------------------------------------------


def test_add_edge_copy_on_write():
    g = graph_new(3, [(0, 1)])
    h = g.add_edge(1, 2)
    assert h.adjacent(1, 2)
    assert not g.adjacent(1, 2)
    with pytest.raises(EdgeExists):
        g.add_edge(0, 1)
    with pytest.raises(SelfLoop):
        g.add_edge(2, 2)
    with pytest.raises(IndexOutOfRange):
        g.add_edge(0, 3)


def test_delete_edge_errors():
    g = graph_new(3, [(0, 1)])
    h = g.delete_edge(0, 1)
    assert h.edge_count() == 0
    assert g.edge_count() == 1
    with pytest.raises(NoSuchEdge):
        g.delete_edge(0, 2)
    with pytest.raises(SelfLoop):
        g.delete_edge(1, 1)


def test_add_then_delete_round_trip():
    rng = random.Random(9)
    for _ in range(100):
        g = _random_graph(rng, rng.randrange(2, 9))
        nonedges = g.non_edges()
        if not nonedges:
            continue
        u, v = rng.choice(nonedges)
        assert g.add_edge(u, v).delete_edge(u, v) == g


def test_delete_vertex_compacts_labels():
    # path 0-1-2-3; dropping 1 leaves 0 isolated, old 2-3 renamed 1-2
    g = gen_family("path", 4)
    h = g.delete_vertex(1)
    assert h.n == 3
    assert h.edges() == [(1, 2)]
    with pytest.raises(IndexOutOfRange):
        g.delete_vertex(4)


def test_delete_vertex_matches_relabel_construction():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n)
        v = rng.randrange(n)
        keep = [u for u in range(n) if u != v]
        expected = graph_new(
            n - 1,
            [
                (keep.index(a), keep.index(b))
                for a, b in g.edges()
                if a != v and b != v
            ],
        )
        assert g.delete_vertex(v) == expected


# -- connectivity ------------------------------------------------------------


def test_connected_components():
    g = graph_new(6, [(0, 1), (1, 2), (4, 5)])
    assert g.connected_components() == [
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({4, 5}),
    ]


def _components_by_search(g: Graph, removed: set[int]) -> list[frozenset[int]]:
    """Components of g minus the removed vertices, by a search over
    neighbor sets, ordered by smallest member."""
    left = set(range(g.n)) - removed
    comps = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            for w in g.neighbors(stack.pop()) - comp - removed:
                comp.add(w)
                stack.append(w)
        left -= comp
        comps.append(frozenset(comp))
    return comps


def test_component_masks_match_a_search_over_neighbor_sets():
    rng = random.Random(73)
    for _ in range(120):
        n = rng.randrange(0, 11)
        g = _random_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
        want = _components_by_search(g, set())
        assert g.connected_components() == want
        assert [frozenset(v for v in range(n) if m >> v & 1) for m in g.component_masks()] == want
        cuts = set()
        for v in range(n):
            without = _components_by_search(g, {v})
            got = g.component_masks(1 << v)
            assert [frozenset(w for w in range(n) if m >> w & 1) for m in got] == without
            if len(without) > len(want):
                cuts.add(v)
        assert g.cut_vertices() == cuts


def test_cut_vertices_path_and_cycle():
    assert gen_family("path", 5).cut_vertices() == frozenset({1, 2, 3})
    assert gen_family("cycle", 5).cut_vertices() == frozenset()
    assert gen_family("complete", 4).cut_vertices() == frozenset()


# -- families ----------------------------------------------------------------


def test_family_tags_cover_generators():
    assert set(FAMILY_TAGS) == {
        "empty",
        "complete",
        "path",
        "cycle",
        "xn",
        "dn",
        "elem1",
        "elem2",
        "elem3",
    }


def test_basic_families():
    assert gen_family("empty", 3).edge_count() == 0
    k4 = gen_family("complete", 4)
    assert k4.edge_count() == 6
    assert gen_family("path", 1).n == 1
    c5 = gen_family("cycle", 5)
    assert c5.degrees() == (2,) * 5
    assert c5.edge_count() == 5


def test_gen_family_rejects_bad_tags_and_orders():
    with pytest.raises(InvalidOrder):
        gen_family("nosuchfamily", 5)
    with pytest.raises(InvalidOrder):
        gen_family("cycle")
    with pytest.raises(InvalidOrder):
        gen_family("cycle", 2)
    with pytest.raises(InvalidOrder):
        gen_family("xn", 4)
    with pytest.raises(InvalidOrder):
        gen_family("dn", 7)
    with pytest.raises(InvalidOrder):
        gen_family("dn", 4)


def test_xn_family_degree_profile():
    # every vertex misses exactly the two vertices at cyclic distance 2
    for n in range(5, 13):
        g = gen_family("xn", n)
        assert g.degrees() == (n - 3,) * n
        for v in range(n):
            missing = {(v - 2) % n, (v + 2) % n}
            assert g.neighbors(v) == frozenset(range(n)) - missing - {v}


def test_x5_is_five_cycle():
    assert is_isomorphic(gen_family("xn", 5), gen_family("cycle", 5))


def test_x6_is_complete_bipartite_3_3():
    k33 = graph_new(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    assert is_isomorphic(gen_family("xn", 6), k33)


def test_dn_family_degree_profile():
    for n in range(6, 13, 2):
        g = gen_family("dn", n)
        degs = sorted(g.degrees())
        assert degs == [1] + [n - 3] * (n - 1)


def test_d6_structure():
    g = gen_family("dn", 6)
    assert set(g.edges()) == {
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 4),
        (3, 4),
        (4, 5),
    }
    assert g.cut_vertices() == frozenset({4})
    # the pendant vertex hangs off the cut vertex
    pendant = next(v for v in range(6) if g.degree(v) == 1)
    assert g.neighbors(pendant) == frozenset({4})


def test_dn_pendant_neighbor_is_cut_vertex():
    for n in range(6, 13, 2):
        g = gen_family("dn", n)
        pendant = next(v for v in range(n) if g.degree(v) == 1)
        (support,) = g.neighbors(pendant)
        assert support in g.cut_vertices()


def test_elementary_order4_families():
    for tag in ("elem1", "elem2", "elem3"):
        g = gen_family(tag)
        assert g.n == 4
    # the three graphs are pairwise non-isomorphic
    assert not is_isomorphic(gen_family("elem1"), gen_family("elem2"))
    assert not is_isomorphic(gen_family("elem1"), gen_family("elem3"))
    assert not is_isomorphic(gen_family("elem2"), gen_family("elem3"))


# -- relabel -----------------------------------------------------------------


def test_relabel_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert is_isomorphic(g, h)
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        assert relabel(h, inverse) == g


def test_relabel_rejects_non_permutation():
    g = graph_new(3, [(0, 1)])
    with pytest.raises(InvalidOrder):
        relabel(g, [0, 0, 1])
    with pytest.raises(InvalidOrder):
        relabel(g, [0, 1])


# -- value semantics ---------------------------------------------------------


def test_equality_and_hash():
    a = graph_new(3, [(0, 1)])
    b = graph_new(3, [(1, 0)])
    c = graph_new(3, [(0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "not a graph"
