from __future__ import annotations

import random

import pytest

from romancrit import (
    Graph,
    InvalidOrder,
    NotVCritical,
    criticality_report,
    e_critical_condition,
    edge_removal_preserves_gamma,
    emit_graph6,
    first_gamma_changing_edge,
    first_non_critical_vertex,
    first_non_ecritical_edge,
    first_unsaturated_nonedge,
    gamma_r,
    gen_family,
    graph_new,
    is_e_critical,
    is_nonelementary,
    is_roman_saturated,
    is_v_critical,
    nonelementary_by_components,
    saturated_by_partitions,
    v_critical_by_partitions,
)
from romancrit import criticality, harness
from romancrit.harness import iter_labeled_graphs


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph_new(n, edges)


# -- elementary / nonelementary ----------------------------------------------


def test_nonelementary_examples():
    assert not is_nonelementary(graph_new(1))
    assert not is_nonelementary(gen_family("complete", 2))
    assert not is_nonelementary(gen_family("empty", 5))
    assert is_nonelementary(gen_family("path", 3))
    assert is_nonelementary(gen_family("complete", 3))
    for tag in ("elem1", "elem2", "elem3"):
        assert not is_nonelementary(gen_family(tag))


def test_nonelementary_routes_agree_exhaustively():
    for n in range(0, 6):
        for g in iter_labeled_graphs(n):
            assert is_nonelementary(g) == nonelementary_by_components(g)


# -- v-criticality -----------------------------------------------------------


def test_v_critical_examples():
    assert is_v_critical(gen_family("complete", 2))
    assert is_v_critical(gen_family("empty", 3))
    assert is_v_critical(gen_family("cycle", 5))
    assert not is_v_critical(gen_family("cycle", 6))
    assert is_v_critical(gen_family("xn", 6))
    assert is_v_critical(gen_family("dn", 6))
    assert is_v_critical(gen_family("elem3"))
    assert not is_v_critical(gen_family("path", 4))


def test_v_critical_cycles_by_residue():
    for n in range(3, 13):
        assert is_v_critical(gen_family("cycle", n)) == (n % 3 != 0)


def test_first_non_critical_vertex_witness():
    g = gen_family("cycle", 6)
    witness = first_non_critical_vertex(g)
    assert witness is not None
    v, after = witness
    assert gamma_r(g.delete_vertex(v)) == after
    assert after != gamma_r(g) - 1
    assert first_non_critical_vertex(gen_family("cycle", 5)) is None
    with pytest.raises(InvalidOrder):
        first_non_critical_vertex(graph_new(0))


def test_v_critical_routes_agree_random():
    rng = random.Random(6001)
    for _ in range(300):
        g = _random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
        assert is_v_critical(g) == v_critical_by_partitions(g)


# -- saturation --------------------------------------------------------------


def test_saturated_examples():
    # complete graphs have no missing edge, so they qualify vacuously
    assert is_roman_saturated(gen_family("complete", 5))
    assert is_roman_saturated(gen_family("cycle", 5))
    assert is_roman_saturated(gen_family("xn", 6))
    assert is_roman_saturated(gen_family("dn", 6))
    assert not is_roman_saturated(gen_family("cycle", 6))
    assert not is_roman_saturated(gen_family("path", 5))


def test_first_unsaturated_nonedge_witness():
    g = gen_family("cycle", 6)
    witness = first_unsaturated_nonedge(g)
    assert witness is not None
    u, v, after = witness
    assert gamma_r(g.add_edge(u, v)) == after
    assert after != gamma_r(g) - 1


def test_saturated_routes_agree_random():
    rng = random.Random(6002)
    for _ in range(300):
        g = _random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
        assert is_roman_saturated(g) == saturated_by_partitions(g)


# -- edge removal ------------------------------------------------------------


def test_edge_removal_preserves_gamma_on_v_critical():
    for g in (
        gen_family("cycle", 5),
        gen_family("xn", 6),
        gen_family("dn", 6),
        gen_family("dn", 8),
        gen_family("elem3"),
    ):
        assert edge_removal_preserves_gamma(g)
        assert first_gamma_changing_edge(g) is None


def test_first_gamma_changing_edge_requires_v_critical():
    with pytest.raises(NotVCritical):
        first_gamma_changing_edge(gen_family("cycle", 6))
    with pytest.raises(NotVCritical):
        edge_removal_preserves_gamma(gen_family("path", 4))


# -- e-criticality -----------------------------------------------------------


def test_e_critical_examples():
    assert is_e_critical(gen_family("cycle", 5))
    assert is_e_critical(gen_family("dn", 6))
    assert is_e_critical(gen_family("dn", 8))
    # every vertex pair of X6 misses two others the same way, and single
    # edge deletions leave it v-critical
    assert is_v_critical(gen_family("xn", 6))
    assert not is_e_critical(gen_family("xn", 6))
    assert not is_e_critical(gen_family("cycle", 6))
    # edgeless graphs are v-critical and vacuously e-critical
    assert is_e_critical(gen_family("empty", 4))


def test_e_critical_implies_v_critical():
    rng = random.Random(6003)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(1, 8))
        if is_e_critical(g):
            assert is_v_critical(g)


def test_first_non_ecritical_edge_witness():
    g = gen_family("xn", 6)
    assert is_v_critical(g)
    witness = first_non_ecritical_edge(g)
    assert witness is not None
    u, v = witness
    assert is_v_critical(g.delete_edge(u, v))


def test_e_critical_condition_requires_v_critical():
    with pytest.raises(NotVCritical):
        e_critical_condition(gen_family("cycle", 6))


def test_e_critical_routes_agree_random():
    rng = random.Random(6004)
    checked = 0
    for _ in range(400):
        g = _random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
        if not is_v_critical(g):
            continue
        checked += 1
        assert is_e_critical(g) == e_critical_condition(g)
    assert checked >= 20


# -- first failures against literal gamma_r loops ---------------------------


class _GammaMemo(dict):
    # gamma_r by adjacency table: G - v, G + e and G - e of small graphs
    # recur across the sweep, so each distinct labeled graph is solved once
    def __call__(self, g: Graph) -> int:
        key = (g.n, g.adj)
        if key not in self:
            self[key] = gamma_r(g)
        return self[key]


def _first_failure(items, expected):
    return next((item + (after,) for item, after in items if after != expected), None)


def _v_critical_by_definition(h: Graph, gamma_of) -> bool:
    base = gamma_of(h)
    return all(gamma_of(h.delete_vertex(w)) == base - 1 for w in range(h.n))


def _first_non_ecritical_by_definition(g: Graph, gamma_of):
    return next(
        (
            (u, v)
            for u, v in g.edges()
            if _v_critical_by_definition(g.delete_edge(u, v), gamma_of)
        ),
        None,
    )


def _first_failure_oracle_graphs():
    for n in range(1, 7):
        yield from iter_labeled_graphs(n)
    rng = random.Random(2077)
    for n in range(7, 10):
        for p in (0.3, 0.5, 0.7, 0.85):
            for _ in range(10):
                yield _random_graph(rng, n, p)


@pytest.mark.parametrize("known_gamma", [False, True])
def test_first_failures_match_definition(known_gamma):
    # each first_* answer, witness value included, equals a literal loop over
    # gamma_r of every G - v, G + e and G - e, whether or not the caller
    # supplies gamma_r(G)
    gamma_of = _GammaMemo()
    v_critical_graphs = 0
    for g in _first_failure_oracle_graphs():
        base = gamma_of(g)
        known = {"gamma": base} if known_gamma else {}
        vertex = _first_failure(
            (((v,), gamma_of(g.delete_vertex(v))) for v in range(g.n)), base - 1
        )
        nonedge = _first_failure(
            (((u, v), gamma_of(g.add_edge(u, v))) for u, v in g.non_edges()),
            base - 1,
        )
        assert first_non_critical_vertex(g, **known) == vertex
        assert first_unsaturated_nonedge(g, **known) == nonedge
        assert is_v_critical(g, **known) == (vertex is None)
        if vertex is not None:
            if g.n < 6:
                with pytest.raises(NotVCritical):
                    first_gamma_changing_edge(g, **known)
                # outside its contract, yet exact; here an edge removal
                # can raise gamma_r, which no v-critical graph tested does
                got = first_non_ecritical_edge(g, **known)
                assert got == _first_non_ecritical_by_definition(g, gamma_of)
            continue
        v_critical_graphs += 1
        changing_edge = _first_failure(
            (((u, v), gamma_of(g.delete_edge(u, v))) for u, v in g.edges()), base
        )
        non_ecritical_edge = _first_non_ecritical_by_definition(g, gamma_of)
        assert first_gamma_changing_edge(g, **known) == changing_edge
        assert first_gamma_changing_edge(g, **known, v_critical=True) == changing_edge
        assert first_non_ecritical_edge(g, **known) == non_ecritical_edge
        assert is_e_critical(g, **known) == (non_ecritical_edge is None)
    # the v-critical branch runs on enough graphs to mean something
    assert v_critical_graphs > 100


def test_first_gamma_changing_edge_trusts_a_supplied_verdict():
    with pytest.raises(NotVCritical):
        first_gamma_changing_edge(gen_family("dn", 6), v_critical=False)
    # the star is not v-critical; cutting a leaf off raises gamma_r from 2 to 3
    star = graph_new(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_v_critical(star)
    assert first_gamma_changing_edge(star, v_critical=True) == (0, 1, 3)


# -- report ------------------------------------------------------------------


def test_criticality_report_d6():
    rep = criticality_report(gen_family("dn", 6))
    assert rep.gamma == 4
    assert rep.nonelementary
    assert rep.v_critical
    assert rep.e_critical
    assert rep.saturated
    assert rep.diagnostics == ()
    assert rep.witnesses == {}


def test_criticality_report_witnesses_revalidate():
    g = gen_family("cycle", 6)
    rep = criticality_report(g)
    assert not rep.v_critical
    v = rep.witnesses["v_critical"]["vertex"]
    after = rep.witnesses["v_critical"]["gamma_after"]
    assert gamma_r(g.delete_vertex(v)) == after != rep.gamma - 1
    u, w = rep.witnesses["saturated"]["nonedge"]
    sat_after = rep.witnesses["saturated"]["gamma_after"]
    assert gamma_r(g.add_edge(u, w)) == sat_after != rep.gamma - 1


def test_criticality_report_json_shape():
    rep = criticality_report(gen_family("cycle", 5))
    data = rep.to_json_dict()
    assert set(data) == {
        "gamma",
        "nonelementary",
        "v_critical",
        "e_critical",
        "saturated",
        "witnesses",
        "diagnostics",
    }
    assert data["gamma"] == 4
    assert data["diagnostics"] == []


def _report_by_public_routes(g: Graph) -> dict:
    """The JSON report from criticality.py's routes, each witness revalidated."""
    gamma = gamma_r(g)
    witnesses = {}
    diagnostics = []
    vc = first_non_critical_vertex(g)
    if vc is not None:
        v, after = vc
        assert gamma_r(g.delete_vertex(v)) == after != gamma - 1
        witnesses["v_critical"] = {"vertex": v, "gamma_after": after}
    sat = first_unsaturated_nonedge(g)
    if sat is not None:
        u, v, after = sat
        assert gamma_r(g.add_edge(u, v)) == after != gamma - 1
        witnesses["saturated"] = {"nonedge": [u, v], "gamma_after": after}
    if is_v_critical(g) != v_critical_by_partitions(g):
        diagnostics.append(
            "dual-path-disagreement: "
            f"is_v_critical={is_v_critical(g)} "
            f"v_critical_by_partitions={v_critical_by_partitions(g)}"
        )
    if is_roman_saturated(g) != saturated_by_partitions(g):
        diagnostics.append(
            "dual-path-disagreement: "
            f"is_roman_saturated={is_roman_saturated(g)} "
            f"saturated_by_partitions={saturated_by_partitions(g)}"
        )
    if is_v_critical(g):
        ec = first_non_ecritical_edge(g)
        if ec is not None:
            assert is_v_critical(g.delete_edge(*ec))
            witnesses["e_critical"] = {"edge": list(ec)}
        if is_e_critical(g) != e_critical_condition(g):
            diagnostics.append(
                "dual-path-disagreement: "
                f"is_e_critical={is_e_critical(g)} "
                f"e_critical_condition={e_critical_condition(g)}"
            )
    return {
        "gamma": gamma,
        "nonelementary": is_nonelementary(g),
        "v_critical": is_v_critical(g),
        "e_critical": is_e_critical(g),
        "saturated": is_roman_saturated(g),
        "witnesses": witnesses,
        "diagnostics": diagnostics,
    }


def _report_oracle_graphs():
    for n in range(1, 6):
        yield from iter_labeled_graphs(n)
    rng = random.Random(2024)
    for n in range(6, 10):
        for p in (0.3, 0.5, 0.7):
            for _ in range(8):
                yield _random_graph(rng, n, p)


@pytest.mark.parametrize("broken_partition_routes", [False, True])
def test_criticality_report_matches_public_routes(
    monkeypatch, broken_partition_routes
):
    # every labeled graph of orders 1-5 plus seeded ones of orders 6-9. The
    # partition routes agree with the definitions on all of them, so a second
    # pass breaks those routes in both modules alike, keeping one partition
    # and flipping the other two, to compare the diagnostics they cause
    if broken_partition_routes:
        for module in (criticality, harness):
            for name, broken in (
                ("minimal_partitions", lambda f: lambda *a, **k: f(*a, **k)[:1]),
                ("_saturated_over_partitions", lambda f: lambda g, p: not f(g, p)),
                ("_pivot_condition", lambda f: lambda g, p: not f(g, p)),
            ):
                monkeypatch.setattr(module, name, broken(getattr(module, name)))
    with_diagnostics = 0
    for g in _report_oracle_graphs():
        data = criticality_report(g).to_json_dict()
        assert data == _report_by_public_routes(g), emit_graph6(g)
        with_diagnostics += bool(data["diagnostics"])
    assert (with_diagnostics > 0) == broken_partition_routes


def test_criticality_report_rejects_empty_graph():
    with pytest.raises(InvalidOrder):
        criticality_report(graph_new(0))
