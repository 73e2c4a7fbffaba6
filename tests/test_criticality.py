from __future__ import annotations

import random

import pytest

from romancrit import (
    Facts,
    Graph,
    InvalidOrder,
    NotVCritical,
    TooLarge,
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
    gamma_at_most,
    is_e_critical,
    is_nonelementary,
    is_roman_saturated,
    is_v_critical,
    nonelementary_by_components,
    relabel,
    saturated_by_partitions,
    v_critical_by_partitions,
)
from romancrit import RomanCritError, criticality, gamma4, harness
from romancrit.harness import (
    graph_from_edge_mask,
    isomorphism_classes,
    iter_labeled_graphs,
)
from oracles import (
    matching_complement_plus_isolated,
    random_graph,
    v_critical_by_definition,
)
from test_gamma4 import _warm_facts


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
        g = random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
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
        g = random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
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
        g = random_graph(rng, rng.randrange(1, 8))
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
        g = random_graph(rng, rng.randrange(1, 8), rng.choice((0.2, 0.5, 0.8)))
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


def _first_non_ecritical_by_definition(g: Graph, gamma_of):
    return next(
        (
            (u, v)
            for u, v in g.edges()
            if v_critical_by_definition(g.delete_edge(u, v), gamma_of)
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
                yield random_graph(rng, n, p)


@pytest.mark.parametrize("warm", [False, True])
def test_first_failures_match_definition(warm):
    # each first_* answer, witness value included, equals a literal loop over
    # gamma_r of every G - v, G + e and G - e, whether the caller passes the
    # bare graph or a Facts that already holds gamma_r(G) and the verdicts
    gamma_of = _GammaMemo()
    v_critical_graphs = 0
    for g in _first_failure_oracle_graphs():
        base = gamma_of(g)
        arg = _warm_facts(g) if warm else g
        vertex = _first_failure(
            (((v,), gamma_of(g.delete_vertex(v))) for v in range(g.n)), base - 1
        )
        nonedge = _first_failure(
            (((u, v), gamma_of(g.add_edge(u, v))) for u, v in g.non_edges()),
            base - 1,
        )
        assert first_non_critical_vertex(arg) == vertex
        assert first_unsaturated_nonedge(arg) == nonedge
        assert is_v_critical(arg) == (vertex is None)
        assert is_roman_saturated(arg) == (nonedge is None)
        if vertex is not None:
            if g.n < 6:
                with pytest.raises(NotVCritical):
                    first_gamma_changing_edge(arg)
                # outside its contract, yet exact; here an edge removal
                # can raise gamma_r, which no v-critical graph tested does
                got = first_non_ecritical_edge(arg)
                assert got == _first_non_ecritical_by_definition(g, gamma_of)
            continue
        v_critical_graphs += 1
        changing_edge = _first_failure(
            (((u, v), gamma_of(g.delete_edge(u, v))) for u, v in g.edges()), base
        )
        non_ecritical_edge = _first_non_ecritical_by_definition(g, gamma_of)
        assert first_gamma_changing_edge(arg) == changing_edge
        assert first_non_ecritical_edge(arg) == non_ecritical_edge
        assert is_e_critical(arg) == (non_ecritical_edge is None)
    # the v-critical branch runs on enough graphs to mean something
    assert v_critical_graphs > 100


def test_first_gamma_changing_edge_trusts_a_supplied_verdict(monkeypatch):
    # a Facts that holds the v-critical verdict is not asked for it again
    c6, d6 = _warm_facts(gen_family("cycle", 6)), _warm_facts(gen_family("dn", 6))

    def refuse(*args):
        raise AssertionError("v-criticality decided again")

    monkeypatch.setattr(criticality, "is_v_critical", refuse)
    monkeypatch.setattr(criticality, "_first_non_critical", refuse)
    with pytest.raises(NotVCritical):
        first_gamma_changing_edge(c6)
    assert first_gamma_changing_edge(d6) is None
    assert edge_removal_preserves_gamma(d6)


# -- mask kernels against the Graph-object predicates ------------------------
# The four direct predicates as they were written on Graph objects: each
# G - v, G + uv and G - uv is built as a Graph and asked through
# gamma_at_most. They check the derived closed-neighborhood masks.


def _graph_first_non_critical(g: Graph, gamma: int) -> int | None:
    return next(
        (v for v in range(g.n) if not gamma_at_most(g.delete_vertex(v), gamma - 1)),
        None,
    )


def _graph_first_unsaturated_nonedge(g: Graph, gamma: int):
    for u, v in g.non_edges():
        if not gamma_at_most(g.add_edge(u, v), gamma - 1):
            return u, v, gamma
    return None


def _graph_first_gamma_changing_edge(g: Graph, gamma: int):
    for u, v in g.edges():
        h = g.delete_edge(u, v)
        if not gamma_at_most(h, gamma):
            return u, v, gamma_r(h)
    return None


def _graph_first_non_ecritical_edge(g: Graph, gamma: int):
    for u, v in g.edges():
        h = g.delete_edge(u, v)
        after = gamma if gamma_at_most(h, gamma) else gamma_r(h)
        if _graph_first_non_critical(h, after) is None:
            return u, v
    return None


def _mask_kernel_graphs():
    for n in range(1, 7):
        yield from iter_labeled_graphs(n)
    rng = random.Random(3301)
    for n in range(7, 15):
        for p in (0.15, 0.3, 0.5, 0.8):
            for _ in range(3):
                yield random_graph(rng, n, p)
        if n >= 10:
            # disconnected: two random parts, interleaved by a relabeling
            for _ in range(4):
                m = rng.randrange(3, n - 2)
                a, b = random_graph(rng, m, 0.5), random_graph(rng, n - m, 0.5)
                edges = a.edges() + [(u + m, v + m) for u, v in b.edges()]
                yield relabel(graph_new(n, edges), rng.sample(range(n), n))


def test_mask_kernels_match_graph_object_predicates():
    # every labeled graph of orders 1-6 and seeded ones of orders 7-14,
    # disconnected ones among them from order 10; the edge predicates run
    # off their v-critical contract too, since their loops do not depend on
    # it. The edge-removal sweep gets there through a Facts whose verdict
    # slot says v-critical: no v-critical graph tested has an edge whose
    # removal changes gamma_r, so only off its contract does it find one
    disconnected = 0
    for g in _mask_kernel_graphs():
        f = Facts(g)
        gamma = f.gamma
        v = _graph_first_non_critical(g, gamma)
        assert criticality._first_non_critical(f) == v, emit_graph6(g)
        if v is not None:
            assert first_non_critical_vertex(f) == (v, gamma_r(g.delete_vertex(v)))
        assert first_unsaturated_nonedge(f) == _graph_first_unsaturated_nonedge(
            g, gamma
        ), emit_graph6(g)
        if v is None or g.n != 6:
            # its contract is v-critical graphs; off it, an edge removal can
            # raise gamma_r, a branch the other orders cover at less cost
            assert first_non_ecritical_edge(f) == _graph_first_non_ecritical_edge(
                g, gamma
            ), emit_graph6(g)
        f._vc = True
        assert first_gamma_changing_edge(f) == _graph_first_gamma_changing_edge(
            g, gamma
        ), emit_graph6(g)
        disconnected += g.n >= 10 and len(g.component_masks()) > 1
    assert disconnected >= 15


# -- one Facts for every predicate ---------------------------------------------


def _vertexwise(predicate):
    # a witness finder, asked of every vertex
    def ask(g):
        n = g.g.n if isinstance(g, Facts) else g.n
        return tuple(predicate(g, x) for x in range(n))

    return ask


PREDICATES = (
    criticality.is_nonelementary,
    criticality.nonelementary_by_components,
    criticality.first_non_critical_vertex,
    criticality.is_v_critical,
    criticality.v_critical_by_partitions,
    criticality.first_unsaturated_nonedge,
    criticality.is_roman_saturated,
    criticality.saturated_by_partitions,
    criticality.first_gamma_changing_edge,
    criticality.edge_removal_preserves_gamma,
    criticality.first_non_ecritical_edge,
    criticality.is_e_critical,
    criticality.e_critical_condition,
    gamma4.vcrit4_by_degrees,
    _vertexwise(gamma4.witness_pairs),
    _vertexwise(gamma4.neighborhood_witness),
    _vertexwise(gamma4.witness_chase_ok),
    gamma4.saturated4_by_degrees,
    gamma4.ecrit4_by_degrees,
    gamma4.high_class_bounds,
    gamma4.every_cut_vertex_leaves_pendant_component,
    gamma4.cut_vertex_structure,
    gamma4.catalog_verdict,
    gamma4.classify_critical4,
    gamma4.local8_conditions,
    gamma4.local8_fast,
)


def _outcome(predicate, arg):
    try:
        return predicate(arg)
    except RomanCritError as exc:
        return type(exc).__name__, str(exc)


def _warm_facts_graphs(rng: random.Random) -> list[Graph]:
    """Every labeled graph of orders 1-5, every order-6 class in two
    labelings, and seeded gamma_r = 4 graphs of orders 7-10: random ones and
    relabeled v-critical ones."""
    out = [g for n in range(1, 6) for g in iter_labeled_graphs(n)]
    for rep, _ in isomorphism_classes(6):
        g = graph_from_edge_mask(6, rep)
        out += [g, relabel(g, rng.sample(range(6), 6))]
    for n in range(7, 11):
        found = 0
        while found < 12:
            g = random_graph(rng, n, rng.choice((0.6, 0.7, 0.8)))
            if gamma_r(g) == 4:
                out.append(g)
                found += 1
    for g in (
        gen_family("dn", 8),
        gen_family("dn", 10),
        gen_family("xn", 7),
        gen_family("xn", 8),
        matching_complement_plus_isolated(7),
        matching_complement_plus_isolated(9),
    ):
        out.append(relabel(g, rng.sample(range(g.n), g.n)))
    return out


def test_every_predicate_reads_a_warm_facts_as_its_graph(monkeypatch):
    # every public predicate of criticality and gamma4 answers a warm Facts
    # as it answers the bare graph, guard errors included. While the warm
    # Facts is read, solving gamma_r(G), building G's degree classes or
    # sweeping its partitions raises: only the derived graphs a witness
    # reports may be solved
    current = [None]
    real_gamma_r = criticality.gamma_r

    def refuse(what):
        def patched(*args):
            if current[0] is not None:
                raise AssertionError(f"{what} recomputed from a warm Facts")
            return patched.real(*args)

        patched.real = getattr(criticality, what)
        return patched

    def gamma_of_derived(h):
        if current[0] is not None and h == current[0]:
            raise AssertionError("gamma_r recomputed from a warm Facts")
        return real_gamma_r(h)

    monkeypatch.setattr(criticality, "gamma_r", gamma_of_derived)
    monkeypatch.setattr(criticality, "degree_classes", refuse("degree_classes"))
    monkeypatch.setattr(criticality, "_partition_pairs", refuse("_partition_pairs"))
    answered = 0
    for g in _warm_facts_graphs(random.Random(4471)):
        want = [_outcome(p, g) for p in PREDICATES]
        f = _warm_facts(g)
        current[0] = g
        try:
            got = [_outcome(p, f) for p in PREDICATES]
        finally:
            current[0] = None
        assert got == want, emit_graph6(g)
        answered += g.n >= 7 and f.v_critical and f.gamma == 4
    # the gamma_r = 4 predicates answer, not only refuse, on enough graphs
    assert answered >= 6


def test_relabeled_facts_carry_only_what_names_no_vertex():
    # P5's minimum partitions and degree classes name vertices that move
    # under a relabeling; gamma_r and the verdicts do not, and the masks
    # the copy reads are its own graph's
    g = gen_family("path", 5)
    f = _warm_facts(g)
    perm = [2, 0, 4, 1, 3]
    h = relabel(g, perm)
    copy = f.relabeled(h)
    fresh = _warm_facts(h)
    assert copy.g is h
    assert (copy._gamma, copy._vc, copy._ec, copy._sat) == (
        fresh.gamma, fresh.v_critical, fresh.e_critical, fresh.saturated
    )
    assert copy._parts is None and copy._classes is None
    assert copy.partitions == fresh.partitions != f.partitions
    assert copy.degree_classes == fresh.degree_classes != f.degree_classes
    moved = [sum(1 << perm[u] for u in g.closed_neighborhood(v)) for v in range(5)]
    assert [copy.g.closed[perm[v]] for v in range(5)] == moved
    assert copy.g.closed != f.g.closed


def test_closed_masks_are_built_once_per_graph():
    # gamma_r, the partitions, every verdict and the pivot condition all
    # read the one tuple the graph built; a graph an edit or a relabeling
    # returns starts without one
    g = gen_family("dn", 6)
    assert g._closed is None
    closed = g.closed
    f = Facts(g)
    f.gamma, f.partitions, f.v_critical, f.e_critical, f.saturated
    assert e_critical_condition(f)
    assert g.closed is closed
    for h in (
        g.delete_vertex(0),
        g.add_edge(2, 3),
        g.delete_edge(0, 1),
        relabel(g, [5, 4, 3, 2, 1, 0]),
    ):
        assert h._closed is None


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
                yield random_graph(rng, n, p)


@pytest.mark.parametrize("broken_partition_routes", [False, True])
def test_criticality_report_matches_public_routes(
    monkeypatch, broken_partition_routes
):
    # every labeled graph of orders 1-5 plus seeded ones of orders 6-9. The
    # partition routes agree with the definitions on all of them, so a second
    # pass breaks the partition bindings that Facts and the routes call: it
    # keeps one (V2, V1) pair and flips the other two routes, to compare the
    # diagnostics they cause
    if broken_partition_routes:
        for name, broken in (
            ("_partition_pairs", lambda f: lambda *a, **k: f(*a, **k)[:1]),
            ("_saturated_over_partitions", lambda f: lambda g, p: not f(g, p)),
            ("_pivot_condition", lambda f: lambda g, p: not f(g, p)),
        ):
            monkeypatch.setattr(criticality, name, broken(getattr(criticality, name)))
    with_diagnostics = 0
    for g in _report_oracle_graphs():
        data = criticality_report(g).to_json_dict()
        assert data == _report_by_public_routes(g), emit_graph6(g)
        with_diagnostics += bool(data["diagnostics"])
    assert (with_diagnostics > 0) == broken_partition_routes


def test_criticality_report_rejects_empty_graph():
    with pytest.raises(InvalidOrder):
        criticality_report(graph_new(0))


def test_criticality_report_refuses_partition_order_before_witness_sweeps(
    monkeypatch,
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("witness sweep ran on a refused order")

    monkeypatch.setattr(harness, "first_non_critical_vertex", no_sweep)
    star = graph_new(25, [(0, v) for v in range(1, 25)])
    with pytest.raises(TooLarge, match="capped at order 24"):
        criticality_report(star)


@pytest.mark.parametrize("n", [25, 26])
def test_partition_routes_refuse_the_order_before_solving_gamma(monkeypatch, n):
    def no_gamma(*args, **kwargs):
        raise AssertionError("gamma_r solved for a refused order")

    monkeypatch.setattr(criticality, "gamma_r", no_gamma)
    cycle = gen_family("cycle", n)
    with pytest.raises(TooLarge, match="capped at order 24"):
        criticality_report(cycle)
    for route in (v_critical_by_partitions, saturated_by_partitions):
        with pytest.raises(TooLarge, match="capped at order 24"):
            route(Facts(cycle))
