from __future__ import annotations

import random

import pytest

from romancrit import (
    CRITICAL_BUT_UNCLASSIFIED,
    Facts,
    IS_C5,
    IS_DN,
    NOT_CRITICAL,
    Classification,
    Graph,
    IndexOutOfRange,
    PreconditionViolated,
    classify_critical4,
    cut_vertex_structure,
    degree_classes,
    ecrit4_by_degrees,
    emit_graph6,
    gamma_r,
    gen_family,
    graph_new,
    parse_graph6,
    high_class_bounds,
    is_e_critical,
    is_roman_saturated,
    is_v_critical,
    local8_conditions,
    local8_fast,
    neighborhood_witness,
    saturated4_by_degrees,
    vcrit4_by_degrees,
    witness_chase_ok,
    witness_pairs,
)
import romancrit.criticality as criticality
import romancrit.gamma4 as gamma4
from romancrit.gamma4 import every_cut_vertex_leaves_pendant_component
from romancrit.harness import graph_from_edge_mask, isomorphism_classes


def _matching_complement_plus_isolated(n: int) -> Graph:
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


# -- degree classes ----------------------------------------------------------


def test_degree_classes_examples():
    x6 = degree_classes(gen_family("xn", 6))
    assert x6.high == frozenset(range(6))
    assert x6.low == x6.other == frozenset()

    d6 = degree_classes(gen_family("dn", 6))
    assert d6.high == frozenset({0, 1, 2, 3, 4})
    assert d6.low == frozenset({5})
    assert d6.other == frozenset()

    k4 = degree_classes(gen_family("complete", 4))
    assert k4.other == frozenset(range(4))
    assert k4.high == k4.low == frozenset()


def test_degree_classes_partition_vertices():
    for tag, n in (("cycle", 7), ("path", 6), ("xn", 8), ("dn", 10)):
        g = gen_family(tag, n)
        c = degree_classes(g)
        assert c.high | c.low | c.other == frozenset(range(g.n))
        assert len(c.high) + len(c.low) + len(c.other) == g.n


# -- v-criticality by degrees ------------------------------------------------


def test_vcrit4_by_degrees_examples():
    assert vcrit4_by_degrees(gen_family("cycle", 5))
    assert vcrit4_by_degrees(gen_family("xn", 6))
    assert vcrit4_by_degrees(gen_family("dn", 6))
    assert not vcrit4_by_degrees(gen_family("cycle", 6))


def test_vcrit4_by_degrees_agrees_with_direct_route():
    for g in (
        gen_family("cycle", 5),
        gen_family("cycle", 6),
        gen_family("xn", 7),
        gen_family("dn", 8),
        _matching_complement_plus_isolated(5),
        _matching_complement_plus_isolated(7),
    ):
        assert vcrit4_by_degrees(g) == is_v_critical(g)


def test_gamma4_gates():
    with pytest.raises(PreconditionViolated):
        vcrit4_by_degrees(gen_family("cycle", 7))  # gamma_r 5
    with pytest.raises(PreconditionViolated):
        vcrit4_by_degrees(gen_family("complete", 4))  # gamma_r 2
    with pytest.raises(PreconditionViolated):
        vcrit4_by_degrees(gen_family("empty", 4))  # elementary, gamma_r = n
    with pytest.raises(PreconditionViolated):
        witness_pairs(gen_family("elem3"), 0)
    with pytest.raises(PreconditionViolated):
        saturated4_by_degrees(gen_family("complete", 6))  # gamma_r 2


def _warm_facts(g: Graph) -> Facts:
    """A Facts of g that already holds gamma_r, the three verdicts, the
    partitions and the degree classes."""
    f = Facts(g)
    f.gamma, f.v_critical, f.saturated, f.e_critical, f.degree_classes
    f.partitions
    return f


def test_gamma4_gates_check_supplied_values():
    # each precondition raises on a real graph that breaks it, whether the
    # graph comes bare or as a warm Facts
    d6 = gen_family("dn", 6)  # gamma_r 4, v-critical
    c6 = gen_family("cycle", 6)  # gamma_r 4, not v-critical
    p4 = gen_family("path", 4)  # gamma_r 3
    c7 = gen_family("cycle", 7)  # gamma_r 5
    # a star K_{1,6} and an isolated vertex: order 8, gamma_r 3
    star8 = graph_new(8, [(0, v) for v in range(1, 7)])
    for arg in (lambda g: g, _warm_facts):
        for predicate in (
            vcrit4_by_degrees,
            saturated4_by_degrees,
            ecrit4_by_degrees,
            high_class_bounds,
            cut_vertex_structure,
        ):
            for g, wrong in ((p4, 3), (c7, 5)):
                with pytest.raises(PreconditionViolated, match=f"got {wrong}"):
                    predicate(arg(g))
            # gamma_r = 4 on an order-4 graph is elementary
            with pytest.raises(PreconditionViolated, match="nonelementary"):
                predicate(arg(gen_family("elem1")))
        for predicate in (ecrit4_by_degrees, cut_vertex_structure):
            with pytest.raises(PreconditionViolated, match="v-critical"):
                predicate(arg(c6))
        with pytest.raises(PreconditionViolated, match="got 3"):
            witness_pairs(arg(p4), 0)
        with pytest.raises(PreconditionViolated, match="got 3"):
            witness_chase_ok(arg(p4), 0)
        for predicate in (local8_conditions, local8_fast):
            with pytest.raises(PreconditionViolated, match="got 3"):
                predicate(arg(star8))
            with pytest.raises(PreconditionViolated, match="order >= 8"):
                predicate(arg(d6))
        # gamma_r 3; not v-critical; v-critical but not saturated (EFz?);
        # v-critical and saturated but not e-critical (X6)
        for g in (p4, c6, parse_graph6("EFz?"), gen_family("xn", 6)):
            assert classify_critical4(arg(g)) == Classification(NOT_CRITICAL)


def test_gamma4_predicates_agree_with_supplied_values():
    # a warm Facts gets the bare graph's answer from every gamma_r = 4
    # predicate, on every nonelementary gamma_r = 4 class of orders 5-7 and
    # the order-4 catalog side of classify_critical4
    graphs = [
        graph_from_edge_mask(n, rep)
        for n in range(4, 8)
        for rep, _ in isomorphism_classes(n)
    ]
    checked = 0
    for g in graphs:
        f = _warm_facts(g)
        assert classify_critical4(f) == classify_critical4(g)
        if f.gamma != 4 or g.n == 4:
            continue
        checked += 1
        for predicate in (
            vcrit4_by_degrees,
            saturated4_by_degrees,
            high_class_bounds,
            every_cut_vertex_leaves_pendant_component,
        ):
            assert predicate(f) == predicate(g)
        for x in range(g.n):
            assert witness_pairs(f, x) == witness_pairs(g, x)
            assert witness_chase_ok(f, x) == witness_chase_ok(g, x)
        if f.v_critical:
            assert ecrit4_by_degrees(f) == ecrit4_by_degrees(g)
            assert cut_vertex_structure(f) == cut_vertex_structure(g)
    assert checked > 100
    for g in (gen_family("dn", 8), gen_family("xn", 8)):
        for predicate in (local8_conditions, local8_fast):
            assert predicate(_warm_facts(g)) == predicate(g)


def test_gamma4_degree_predicates_given_classes_do_not_rebuild_them(monkeypatch):
    # the harness builds each graph's Facts once and every predicate reads
    # its degree classes and gamma_r; given a warm Facts, none rebuilds the
    # classes or solves gamma_r again
    graphs = [gen_family("dn", 6), gen_family("dn", 8), gen_family("xn", 8)]
    predicates = (
        vcrit4_by_degrees,
        saturated4_by_degrees,
        high_class_bounds,
        ecrit4_by_degrees,
        cut_vertex_structure,
        classify_critical4,
        local8_fast,
    )

    def outcomes(arg):
        out = []
        for predicate in predicates:
            try:
                out.append(predicate(arg))
            except PreconditionViolated as exc:
                out.append(str(exc))
        return out

    want = [outcomes(g) for g in graphs]
    given = [_warm_facts(g) for g in graphs]

    def rebuilt(*args):
        raise AssertionError("degree classes rebuilt or gamma_r solved again")

    for module, name in (
        (criticality, "degree_classes"),
        (criticality, "gamma_r"),
        (gamma4, "degree_classes"),
        (gamma4, "gamma_r"),
    ):
        monkeypatch.setattr(module, name, rebuilt)
    assert [outcomes(f) for f in given] == want


# -- witnesses ---------------------------------------------------------------


def test_witness_pairs_five_cycle():
    c5 = gen_family("cycle", 5)
    assert witness_pairs(c5, 0) == [(2, 4), (3, 1)]
    assert neighborhood_witness(c5, 0) == (2, 4)
    for x in range(5):
        a, b = neighborhood_witness(c5, x)
        assert c5.closed_neighborhood(a) == frozenset(range(5)) - {x, b}


def test_witness_pairs_x6():
    x6 = gen_family("xn", 6)
    assert witness_pairs(x6, 0) == [(2, 4), (4, 2)]


def test_witness_pairs_empty_when_unwitnessed():
    c6 = gen_family("cycle", 6)
    assert witness_pairs(c6, 0) == []
    assert neighborhood_witness(c6, 0) is None


def test_witness_pairs_vertex_range():
    with pytest.raises(IndexOutOfRange):
        witness_pairs(gen_family("cycle", 5), 5)


def test_witness_chase():
    c5 = gen_family("cycle", 5)
    for x in range(5):
        assert witness_chase_ok(c5, x)
    d6 = gen_family("dn", 6)
    for x in range(6):
        assert witness_chase_ok(d6, x)
    assert not witness_chase_ok(gen_family("cycle", 6), 0)


def test_witness_chase_follows_every_pair():
    # the path 3-1-2-0-4: the smallest pairs of vertices 3 and 4 land, but
    # their second pairs, (2, 4) and (2, 3), do not
    g = graph_new(5, [(0, 2), (0, 4), (1, 2), (1, 3)])
    assert witness_pairs(g, 3) == [(0, 1), (2, 4)]
    assert witness_pairs(g, 4) == [(1, 0), (2, 3)]
    assert not witness_chase_ok(g, 3)
    assert not witness_chase_ok(g, 4)


@pytest.mark.parametrize("x", [7, -1])
def test_witness_chase_vertex_range(x):
    # checked as witness_pairs checks it: 7 would read no bits and answer
    # False, -1 a negative shift
    with pytest.raises(IndexOutOfRange):
        witness_chase_ok(gen_family("cycle", 5), x)


# -- saturation and e-criticality by degrees ----------------------------------


def test_saturated4_by_degrees_examples():
    assert saturated4_by_degrees(gen_family("cycle", 5))
    assert saturated4_by_degrees(gen_family("dn", 6))
    assert saturated4_by_degrees(gen_family("xn", 8))
    assert not saturated4_by_degrees(gen_family("cycle", 6))


def test_saturated4_by_degrees_agrees_with_direct_route():
    for g in (
        gen_family("cycle", 5),
        gen_family("cycle", 6),
        gen_family("xn", 7),
        gen_family("dn", 8),
        _matching_complement_plus_isolated(7),
    ):
        assert saturated4_by_degrees(g) == is_roman_saturated(g)


def test_ecrit4_by_degrees_examples():
    assert ecrit4_by_degrees(gen_family("cycle", 5))
    assert ecrit4_by_degrees(gen_family("dn", 6))
    assert ecrit4_by_degrees(gen_family("dn", 8))
    assert not ecrit4_by_degrees(gen_family("xn", 6))


def test_ecrit4_by_degrees_agrees_with_direct_route():
    for g in (
        gen_family("cycle", 5),
        gen_family("xn", 6),
        gen_family("xn", 7),
        gen_family("dn", 6),
        _matching_complement_plus_isolated(5),
        _matching_complement_plus_isolated(7),
    ):
        assert ecrit4_by_degrees(g) == is_e_critical(g)


def test_ecrit4_requires_v_critical():
    with pytest.raises(PreconditionViolated):
        ecrit4_by_degrees(gen_family("cycle", 6))


# -- bounds ------------------------------------------------------------------


def test_high_class_bounds_examples():
    assert high_class_bounds(gen_family("cycle", 5)) == (True, True)
    assert high_class_bounds(gen_family("dn", 6)) == (True, True)
    assert high_class_bounds(gen_family("xn", 9)) == (True, True)
    # C6 has no degree-3 vertex at all; it is not v-critical, so the
    # bounds are out of hypothesis there and may fail freely
    assert high_class_bounds(gen_family("cycle", 6)) == (False, False)


def test_high_class_bounds_hold_on_v_critical_families():
    for g in (
        gen_family("cycle", 5),
        gen_family("xn", 6),
        gen_family("xn", 10),
        gen_family("dn", 8),
        gen_family("dn", 12),
        _matching_complement_plus_isolated(7),
        _matching_complement_plus_isolated(9),
    ):
        assert is_v_critical(g)
        half, threequarter = high_class_bounds(g)
        assert half
        if is_roman_saturated(g):
            assert threequarter


# -- cut vertices ------------------------------------------------------------


def test_every_cut_vertex_leaves_pendant_component():
    assert every_cut_vertex_leaves_pendant_component(gen_family("dn", 6))
    assert every_cut_vertex_leaves_pendant_component(gen_family("cycle", 5))
    # deleting the middle of a 5-path leaves two 2-vertex components
    assert not every_cut_vertex_leaves_pendant_component(gen_family("path", 5))


def test_cut_vertex_structure_examples():
    assert cut_vertex_structure(gen_family("cycle", 5))
    assert cut_vertex_structure(gen_family("dn", 6))
    assert cut_vertex_structure(gen_family("dn", 8))
    assert cut_vertex_structure(gen_family("xn", 6))


def test_cut_vertex_structure_fails_on_isolated_low_vertex():
    # qualifying graph whose unique low vertex has degree 0, not 1
    g = _matching_complement_plus_isolated(5)
    assert is_v_critical(g) and is_e_critical(g) and is_roman_saturated(g)
    assert not cut_vertex_structure(g)
    assert not cut_vertex_structure(_matching_complement_plus_isolated(7))


def test_cut_vertex_structure_requires_v_critical():
    with pytest.raises(PreconditionViolated):
        cut_vertex_structure(gen_family("cycle", 6))


# -- classification ----------------------------------------------------------


def test_classify_catalog_members():
    assert classify_critical4(gen_family("cycle", 5)) == Classification(IS_C5)
    assert classify_critical4(gen_family("dn", 6)) == Classification(IS_DN, 6)
    assert classify_critical4(gen_family("dn", 10)) == Classification(IS_DN, 10)
    for tag, verdict in (
        ("elem1", "ElementaryG1"),
        ("elem2", "ElementaryG2"),
        ("elem3", "ElementaryG3"),
    ):
        assert classify_critical4(gen_family(tag)).verdict == verdict


def test_classify_non_members():
    assert classify_critical4(gen_family("cycle", 6)).verdict == NOT_CRITICAL
    assert classify_critical4(gen_family("complete", 4)).verdict == NOT_CRITICAL
    assert classify_critical4(gen_family("complete", 6)).verdict == NOT_CRITICAL
    assert classify_critical4(gen_family("path", 3)).verdict == NOT_CRITICAL
    assert classify_critical4(gen_family("xn", 6)).verdict == NOT_CRITICAL
    assert classify_critical4(graph_new(2)).verdict == NOT_CRITICAL


def test_classify_reports_unclassified_qualifiers():
    # fully critical and saturated, yet outside the known catalog
    for n in (5, 7):
        got = classify_critical4(_matching_complement_plus_isolated(n))
        assert got == Classification(CRITICAL_BUT_UNCLASSIFIED)


def test_classification_str():
    assert str(Classification(IS_DN, 8)) == "IsDn(8)"
    assert str(Classification(IS_C5)) == "IsC5"
    assert str(classify_critical4(gen_family("cycle", 6))) == "NotCritical"


# -- local conditions at order >= 8 -------------------------------------------


def test_local8_on_pendant_family():
    for n in (8, 10, 12):
        g = gen_family("dn", n)
        assert local8_conditions(g) == (True, True, True)
        assert local8_fast(g) == (True, True, True)


def test_local8_on_x8():
    # no vertex of degree below n-3: condition a fails, b and c vacuous
    g = gen_family("xn", 8)
    assert local8_conditions(g) == (False, True, True)
    assert local8_fast(g) == (False, True, True)


def test_local8_routes_agree_on_perturbations():
    d8 = gen_family("dn", 8)
    for u, v in d8.edges():
        h = d8.delete_edge(u, v)
        try:
            assert local8_conditions(h) == local8_fast(h)
        except PreconditionViolated:
            pass


def test_local8_routes_can_disagree_on_twin_low_vertices():
    # Regression pin: the degree shortcut is NOT equivalent to the literal
    # tuple sweep.  This order-8 graph has two mutually non-adjacent
    # degree-4 vertices, each holding the other inside its only
    # non-neighbor triple, so neither can ever occupy the "counted" seat
    # of the middle condition; the literal sweep stays true while the
    # degree route sees two low vertices and says false.
    g = parse_graph6("GMzmtk")
    assert gamma_r(g) == 4
    low = [v for v in range(g.n) if g.degree(v) < g.n - 3]
    assert low == [2, 3]
    assert [g.degree(v) for v in low] == [4, 4]
    assert not g.adjacent(2, 3)
    assert sorted(u for u in range(g.n) if u != 2 and not g.adjacent(2, u)) == [0, 3, 6]
    assert sorted(u for u in range(g.n) if u != 3 and not g.adjacent(3, u)) == [2, 4, 5]
    assert local8_conditions(g) == (True, True, False)
    assert local8_fast(g) == (True, False, False)


def _planted_low_vertices(rng: random.Random, n: int, k: int, split: bool) -> Graph:
    """k low vertices of degree n-4, pairwise non-adjacent unless split keeps
    the first two adjacent; every other vertex misses at most two others."""
    low = rng.sample(range(n), k)
    high = [v for v in range(n) if v not in low]
    rng.shuffle(high)
    miss = [0] * n
    cut = set()

    def drop(u: int, v: int) -> None:
        cut.add((min(u, v), max(u, v)))
        miss[u] += 1
        miss[v] += 1

    for i, u in enumerate(low):
        for v in low[i + 1 :]:
            if not (split and (u, v) == (low[0], low[1])):
                drop(u, v)
    for u in low:
        while miss[u] < 3:
            drop(u, high.pop())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if miss[u] < 2 and miss[v] < 2:
            drop(u, v)
    return graph_new(n, [e for e in pairs if e not in cut])


def test_local8_literal_b_follows_docstring_rule():
    # local8_fast's docstring: with low meaning degree below n-3, the literal
    # b holds exactly when there is at most one low vertex, or every low
    # vertex has degree n-4 and no two are adjacent; a and c match the
    # shortcuts.  Random graphs give low vertices of any degree, planted ones
    # low vertices of degree n-4, adjacent or not.
    rng = random.Random(8)
    b_outcomes = []
    for i in range(3000):
        n = 8 + i % 3
        if i % 2:
            g = _planted_low_vertices(rng, n, rng.choice((2, 3)), rng.random() < 0.5)
        else:
            p = rng.uniform(0.45, 0.9)
            g = graph_new(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
        if gamma_r(g) != 4:
            continue
        low = [v for v in range(n) if g.degree(v) < n - 3]
        rule_b = len(low) <= 1 or (
            all(g.degree(v) == n - 4 for v in low)
            and not any(g.adjacent(u, v) for u in low for v in low if u < v)
        )
        fast_a, _, fast_c = local8_fast(g)
        assert local8_conditions(g) == (fast_a, rule_b, fast_c), emit_graph6(g)
        if len(low) >= 2:
            b_outcomes.append(rule_b)
    # both sides of the rule are exercised with two or more low vertices
    assert b_outcomes.count(True) >= 100 and b_outcomes.count(False) >= 100


def test_local8_gates():
    with pytest.raises(PreconditionViolated):
        local8_conditions(gen_family("cycle", 5))  # order below 8
    with pytest.raises(PreconditionViolated):
        local8_fast(gen_family("complete", 8))  # gamma_r 2
