"""Acceptance gate: one test per advertised criterion, numbered 01-10.

The pytest -v line of each test is the pass/fail record for that
criterion.  Criteria 03, 06 and 08 cover claims that have known
counterexamples; they assert the exact set the harness must report, and
derive that set without the harness (the 3^n oracle, vertex-permutation
copies, or a brute-force reading of a docstring).  A counterexample that
appears or goes missing fails the criterion, with the offending graphs in
the assertion message; nothing is masked or skipped.  All tolerances are
exact integers.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from romancrit import (
    Graph,
    emit_graph6,
    gamma_r,
    gen_family,
    graph_new,
    is_v_critical,
    local8_conditions,
    local8_fast,
    parse_graph6,
    relabel,
    roman_number,
    roman_number_oracle,
    verify_claim,
    verify_claims,
)
from romancrit.cli import main as cli_main
from romancrit.harness import iter_labeled_graphs
from oracles import random_graph, v_critical_by_definition

GAMMA4_CLAIMS = (
    "elementary4-list",
    "carac-lemma",
    "carac2-theorem",
    "saturated4-degrees",
    "ecrit4-degrees",
    "half-bound",
    "threequarter-bound",
    "cutvertex-lemma",
    "cut-structure-prop",
    "classification-theorem",
)

DUAL_CLAIMS = (
    "nonelementary-components",
    "gamma-le-3-degree",
    "vcrit-partition-lemma",
    "saturated-partition-prop",
    "edge-removal-gamma",
    "ecrit-condition-prop",
)


def _cex_lines(reports) -> set[tuple[str, str]]:
    return {(c.graph6, c.diagnostic) for rep in reports for c in rep.counterexamples}


def _oracle_qualifies(g: Graph) -> bool:
    """gamma_r = 4 < n, v-critical, e-critical and saturated, every value
    taken from the 3^n oracle straight from the definitions."""
    if roman_number_oracle(g) != 4 or g.n <= 4 or not v_critical_by_definition(g):
        return False
    e_critical = not any(
        v_critical_by_definition(g.delete_edge(u, v)) for u, v in g.edges()
    )
    return e_critical and all(
        roman_number_oracle(g.add_edge(u, v)) == 3 for u, v in g.non_edges()
    )


def _labeled_copies(g: Graph) -> set[str]:
    return {emit_graph6(relabel(g, list(p))) for p in permutations(range(g.n))}


def _local8_b_c_by_orderings(g: Graph) -> tuple[bool, bool]:
    """Conditions b and c of local8_conditions, read off its docstring and
    checked over every ordering v1..v8 of an order-8 graph."""
    assert g.n == 8
    cond_b = cond_c = True
    for v1, v2, v3, v4, v5, v6, v7, v8 in permutations(range(8)):
        if any(g.adjacent(v1, u) for u in (v2, v3, v4)):
            continue
        if sum(g.adjacent(v8, u) for u in (v1, v2, v3, v4, v5, v6, v7)) < 5:
            cond_b = False
        if g.adjacent(v1, v5) and g.adjacent(v1, v6):
            cond_c = False
    return cond_b, cond_c


@pytest.fixture(scope="module")
def dual_reports():
    # each dual-route claim over every labeled graph up to order 6, then
    # over one seeded batch of 10^4 random graphs up to order 8
    reports = {cid: [] for cid in DUAL_CLAIMS}
    for n in range(7):
        for rep in verify_claims(DUAL_CLAIMS, ("enumerate", n)):
            reports[rep.claim].append(rep)
    rng = random.Random(3)
    graphs = tuple(
        random_graph(rng, rng.randrange(1, 9), (0.2, 0.5, 0.8)[i % 3])
        for i in range(10_000)
    )
    for rep in verify_claims(DUAL_CLAIMS, ("graphs", graphs)):
        reports[rep.claim].append(rep)
    return reports


@pytest.fixture(scope="module")
def gamma4_reports():
    # the weight-4 claim block over every labeled graph up to order 7;
    # dominated by the 2^21 scan at order 7
    out = {}
    for n in range(8):
        for rep in verify_claims(GAMMA4_CLAIMS, ("enumerate", n)):
            out[rep.claim, n] = rep
    return out


def test_criterion_01_cycle_values_and_criticality():
    for k in range(1, 7):
        assert gamma_r(gen_family("cycle", 3 * k + 1)) == 2 * k + 1
        assert gamma_r(gen_family("cycle", 3 * k + 2)) == 2 * k + 2
    for n in range(3, 16):
        assert is_v_critical(gen_family("cycle", n)) == (n % 3 != 0), n


def test_criterion_02_solver_matches_oracle():
    for n in range(6):
        for g in iter_labeled_graphs(n):
            assert roman_number(g).gamma == roman_number_oracle(g), emit_graph6(g)
    rng = random.Random(2)
    for i in range(10_000):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, (0.2, 0.5, 0.8)[i % 3])
        assert roman_number(g).gamma == roman_number_oracle(g), emit_graph6(g)


def test_criterion_03_dual_route_predicates(dual_reports):
    # The degree route for "gamma_r <= 3" leaves out the trivial orders
    # n <= 3, where the all-ones labeling already weighs at most 3.  Weight
    # at most 3 needs n <= 3 or one vertex labeled 2 that dominates all but
    # one vertex, so the routes split only at n = 3 with maximum degree 0:
    # the edgeless graph B?.  Every other dual-route claim is clean.
    b3 = parse_graph6("B?")
    assert b3.n == 3 and b3.edge_count() == 0
    assert roman_number_oracle(b3) == 3
    assert max(b3.degrees()) < b3.n - 2
    expected = {cid: set() for cid in DUAL_CLAIMS}
    expected["gamma-le-3-degree"] = {
        ("B?", "dual-path-disagreement: gamma_le_3=True degree_route=False")
    }
    found = {cid: _cex_lines(dual_reports[cid]) for cid in DUAL_CLAIMS}
    assert found == expected, (
        "dual-route counterexamples differ from the oracle-confirmed set: "
        + "; ".join(
            f"{cid}: extra {sorted(found[cid] - expected[cid])}, "
            f"missing {sorted(expected[cid] - found[cid])}"
            for cid in DUAL_CLAIMS
            if found[cid] != expected[cid]
        )
    )


def test_criterion_04_degree_characterizations(gamma4_reports):
    for cid in ("carac-lemma", "carac2-theorem", "saturated4-degrees", "ecrit4-degrees"):
        for n in range(8):
            rep = gamma4_reports[cid, n]
            assert rep.counterexamples == (), (
                f"{cid} at order {n}: "
                + ", ".join(c.graph6 for c in rep.counterexamples[:5])
            )


def test_criterion_05_high_class_bounds(gamma4_reports):
    for cid in ("half-bound", "threequarter-bound"):
        for n in range(8):
            rep = gamma4_reports[cid, n]
            assert rep.counterexamples == (), (
                f"{cid} at order {n}: "
                + ", ".join(c.graph6 for c in rep.counterexamples[:5])
            )


def test_criterion_06_order_classification(gamma4_reports):
    # Qualifying graphs: gamma_r = 4, nonelementary, v- and e-critical,
    # saturated.  Besides the 5-cycle and the even pendant family D_n, the
    # complete graph of even order minus a perfect matching plus one
    # isolated vertex qualifies (C4 u K1 at order 5, K6 - PM u K1 at order
    # 7); both claims report each of its labeled copies.
    c5 = gen_family("cycle", 5)
    d6 = gen_family("dn", 6)
    extra5, extra7 = parse_graph6("Dl?"), parse_graph6("FznW?")
    for g in (extra5, extra7):
        # n-1 vertices of degree n-3 miss exactly one other each: a perfect
        # matching removed from K_{n-1}
        assert sorted(g.degrees()) == [0] + [g.n - 3] * (g.n - 1)
    for g in (c5, d6, extra5, extra7):
        assert _oracle_qualifies(g), emit_graph6(g)
    c5_copies, d6_copies = _labeled_copies(c5), _labeled_copies(d6)
    extra5_copies, extra7_copies = _labeled_copies(extra5), _labeled_copies(extra7)
    assert (len(c5_copies), len(d6_copies)) == (12, 180)  # 5!/10, 6!/4
    assert (len(extra5_copies), len(extra7_copies)) == (15, 105)  # 5!/8, 7!/48
    # order 5 is small enough to find every qualifier by the oracle alone
    pairs5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    qualifying5 = set()
    for mask in range(1 << len(pairs5)):
        g = graph_new(5, [e for i, e in enumerate(pairs5) if mask >> i & 1])
        if _oracle_qualifies(g):
            qualifying5.add(emit_graph6(g))
    assert qualifying5 == c5_copies | extra5_copies

    in_hypothesis = {
        5: len(c5_copies) + len(extra5_copies),
        6: len(d6_copies),
        7: len(extra7_copies),
    }
    unclassified = {5: extra5_copies, 7: extra7_copies}
    diagnostics = {
        "classification-theorem": "classification=CriticalButUnclassified",
        "cut-structure-prop": (
            "neither the 5-cycle nor a single pendant low vertex on a cut vertex"
        ),
    }
    problems = []
    for n in range(8):
        for cid, diag in diagnostics.items():
            rep = gamma4_reports[cid, n]
            if rep.graphs_in_hypothesis != in_hypothesis.get(n, 0):
                problems.append(
                    f"{cid} at order {n}: {rep.graphs_in_hypothesis} qualifying "
                    f"labeled graphs, expected {in_hypothesis.get(n, 0)}"
                )
            found = _cex_lines([rep])
            expected = {(g6, diag) for g6 in unclassified.get(n, ())}
            if found != expected or len(rep.counterexamples) != len(expected):
                problems.append(
                    f"{cid} at order {n}: extra {sorted(found - expected)[:3]}, "
                    f"missing {sorted(expected - found)[:3]}, "
                    f"{len(rep.counterexamples)} lines for {len(expected)} expected"
                )
    assert not problems, "; ".join(problems)


def test_criterion_07_pendant_family_properties():
    source = ("families", (("dn", 6), ("dn", 8), ("dn", 10), ("dn", 12)))
    rep = verify_claim("dn-properties", source)
    assert rep.graphs_in_hypothesis == 4
    assert rep.counterexamples == (), [c.diagnostic for c in rep.counterexamples]


def test_criterion_08_local_conditions_order8():
    problems = []
    for n in (8, 10, 12):
        g = gen_family("dn", n)
        lit, fast = local8_conditions(g), local8_fast(g)
        if not (lit == fast == (True, True, True)):
            problems.append(f"pendant family order {n}: literal={lit} fast={fast}")
    rng = random.Random(88)
    sample = tuple(
        random_graph(rng, 8, (0.3, 0.5, 0.7)[i % 3]) for i in range(2000)
    )
    srep = verify_claim("local8-theorem", ("graphs", sample))
    # GlnZ]c: the low vertices 2 and 7 (degree 4 < n-3) are non-adjacent
    # and each lies in the other's only non-neighbor triple, so neither can
    # take the v8 seat of the middle condition.  The literal condition b
    # holds while the degree shortcut counts two low vertices; c fails on
    # both routes.
    split = parse_graph6("GlnZ]c")
    assert roman_number_oracle(split) == 4
    low = [v for v in range(split.n) if split.degree(v) < split.n - 3]
    assert low == [2, 7] and not split.adjacent(2, 7)
    assert [
        [u for u in range(split.n) if u != v and not split.adjacent(u, v)]
        for v in low
    ] == [[0, 5, 7], [2, 4, 5]]
    assert _local8_b_c_by_orderings(split) == (True, False)
    expected = {
        (
            "GlnZ]c",
            "dual-path-disagreement: local8_conditions=(True, True, False) "
            "local8_fast=(True, False, False)",
        )
    }
    found = _cex_lines([srep])
    if found != expected or len(srep.counterexamples) != len(expected):
        problems.append(
            f"sampled order-8 graphs: extra {sorted(found - expected)}, "
            f"missing {sorted(expected - found)}"
        )
    d8 = gen_family("dn", 8)
    deletions = tuple(d8.delete_edge(u, v) for u, v in d8.edges())
    assert all(gamma_r(h) == 4 for h in deletions)
    drep = verify_claim("local8-theorem", ("graphs", deletions))
    assert drep.graphs_in_hypothesis == len(deletions)
    for cex in drep.counterexamples:
        problems.append(f"edge-deleted variant {cex.graph6}: {cex.diagnostic}")
    additions = tuple(d8.add_edge(u, v) for u, v in d8.non_edges())
    arep = verify_claim("local8-theorem", ("graphs", additions))
    if arep.graphs_in_hypothesis:
        problems.append(
            f"{arep.graphs_in_hypothesis} edge additions keep the weight at 4"
        )
    assert not problems, (
        "local-condition inconsistencies (a dual-path-disagreement line "
        "means the literal tuple sweep and the degree shortcut split on "
        "that graph): " + "; ".join(problems)
    )


def test_criterion_09_order4_catalog(gamma4_reports):
    rep = gamma4_reports["elementary4-list", 4]
    assert rep.graphs_scanned == 64
    assert rep.graphs_in_hypothesis == 10
    assert rep.counterexamples == (), [c.graph6 for c in rep.counterexamples]


def test_criterion_10_worker_determinism(capsys):
    argv = ["verify", "classification-theorem", "--enumerate", "6"]
    rc1 = cli_main(argv + ["--workers", "1"])
    out1 = capsys.readouterr().out
    rc2 = cli_main(argv + ["--workers", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
