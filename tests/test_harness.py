from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import romancrit
from romancrit import (
    CLAIMS,
    Claim,
    Counterexample,
    Graph,
    InvalidOrder,
    PreconditionViolated,
    RomanCritError,
    TooLarge,
    UnknownClaim,
    claim_catalog,
    degree_classes,
    gen_family,
    graph_new,
    is_isomorphic,
    minimal_partitions,
    parse_graph6,
    relabel,
    verify_claim,
    verify_claims,
)
from romancrit import _class_table, criticality, harness, solver
from romancrit.gamma4 import _witness_pairs_raw
from romancrit.graph6 import orbit, orbit_walk, plain_changes
from romancrit.harness import (
    ENUMERATION_MAX_ORDER,
    Facts,
    _chase_lands,
    graph_from_edge_mask,
    isomorphism_classes,
    iter_labeled_graphs,
)
from class_sweep import TABLE_COMMAND, check_orbits, sweep_classes, table_module
from oracles import matching_complement_plus_isolated
from test_acceptance import DUAL_CLAIMS, GAMMA4_CLAIMS

ALL_CLAIM_IDS = (
    "cycle-criticality",
    "nonelementary-components",
    "gamma-le-3-degree",
    "vcrit-partition-lemma",
    "saturated-partition-prop",
    "edge-removal-gamma",
    "ecrit-condition-prop",
    "elementary4-list",
    "carac-lemma",
    "carac2-theorem",
    "half-bound",
    "threequarter-bound",
    "cutvertex-lemma",
    "saturated4-degrees",
    "ecrit4-degrees",
    "cut-structure-prop",
    "classification-theorem",
    "local8-theorem",
    "dn-properties",
)

# the order-5 graphs that pass every qualifying predicate yet fall outside
# the known catalog: labeled copies of the 4-cycle plus an isolated vertex
UNCLASSIFIED_ORDER5 = (
    "DBW",
    "DDg",
    "DEo",
    "DHS",
    "DIK",
    "DPc",
    "DSK",
    "DWo",
    "D]?",
    "Dac",
    "DcS",
    "Dgg",
    "Dl?",
    "DoW",
    "Dr?",
)


# -- enumeration -------------------------------------------------------------


# OEIS A000088
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def test_labeled_graph_counts():
    for n, count in ((0, 1), (1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)):
        assert sum(1 for _ in iter_labeled_graphs(n)) == count


def test_enumeration_guards():
    # the class table's orders 0-8 are admitted by both enumerations
    for n in range(ENUMERATION_MAX_ORDER + 1):
        assert len(isomorphism_classes(n)) == A000088[n]
        assert next(iter_labeled_graphs(n)).n == n
    first = next(iter_labeled_graphs(8))
    assert first.n == 8 and first.edge_count() == 0
    # order 9 is refused by one check, with one text, at every entry point
    for refuse in (
        lambda: isomorphism_classes(9),
        lambda: next(iter_labeled_graphs(9)),
        lambda: verify_claims(["carac-lemma"], ("enumerate", 9)),
    ):
        with pytest.raises(TooLarge) as exc:
            refuse()
        assert str(exc.value) == "enumeration capped at order 8, got 9"
    with pytest.raises(InvalidOrder):
        next(iter_labeled_graphs(-1))
    with pytest.raises(InvalidOrder):
        isomorphism_classes(-1)


def test_graph_from_edge_mask_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(0, 7)
        mask = rng.randrange(1 << (n * (n - 1) // 2))
        g = graph_from_edge_mask(n, mask)
        assert g.n == n
        assert g.edge_count() == mask.bit_count()
        # a bit past the last pair names no edge and is refused, not dropped
        with pytest.raises(ValueError, match=f"edge mask of order {n} sets a bit past"):
            graph_from_edge_mask(n, mask | 1 << n * (n - 1) // 2)


def _edge_mask(g: Graph) -> int:
    # graph6 pair order: (i, j), i < j, on bit j(j-1)/2 + i
    pairs = [(i, j) for j in range(g.n) for i in range(j)]
    return sum(1 << k for k, (i, j) in enumerate(pairs) if g.adjacent(i, j))


# Orders the orbit sweep checks in tier-1. Order 8 would take about 230 s
# and a 256 MiB seen-map; its classes are checked by the sampled orbit test
# below and in full by `python tests/class_sweep.py orbits`.
SWEPT_ORDERS = range(8)


@pytest.fixture(scope="module")
def swept() -> list[list[tuple[int, int]]]:
    """The orbit sweep's classes of orders 0-7, swept once per module."""
    return [sweep_classes(n) for n in SWEPT_ORDERS]


def test_isomorphism_class_counts():
    # every order of the table: a class's edge count is its representative's,
    # and C(C(n,2), e) labeled graphs have e edges
    for n, count in enumerate(A000088):
        classes = isomorphism_classes(n)
        assert len(classes) == count
        reps = [rep for rep, _ in classes]
        assert all(a < b for a, b in zip(reps, reps[1:]))
        pairs = n * (n - 1) // 2
        by_edges = [0] * (pairs + 1)
        for rep, size in classes:
            by_edges[rep.bit_count()] += size
        assert by_edges == [math.comb(pairs, e) for e in range(pairs + 1)], n


def test_class_table_order8_sample_are_orbit_minima():
    # the full check of all 12,346 orbits is `python tests/class_sweep.py
    # orbits`; here the first and last classes and a seeded sample
    classes = isomorphism_classes(8)
    check_orbits(8, [classes[0], classes[-1], *random.Random(8).sample(classes, 100)])


def test_class_table_is_the_generator_output(swept):
    # the command in the table's docstring prints this text; order 8 is
    # read back from the table, whose orbits the other tests check
    assert TABLE_COMMAND in _class_table.__doc__
    path = Path(_class_table.__file__)
    order8 = isomorphism_classes(8)
    assert path.read_bytes() == table_module([*swept, order8]).encode("ascii")


def test_class_table_matches_the_sweep(swept):
    for n in SWEPT_ORDERS:
        assert isomorphism_classes(n) == swept[n], n


def test_class_table_orders():
    # one string per order 0..8, the only source of classes; the table's
    # top order is the enumeration guard
    assert len(_class_table.CLASSES) == ENUMERATION_MAX_ORDER + 1


def _count_orbit_walks(monkeypatch) -> list[int]:
    built = []

    def counted(n: int):
        built.append(n)
        return orbit_walk(n)

    monkeypatch.setattr(harness, "orbit_walk", counted)
    return built


def test_scan_without_expansion_builds_no_permutations(monkeypatch):
    built = _count_orbit_walks(monkeypatch)
    reports = verify_claims(DUAL_CLAIMS, ("enumerate", 6))
    assert all(rep.counterexamples == () for rep in reports)
    assert built == []


def test_expanding_scan_builds_permutations_once(monkeypatch):
    # the C4 + K1 class is expanded for two claims, the walk built once
    built = _count_orbit_walks(monkeypatch)
    reports = verify_claims(GAMMA4_CLAIMS, ("enumerate", 5))
    assert sum(len(rep.counterexamples) for rep in reports) == 30
    assert built == [5]


def test_size_one_classes_never_expand(monkeypatch):
    # at order 3 only the edgeless graph, a class of one labeled copy,
    # reports on gamma-le-3-degree: its report is its own, and no walk is
    # built for it
    built = _count_orbit_walks(monkeypatch)
    cid = "gamma-le-3-degree"
    by_class = verify_claim(cid, ("enumerate", 3))
    labeled = verify_claim(cid, ("graphs", tuple(iter_labeled_graphs(3))))
    assert built == []
    assert [c.graph6 for c in by_class.counterexamples] == ["B?"]
    assert by_class.counterexamples == labeled.counterexamples
    assert by_class.graphs_in_hypothesis == labeled.graphs_in_hypothesis == 8


def test_import_leaves_the_class_table_unloaded():
    code = (
        "import sys, romancrit\n"
        "print('romancrit._class_table' in sys.modules)\n"
        "romancrit.verify_claims(['half-bound'], ('enumerate', 5))\n"
        "print('romancrit._class_table' in sys.modules)\n"
    )
    src = str(Path(romancrit.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\nTrue\n"


def test_plain_changes_visit_every_order_by_adjacent_swaps():
    for n in range(9):
        steps, order = plain_changes(n), list(range(n))
        seen = {tuple(order)}
        for i in steps:
            assert 0 <= i < n - 1
            order[i], order[i + 1] = order[i + 1], order[i]
            seen.add(tuple(order))
        assert len(steps) == len(seen) - 1 == math.factorial(n) - 1, n


def test_orbits_partition_the_labeled_graphs():
    for n in range(6):
        walk, classes = orbit_walk(n), isomorphism_classes(n)
        owner = {}
        for rep, size in classes:
            masks = orbit(rep, walk)
            assert len(masks) == size
            assert min(masks) == rep
            for mask in masks:
                assert mask not in owner
                owner[mask] = rep
        assert sorted(owner) == list(range(1 << (n * (n - 1) // 2)))


def _relabel_masks(g: Graph) -> set[int]:
    return {
        _edge_mask(relabel(g, list(p)))
        for p in itertools.permutations(range(g.n))
    }


def test_orbits_are_the_relabelings():
    for n in range(6):
        walk, classes = orbit_walk(n), isomorphism_classes(n)
        for rep, _ in classes:
            g = graph_from_edge_mask(n, rep)
            assert _edge_mask(g) == rep
            assert orbit(rep, walk) == _relabel_masks(g)


@pytest.mark.parametrize(
    "n, masks",
    [
        # the top pair, the top and bottom pairs, every pair, mixed masks
        (6, (1 << 14, (1 << 15) - 1, 0b101100111000101)),
        (7, (1 << 20 | 1, (1 << 21) - 1, 0b110010100111000010110)),
        (8, (1 << 27 | 1 << 16 | 1 << 3,)),
    ],
)
def test_orbits_are_the_relabelings_past_order_5(n, masks):
    walk = orbit_walk(n)
    for mask in masks:
        assert orbit(mask, walk) == _relabel_masks(graph_from_edge_mask(n, mask))


def _outcome(claim: Claim, f: Facts):
    """(hypothesis verdict, check reports) or "raises", as the scan sees it."""
    try:
        if not claim.hypothesis(f):
            return (False, None)
        return (True, bool(claim.check(f)))
    except RomanCritError:
        return "raises"


def test_claim_outcomes_are_isomorphism_invariant():
    # what the class scan relies on: one labeled copy decides every claim
    # for its whole class
    for n in range(6):
        walk, classes = orbit_walk(n), isomorphism_classes(n)
        for rep, _ in classes:
            outcomes = {
                tuple(
                    _outcome(c, Facts(graph_from_edge_mask(n, mask)))
                    for c in CLAIMS.values()
                )
                for mask in orbit(rep, walk)
            }
            assert len(outcomes) == 1, (n, rep, outcomes)


def test_witness_chase_lands_iff_a_degree_is_n_minus_3():
    # N[a] = V - {x, b}, so a witness of a lands on x or b exactly when x or
    # b has two non-neighbours; the chase then ignores which pair is smallest
    checked = 0
    for n in range(4, 8):
        classes = isomorphism_classes(n)
        for rep, _ in classes:
            g = graph_from_edge_mask(n, rep)
            deg = g.degrees()
            pairs = [_witness_pairs_raw(g, x) for x in range(n)]
            for x in range(n):
                for a, b in pairs[x]:
                    assert _chase_lands(pairs, x, a, b) == (n - 3 in (deg[x], deg[b]))
                    checked += 1
    assert checked == 3970


def test_carac_lemma_reports_nothing_on_the_vcritical_classes_up_to_order7():
    # no v-critical gamma_r = 4 class has a failing chase, so the class scan
    # expands none of them for carac-lemma
    claim = CLAIMS["carac-lemma"]
    reached = 0
    for n in range(8):
        classes = isomorphism_classes(n)
        for rep, _ in classes:
            f = Facts(graph_from_edge_mask(n, rep))
            if claim.hypothesis(f) and f.v_critical:
                reached += 1
                assert claim.check(f) == [], (n, rep)
    assert reached == 16


def test_witness_chase_failure_beyond_the_smallest_pairs():
    # the path 3-1-2-0-4: every smallest witness pair's chase lands, but
    # the second pairs of vertices 3 and 4 do not
    g = graph_new(5, [(0, 2), (0, 4), (1, 2), (1, 3)])
    pairs = [_witness_pairs_raw(g, x) for x in range(5)]
    assert pairs[3] == [(0, 1), (2, 4)] and pairs[4] == [(1, 0), (2, 3)]
    assert all(_chase_lands(pairs, x, *pairs[x][0]) for x in range(5) if pairs[x])
    assert not _chase_lands(pairs, 3, 2, 4)


def test_carac_lemma_reports_a_failing_chase(monkeypatch):
    # no graph up to order 8 has every vertex witnessed and a failing chase,
    # so the report is checked with the chase made to fail: C5 is v-critical
    # and every vertex has a witness, and each vertex reports its first pair
    f = Facts(gen_family("cycle", 5))
    check = CLAIMS["carac-lemma"].check
    assert check(f) == []
    monkeypatch.setattr(harness, "_chase_lands", lambda *a: False)
    pairs = [_witness_pairs_raw(f.g, x) for x in range(5)]
    assert check(f) == [
        f"witness chase fails at vertex {x}: no witness of {a} lands in ({x},{b})"
        for x, (a, b) in enumerate(p[0] for p in pairs)
    ]


@pytest.mark.parametrize("n", range(7))
def test_class_scan_matches_labeled_scan(n):
    by_class = verify_claims(ALL_CLAIM_IDS, ("enumerate", n), workers=1)
    labeled = verify_claims(
        ALL_CLAIM_IDS, ("graphs", tuple(iter_labeled_graphs(n))), workers=1
    )
    for a, b in zip(by_class, labeled):
        da, db = a.to_json_dict(), b.to_json_dict()
        assert da.pop("source") == f"enumerate({n})"
        assert db.pop("source") == f"graphs:{1 << (n * (n - 1) // 2)}"
        assert da == db


def _raise_at_two_edges(f: Facts) -> bool:
    if f.g.edge_count() == 2:
        raise PreconditionViolated("two edges")
    return True


def _raise_at_three_edges(f: Facts) -> list[str]:
    if f.g.edge_count() == 3:
        raise PreconditionViolated("three edges")
    return []


def _vertex0_isolated(f: Facts) -> list[str]:
    return ["vertex 0 isolated"] if f.g.adj[0] == 0 else []


def test_class_scan_expands_guard_errors(monkeypatch):
    test_claims = (
        Claim("t-hyp-raises", "", _raise_at_two_edges, lambda f: []),
        Claim("t-check-raises", "", lambda f: True, _raise_at_three_edges),
        Claim("t-undeclared", "", lambda f: True, _vertex0_isolated),
    )
    for claim in test_claims:
        monkeypatch.setitem(CLAIMS, claim.id, claim)
    ids = [c.id for c in test_claims]
    by_class = verify_claims(ids, ("enumerate", 4))
    labeled = verify_claims(ids, ("graphs", tuple(iter_labeled_graphs(4))))
    for a, b in zip(by_class[:2], labeled):
        assert a.graphs_in_hypothesis == b.graphs_in_hypothesis
        assert a.counterexamples == b.counterexamples
    hyp_raises, check_raises, undeclared = by_class
    assert len(hyp_raises.counterexamples) == 15  # C(6,2) two-edge graphs
    assert len(check_raises.counterexamples) == 20  # C(6,3) three-edge graphs
    # a check that reads labels breaks the scan's premise: only the edgeless
    # class is caught, since every other class's smallest mask puts an edge
    # on vertex 0
    assert len(undeclared.counterexamples) == 1


# -- facts cache -------------------------------------------------------------


def test_facts_lazy_predicates():
    f = Facts(gen_family("dn", 6))
    assert f.gamma == 4
    assert f.nonelementary
    assert f.v_critical and f.e_critical and f.saturated
    assert len(f.partitions) >= 1
    assert all(2 * m2.bit_count() + m1.bit_count() == 4 for m2, m1 in f.partitions)
    assert f.partitions == [
        (a.label_mask(2), a.label_mask(1)) for a in minimal_partitions(f.g)
    ]
    assert f.degree_classes == degree_classes(f.g)


def test_class_scan_copies_carry_no_representative_witness(monkeypatch):
    # P5 fails v-criticality at its middle vertex, which is a different
    # vertex number in different labeled copies
    _, units = harness._open_source(("enumerate", 5))
    g, size, copies = next(
        u for u in units if is_isomorphic(u[0], gen_family("path", 5))
    )
    assert size == 60
    claim = Claim("t-not-vcrit", "", lambda f: not f.v_critical, lambda f: ["x"])
    seen: list[Facts] = []
    scan = harness._scan

    def record(claims, f, size, copies, acc):
        seen.append(f)
        scan(claims, f, size, copies, acc)

    monkeypatch.setattr(harness, "_scan", record)
    calls = []
    decide = criticality.is_v_critical
    monkeypatch.setattr(
        criticality, "is_v_critical", lambda f: calls.append(f) or decide(f)
    )
    scan([claim], Facts(g), size, copies, {claim.id: [0, []]})
    # the verdict reached all 60 copies from the one evaluation on rep
    assert len(seen) == 60 and len(calls) == 1
    # and a copy reads it without deciding it again
    assert [f.v_critical for f in seen] == [False] * 60 and len(calls) == 1


def test_claim_scans_never_ask_for_a_vertex_witness(monkeypatch):
    # a verdict needs no witness, and gamma_r(G - v) for one is a full solve
    def scan():
        return [
            [r.to_json_dict() for r in verify_claims(block, ("enumerate", n))]
            for block in (DUAL_CLAIMS, GAMMA4_CLAIMS)
            for n in range(7)
        ]

    def refuse(*args, **kwargs):
        raise AssertionError("a claim scan asked for a vertex witness")

    expected = scan()
    for module in (criticality, harness):
        monkeypatch.setattr(module, "first_non_critical_vertex", refuse)
    assert scan() == expected


def test_facts_empty_graph():
    f = Facts(graph_new(0))
    assert f.gamma == 0
    with pytest.raises(InvalidOrder):
        f.v_critical


# -- claim catalog -----------------------------------------------------------


def test_claim_catalog_is_complete():
    assert tuple(CLAIMS) == ALL_CLAIM_IDS
    catalog = claim_catalog()
    assert [cid for cid, _ in catalog] == list(ALL_CLAIM_IDS)
    assert all(desc for _, desc in catalog)


def test_unknown_claim_rejected():
    with pytest.raises(UnknownClaim):
        verify_claims(["no-such-claim"], ("enumerate", 3))


# -- single-claim runs -------------------------------------------------------


def test_elementary4_list_over_order4():
    rep = verify_claim("elementary4-list", ("enumerate", 4))
    assert rep.claim == "elementary4-list"
    assert rep.source == "enumerate(4)"
    assert rep.graphs_scanned == 64
    assert rep.graphs_in_hypothesis == 10
    assert rep.counterexamples == ()


def test_cycle_claim_over_order5():
    rep = verify_claim("cycle-criticality", ("enumerate", 5))
    assert rep.graphs_scanned == 1024
    assert rep.graphs_in_hypothesis == 12  # labeled 5-cycles
    assert rep.counterexamples == ()


def test_carac_claims_over_order5():
    reports = verify_claims(
        ["carac-lemma", "carac2-theorem", "saturated4-degrees"],
        ("enumerate", 5),
    )
    for rep in reports:
        assert rep.graphs_scanned == 1024
        assert rep.graphs_in_hypothesis == 227
        assert rep.counterexamples == ()


def test_bound_claims_over_order5():
    half, threequarter = verify_claims(
        ["half-bound", "threequarter-bound"], ("enumerate", 5)
    )
    assert half.graphs_in_hypothesis == 27
    assert threequarter.graphs_in_hypothesis == 27
    assert half.counterexamples == threequarter.counterexamples == ()


def test_classification_finds_uncataloged_graphs_at_order5():
    rep = verify_claim("classification-theorem", ("enumerate", 5))
    assert rep.graphs_in_hypothesis == 27
    assert len(rep.counterexamples) == 15
    assert tuple(c.graph6 for c in rep.counterexamples) == UNCLASSIFIED_ORDER5
    for c in rep.counterexamples:
        assert c.diagnostic == "classification=CriticalButUnclassified"
        g = parse_graph6(c.graph6)
        assert sorted(g.degrees()) == [0, 2, 2, 2, 2]


def test_cut_structure_finds_same_graphs_at_order5():
    rep = verify_claim("cut-structure-prop", ("enumerate", 5))
    assert tuple(c.graph6 for c in rep.counterexamples) == UNCLASSIFIED_ORDER5


def test_clean_claims_at_order5():
    # every other claim is counterexample-free on 1024 graphs
    ids = [
        cid
        for cid in ALL_CLAIM_IDS
        if cid not in ("cut-structure-prop", "classification-theorem")
    ]
    for rep in verify_claims(ids, ("enumerate", 5)):
        assert rep.counterexamples == (), rep.claim


def test_degree_remark_counterexample_at_order3():
    # the only graph anywhere that separates the two routes of the
    # weight-at-most-3 predicate: three isolated vertices (weight 3 via
    # all-ones, max degree 0 < n-2)
    rep = verify_claim("gamma-le-3-degree", ("enumerate", 3))
    assert rep.graphs_in_hypothesis == 8
    assert len(rep.counterexamples) == 1
    cex = rep.counterexamples[0]
    assert cex.graph6 == "B?"
    assert "gamma_le_3=True" in cex.diagnostic
    assert "degree_route=False" in cex.diagnostic
    for n in (0, 1, 2, 4):
        assert verify_claim("gamma-le-3-degree", ("enumerate", n)).counterexamples == ()


def test_dn_claim_over_families():
    source = ("families", (("dn", 6), ("dn", 8), ("dn", 10), ("dn", 12)))
    rep = verify_claim("dn-properties", source)
    assert rep.source == "families:dn:6,dn:8,dn:10,dn:12"
    assert rep.graphs_scanned == 4
    assert rep.graphs_in_hypothesis == 4
    assert rep.counterexamples == ()


def test_local8_reports_odd_order_qualifier():
    # order-9 member of the matching-complement family: passes the three
    # local conditions but is not in the even pendant family
    g = matching_complement_plus_isolated(9)
    rep = verify_claim("local8-theorem", ("graphs", (g,)))
    assert rep.graphs_scanned == 1
    assert rep.graphs_in_hypothesis == 1
    assert len(rep.counterexamples) == 1
    diag = rep.counterexamples[0].diagnostic
    assert "matches-even-pendant-family=False" in diag
    assert "local-conditions-conjunction=True" in diag


def test_local8_clean_on_even_pendant_member():
    rep = verify_claim(
        "local8-theorem", ("graphs", (gen_family("dn", 8),))
    )
    assert rep.graphs_in_hypothesis == 1
    assert rep.counterexamples == ()


def test_local8_reports_route_disagreement():
    # order-8 graph whose two degree-4 vertices block each other out of the
    # literal middle condition; see the matching regression pin in the
    # gamma4 tests
    rep = verify_claim("local8-theorem", ("graphs", (parse_graph6("GMzmtk"),)))
    assert rep.graphs_in_hypothesis == 1
    assert len(rep.counterexamples) == 1
    diag = rep.counterexamples[0].diagnostic
    assert "dual-path-disagreement" in diag
    assert "local8_conditions=(True, True, False)" in diag
    assert "local8_fast=(True, False, False)" in diag


def test_local8_reports_the_criticality_conjunction(monkeypatch):
    # v-critical and e-critical but not saturated, and the local conditions
    # fail: both conjunctions read False, so nothing is reported
    g = parse_graph6("G]]uf?")
    f = Facts(g)
    assert (f.v_critical, f.e_critical, f.saturated) == (True, True, False)
    assert verify_claim("local8-theorem", ("graphs", (g,))).counterexamples == ()
    # no graph up to order 8 separates the literal conjunction from the
    # criticality one, so the literal route is made to fail on D8
    monkeypatch.setattr(harness, "local8_conditions", lambda f: (True, True, False))
    assert CLAIMS["local8-theorem"].check(Facts(gen_family("dn", 8))) == [
        "dual-path-disagreement: local8_conditions=(True, True, False) "
        "local8_fast=(True, True, True)",
        "local-conditions-conjunction=False matches-even-pendant-family=True",
        "local-conditions-conjunction=False criticality-conjunction=True",
    ]


def test_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Dhc\nC~\n\n", encoding="ascii")
    rep = verify_claim("classification-theorem", ("file", str(path)))
    assert rep.source == f"file:{path}"
    assert rep.graphs_scanned == 2
    assert rep.graphs_in_hypothesis == 1  # the 5-cycle qualifies, K4 does not
    assert rep.counterexamples == ()


def test_guard_error_becomes_counterexample():
    # the minimum partitions are capped at order 24; order 25 must be
    # reported, not crash
    g = gen_family("complete", 25)
    rep = verify_claim("vcrit-partition-lemma", ("graphs", (g,)))
    assert rep.graphs_scanned == 1
    assert len(rep.counterexamples) == 1
    assert rep.counterexamples[0].diagnostic == (
        "guard-error: TooLarge: partition enumeration capped at order 24, got 25"
    )


@pytest.mark.parametrize("cid", ["vcrit-partition-lemma", "saturated-partition-prop"])
def test_partition_claims_refuse_the_order_before_any_sweep(monkeypatch, cid):
    # C25 (gamma_r 17) gets the same one-line report as K25, and neither
    # gamma_r nor the direct route's per-vertex or per-non-edge questions
    # sweep a single set first
    sweeps = []
    real = solver._light_sets
    monkeypatch.setattr(
        solver, "_light_sets", lambda *args: sweeps.append(args) or real(*args)
    )
    rep = verify_claim(cid, ("graphs", (gen_family("cycle", 25),)))
    assert [c.diagnostic for c in rep.counterexamples] == [
        "guard-error: TooLarge: partition enumeration capped at order 24, got 25"
    ]
    assert sweeps == []


def test_pendant_family_claims_answer_past_order_12():
    # catalog membership is read from the degrees, so no isomorphism cap
    # applies to the claims that ask for it
    source = ("families", (("dn", 14), ("dn", 16), ("dn", 20)))
    for cid in (
        "dn-properties",
        "classification-theorem",
        "cut-structure-prop",
        "local8-theorem",
    ):
        rep = verify_claim(cid, source)
        assert rep.graphs_in_hypothesis == 3, cid
        assert rep.counterexamples == (), cid


# -- report shape ------------------------------------------------------------


def test_report_json_shape():
    rep = verify_claim("elementary4-list", ("enumerate", 4))
    data = rep.to_json_dict()
    assert set(data) == {
        "claim",
        "source",
        "graphs_scanned",
        "graphs_in_hypothesis",
        "counterexamples",
    }
    timed = rep.to_json_dict(include_timing=True)
    assert set(timed) == set(data) | {"wall_time_ms"}
    assert timed["wall_time_ms"] >= 0


def test_counterexamples_sorted():
    rep = verify_claim("classification-theorem", ("enumerate", 5))
    entries = [(c.graph6, c.diagnostic) for c in rep.counterexamples]
    assert entries == sorted(entries)
    assert all(isinstance(c, Counterexample) for c in rep.counterexamples)


# -- worker determinism ------------------------------------------------------


def test_worker_counts_agree():
    ids = ["classification-theorem", "cut-structure-prop", "carac-lemma"]
    serial = verify_claims(ids, ("enumerate", 5), workers=1)
    parallel = verify_claims(ids, ("enumerate", 5), workers=3)
    for a, b in zip(serial, parallel):
        assert a.to_json_dict() == b.to_json_dict()
