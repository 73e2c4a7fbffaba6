"""Metamorphic properties of gamma_r and the claim verdicts, by hypothesis.

Each property relates the answers on two related graphs, or gamma_r to the
domination number, so it needs no expected value: a relabeled copy, the
components, one more edge or one vertex less. The runs are derandomized, so every run draws the same graphs.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

from romancrit import CLAIMS, Graph, gamma_r, graph_new, relabel
from romancrit.harness import Facts, graph_from_edge_mask, isomorphism_classes
from test_harness import _outcome

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def graphs(draw, min_order: int = 0, max_order: int = 9) -> Graph:
    n = draw(st.integers(min_order, max_order))
    return graph_from_edge_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


@st.composite
def relabeled_pairs(draw, min_order: int = 0, max_order: int = 8):
    g = draw(graphs(min_order, max_order))
    return g, relabel(g, draw(st.permutations(range(g.n))))


@st.composite
def class_representatives(draw, orders: tuple[int, ...]):
    # uniform over classes, not labeled graphs: sparse and symmetric classes
    # are reached as often as the dense ones
    n = draw(st.sampled_from(orders))
    rep, _ = draw(st.sampled_from(isomorphism_classes(n)))
    return graph_from_edge_mask(n, rep)


@PROPERTY
@given(relabeled_pairs(min_order=1))
def test_gamma_and_criticality_invariant_under_relabel(pair):
    f, h = (Facts(g) for g in pair)
    assert (f.gamma, f.v_critical, f.e_critical, f.saturated) == (
        h.gamma,
        h.v_critical,
        h.e_critical,
        h.saturated,
    )


@settings(PROPERTY, max_examples=200)
@given(class_representatives((6, 7)), st.data())
def test_claim_outcomes_invariant_under_relabel(g, data):
    # what the class scan and the class table rely on: a class's smallest
    # mask decides every claim for all of its labeled copies
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    for claim in CLAIMS.values():
        assert _outcome(claim, Facts(g)) == _outcome(claim, Facts(h)), claim.id


@PROPERTY
@given(graphs(max_order=6), graphs(max_order=6), st.data())
def test_gamma_is_additive_over_components(a, b, data):
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    union = graph_new(a.n + b.n, edges)
    mixed = relabel(union, data.draw(st.permutations(range(union.n))))
    assert gamma_r(mixed) == gamma_r(a) + gamma_r(b)


@PROPERTY
@given(graphs())
def test_one_edge_or_vertex_moves_gamma_by_at_most_one(g):
    gamma = gamma_r(g)
    for u, v in g.non_edges():
        assert gamma_r(g.add_edge(u, v)) in (gamma - 1, gamma)
    for v in range(g.n):
        assert gamma_r(g.delete_vertex(v)) >= gamma - 1


@PROPERTY
@given(graphs())
def test_deleting_an_edge_never_lowers_gamma(g):
    # every Roman assignment of G - e is one of G
    gamma = gamma_r(g)
    for u, v in g.edges():
        assert gamma_r(g.delete_edge(u, v)) >= gamma


@PROPERTY
@given(graphs(min_order=1, max_order=12))
def test_degree_bounds(g):
    # Cockayne, Dreyer, Hedetniemi & Hedetniemi (2004): for n >= 1,
    # gamma_r <= n - Delta + 1, and 2n / (Delta + 1) <= gamma_r when
    # Delta >= 1; edgeless graphs have gamma_r = n, below 2n
    gamma, delta = gamma_r(g), max(g.degrees())
    assert gamma <= g.n - delta + 1
    if delta >= 1:
        assert 2 * g.n <= gamma * (delta + 1)
    else:
        assert gamma == g.n


def _domination_number(g: Graph) -> int:
    """Smallest k with a k-set whose closed neighbourhood is all of V, by
    brute force over vertex combinations, apart from the solver's sweep."""
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            cover = 0
            for v in s:
                cover |= g.closed_mask(v)
            if cover == g.full_mask:
                return k
    raise AssertionError("V dominates itself")  # pragma: no cover


@PROPERTY
@given(graphs())
def test_gamma_r_lies_between_gamma_and_twice_gamma(g):
    # labeling a dominating set 2 is Roman; V2 plus V1 of a Roman
    # assignment dominates
    gamma = _domination_number(g)
    assert gamma <= gamma_r(g) <= 2 * gamma
