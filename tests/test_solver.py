from __future__ import annotations

import random
from itertools import product

import pytest

from romancrit import (
    Graph,
    GammaResult,
    LengthMismatch,
    RomanAssignment,
    TooLarge,
    gamma_at_most,
    gamma_r,
    gen_family,
    graph_new,
    is_roman,
    minimal_partitions,
    roman_number,
    roman_number_oracle,
)
from romancrit.harness import iter_labeled_graphs


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph_new(n, edges)


def _valid_by_definition(g: Graph, labels: tuple[int, ...]) -> bool:
    # spelled out from the definition, no bitmask shortcuts
    for v, x in enumerate(labels):
        if x == 0 and not any(
            labels[u] == 2 for u in range(g.n) if g.adjacent(u, v)
        ):
            return False
    return True


def _gamma_by_product_scan(g: Graph) -> int:
    return min(
        sum(labels)
        for labels in product((0, 1, 2), repeat=g.n)
        if _valid_by_definition(g, labels)
    )


def _min_assignments_by_product_scan(g: Graph) -> set[tuple[int, ...]]:
    gamma = _gamma_by_product_scan(g)
    return {
        labels
        for labels in product((0, 1, 2), repeat=g.n)
        if sum(labels) == gamma and _valid_by_definition(g, labels)
    }


# -- is_roman ----------------------------------------------------------------


def test_is_roman_examples():
    k2 = gen_family("complete", 2)
    assert is_roman(k2, (2, 0))
    assert is_roman(k2, (1, 1))
    assert not is_roman(k2, (1, 0))
    e2 = graph_new(2)
    assert not is_roman(e2, (2, 0))
    assert is_roman(e2, (1, 1))
    assert is_roman(graph_new(0), ())


def test_is_roman_accepts_assignment_objects():
    c4 = gen_family("cycle", 4)
    assert is_roman(c4, RomanAssignment((2, 0, 1, 0)))
    assert not is_roman(c4, RomanAssignment((2, 0, 0, 0)))


def test_is_roman_rejects_bad_input():
    g = gen_family("path", 3)
    with pytest.raises(LengthMismatch):
        is_roman(g, (2, 0))
    with pytest.raises(ValueError):
        is_roman(g, (2, 0, 3))


def test_is_roman_matches_definition_scan():
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randrange(1, 7)
        g = _random_graph(rng, n)
        labels = tuple(rng.randrange(3) for _ in range(n))
        assert is_roman(g, labels) == _valid_by_definition(g, labels)


# -- fixed values ------------------------------------------------------------


def test_known_roman_numbers():
    assert gamma_r(graph_new(0)) == 0
    assert gamma_r(graph_new(1)) == 1
    for n in range(2, 8):
        assert gamma_r(gen_family("complete", n)) == 2
    for n in range(1, 8):
        assert gamma_r(gen_family("empty", n)) == n
    assert gamma_r(gen_family("path", 4)) == 3
    assert gamma_r(gen_family("cycle", 5)) == 4
    assert gamma_r(gen_family("cycle", 6)) == 4
    assert gamma_r(gen_family("cycle", 7)) == 5
    assert gamma_r(gen_family("cycle", 8)) == 6
    assert gamma_r(gen_family("dn", 6)) == 4
    assert gamma_r(gen_family("dn", 8)) == 4
    assert gamma_r(gen_family("xn", 6)) == 4
    assert gamma_r(gen_family("xn", 9)) == 4
    for tag in ("elem1", "elem2", "elem3"):
        assert gamma_r(gen_family(tag)) == 4


def test_cycle_and_path_formulas():
    # gamma_r(C_n) = gamma_r(P_n) = floor(2n/3) + (1 if n % 3 else 0)
    for n in range(3, 16):
        want = 2 * n // 3 + (1 if n % 3 else 0)
        assert gamma_r(gen_family("cycle", n)) == want
        assert gamma_r(gen_family("path", n)) == want


# -- solver vs brute force ---------------------------------------------------


def test_solver_matches_product_scan_exhaustive():
    for n in range(0, 5):
        for g in iter_labeled_graphs(n):
            assert gamma_r(g) == _gamma_by_product_scan(g)


def test_solver_matches_product_scan_random():
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randrange(1, 8)
        g = _random_graph(rng, n, rng.choice((0.15, 0.5, 0.85)))
        assert gamma_r(g) == _gamma_by_product_scan(g)


def test_oracle_matches_product_scan():
    rng = random.Random(31338)
    for _ in range(300):
        n = rng.randrange(1, 8)
        g = _random_graph(rng, n, rng.choice((0.15, 0.5, 0.85)))
        assert roman_number_oracle(g) == _gamma_by_product_scan(g)


def test_solver_matches_oracle_exhaustive_small():
    for n in range(0, 5):
        for g in iter_labeled_graphs(n):
            assert gamma_r(g) == roman_number_oracle(g)


def test_solver_matches_oracle_random():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randrange(1, 11)
        g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        assert gamma_r(g) == roman_number_oracle(g)


def test_gamma_at_most_matches_gamma_r_exhaustive():
    for n in range(7):
        for g in iter_labeled_graphs(n):
            gamma = gamma_r(g)
            for limit in range(-1, 2 * n + 1):
                assert gamma_at_most(g, limit) == (gamma <= limit), (g.adj, limit)


def test_gamma_at_most_matches_oracle_random():
    rng = random.Random(4343)
    for n in range(7, 11):
        for _ in range(25):
            g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            gamma = roman_number_oracle(g)
            for limit in range(-1, 2 * n + 1):
                assert gamma_at_most(g, limit) == (gamma <= limit), (g.adj, limit)


def test_oracle_guard():
    with pytest.raises(TooLarge):
        roman_number_oracle(graph_new(13))


# -- witnesses ---------------------------------------------------------------


def test_witness_is_valid_and_tight():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randrange(0, 10)
        g = _random_graph(rng, n)
        res = roman_number(g)
        assert isinstance(res, GammaResult)
        assert res.witness.weight == res.gamma == gamma_r(g)
        assert is_roman(g, res.witness)


def _first_minimizing_2set(g: Graph) -> int:
    # reference tie-break: ascending |S|, then ascending bitmask
    best = None
    pick = 0
    for size in range(g.n + 1):
        for s in range(1 << g.n):
            if s.bit_count() != size:
                continue
            cov = 0
            for v in range(g.n):
                if s >> v & 1:
                    cov |= g.closed_mask(v)
            w = 2 * size + (g.full_mask & ~cov).bit_count()
            if best is None or w < best:
                best = w
                pick = s
    return pick


def test_witness_tie_break_deterministic():
    rng = random.Random(778)
    for _ in range(120):
        n = rng.randrange(1, 8)
        g = _random_graph(rng, n)
        res = roman_number(g)
        assert res.witness.label_mask(2) == _first_minimizing_2set(g)
        # ones are exactly the vertices the 2-set leaves uncovered
        cov = 0
        for v in res.witness.v2:
            cov |= g.closed_mask(v)
        assert res.witness.label_mask(1) == g.full_mask & ~cov


def test_witness_idempotent():
    g = gen_family("cycle", 7)
    assert roman_number(g) == roman_number(g)


# -- minimal partitions ------------------------------------------------------


def test_minimal_partitions_fixed_cases():
    assert [a.labels for a in minimal_partitions(graph_new(1))] == [(1,)]
    k2 = gen_family("complete", 2)
    assert {a.labels for a in minimal_partitions(k2)} == {(1, 1), (2, 0), (0, 2)}
    c5 = minimal_partitions(gen_family("cycle", 5))
    assert c5
    for a in c5:
        assert a.weight == 4
        assert is_roman(gen_family("cycle", 5), a)


def test_minimal_partitions_sorted_by_2set_mask():
    rng = random.Random(55)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(1, 8))
        masks = [a.label_mask(2) for a in minimal_partitions(g)]
        assert masks == sorted(masks)


def test_minimal_partitions_complete_vs_product_scan():
    rng = random.Random(56)
    for _ in range(150):
        n = rng.randrange(1, 8)
        g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        got = {a.labels for a in minimal_partitions(g)}
        assert got == _min_assignments_by_product_scan(g)


def _partitions_by_full_sweep(g: Graph) -> list[RomanAssignment]:
    # the unbounded sweep: every 2-set bitmask, ascending
    n = g.n
    gamma = gamma_r(g)
    full = (1 << n) - 1
    closed = [g.closed_mask(v) for v in range(n)]
    out = []
    for s in range(1 << n):
        cov = 0
        t = s
        while t:
            low = t & -t
            cov |= closed[low.bit_length() - 1]
            t ^= low
        if 2 * s.bit_count() + (full & ~cov).bit_count() == gamma:
            labels = tuple(
                2 if s >> v & 1 else 0 if cov >> v & 1 else 1 for v in range(n)
            )
            out.append(RomanAssignment(labels))
    return out


def test_minimal_partitions_bounded_sweep_matches_full_sweep():
    # 2|S| <= gamma_r for every minimum assignment, so the sweep stops at
    # |S| = gamma_r // 2; same list, same order
    for n in range(7):
        for g in iter_labeled_graphs(n):
            assert minimal_partitions(g) == _partitions_by_full_sweep(g)
    rng = random.Random(57)
    for n in range(7, 15):
        for _ in range(6):
            g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
            assert minimal_partitions(g) == _partitions_by_full_sweep(g)


def _min_weight_labelings_by_mask_pairs(g: Graph) -> tuple[int, set[tuple[int, int]]]:
    # literal sweep of all 3^n labelings, encoded as disjoint (two-set,
    # one-set) bitmask pairs; validity checked from the raw definition
    n = g.n
    full = (1 << n) - 1
    closed = [g.closed_mask(v) for v in range(n)]
    best = n + 1
    winners: list[tuple[int, int]] = []
    for m2 in range(1 << n):
        cover = 0
        rest = m2
        while rest:
            low = rest & -rest
            cover |= closed[low.bit_length() - 1]
            rest ^= low
        base = 2 * m2.bit_count()
        comp = full & ~m2
        m1 = comp
        while True:
            if (comp & ~m1) & ~cover == 0:
                w = base + m1.bit_count()
                if w < best:
                    best = w
                    winners = [(m2, m1)]
                elif w == best:
                    winners.append((m2, m1))
            if m1 == 0:
                break
            m1 = (m1 - 1) & comp
    return best, set(winners)


def test_minimal_partitions_complete_all_orders_to_9():
    # the subset sweep misses nothing: across every order up to 9, the
    # minimum over all 3^n labelings equals the solver value, and each
    # minimum-weight labeling leaves exactly the undominated vertices at 1
    rng = random.Random(57)
    for n in range(1, 10):
        for _ in range(500):
            g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            best, winners = _min_weight_labelings_by_mask_pairs(g)
            assert best == roman_number(g).gamma
            full = (1 << n) - 1
            for m2, m1 in winners:
                cover = 0
                for v in range(n):
                    if m2 >> v & 1:
                        cover |= g.closed_mask(v)
                assert m1 == full & ~cover
            got = {
                (a.label_mask(2), a.label_mask(1))
                for a in minimal_partitions(g)
            }
            assert got == winners


def test_minimal_partitions_guard():
    with pytest.raises(TooLarge):
        minimal_partitions(graph_new(25))


# -- monotonicity ------------------------------------------------------------


def test_edge_deletion_never_lowers_gamma():
    rng = random.Random(90)
    for _ in range(100):
        g = _random_graph(rng, rng.randrange(2, 9))
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        assert gamma_r(g.delete_edge(u, v)) >= gamma_r(g)


def test_edge_subset_deletion_never_lowers_gamma():
    rng = random.Random(92)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(1, 10))
        h = g
        for u, v in g.edges():
            if rng.random() < 0.4:
                h = h.delete_edge(u, v)
        assert gamma_r(h) >= gamma_r(g)


def test_vertex_deletion_lower_bound():
    # a minimum assignment of G - v extends to G by labeling v with 2
    rng = random.Random(91)
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = _random_graph(rng, n)
        gamma = gamma_r(g)
        for v in range(n):
            assert gamma_r(g.delete_vertex(v)) >= gamma - 2
