from __future__ import annotations

import random
import time
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
    relabel,
    roman_number,
    roman_number_oracle,
    solver,
)
from romancrit.harness import (
    graph_from_edge_mask,
    isomorphism_classes,
    iter_labeled_graphs,
)
from oracles import random_graph


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
        g = random_graph(rng, n)
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
        g = random_graph(rng, n, rng.choice((0.15, 0.5, 0.85)))
        assert gamma_r(g) == _gamma_by_product_scan(g)


def test_oracle_matches_product_scan():
    rng = random.Random(31338)
    for _ in range(300):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice((0.15, 0.5, 0.85)))
        assert roman_number_oracle(g) == _gamma_by_product_scan(g)


def test_solver_matches_oracle_exhaustive_small():
    for n in range(0, 5):
        for g in iter_labeled_graphs(n):
            assert gamma_r(g) == roman_number_oracle(g)


def test_solver_matches_oracle_random():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
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
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            gamma = roman_number_oracle(g)
            for limit in range(-1, 2 * n + 1):
                assert gamma_at_most(g, limit) == (gamma <= limit), (g.adj, limit)


@pytest.mark.parametrize(
    "g, gamma",
    [
        (graph_new(0), 0),
        (graph_new(1), 1),
        (gen_family("complete", 2), 2),
        (gen_family("complete", 3), 2),
        (graph_new(3), 3),
        (gen_family("path", 4), 3),
        (graph_new(4, [(0, 1), (0, 2)]), 3),
        (gen_family("elem3"), 4),
        (gen_family("path", 5), 4),
    ],
    ids=["E0", "K1", "K2", "K3", "E3", "P4", "P3+K1", "2K2", "P5"],
)
def test_at_most_boundaries(g, gamma):
    # the limits around the all-1 shortcut (n <= limit), around 2, below
    # which _lightest, asked for a set below limit + 1, sweeps nothing, and
    # around the size-1 pass, whose first vertex of the largest closed
    # neighborhood weighs n + 2 minus that neighborhood's size
    closed = g.closed
    for limit in (-1, 0, 1, 2, 3):
        assert solver._at_most(closed, g.n, limit) == (gamma <= limit), limit


def test_at_most_guard_sits_before_the_size_one_exit():
    # one 2 and the rest at 1 weigh n - 1 on a cycle; C26 at limit 25 is
    # charged 28.4M sets and answered by that 2, while C27 at limit 26 is
    # refused (47.1M) although the same 2 would answer it, and at limit 27
    # the all-1 labeling answers before any charge
    c26, c27 = gen_family("cycle", 26), gen_family("cycle", 27)
    assert solver._at_most(c26.closed, 26, 25)
    with pytest.raises(TooLarge, match="of up to 47,050,563 vertex sets"):
        solver._at_most(c27.closed, 27, 26)
    assert solver._at_most(c27.closed, 27, 27)


def test_oracle_guard():
    with pytest.raises(TooLarge):
        roman_number_oracle(graph_new(13))


# -- witnesses ---------------------------------------------------------------


def test_witness_is_valid_and_tight():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randrange(0, 10)
        g = random_graph(rng, n)
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
        g = random_graph(rng, n)
        res = roman_number(g)
        assert res.witness.label_mask(2) == _first_minimizing_2set(g)
        # ones are exactly the vertices the 2-set leaves uncovered
        cov = 0
        for v in res.witness.label_set(2):
            cov |= g.closed_mask(v)
        assert res.witness.label_mask(1) == g.full_mask & ~cov


def test_witness_idempotent():
    g = gen_family("cycle", 7)
    assert roman_number(g) == roman_number(g)


# -- the sweep primitive -----------------------------------------------------


def _gosper_sets(closed, n, k):
    # every k-set, k >= 1, in ascending bitmask order from Gosper's hack,
    # with the vertices outside its closed neighborhood, each cover rebuilt
    # with a k-step OR loop; it shares no prefix state and no bound with
    # the depth-first sweep
    full = (1 << n) - 1
    s = (1 << k) - 1
    top = 1 << n
    while s < top:
        cov = 0
        t = s
        while t:
            low = t & -t
            cov |= closed[low.bit_length() - 1]
            t ^= low
        yield s, full & ~cov
        c = s & -s
        r = s + c
        s = (((s ^ r) >> 2) // c) | r


def _under_running_limit(sets, k, limit):
    # the (S, rest) pairs of k-sets whose weight is at most limit and at
    # most that of every pair kept before
    floor = 2 * k
    for s, rest in sets:
        w = floor + rest.bit_count()
        if w <= limit:
            limit = w
            yield s, rest


def _gosper_light_sets(closed, n, k, limit, tables=None):
    # oracle for solver._light_sets: the Gosper k-sets under the same
    # running limit; tables, the solver's own, is not read
    if k == 0:
        if n <= limit:
            yield 0, (1 << n) - 1
        return
    yield from _under_running_limit(_gosper_sets(closed, n, k), k, limit)


def _assert_sweeps_agree(g: Graph) -> None:
    n = g.n
    closed = g.closed
    for k in range(n + 2):
        for limit in range(-1, 2 * n + 2):
            got = list(
                solver._light_sets(closed, n, k, limit, solver._tables(closed, n))
            )
            assert got == list(_gosper_light_sets(closed, n, k, limit)), (
                g.edges(),
                k,
                limit,
            )


@pytest.mark.parametrize("n", range(8))
def test_light_sets_matches_gosper_sweep_on_every_class(n):
    # same sets, same order, same running limit, for every size up to n + 1
    # (no k-set) and every limit from -1 (nothing) to 2n + 1 (all records)
    for rep, _ in isomorphism_classes(n):
        _assert_sweeps_agree(graph_from_edge_mask(n, rep))


def test_light_sets_matches_gosper_sweep_random():
    rng = random.Random(58)
    for n in range(8, 14):
        for p in (0.15, 0.4):
            _assert_sweeps_agree(random_graph(rng, n, p))


def test_light_sets_matches_gosper_sweep_below_the_split_order():
    # orders 8 and 9, past the class test and below _SPLIT_ORDER, where the
    # last level runs the one shared range of all the vertices: seeded G(n, p)
    # from sparse to dense, every size and every limit
    rng = random.Random(29)
    for n in (8, 9):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9):
            _assert_sweeps_agree(random_graph(rng, n, p))


def _with_hub(base: Graph, spokes: list[int], at_end: bool) -> Graph:
    # base plus one vertex adjacent to the spokes, numbered n when at_end,
    # else 0 with the base shifted up by one
    n = base.n
    hub, shift = (n, 0) if at_end else (0, 1)
    edges = [(u + shift, v + shift) for u, v in base.edges()]
    edges += [(hub, v + shift) for v in spokes]
    return graph_new(n + 1, edges)


def _path_below_block(p: int, q: int, prob: float, seed: int) -> Graph:
    # a path on the vertices 0..p-1 joined at p-1 to a seeded G(q, prob) on
    # the vertices above it: the closed neighborhoods below a path vertex x
    # reach only 0..x, so whatever a prefix of least element x leaves of
    # the path above x + 1 stays uncovered, however large r * top[x] is
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(p)]
    edges += [
        (u, v)
        for u in range(p, p + q)
        for v in range(u + 1, p + q)
        if rng.random() < prob
    ]
    return graph_new(p + q, edges)


def _prefix_bound_graphs() -> list[Graph]:
    # graphs on which the prefix bound skips prefixes: cycles, whose
    # perfect codes at orders 15, 18 and 21 reach need exactly; a hub of
    # degree 6 at the highest index, so that every top[x] is 3, below the
    # hub's 7, and at the lowest; unions swept whole; paths below dense
    # blocks, where the reach clause skips prefixes that top[x] alone
    # admits; seeded G(n, p)
    graphs = [gen_family("cycle", n) for n in range(14, 23)]
    c16 = gen_family("cycle", 16)
    spokes = [0, 3, 6, 9, 12, 14]
    graphs += [_with_hub(c16, spokes, at_end) for at_end in (True, False)]
    c6, c9 = gen_family("cycle", 6), gen_family("cycle", 9)
    graphs += [
        _disjoint_union(c9, c9),
        _disjoint_union(c6, c6, c6),
        _disjoint_union(gen_family("path", 7), c9, graph_new(1)),
    ]
    graphs += [
        _path_below_block(10, 8, 1.0, 3),
        _path_below_block(11, 9, 0.5, 3),
        _path_below_block(16, 6, 0.7, 3),
    ]
    rng = random.Random(62)
    graphs += [
        random_graph(rng, n, rng.choice((0.12, 0.2))) for n in range(16, 23)
    ]
    return graphs


def test_light_sets_prefix_bound_matches_gosper_sweep():
    # each graph swept whole at every size from 2 to gamma / 2 and the
    # limits gamma - 1 .. gamma + 1, where need is high enough for the
    # bound to skip prefixes at every level
    for g in _prefix_bound_graphs():
        n = g.n
        closed = g.closed
        gamma = solver._lightest(closed, n, n)[0]
        for k in range(2, gamma // 2 + 1):
            sets = list(_gosper_sets(closed, n, k))
            for limit in (gamma - 1, gamma, gamma + 1):
                got = list(
                    solver._light_sets(closed, n, k, limit, solver._tables(closed, n))
                )
                assert got == list(_under_running_limit(sets, k, limit)), (
                    g.edges(),
                    k,
                    limit,
                )


def _stars_on_sparse(n: int, rng: random.Random) -> Graph:
    # a seeded sparse G(n, p) with one or two hubs at drawn vertices, each
    # joined to a third to a half of the others: a few large closed
    # neighborhoods among many small ones
    edges = {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12
    }
    for hub in rng.sample(range(n), rng.choice((1, 2))):
        others = [v for v in range(n) if v != hub]
        for v in rng.sample(others, rng.randrange(n // 3, n // 2 + 1)):
            edges.add((min(hub, v), max(hub, v)))
    return graph_new(n, sorted(edges))


def test_light_sets_filtered_leaf_matches_gosper_sweep_on_skewed_degrees(monkeypatch):
    # from _SPLIT_ORDER up the last level runs only the y below x with
    # |N[y]| >= need - |cov|; on stars joined to sparse graphs of orders
    # 12-22, swept whole at every size from 2 to gamma / 2 and the limits
    # gamma - 1 .. gamma + 1, the sets and their order are the Gosper
    # sweep's, and some threshold list leaves vertices out
    built = []
    real = solver._tables

    def kept(closed, n):
        tables = real(closed, n)
        built.append((n, tables[2]))
        return tables

    monkeypatch.setattr(solver, "_tables", kept)
    rng = random.Random(27)
    for n in range(12, 23):
        for _ in range(4):
            g = _stars_on_sparse(n, rng)
            closed = g.closed
            gamma = solver._lightest(closed, n, n)[0]
            for k in range(2, gamma // 2 + 1):
                sets = list(_gosper_sets(closed, n, k))
                for limit in (gamma - 1, gamma, gamma + 1):
                    got = list(
                        solver._light_sets(closed, n, k, limit, solver._tables(closed, n))
                    )
                    assert got == list(_under_running_limit(sets, k, limit)), (
                        g.edges(),
                        k,
                        limit,
                    )
    assert all(by is not None for _, by in built)
    assert any(ys is not None and len(ys) < n for n, by in built for ys in by)


def test_tables_are_built_once_per_solve_and_filter_from_the_split_order(monkeypatch):
    # one _tables per _lightest or _sweep_pairs call, however many sizes it
    # sweeps; from _SPLIT_ORDER up with threshold lists, and one packing
    # once it sweeps a size past 2; below it every threshold reads one range
    # of all the vertices, and no packing is built
    c9 = gen_family("cycle", 9).closed
    _, _, by, pack = solver._tables(c9, 9)
    assert by == [range(9)] * 4 and pack == 0
    assert all(ys is by[0] for ys in by)
    for n in (solver._SPLIT_ORDER, 21):
        closed = gen_family("cycle", n).closed
        assert solver._tables(closed, n)[2] == [None] * 4
        tables = solver._tables(closed, n)
        assert tables[3] is None
        list(solver._light_sets(closed, n, 2, n, tables))
        assert tables[3] is None
        list(solver._light_sets(closed, n, 3, n, tables))
        assert tables[3] == solver._packing(closed) != 0
    built, swept, packed = [], [], []
    real_tables, real_sweep = solver._tables, solver._light_sets
    real_packing = solver._packing

    def tables(closed, n):
        built.append(n)
        return real_tables(closed, n)

    def sweep(closed, n, k, limit, tables, below=0):
        swept.append((k, tables is None))
        return real_sweep(closed, n, k, limit, tables)

    def packing(closed):
        packed.append(len(closed))
        return real_packing(closed)

    monkeypatch.setattr(solver, "_tables", tables)
    monkeypatch.setattr(solver, "_light_sets", sweep)
    monkeypatch.setattr(solver, "_packing", packing)
    rng = random.Random(5)
    graphs = [random_graph(rng, n, 0.3) for n in (10, 11, 12, 13, 14, 15)]
    graphs += [gen_family("cycle", n) for n in (10, 21)]
    several = deep = shallow = 0
    for g in graphs:
        n, closed = g.n, g.closed
        built.clear(), swept.clear(), packed.clear()
        gamma = solver._lightest(closed, n, n)[0]
        assert built == [n] and not any(none for _, none in swept)
        assert packed == ([n] if max(k for k, _ in swept) > 2 else [])
        several += len(swept) > 1
        deep += packed != []
        built.clear(), swept.clear(), packed.clear()
        assert solver._sweep_pairs(closed, n, gamma)
        assert built == [n] and not any(none for _, none in swept)
        assert packed == ([n] if max(k for k, _ in swept) > 2 else [])
        several += sum(k > 1 for k, _ in swept) > 1
        shallow += packed == []
    assert several >= 4 and deep >= 2 and shallow >= 2
    built.clear(), swept.clear(), packed.clear()
    assert solver._sweep_pairs(c9, 9, 6)
    assert built == [9] and swept == [(3, False)]
    # below the split order no packing is built, by any solve
    rng = random.Random(6)
    for n in range(solver._SPLIT_ORDER):
        for p in (0.2, 0.5):
            g = random_graph(rng, n, p)
            assert real_tables(g.closed, n)[3] == 0
            roman_number(g), minimal_partitions(g), gamma_at_most(g, n // 2)
    assert packed == []


def _greedy_packing(closed) -> int:
    # the vertices by ascending (|N[v]|, v), each kept when N[v] misses the
    # closed neighborhoods kept before
    pack = used = 0
    for v in sorted(range(len(closed)), key=lambda v: (closed[v].bit_count(), v)):
        if not closed[v] & used:
            used |= closed[v]
            pack |= 1 << v
    return pack


def _packing_graphs() -> list[Graph]:
    # seeded G(n, p) of orders 10-24 from sparse to dense, cycles, complete
    # graphs and unions of them, whose closed twins share one mask, and
    # stars on sparse graphs
    rng = random.Random(28)
    graphs = [
        random_graph(rng, n, p)
        for n in range(10, 25)
        for p in (0.08, 0.15, 0.3, 0.6, 0.9)
    ]
    graphs += [gen_family("cycle", n) for n in (10, 17, 24)]
    graphs += [gen_family("complete", n) for n in (10, 13)]
    k4, k5 = gen_family("complete", 4), gen_family("complete", 5)
    graphs += [_disjoint_union(k4, k5, k4), _disjoint_union(k5, graph_new(6))]
    graphs += [_stars_on_sparse(n, rng) for n in range(10, 25, 2)]
    return graphs


def test_tables_packing_is_a_maximal_2_packing():
    # from the split order up, the pack a sweep of size 3 puts in the
    # tables has pairwise disjoint closed neighborhoods, every vertex
    # outside it has a closed neighborhood meeting one of them, and it is
    # the greedy one by ascending (|N[v]|, v)
    for g in _packing_graphs():
        n, closed = g.n, g.closed
        tables = solver._tables(closed, n)
        list(solver._light_sets(closed, n, 3, n, tables))
        pack = tables[3]
        members = [v for v in range(n) if pack >> v & 1]
        assert members, g.edges()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert not closed[u] & closed[v], (g.edges(), u, v)
        for v in range(n):
            if not pack >> v & 1:
                assert any(closed[v] & closed[u] for u in members), (g.edges(), v)
        assert pack == _greedy_packing(closed), g.edges()


def _star_on_path(n: int, rng: random.Random) -> Graph:
    # a path with a star joined at a drawn path vertex by its center or by
    # a leaf, its vertices relabeled by a seeded permutation
    leaves = rng.randrange(3, n // 2)
    p = n - leaves - 1
    edges = [(v, v + 1) for v in range(p - 1)]
    edges += [(p, v) for v in range(p + 1, n)]
    edges.append((rng.randrange(p), p if rng.random() < 0.5 else n - 1))
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(graph_new(n, edges), perm)


def _forest(n: int, rng: random.Random) -> Graph:
    # a seeded random forest: each vertex joins a drawn earlier one, or
    # starts a new tree, its vertices relabeled by a seeded permutation
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(graph_new(n, edges), perm)


def _sparse_split_order_graphs() -> list[Graph]:
    # paths, stars joined to paths, forests and G(n, 0.08-0.2), of orders
    # _SPLIT_ORDER to 22: where the degree bound is weakest
    rng = random.Random(281)
    graphs = []
    for n in range(solver._SPLIT_ORDER, 23):
        graphs.append(gen_family("path", n))
        graphs.append(_star_on_path(n, rng))
        graphs.append(_forest(n, rng))
        graphs.append(random_graph(rng, n, (0.08, 0.12, 0.16, 0.2)[n % 4]))
    return graphs


def test_light_sets_matches_gosper_sweep_on_sparse_graphs():
    # from _SPLIT_ORDER up, on sparse graphs swept whole at every size from
    # 2 to gamma / 2 and the limits gamma - 1 .. gamma + 1, the sets and
    # their order are the Gosper sweep's
    for g in _sparse_split_order_graphs():
        n = g.n
        closed = g.closed
        gamma = solver._lightest(closed, n, n)[0]
        for k in range(2, gamma // 2 + 1):
            sets = list(_gosper_sets(closed, n, k))
            for limit in (gamma - 1, gamma, gamma + 1):
                got = list(
                    solver._light_sets(closed, n, k, limit, solver._tables(closed, n))
                )
                assert got == list(_under_running_limit(sets, k, limit)), (
                    g.edges(),
                    k,
                    limit,
                )


class _Reads(list):
    # a list that records the index of every read
    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


def _admitted_prefixes(closed, n, k, limit, pack, below=0):
    # the least element x of every prefix the depth-first sweep of the
    # k-sets, k >= 2, tests against the degree bound, in its order, and the
    # number of prefixes it takes to the last level, when it skips a prefix
    # of cover cov with r elements still to pick on x adding fewer than
    # pmin = need + below + 2 - n - 2k vertices to the cover of the elements
    # above it (before the degree bound), on |cov| + r * top[x] < need, on
    # |cov | reach[x]| < need or, above the last level, on
    # |pack & ~cov| > n - need + r, need rising at every set light enough
    top = [max([c.bit_count() for c in closed[:x]], default=0) for x in range(n)]
    reach = [0] * n
    for x in range(1, n):
        reach[x] = reach[x - 1] | closed[x - 1]
    need = n + 2 * k - limit
    pmin = need + below + 2 - n - 2 * k
    tested, leaves = [], 0

    def visit(r, hi, above):
        nonlocal need, pmin, leaves
        for x in range(r, hi):
            cov = above | closed[x]
            if cov.bit_count() - above.bit_count() < pmin:
                continue
            tested.append(x)
            if (
                cov.bit_count() + r * top[x] < need
                or (cov | reach[x]).bit_count() < need
                or r > 1 and (pack & ~cov).bit_count() > n - need + r
            ):
                continue
            if r > 1:
                visit(r - 1, x, cov)
                continue
            leaves += 1
            for y in range(x):
                if (cov | closed[y]).bit_count() >= need:
                    need = (cov | closed[y]).bit_count()
                    pmin = need + below + 2 - n - 2 * k

    visit(k - 1, n, 0)
    return tested, leaves


def _least_weight(closed, n, k):
    # the least Roman weight of a k-set, from every k-set
    if k == 0:
        return n
    return 2 * k + min(rest.bit_count() for _, rest in _gosper_sets(closed, n, k))


def test_light_sets_tests_exactly_the_prefixes_the_bounds_admit():
    # from _SPLIT_ORDER up the sweep tests the prefixes, and takes to the
    # last level the ones, that the four clauses admit, the packing clause
    # read with the greedy 2-packing and the private-vertex clause with
    # below the least weight of the (k-1)-sets: not one more (a looser
    # bound or a test skipped where it fires) and not one fewer; and the
    # packing clause and the private-vertex clause each skip prefixes the
    # others admit
    stronger = private = 0
    for g in _sparse_split_order_graphs():
        n, closed = g.n, g.closed
        pack = _greedy_packing(closed)
        gamma = solver._lightest(closed, n, n)[0]
        for k in range(2, gamma // 2 + 1):
            below = _least_weight(closed, n, k - 1)
            for limit in (gamma - 1, gamma, gamma + 1):
                top, reach, by, _ = solver._tables(closed, n)
                tested, leaves = [], []
                tables = (_Reads(top, tested), reach, _Reads(by, leaves), pack)
                list(solver._light_sets(closed, n, k, limit, tables, below))
                want = _admitted_prefixes(closed, n, k, limit, pack, below)
                assert (tested, len(leaves)) == want, (g.edges(), k, limit)
                stronger += want != _admitted_prefixes(closed, n, k, limit, 0, below)
                private += want != _admitted_prefixes(closed, n, k, limit, pack)
    assert stronger >= 20 and private >= 20


def test_light_sets_with_below_matches_a_brute_force_sweep():
    # with below the least weight of the (k-1)-sets, on seeded G(n, p) of
    # orders 8-14 at every size from 2 and the limits below - 3 .. below + 1,
    # the sets and their order are those of every k-set under the running
    # limit
    rng = random.Random(30)
    cases = 0
    for n in range(8, 15):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            g = random_graph(rng, n, p)
            closed = g.closed
            for k in range(2, n + 1):
                below = _least_weight(closed, n, k - 1)
                sets = list(_gosper_sets(closed, n, k))
                for limit in range(below - 3, below + 2):
                    got = list(
                        solver._light_sets(
                            closed, n, k, limit, solver._tables(closed, n), below
                        )
                    )
                    assert got == list(_under_running_limit(sets, k, limit)), (
                        g.edges(),
                        k,
                        limit,
                    )
                    cases += 1
    assert cases > 1000


def test_roman_number_matches_oracle_on_sparse_graphs():
    # seeded paths with stars, forests and G(n, 0.08-0.2) of orders
    # _SPLIT_ORDER to 12, where the packing bound skips the most: the value
    # is the 3^n oracle's and the witness a Roman assignment of that weight
    rng = random.Random(2812)
    graphs = []
    for n in range(solver._SPLIT_ORDER, 13):
        for _ in range(6):
            graphs.append(_star_on_path(n, rng))
            graphs.append(_forest(n, rng))
            graphs.append(random_graph(rng, n, rng.choice((0.08, 0.12, 0.16, 0.2))))
    for g in graphs:
        res = roman_number(g)
        assert res.gamma == roman_number_oracle(g), g.edges()
        assert is_roman(g, res.witness) and res.witness.weight == res.gamma


def test_roman_number_matches_gosper_sweep(monkeypatch):
    rng = random.Random(59)
    graphs = [
        random_graph(rng, n, p)
        for n in range(15, 21)
        for p in (0.15, 0.2, 0.3)
    ]
    graphs += [gen_family("cycle", n) for n in range(3, 22)]
    got = [roman_number(g) for g in graphs]
    calls = []

    def gosper(closed, n, k, limit, tables, below=0):
        calls.append(k)
        return _gosper_light_sets(closed, n, k, limit)

    monkeypatch.setattr(solver, "_light_sets", gosper)
    assert got == [roman_number(g) for g in graphs]
    # the swap was swept through, at sizes past 2 as well
    assert max(calls) > 2


# -- the size floors ---------------------------------------------------------


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return graph_new(n, {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps})


def _floor_graphs() -> list[Graph]:
    # graphs where a size's floor is tight (cycles, paths, regular graphs) or
    # degenerate (Delta = 0, a vertex covering all), with isolated vertices,
    # and unions below and above _SPLIT_ORDER; seeded G(n, p) last
    petersen = graph_new(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    q4 = graph_new(
        16, [(u, u ^ 1 << b) for u in range(16) for b in range(4) if u < u ^ 1 << b]
    )
    graphs = [gen_family("cycle", n) for n in range(3, 21)]
    graphs += [gen_family("path", n) for n in range(1, 15)]
    graphs += [petersen, q4]
    graphs += [_circulant(n, jumps) for n, jumps in ((12, (1, 3)), (13, (1, 5)), (15, (1, 4)))]
    graphs += [gen_family("complete", n) for n in range(1, 11)]
    graphs += [graph_new(n, [(0, v) for v in range(1, n)]) for n in range(2, 13)]
    graphs += [graph_new(n) for n in range(13)]
    c5, c7, p4 = gen_family("cycle", 5), gen_family("cycle", 7), gen_family("path", 4)
    graphs += [
        _disjoint_union(c7, graph_new(2)),
        _disjoint_union(graph_new(1), gen_family("cycle", 9), graph_new(2)),
        _disjoint_union(c5, p4),
        _disjoint_union(c5, gen_family("cycle", 6), gen_family("complete", 2)),
        _disjoint_union(gen_family("path", 7), gen_family("cycle", 9), graph_new(1)),
    ]
    # three K2s and isolated vertices: the floors of sizes 1 to 3 are n,
    # the best so far
    k2 = gen_family("complete", 2)
    graphs += [_disjoint_union(k2, k2, k2, graph_new(m)) for m in (3, 6)]
    # a set one over its size's floor before one at the floor: a fan with
    # its hub last, and two hubs, 6 and 7, after the pair {0, 3} that
    # misses vertex 2, while {3, 6} covers all
    graphs += [
        _with_hub(gen_family("path", 4), [0, 1, 2, 3], True),
        graph_new(8, [(0, 1), (0, 6), (1, 6), (2, 6), (3, 4), (3, 5), (3, 7), (4, 7), (5, 7)]),
    ]
    rng = random.Random(63)
    graphs += [random_graph(rng, n, rng.choice((0.15, 0.25, 0.4))) for n in range(8, 19)]
    return graphs


def _brute_force_sweep(g: Graph) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    # every 2-set of every size 0..n // 2 from _gosper_sets, with no floors
    # and no running limit: per size, the least weight and its first set by
    # ascending bitmask, as (w, S, V outside N[S]); and every (S, V outside
    # N[S]) of the least weight over all sizes, by ascending S
    n = g.n
    closed = g.closed
    full = (1 << n) - 1
    least = [(n, 0, full)]
    gamma, pairs = n, [(0, full)]
    for k in range(1, n // 2 + 1):
        first = None
        for s, rest in _gosper_sets(closed, n, k):
            w = 2 * k + rest.bit_count()
            if first is None or w < first[0]:
                first = (w, s, rest)
            if w < gamma:
                gamma, pairs = w, []
            if w == gamma:
                pairs.append((s, rest))
        least.append(first)
    return least, sorted(pairs)


@pytest.fixture(scope="module")
def floor_sweeps():
    # the brute-force sweep of each floor graph, shared by the tests below
    return [(g, *_brute_force_sweep(g)) for g in _floor_graphs()]


def test_roman_number_and_partitions_match_a_brute_force_sweep(floor_sweeps):
    # the first minimizer is the least weight, then the smallest size, then
    # the smallest bitmask; the minimum assignments are every pair of that
    # weight, by ascending 2-set bitmask
    for g, least, pairs in floor_sweeps:
        gamma, _, s, rest = min((w, k, s, rest) for k, (w, s, rest) in enumerate(least))
        res = roman_number(g)
        assert (res.gamma, res.witness.label_mask(2), res.witness.label_mask(1)) == (
            gamma,
            s,
            rest,
        ), g.edges()
        got = [(a.label_mask(2), a.label_mask(1)) for a in minimal_partitions(g)]
        assert got == pairs, g.edges()


def _reference_floors(closed, n):
    # floors[k] from the definition: 2k plus what the k largest closed
    # neighborhoods, summed, leave of n
    sizes = sorted((c.bit_count() for c in closed), reverse=True)
    return [2 * k + max(0, n - sum(sizes[:k])) for k in range(n // 2 + 1)]


def test_floors_and_the_sizes_lightest_sweeps(floor_sweeps, monkeypatch):
    # on C_n every closed neighborhood has 3 vertices
    for n in range(3, 27):
        closed = gen_family("cycle", n).closed
        want = [2 * k + max(0, n - 3 * k) for k in range(n // 2 + 1)]
        assert solver._floors(closed, n) == want
    # _lightest hands _light_sets each size k from 2 up with 2k below the
    # running best, the least weight of the sizes before it, and a floor
    # below it: never a size from 3 up whose floor is at least best. Size 1
    # is its own pass over the masks, and size 2 runs on the floor 4 plus
    # what twice the largest closed neighborhood leaves of n
    calls = []
    real = solver._light_sets

    def counted(closed, n, k, limit, tables, below=0):
        calls.append((k, limit))
        return real(closed, n, k, limit, tables)

    monkeypatch.setattr(solver, "_light_sets", counted)
    visited = skipped = 0
    for g, least, _ in floor_sweeps:
        n = g.n
        closed = g.closed
        floors = _reference_floors(closed, n)
        assert solver._floors(closed, n) == floors, g.edges()
        top = max(map(int.bit_count, closed), default=0)
        expected, k = [], 2
        best = min(n, least[1][0]) if n > 2 else n
        while 2 * k < best:
            visited += 1
            if (floors[k] if k > 2 else 4 + max(0, n - 2 * top)) < best:
                expected.append((k, best - 1))
            else:
                skipped += 1
            best = min(best, least[k][0])
            k += 1
        calls.clear()
        assert solver._lightest(closed, n, n)[0] == best
        assert calls == expected, g.edges()
    assert 0 < skipped < visited


def test_gamma_at_most_matches_the_brute_force_minima(floor_sweeps):
    # at the limits gamma - 2 .. gamma + 1, on the floor graphs (regular
    # graphs, unions past _SPLIT_ORDER) and on C21-C26, gamma_r(C_n) =
    # ceil(2n / 3) (Cockayne et al., 2004)
    cases = [(g, min(w for w, _, _ in least)) for g, least, _ in floor_sweeps]
    cases += [(gen_family("cycle", n), -(-2 * n // 3)) for n in range(21, 27)]
    for g, gamma in cases:
        for limit in range(gamma - 2, gamma + 2):
            assert gamma_at_most(g, limit) == (gamma <= limit), (g.edges(), limit)


def test_gamma_at_most_below_gamma_on_cycles_sweeps_no_set(monkeypatch):
    # on C_n no k-set weighs less than n - k, and every size 2k < gamma has
    # n - k >= gamma: below gamma the floors alone answer, C24 at 15 too
    calls = []

    def counted(closed, n, k, limit, tables):
        calls.append((k, limit))
        return iter(())

    monkeypatch.setattr(solver, "_light_sets", counted)
    for n in range(6, 27):
        assert not gamma_at_most(gen_family("cycle", n), -(-2 * n // 3) - 1)
    assert calls == []


def test_gamma_at_most_stops_at_its_first_set_light_enough(floor_sweeps, monkeypatch):
    # on graphs swept as one part, at gamma and gamma + 1: after the first
    # set drawn, which weighs at most the limit, no set is drawn and no size
    # is swept
    events = []
    real = solver._light_sets

    def recorded(closed, n, k, limit, tables, below=0):
        events.append(None)
        for s, rest in real(closed, n, k, limit, tables):
            events.append(2 * k + rest.bit_count())
            yield s, rest

    monkeypatch.setattr(solver, "_light_sets", recorded)
    stopped = 0
    for g, least, _ in floor_sweeps:
        if g.n >= solver._SPLIT_ORDER and len(g.component_masks()) > 1:
            continue
        gamma = min(w for w, _, _ in least)
        for limit in (gamma, gamma + 1):
            events.clear()
            assert gamma_at_most(g, limit)
            draws = [i for i, w in enumerate(events) if w is not None]
            assert draws in ([], [len(events) - 1]), (g.edges(), limit, events)
            assert all(events[i] <= limit for i in draws)
            stopped += len(draws)
    assert stopped > 20


def test_lightest_and_sweep_pairs_promise_below_what_every_smaller_set_weighs(
    floor_sweeps, monkeypatch
):
    # _lightest passes each size the best weight at its start, one over the
    # limit it sweeps under, and _sweep_pairs passes gamma, its limit; both
    # are at most the least weight of the sets one size smaller, the
    # promise the private-vertex clause of _light_sets reads
    calls = []
    real = solver._light_sets

    def spied(closed, n, k, limit, tables, below=0):
        calls.append((closed, n, k, limit, below))
        return real(closed, n, k, limit, tables, below)

    monkeypatch.setattr(solver, "_light_sets", spied)
    lightest = pairs = 0
    for g, least, _ in floor_sweeps:
        n, closed = g.n, g.closed
        gamma = min(w for w, _, _ in least)
        calls.clear()
        assert solver._lightest(closed, n, n)[0] == gamma
        for limit in (gamma - 1, gamma):
            assert gamma_at_most(g, limit) == (gamma <= limit)
        for sub, m, k, limit, below in calls:
            assert below == limit + 1 <= _least_weight(sub, m, k - 1), (g.edges(), k)
            lightest += 1
        calls.clear()
        assert solver._sweep_pairs(closed, n, gamma)
        for _, _, k, limit, below in calls:
            assert below == limit == gamma, (g.edges(), k)
            pairs += k >= 2
    assert lightest > 100 and pairs > 50


def test_sweep_guard_boundary_between_c26_and_c27():
    # gamma_r charges the sizes 1..(n - 2) // 2 on a cycle: C26's 28.4M
    # sets pass the guard, C27's 47.1M do not
    c26 = gen_family("cycle", 26)
    assert gamma_r(c26) == 18
    assert not gamma_at_most(c26, 17)
    with pytest.raises(TooLarge, match="of up to 47,050,563 vertex sets"):
        gamma_r(gen_family("cycle", 27))


def test_sweep_guard_charges_gamma_at_most_no_more_than_gamma_r():
    # the star of order 30 has n - Delta = 1, so no limit is refused,
    # though a charge of limit // 2 would refuse every limit from 20 up
    star = graph_new(30, [(0, v) for v in range(1, 30)])
    assert gamma_r(star) == 2
    assert [gamma_at_most(star, limit) for limit in range(30)] == [
        limit >= 2 for limit in range(30)
    ]


def test_lightest_solves_the_cycles_the_guard_refuses():
    # C27-C40 are refused by the guard, yet the prefix bound sweeps each
    # in well under a millisecond: gamma_r(C_n) = ceil(2n / 3), and the
    # first 2-set leaves exactly the vertices it reports outside N[S]
    for n in range(27, 41):
        closed = gen_family("cycle", n).closed
        t0 = time.perf_counter()
        w, s, rest = solver._lightest(closed, n, n)
        assert time.perf_counter() - t0 < 0.1
        cov = 0
        for v in range(n):
            if s >> v & 1:
                cov |= closed[v]
        assert (w, rest) == (-(-2 * n // 3), (1 << n) - 1 & ~cov)
        assert w == 2 * s.bit_count() + rest.bit_count()


@pytest.mark.parametrize(
    "g", [gen_family("cycle", 30), gen_family("path", 30)], ids=["C30", "P30"]
)
def test_sweep_guard_refuses_order_30_at_once(g):
    # a limit of 20 charges the sizes 1..10, 53.0M sets; it stays below
    # n - Delta + 1, where gamma_at_most would be charged as gamma_r is
    guard = f"guard of {solver.SWEEP_MAX_SETS:,}"
    for call in (gamma_r, roman_number, lambda h: gamma_at_most(h, 20)):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match=guard):
            call(g)
        assert time.perf_counter() - t0 < 0.1


def _disjoint_union(*parts: Graph) -> Graph:
    edges, base = [], 0
    for h in parts:
        edges += [(u + base, v + base) for u, v in h.edges()]
        base += h.n
    return graph_new(base, edges)


def test_empty_graph_of_order_30_is_solved_by_components():
    # 30 K1 components, nothing to sweep: charged whole, it was 614M sets
    e30 = graph_new(30)
    res = roman_number(e30)
    assert (res.gamma, res.witness.labels) == (30, (1,) * 30)
    assert gamma_at_most(e30, 30) and not gamma_at_most(e30, 29)


def test_sweep_guard_admits_two_c20_by_components():
    # each C20 is charged 0.43M sets, where the whole order-40 graph would
    # be charged 481G; the witness is the two C20 witnesses side by side
    c20 = gen_family("cycle", 20)
    g = _disjoint_union(c20, c20)
    assert gamma_r(g) == 28
    assert gamma_at_most(g, 28) and not gamma_at_most(g, 27)
    one = roman_number(c20).witness
    both = roman_number(g).witness
    for label in (1, 2):
        assert both.label_mask(label) == one.label_mask(label) * (1 | 1 << 20)


def test_sweep_guard_sums_the_charge_over_components():
    # each C26 alone is charged 28.4M sets and admitted; together 56.7M
    # pass SWEEP_MAX_SETS, refused before either is swept
    c26 = gen_family("cycle", 26)
    g = _disjoint_union(c26, c26)
    for call in (gamma_r, roman_number, lambda h: gamma_at_most(h, 35)):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="of up to 56,708,262 vertex sets"):
            call(g)
        assert time.perf_counter() - t0 < 0.1


def _relabeled_union(rng: random.Random, parts: list[Graph]) -> Graph:
    g = _disjoint_union(*parts)
    return relabel(g, rng.sample(range(g.n), g.n))


def _disconnected_graphs() -> list[Graph]:
    # components interleaved by a seeded relabeling, so each one's
    # renumbering is not a shift; order _SPLIT_ORDER - 1, solved whole,
    # comes last so that the orders above it keep their seeded draws
    rng = random.Random(61)
    out = []
    for n in [*range(solver._SPLIT_ORDER, 23), solver._SPLIT_ORDER - 1]:
        # G(n, p) sparse enough to fall apart
        out.append(random_graph(rng, n, rng.choice((0.08, 0.12, 0.16))))
        # many small components, isolated vertices and K2s among them
        parts, left = [], n
        while left:
            m = min(left, rng.randrange(1, 6))
            parts.append(random_graph(rng, m, 0.6))
            left -= m
        out.append(_relabeled_union(rng, parts))
        # one large component with K1s
        k1s = rng.randrange(1, 4)
        big = random_graph(rng, n - k1s, 0.3)
        out.append(_relabeled_union(rng, [big] + [graph_new(1)] * k1s))
        # a perfect matching, plus an isolated vertex at odd order
        out.append(
            _relabeled_union(rng, [graph_new(2, [(0, 1)])] * (n // 2) + [graph_new(n % 2)])
        )
    return out


def test_split_matches_whole_graph_sweep():
    # the split's oracle: the unsplit sweep over all n vertices gives the
    # same gamma, first 2-set and 1-set, and gamma_at_most agrees with it
    graphs = _disconnected_graphs()
    assert all(len(g.connected_components()) > 1 for g in graphs)
    for g in graphs:
        closed = g.closed
        whole = solver._lightest(closed, g.n, g.n)
        assert solver.gamma_mask(closed, g.n) == whole, g.edges()
        for limit in range(-1, 2 * g.n + 1):
            assert gamma_at_most(g, limit) == (whole[0] <= limit), (g.edges(), limit)


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
        g = random_graph(rng, rng.randrange(1, 8))
        masks = [a.label_mask(2) for a in minimal_partitions(g)]
        assert masks == sorted(masks)


def test_minimal_partitions_complete_vs_product_scan():
    rng = random.Random(56)
    for _ in range(150):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
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
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
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
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
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
    for g in (graph_new(25), gen_family("cycle", 30)):
        with pytest.raises(TooLarge, match="capped at order 24, got"):
            minimal_partitions(g)


def test_partitions_split_matches_whole_graph_sweep():
    # the products of the components' partitions against one sweep over all
    # n vertices: the same (V2, V1) pairs in the same order
    checked = 0
    for g in _disconnected_graphs():
        if g.n > 16:  # the whole sweep of a perfect matching grows as 3^(n/2)
            continue
        closed = g.closed
        whole = solver._sweep_pairs(closed, g.n, gamma_r(g))
        assert solver._partition_pairs(closed, g.n) == whole, g.edges()
        assert solver._partition_pairs(closed, g.n, gamma_r(g)) == whole
        checked += 1
    assert checked == 32


def test_partitions_split_with_known_gamma_solves_all_but_the_last(monkeypatch):
    # gamma_r adds over the components, so a supplied gamma leaves the last
    # component's weight known: one large component plus K1s is swept once,
    # never solved
    rng = random.Random(62)
    big = random_graph(rng, 11, 0.4)
    while len(big.connected_components()) > 1:
        big = random_graph(rng, 11, 0.4)
    solved = []
    real = solver._lightest
    monkeypatch.setattr(
        solver, "_lightest", lambda *a: solved.append(a[1]) or real(*a)
    )
    for parts, solves in (([big, graph_new(1), graph_new(1)], 0), ([big, big], 1)):
        g = _relabeled_union(rng, parts)
        gamma = gamma_r(g)
        closed = g.closed
        solved.clear()
        got = solver._partition_pairs(closed, g.n, gamma)
        assert len(solved) == solves
        assert got == solver._sweep_pairs(closed, g.n, gamma)


def test_minimal_partitions_of_small_components():
    # a K1 is labeled 1 and a K2 is (1, 1), (2, 0) or (0, 2), so C5 with
    # a K1 and a K2 has C5's partitions times three
    g = _disjoint_union(gen_family("cycle", 5), graph_new(1), gen_family("complete", 2))
    c5 = [a.labels for a in minimal_partitions(gen_family("cycle", 5))]
    got = [a.labels for a in minimal_partitions(g)]
    assert sorted(got) == sorted(
        c + (1,) + k2 for c in c5 for k2 in ((1, 1), (2, 0), (0, 2))
    )
    masks = [a.label_mask(2) for a in minimal_partitions(g)]
    assert masks == sorted(masks)


def test_minimal_partitions_of_two_c12_by_components():
    # order 24, the cap: 3 x 3 partitions from the two C12s, where one sweep
    # over all 24 vertices took a few hundred times longer than C12 alone
    c12 = gen_family("cycle", 12)
    one = [(a.label_mask(2), a.label_mask(1)) for a in minimal_partitions(c12)]
    t0 = time.perf_counter()
    both = minimal_partitions(_disjoint_union(c12, c12))
    assert time.perf_counter() - t0 < 0.05
    assert [(a.label_mask(2), a.label_mask(1)) for a in both] == sorted(
        (s | t << 12, r | q << 12) for s, r in one for t, q in one
    )
    assert all(a.weight == 16 for a in both)


# -- monotonicity ------------------------------------------------------------


def test_edge_deletion_never_lowers_gamma():
    rng = random.Random(90)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 9))
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        assert gamma_r(g.delete_edge(u, v)) >= gamma_r(g)


def test_edge_subset_deletion_never_lowers_gamma():
    rng = random.Random(92)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 10))
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
        g = random_graph(rng, n)
        gamma = gamma_r(g)
        for v in range(n):
            assert gamma_r(g.delete_vertex(v)) >= gamma - 2
