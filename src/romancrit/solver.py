"""Exact Roman domination.

A Roman assignment labels every vertex 0, 1, or 2 so that each 0-vertex has
a 2-labeled neighbor; its weight is |V1| + 2|V2|. The solver finds the
minimum weight by sweeping 2-labeled candidate sets S in ascending-size
order and charging 2|S| plus one for every vertex left outside N[S]: any
minimum-weight assignment has exactly the vertices outside N[V2] labeled 1,
so the sweep is exhaustive. One sweep primitive, ``_light_sets``, serves
gamma_r, its witness, ``minimal_partitions`` and ``gamma_at_most``, the
yes/no question that stops at the first set light enough. It visits the
sets of one size depth first in ascending bitmask order, each level adding
one vertex's closed neighborhood to the cover its prefix carries.
``gamma_at_most`` wraps ``_at_most``, the same question on the masks,
which the criticality predicates ask of each graph they derive.

From order _SPLIT_ORDER up, gamma_r, gamma_at_most and minimal_partitions
solve a disconnected graph one connected component at a time. A Roman
assignment of G is one per component, so weight, 2-set size and 2-set
bitmask (on disjoint bits) all add over the components: gamma_r is the sum
of the components' values, the first minimizer, smallest 2-set size then
smallest bitmask, is the union of the components' first minimizers, and the
minimum assignments are the products of the components' own. Each component
of order 3 or more is renumbered in ascending vertex order, which keeps
bitmask order, and swept on its own; K1 and K2 components weigh their order,
all labeled 1.

The sweep is exponential in gamma_r, so gamma_r, roman_number and
gamma_at_most refuse with TooLarge, before sweeping, an input whose sets of
every size the sweeps may reach number more than SWEEP_MAX_SETS, summed over
the components swept. A separate oracle enumerates labelings by ascending
weight and shares nothing with that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatch, TooLarge
from .graphs import Graph

ORACLE_MAX_ORDER = 12
PARTITIONS_MAX_ORDER = 24
# Most candidate 2-sets one gamma_r sweep may visit: at the measured 2.7M
# sets/s the largest admitted sweep runs about twelve seconds (2^25 / 2.7M). C24 (7.0M)
# passes, C30 (459M) is refused.
SWEEP_MAX_SETS = 1 << 25
# Up to this order all 2^n - 1 nonempty sets fit under SWEEP_MAX_SETS, so
# the guard cannot fire there and is not evaluated.
_SWEEP_FREE_ORDER = SWEEP_MAX_SETS.bit_length() - 1
# Graphs of at least this order are solved one connected component at a
# time. Looking for components costs a connected graph 0.7-0.9 us a call,
# 2.0 -> 2.7 us at order 9 and 2.3 -> 3.2 us at order 10 on G(n, 0.5).
# Sparse graphs gain from order 8: on G(n, p), p drawn from 0.1-0.5, order 8
# took 3.6 us split against 4.9 us whole, order 10 6.5 against 12.6 us
# (seeded, Python 3.11, x86-64). From order 10 the gain on such a mix is
# several times the loss on dense graphs.
_SPLIT_ORDER = 10


@dataclass(frozen=True)
class RomanAssignment:
    labels: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.labels)

    def label_set(self, label: int) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.labels) if x == label)

    @property
    def v0(self) -> frozenset[int]:
        return self.label_set(0)

    @property
    def v1(self) -> frozenset[int]:
        return self.label_set(1)

    @property
    def v2(self) -> frozenset[int]:
        return self.label_set(2)

    def label_mask(self, label: int) -> int:
        m = 0
        for v, x in enumerate(self.labels):
            if x == label:
                m |= 1 << v
        return m


@dataclass(frozen=True)
class GammaResult:
    gamma: int
    witness: RomanAssignment


def is_roman(g: Graph, assignment: RomanAssignment | Sequence[int]) -> bool:
    """True iff every 0-labeled vertex has a 2-labeled neighbor."""
    labels = assignment.labels if isinstance(assignment, RomanAssignment) else assignment
    if len(labels) != g.n:
        raise LengthMismatch(f"expected {g.n} labels, got {len(labels)}")
    m2 = 0
    for v, x in enumerate(labels):
        if x == 2:
            m2 |= 1 << v
        elif x not in (0, 1):
            raise ValueError(f"label {x!r} at vertex {v} not in {{0, 1, 2}}")
    for v, x in enumerate(labels):
        if x == 0 and not g.adj[v] & m2:
            return False
    return True


def _light_sets(
    closed: Sequence[int], n: int, k: int, limit: int
) -> Iterator[tuple[int, int]]:
    """(S, V outside N[S]) for the k-sets S, by ascending bitmask, whose
    Roman weight 2k + |V outside N[S]| is at most limit and at most that of
    every set yielded before.

    With limit at the minimum weight that is every minimum k-set; with a
    higher limit the weights never rise, so the first set of the least
    weight is the first minimizer. Ascending bitmask order is colex order, so
    the sweep is depth first: it picks the largest element first, carries
    the cover of the elements picked so far down a stack, and at the last
    level runs the lowest element under that prefix, one OR and one
    bit_count per set. A weight at most limit is a cover of at least
    n + 2k - limit vertices.
    """
    full = (1 << n) - 1
    if k == 0:
        if n <= limit:
            yield 0, full
        return
    need = n + 2 * k - limit
    if k == 1:
        for v, c in enumerate(closed):
            if c.bit_count() >= need:
                need = c.bit_count()
                yield 1 << v, full ^ c
        return
    # depth d picks the (d+1)-th largest element x, from k-1-d up to below
    # the element picked one level up; the last level, k-2, picks the
    # second smallest and runs the smallest inline
    last = k - 2
    picked = [0] * last
    covs = [0] * (last + 1)
    sets = [0] * (last + 1)
    d = 0
    x = k - 1
    hi = n
    while True:
        if x >= hi:
            if d == 0:
                return
            d -= 1
            x = picked[d] + 1
            hi = picked[d - 1] if d else n
        elif d == last:
            cov = covs[d] | closed[x]
            y = 0
            for c in closed[:x]:
                if (cov | c).bit_count() >= need:
                    c |= cov
                    need = c.bit_count()
                    yield sets[d] | 1 << x | 1 << y, full ^ c
                y += 1
            x += 1
        else:
            picked[d] = x
            covs[d + 1] = covs[d] | closed[x]
            sets[d + 1] = sets[d] | 1 << x
            d += 1
            hi = x
            x = k - 1 - d


def _check_sweep(
    components: Iterable[Sequence[int]], n: int, limit: int
) -> None:
    """Refuse sweeps for a Roman weight at most limit whose sets number more
    than SWEEP_MAX_SETS in total; gamma_r raises rather than truncate.

    Each component swept, given by its closed-neighborhood masks, is charged
    its sets of sizes 1..K, K = min(limit, m - Delta) // 2, at order m and
    top degree Delta. A vertex of top degree labeled 2 and the vertices
    outside its closed neighborhood labeled 1 weigh m - Delta + 1, so no
    sweep passes size (m - Delta) // 2, and gamma_at_most refuses no graph
    gamma_r admits. Callers skip it up to order _SWEEP_FREE_ORDER, where it
    cannot fire.
    """
    sets = 0
    for closed in components:
        m = len(closed)
        k_max = min(limit, m + 1 - max(map(int.bit_count, closed))) // 2
        sets += sum(comb(m, k) for k in range(1, k_max + 1))
    if sets > SWEEP_MAX_SETS:
        raise TooLarge(
            f"gamma_r sweep of up to {sets:,} vertex sets at order {n} exceeds "
            f"the guard of {SWEEP_MAX_SETS:,}"
        )


def _split(
    closed: Sequence[int], n: int
) -> tuple[int, list[tuple[list[int], list[int]]]] | None:
    """None if the graph is connected. Otherwise the vertices of its K1 and
    K2 components as one mask, and each other component, by ascending least
    vertex, as its vertices in ascending order with their closed
    neighborhoods renumbered in that order.
    """
    full = (1 << n) - 1
    left = full
    small = 0
    parts = []
    while left:
        comp = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            new = closed[low.bit_length() - 1] & ~comp
            comp |= new
            if comp == full:
                return None
            frontier ^= low | new
        left ^= comp
        if comp.bit_count() < 3:
            small |= comp
            continue
        verts = []
        while comp:
            low = comp & -comp
            verts.append(low.bit_length() - 1)
            comp ^= low
        bit = {v: 1 << i for i, v in enumerate(verts)}
        sub = []
        for v in verts:
            c = closed[v]
            m = 0
            while c:
                low = c & -c
                m |= bit[low.bit_length() - 1]
                c ^= low
            sub.append(m)
        parts.append((verts, sub))
    return small, parts


def _lift(mask: int, verts: Sequence[int]) -> int:
    """A component's mask back on the graph's vertices: bit i to verts[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << verts[low.bit_length() - 1]
        mask ^= low
    return out


def _assignment_from_masks(n: int, m2: int, m1: int) -> RomanAssignment:
    return RomanAssignment(
        tuple(2 if m2 >> v & 1 else 1 if m1 >> v & 1 else 0 for v in range(n))
    )


def _lightest(closed: Sequence[int], n: int, best: int) -> tuple[int, int, int]:
    """(w, S, V outside N[S]) for the first 2-set S, smallest size then
    smallest bitmask, of the least weight w below best, or (best, 0, V) when
    none weighs less. With best = n, the weight of every vertex labeled 1,
    that is the minimum Roman weight and its first 2-set.
    """
    best_s = 0
    best_rest = (1 << n) - 1
    k = 1
    while 2 * k < best:
        floor = 2 * k
        for s, rest in _light_sets(closed, n, k, best - 1):
            w = floor + rest.bit_count()
            if w < best:
                best, best_s, best_rest = w, s, rest
                if w == floor:
                    break
        k += 1
    return best, best_s, best_rest


def _gamma_whole(closed: Sequence[int], n: int) -> tuple[int, int, int]:
    """gamma_mask without the component split: one sweep over all n
    vertices, guarded as one component."""
    if n > _SWEEP_FREE_ORDER:
        _check_sweep([closed], n, n)
    return _lightest(closed, n, n)


def gamma_mask(closed: Sequence[int], n: int) -> tuple[int, int, int]:
    """(gamma, S, V outside N[S]) from the closed-neighborhood masks: the
    minimum Roman weight, its first 2-set (smallest size, then smallest
    bitmask) and the vertices that 2-set leaves to be labeled 1.

    From order _SPLIT_ORDER up, a disconnected graph is solved one component
    at a time: gamma is the sum of the components' values, S the union of
    their first 2-sets and the 1-set the union of their leftovers, which is
    the whole graph's first minimizer because size and bitmask add over
    disjoint components. Raises TooLarge past SWEEP_MAX_SETS, charged as the
    sum over the components swept (see _check_sweep).
    """
    split = _split(closed, n) if n >= _SPLIT_ORDER else None
    if split is None:
        return _gamma_whole(closed, n)
    small, parts = split
    if n > _SWEEP_FREE_ORDER:
        _check_sweep([sub for _, sub in parts], n, n)
    gamma, s, rest = small.bit_count(), 0, small
    for verts, sub in parts:
        w, s_part, rest_part = _lightest(sub, len(sub), len(sub))
        gamma += w
        s |= _lift(s_part, verts)
        rest |= _lift(rest_part, verts)
    return gamma, s, rest


def _closed_masks(g: Graph) -> list[int]:
    return [m | 1 << v for v, m in enumerate(g.adj)]


def gamma_r(g: Graph) -> int:
    """The Roman domination number."""
    return gamma_mask(_closed_masks(g), g.n)[0]


def _at_most(closed: Sequence[int], n: int, limit: int) -> bool:
    """True iff some Roman assignment of the graph with these closed
    neighborhoods weighs at most limit; gamma_at_most on masks.

    Size 1 is one pass over the masks: a vertex labeled 2 and the vertices
    outside its closed neighborhood labeled 1 weigh at most limit iff that
    neighborhood has at least n + 2 - limit vertices. Sizes 2 up go
    through _light_sets.
    """
    if n <= limit:  # every vertex labeled 1
        return True
    split = _split(closed, n) if n >= _SPLIT_ORDER else None
    if split is None:
        if n > _SWEEP_FREE_ORDER:
            _check_sweep([closed], n, limit)
        if limit < 2:
            return False
        if max(map(int.bit_count, closed)) >= n + 2 - limit:
            return True
        for k in range(2, min(limit // 2, n) + 1):
            for _ in _light_sets(closed, n, k, limit):
                return True
        return False
    small, parts = split
    if n > _SWEEP_FREE_ORDER:
        _check_sweep([sub for _, sub in parts], n, limit)
    # a connected graph of order 3 or more weighs at least 2
    slack = limit - small.bit_count() - 2 * len(parts)
    if slack < 0:
        return False
    for _, sub in parts:
        m = len(sub)
        cap = slack + 2
        w = _lightest(sub, m, min(m, cap + 1))[0]
        if w > cap:
            return False
        slack -= w - 2
    return True


def gamma_at_most(g: Graph, limit: int) -> bool:
    """True iff gamma_r(g) <= limit: some Roman assignment weighs at most limit.

    On a connected graph, or one below order _SPLIT_ORDER, sets are swept in
    gamma_r's order, by ascending size and bitmask, up to size limit // 2,
    and the sweep stops at the first one light enough. A disconnected graph
    from order _SPLIT_ORDER up is asked whether the sum of its components'
    gamma_r is at most limit: each component is swept only for a weight the
    rest leaves room for, counting 2 for each component not yet swept. Either
    way no set is visited that gamma_r would not. Raises TooLarge past
    SWEEP_MAX_SETS, charged as the sum over the components swept (see
    _check_sweep).
    """
    return _at_most(_closed_masks(g), g.n, limit)


def roman_number(g: Graph) -> GammaResult:
    """gamma_r plus a minimum witness assignment.

    The witness 2-set is the first minimizer by ascending size, then
    ascending bitmask (vertex i on bit i); its 1-set is everything the
    2-set fails to dominate.
    """
    gamma, s, rest = gamma_mask(_closed_masks(g), g.n)
    return GammaResult(gamma, _assignment_from_masks(g.n, s, rest))


def roman_number_oracle(g: Graph) -> int:
    """Minimum weight over all 3^n labelings passing is_roman.

    Enumerates labelings as (V2, V1) pairs grouped by ascending weight and
    returns the first weight admitting a valid one; independent of the
    solver's covering identity. Guard: order <= 12.
    """
    if g.n > ORACLE_MAX_ORDER:
        raise TooLarge(f"oracle capped at order {ORACLE_MAX_ORDER}, got {g.n}")
    n = g.n
    if n == 0:
        return 0
    full = (1 << n) - 1
    verts = range(n)
    for w in range(2 * n + 1):
        for a in range(min(w // 2, n) + 1):
            b = w - 2 * a
            if b < 0 or a + b > n:
                continue
            for v2 in combinations(verts, a):
                m2 = 0
                dom = 0
                for v in v2:
                    m2 |= 1 << v
                    dom |= g.adj[v]
                rest = [v for v in verts if not m2 >> v & 1]
                for v1 in combinations(rest, b):
                    m1 = 0
                    for v in v1:
                        m1 |= 1 << v
                    if not full & ~m2 & ~m1 & ~dom:
                        return w
    raise AssertionError("all-2 labeling is always valid")  # pragma: no cover


def _sweep_pairs(closed: Sequence[int], n: int, gamma: int) -> list[tuple[int, int]]:
    """(V2, V1) of every minimum Roman assignment by one sweep over all n
    vertices, by ascending V2 bitmask; gamma is the minimum weight."""
    return sorted(
        hit
        for k in range(gamma // 2 + 1)
        for hit in _light_sets(closed, n, k, gamma)
    )


def _partition_pairs(
    closed: Sequence[int], n: int, gamma: int | None = None
) -> list[tuple[int, int]]:
    """(V2, V1) masks of every minimum Roman assignment, by ascending V2
    bitmask: minimal_partitions on closed-neighborhood masks.

    From order _SPLIT_ORDER up, a disconnected graph's minimum assignments
    are the products of its components': a K1 is labeled 1, a K2 has (1, 1),
    (2, 0) and (0, 2), and every other component is swept on its own for
    its own gamma_r. A known gamma_r passed as gamma spares one solve either
    way: gamma_r adds over the components, so the last component weighs what
    the others leave. The order cap comes first, before gamma_r is solved.
    """
    if n > PARTITIONS_MAX_ORDER:
        raise TooLarge(
            f"partition enumeration capped at order {PARTITIONS_MAX_ORDER}, got {n}"
        )
    split = _split(closed, n) if n >= _SPLIT_ORDER else None
    if split is None:
        if gamma is None:
            gamma = _gamma_whole(closed, n)[0]
        return _sweep_pairs(closed, n, gamma)
    small, parts = split
    left = None if gamma is None else gamma - small.bit_count()
    lone = 0
    choices = []
    while small:
        v = small & -small
        comp = closed[v.bit_length() - 1]
        small ^= comp
        if comp == v:
            lone |= v
        else:
            choices.append(((0, comp), (v, 0), (comp ^ v, 0)))
    for i, (verts, sub) in enumerate(parts):
        m = len(sub)
        if left is not None and i == len(parts) - 1:
            w = left
        else:
            w = _lightest(sub, m, m)[0]
            if left is not None:
                left -= w
        choices.append(
            [
                (_lift(s, verts), _lift(rest, verts))
                for s, rest in _sweep_pairs(sub, m, w)
            ]
        )
    pairs = [(0, lone)]
    for options in choices:
        pairs = [(s | s2, r | r2) for s, r in pairs for s2, r2 in options]
    pairs.sort()
    return pairs


def minimal_partitions(g: Graph) -> list[RomanAssignment]:
    """All minimum-weight Roman assignments, by ascending 2-set bitmask.

    Every minimum assignment labels exactly the undominated vertices 1
    (a dominated 1 could be relabeled 0 for less weight), so enumerating
    2-sets S with 2|S| + |V outside N[S]| = gamma_r is exhaustive, and
    2|S| <= gamma_r bounds the sweep to |S| <= gamma_r // 2. A disconnected
    graph from order _SPLIT_ORDER up is solved one component at a time (see
    _partition_pairs). Guard: order <= 24.
    """
    n = g.n
    return [
        _assignment_from_masks(n, s, m1)
        for s, m1 in _partition_pairs(_closed_masks(g), n)
    ]
