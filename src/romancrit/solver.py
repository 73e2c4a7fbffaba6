"""Exact Roman domination.

A Roman assignment labels every vertex 0, 1, or 2 so that each 0-vertex has
a 2-labeled neighbor; its weight is |V1| + 2|V2|. The solver finds the
minimum weight by sweeping 2-labeled candidate sets S in ascending-size
order and charging 2|S| plus one for every vertex left outside N[S]: any
minimum-weight assignment has exactly the vertices outside N[V2] labeled 1,
so the sweep is exhaustive. One sweep primitive, ``_light_sets``, serves
gamma_r, its witness, ``minimal_partitions`` and ``gamma_at_most``. It
visits the sets of one size depth first in ascending bitmask order, each
level adding one vertex's closed neighborhood to the cover its prefix
carries. At every level it skips a prefix that cannot reach the cover a
light enough set needs: the r elements still to pick all lie below the
prefix's least element x, so they add at most r times the largest closed
neighborhood below x, and nothing outside the union of the closed
neighborhoods below x. This is the same 2n / (Delta + 1) bound that gives
the size floors below, applied to each prefix.

The last level applies the bound to each vertex. A prefix of cover cov
needs its last element y to lift the cover to need, and y adds at most
|N[y]| vertices, so only a y with |N[y]| >= need - |cov| can; need only
rises during the sweep, so skipping every other y leaves the sets yielded,
and their order, as they are. The last level therefore runs, in ascending
y below x, a list by[t] of vertices for t = need - |cov|.

From order _SPLIT_ORDER up every level above the last also applies a
packing bound. A 2-packing P is a set of vertices whose closed
neighborhoods are pairwise disjoint, and |P| is at most the domination
number (Meir and Moon 1975). No closed neighborhood N[y] holds two
vertices p, q of P, since y would then lie in N[p] and in N[q]. So the r
elements still to pick under a prefix of cover cov cover at most r
vertices of P outside cov, and a prefix with |P & ~cov| > n - need + r
leaves more than n - need vertices uncovered under every set it heads:
it is skipped, and, need only rising, the sets yielded and their order
stay as they are. The bound is strongest on sparse graphs, where the
degree bound above is weakest. At the last level a skip saves only one
pass over the prefix's candidates: tested there too, the bound made
gamma_r on sparse and dense G(16-20, p) and C15-C21 about 2% slower
(best of 5 per graph, Python 3.11, x86-64). One
greedy P, ``_packing``, serves a whole solve. It is built on the first
sweep of size 3 or more, the first with a level above the last, so a
solve that stops at size 2 builds none, and the test is skipped at the
levels where it cannot fire, |P| <= n - need + r.

Every level also applies a private-vertex bound, the fact that every vertex
labeled 2 in a minimum Roman assignment has private neighbors (Cockayne,
Dreyer, Hedetniemi and Hedetniemi 2004), taken size by size. Take a k-set S
of weight w, an element x of S, and S - x: it loses only the vertices x
alone covers, and it pays 2 less. When the caller promises that every
(k-1)-set weighs at least below, w >= below + 2 - p, p being the vertices
x adds to the cover of the elements picked above it, which hold every
vertex x alone covers. So a prefix whose least element x adds fewer than
pmin = below + 2 - limit vertices heads no set of weight at most limit, and
it is skipped; limit only falls, so pmin only rises, and the sets yielded
and their order stay as they are. The last level needs no test: its y adds
exactly the vertices it alone covers, so every set light enough already
meets the bound. below = 0 promises nothing new, since no weight is
negative: pmin = 2 - limit then never fires. _lightest passes the best
weight at the start of each size, so pmin starts at 3; _sweep_pairs passes
gamma_r, its limit, so pmin is 2: an x adding at most one vertex would
leave S - x lighter than gamma_r, while an x adding two leaves a set of
equal weight, and the minimum sets that tie are all still listed.

top, reach, by and P are the tables of one solve, ``_tables``, built once
per ``_lightest`` or ``_sweep_pairs`` call that reaches size 2. The order
gate picks the tables there: from _SPLIT_ORDER up by[t] lists the y of
|N[y]| >= t, filled on first use; below it every by[t] is one range of all
the vertices and P is empty: on graphs that small the filtered lists and P
cost more than the work they save. It picks the plan in gamma_r,
``gamma_at_most`` and ``minimal_partitions`` (see ``_components``).

One size loop, ``_lightest``, answers gamma_r and ``gamma_at_most``: the
yes/no question, which the criticality predicates ask of each graph they
derive through ``_at_most`` on its masks, is the loop asked for a set below
limit + 1 and stopped at the first one of weight at most limit. Size 1 is
one pass over the masks. The loop reads each size's floor, ``_floors``: a
k-set covers at most the sum of its members' closed neighborhoods, so none
weighs less than 2k + max(0, n - the sum of the k largest), the bound
gamma_r >= 2n / (Delta + 1) of Cockayne, Dreyer, Hedetniemi and Hedetniemi
(2004) taken size by size. It skips a size whose floor is at least the best
weight found and stops a size at its first set of exactly the floor or of
weight at most the stop weight. Size 2 reads the floor that twice the largest closed
neighborhood gives, and the floors of sizes 3 up are sorted only on
reaching size 3, which spares small graphs the sort. The minimum partitions
skip a size whose floor is above gamma_r (see _sweep_pairs).

gamma_r, gamma_at_most and minimal_partitions all follow one plan,
``_components``: the isolated vertices, each labeled 1, and the parts to
sweep, from order _SPLIT_ORDER up; smaller graphs are swept whole. A
connected graph is its own one part, and each connected component of a
disconnected graph other than a K1 is a part, renumbered in ascending vertex
order, which keeps bitmask order. A Roman assignment of G is one per
component, so weight, 2-set size and 2-set bitmask (on disjoint bits) all
add over the components: gamma_r is the sum of the parts' values and the
isolated vertices, the first minimizer, smallest 2-set size then smallest
bitmask, is the union of the parts' first minimizers, and the minimum
assignments are the products of the parts' own. gamma_at_most solves every
part but the last for its weight within the room the others leave, and
sweeps the last only up to the first set light enough.

The sweep is exponential in gamma_r, so the plan refuses with TooLarge,
before sweeping, an input whose sets of every size the sweeps may reach
number more than SWEEP_MAX_SETS, summed over the parts. A separate oracle
enumerates labelings by ascending weight and shares nothing with that
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatch, TooLarge
from .graphs import Graph, component_walk

ORACLE_MAX_ORDER = 12
PARTITIONS_MAX_ORDER = 24
# Most candidate 2-sets the sweeps for one gamma_r may be charged (see
# _check_sweep). The charge counts every set of the sizes a sweep may reach,
# the prefixes _light_sets skips among them and the sizes the floors skip,
# so it overstates the work by orders of magnitude: C26, charged 28.4M and
# the largest cycle admitted, solves in 0.13 ms and C24 (7.0M) in 0.13 ms
# (best of 5, Python 3.11, x86-64); C27 (47.1M) and C30 (459M) are refused.
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
# several times the loss on dense graphs. It stays at most _SWEEP_FREE_ORDER,
# since gamma_mask, _at_most and _partition_pairs solve smaller graphs
# without the plan and its guard. _tables reads it too: below it the last
# level runs one range of all the vertices, and no packing is built. The
# threshold lists start at this order: built below it, they made gamma_r,
# gamma_at_most and the partitions of every class of orders 0-7 take 20%
# longer (11.2 against 9.3 ms, best of 40, Python 3.11, x86-64). So does
# the packing: built below it, it made gamma_r of the classes of orders 6
# and 7 take 8% and 11% longer (best of 30, Python 3.11, x86-64).
_SPLIT_ORDER = 10


@dataclass(frozen=True)
class RomanAssignment:
    labels: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.labels)

    def label_set(self, label: int) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.labels) if x == label)

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


def _packing(closed: Sequence[int]) -> int:
    """The vertex mask of a maximal 2-packing, a set of vertices whose
    closed neighborhoods are pairwise disjoint: the vertices taken by
    ascending |N[v]|, then ascending v, each kept when N[v] misses the
    closed neighborhoods of those kept before. The sort is stable, so equal
    sizes stay in ascending v, and index finds the first of equal masks,
    the one kept when closed twins share it."""
    pack = used = 0
    for c in sorted(closed, key=int.bit_count):
        if not c & used:
            used |= c
            pack |= 1 << closed.index(c)
    return pack


def _tables(closed: Sequence[int], n: int) -> list:
    """[top, reach, by, pack] for the sweeps of one solve: top[x] is the
    largest closed neighborhood below x and reach[x] the union of those
    closed neighborhoods, for the prefix bound; by[t] holds, ascending, the
    vertices y the last level runs at threshold t. From order _SPLIT_ORDER
    up, by[t] is filled on first use with the y of |N[y]| >= t, and pack is
    None until the first sweep of size 3 or more puts _packing(closed)
    there. Below it every by[t] is one range(n), and pack is 0, on which
    the packing bound never fires. Below that order a shared list of the
    (y, N[y]) pairs made gamma_r and the partitions of every class of
    orders 0-7 take 3.7% longer than no list at all, and the range 0.7%
    (four processes a tree, best of 60 rounds, Python 3.11, x86-64).
    """
    top, reach, m, acc = [0], [0], 0, 0
    for c in closed:
        if c.bit_count() > m:
            m = c.bit_count()
        acc |= c
        top.append(m)
        reach.append(acc)
    if n < _SPLIT_ORDER:
        return [top, reach, [range(n)] * (m + 1), 0]
    return [top, reach, [None] * (m + 1), None]


def _light_sets(
    closed: Sequence[int],
    n: int,
    k: int,
    limit: int,
    tables: list | None,
    below: int = 0,
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
    need = n + 2k - limit vertices. Every level skips a prefix, of least
    element x and cover cov with r elements still to pick, when
    |cov| + r * top[x] or |cov | reach[x]| falls short of need, top[x]
    being the largest closed neighborhood below x and reach[x] the union
    of those closed neighborhoods: no set under it reaches need, and need
    only ever rises, so the sets yielded are the same, in the same order.
    The last level runs the y below x in by[need - |cov|], from order
    _SPLIT_ORDER up only those with |N[y]| >= need - |cov|, and every level
    above the last also skips a prefix with |pack & ~cov| > n - need + r,
    pack being a 2-packing, whose vertices each closed neighborhood meets
    at most once, for the same reason. tables is the caller's
    _tables(closed, n), unread at sizes 0 and 1; a sweep of size 3 or more
    fills in its pack.

    below promises that no (k-1)-set weighs less. Every level skips, first,
    a prefix whose least element x adds fewer than pmin = below + 2 - limit
    vertices to the cover of the elements picked above it, limit being the
    running limit, n + 2k - need: no set under it weighs at most limit (see
    the module docstring). The default, 0, holds for every graph and never
    fires.
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
    # the element picked one level up, and the last level, k-2, runs the
    # smallest inline
    top, reach, by, pack = tables
    last = k - 2
    if pack is None and last:
        # the packing test runs above the last level only, so a solve
        # builds its packing on its first sweep of size 3 or more
        pack = tables[3] = _packing(closed)
    # the packing test can fire only where |pack| > n - need + k - 1 - d
    dead = n + k - 1 - (pack or 0).bit_count()
    # the least element of a prefix adds at least pmin vertices to the
    # cover of those above it, or the prefix is skipped
    pmin = need + below + 2 - n - 2 * k
    picked = [0] * last
    covs = [0] * (last + 1)
    cnts = [0] * (last + 1)
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
            continue
        cov = covs[d] | closed[x]
        cb = cov.bit_count()
        if (
            cb - cnts[d] < pmin
            or cb + (k - 1 - d) * top[x] < need
            or (cov | reach[x]).bit_count() < need
        ):
            x += 1
        elif d == last:
            # the prefix bound passed, so t <= top[x]; t <= 0 when cov
            # alone reaches need, and by[0] takes every vertex
            t = need - cb
            if t < 0:
                t = 0
            ys = by[t]
            if ys is None:
                ys = by[t] = [y for y, c in enumerate(closed) if c.bit_count() >= t]
            for y in ys:
                if y >= x:
                    break
                c = cov | closed[y]
                if c.bit_count() >= need:
                    need = c.bit_count()
                    pmin = need + below + 2 - n - 2 * k
                    yield sets[d] | 1 << x | 1 << y, full ^ c
            x += 1
        elif d + need > dead and (pack & ~cov).bit_count() > n - need + k - 1 - d:
            x += 1
        else:
            picked[d] = x
            covs[d + 1] = cov
            cnts[d + 1] = cb
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
    gamma_r admits. _components skips it up to order _SWEEP_FREE_ORDER,
    where it cannot fire.
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


def _components(
    closed: Sequence[int], n: int, limit: int
) -> tuple[int, list[tuple[list[int] | None, Sequence[int]]]]:
    """The solve plan: the mask of the isolated vertices, and the parts to
    sweep, each as its vertices in ascending order and its closed
    neighborhoods renumbered in that order, by ascending least vertex.

    A connected graph is the one part, with vertices None and its own
    masks; otherwise every component but a K1 is a part. Graphs below order
    _SPLIT_ORDER are solved without it. Raises TooLarge when the sweeps for
    a weight at most limit would pass SWEEP_MAX_SETS (see _check_sweep).
    """
    full = (1 << n) - 1
    lone, parts = 0, []
    for comp in component_walk(closed, full):
        if comp == full:
            parts.append((None, closed))
            break
        if comp.bit_count() == 1:
            lone |= comp
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
    if n > _SWEEP_FREE_ORDER:
        _check_sweep([sub for _, sub in parts], n, limit)
    return lone, parts


def _lift(mask: int, verts: Sequence[int] | None) -> int:
    """A part's mask back on the graph's vertices: bit i to verts[i], or
    the mask itself for the whole graph."""
    if verts is None:
        return mask
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


def _floors(closed: Sequence[int], n: int) -> list[int]:
    """floors[k], k = 0..n // 2: the least Roman weight of a 2-set of size
    k, 2k + max(0, n - the sum of the k largest closed neighborhoods).

    A k-set covers at most the sum of its members' closed neighborhoods, and
    every vertex it leaves uncovered is labeled 1, so no k-set weighs less.
    This is the bound gamma_r >= 2n / (Delta + 1) of Cockayne, Dreyer,
    Hedetniemi and Hedetniemi (2004), taken size by size. No sweep passes
    size n // 2, since labeling every vertex 1 weighs n.
    """
    floors = [n]
    rest = n
    for k, c in enumerate(sorted(map(int.bit_count, closed), reverse=True)[: n // 2], 1):
        rest -= c
        floors.append(2 * k + max(rest, 0))
    return floors


def _lightest(
    closed: Sequence[int], n: int, best: int, enough: int = 0
) -> tuple[int, int, int]:
    """(w, S, V outside N[S]) for the first 2-set S, smallest size then
    smallest bitmask, of the least weight w below best, or (best, 0, V) when
    none weighs less. With best = n, the weight of every vertex labeled 1,
    that is the minimum Roman weight and its first 2-set. The sweep stops at
    the first set of weight at most enough: with best = limit + 1 and
    enough = limit, w <= limit says whether any set weighs at most limit
    (see _at_most). With enough = 0 it never stops early.

    Size 1 is one pass over the masks: its first lightest set is the first
    vertex of the largest closed neighborhood, of top vertices, so no 2-set
    covers more than 2 * top and the floor of size 2 is 4 + max(0, n - 2 *
    top). No k-set weighs less than its floor (see _floors), so a size whose
    floor is at least best is skipped, and a size stops at its first set of
    exactly the floor or of weight at most enough: no later set of that size
    is lighter than the floor, and a larger size replaces it only when
    strictly lighter. The floors of sizes 3 up are computed on reaching size
    3, which spares small graphs their sort.

    Each size is swept with below = best as it stands at the size's start
    (see _light_sets): every smaller set weighs at least that, since the
    empty set weighs n, at least best, size 1 is a pass to its least weight,
    and each size from 2 was swept to its end, skipped by its floor, or
    stopped at its floor; a stop at enough ends the loop.
    """
    best_s, best_rest = 0, (1 << n) - 1
    if 2 < best > enough:
        c = max(closed, key=int.bit_count)
        top = c.bit_count()
        w = n + 2 - top
        if w < best:
            best, best_s, best_rest = w, 1 << closed.index(c), best_rest ^ c
    floors = tables = None
    k = 2
    while 2 * k < best > enough:
        if k == 3:
            floors = _floors(closed, n)
        floor = floors[k] if floors else 4 + max(0, n - 2 * top)
        if floor < best:
            if tables is None:
                tables = _tables(closed, n)
            for s, rest in _light_sets(closed, n, k, best - 1, tables, best):
                w = 2 * k + rest.bit_count()
                if w < best:
                    best, best_s, best_rest = w, s, rest
                    if w == floor or w <= enough:
                        break
        k += 1
    return best, best_s, best_rest


def gamma_mask(closed: Sequence[int], n: int) -> tuple[int, int, int]:
    """(gamma, S, V outside N[S]) from the closed-neighborhood masks: the
    minimum Roman weight, its first 2-set (smallest size, then smallest
    bitmask) and the vertices that 2-set leaves to be labeled 1, summed over
    the parts of the plan (see _components). Below order _SPLIT_ORDER the
    masks go straight to the part's sweep.
    """
    if n < _SPLIT_ORDER:
        return _lightest(closed, n, n)
    lone, parts = _components(closed, n, n)
    gamma, s, rest = lone.bit_count(), 0, lone
    for verts, sub in parts:
        w, s_part, rest_part = _lightest(sub, len(sub), len(sub))
        gamma += w
        s |= _lift(s_part, verts)
        rest |= _lift(rest_part, verts)
    return gamma, s, rest


def gamma_r(g: Graph) -> int:
    """The Roman domination number."""
    return gamma_mask(g.closed, g.n)[0]


def _at_most(closed: Sequence[int], n: int, limit: int) -> bool:
    """True iff some Roman assignment of the graph with these closed
    neighborhoods weighs at most limit; gamma_at_most on masks.

    Unless every vertex labeled 1 fits, it is _lightest asked for a set
    below limit + 1 that stops at the first one of weight at most limit.
    From order _SPLIT_ORDER up, every part of the plan but the last is
    solved for its weight within the room the others leave, counting 2 for
    each part not yet solved, and the last part is asked the question with
    the room left. A part that does not fit, or a room below 0 from the
    start, leaves the room at -1 after that part; every later part, asked
    for a set below 2, weighs 2 and keeps it there.
    """
    if n <= limit:  # every vertex labeled 1
        return True
    if n < _SPLIT_ORDER:
        return _lightest(closed, n, limit + 1, limit)[0] <= limit
    lone, parts = _components(closed, n, limit)
    # a connected graph of order 2 or more weighs at least 2
    room = limit - lone.bit_count() - 2 * len(parts)
    last = len(parts) - 1
    for i, (_, sub) in enumerate(parts):
        m, cap = len(sub), room + 2
        w = _lightest(sub, m, min(m, cap + 1), cap if i == last else 0)[0]
        room -= w - 2
    return room >= 0


def gamma_at_most(g: Graph, limit: int) -> bool:
    """True iff gamma_r(g) <= limit: some Roman assignment weighs at most limit.

    Sets are swept in gamma_r's order, by ascending size and bitmask, up to
    size limit // 2, and the last part's sweep stops at the first one light
    enough, so no set is visited that gamma_r would not. Raises TooLarge
    past SWEEP_MAX_SETS (see _check_sweep).
    """
    return _at_most(g.closed, g.n, limit)


def roman_number(g: Graph) -> GammaResult:
    """gamma_r plus a minimum witness assignment.

    The witness 2-set is the first minimizer by ascending size, then
    ascending bitmask (vertex i on bit i); its 1-set is everything the
    2-set fails to dominate.
    """
    gamma, s, rest = gamma_mask(g.closed, g.n)
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
    vertices, by ascending V2 bitmask; gamma is the minimum weight.

    A size whose floor (see _floors) is above gamma is skipped: no k-set
    weighs less than its floor, so no minimum assignment has a 2-set of
    that size. Below gamma 6 only sizes 0 to 2 are swept, on the bare
    floor 2k, and the floors' sort is spared: where the floor would skip
    one of them, _light_sets rejects it in one pass over the masks. Size 1
    is that pass, and at size 2 the sum of the two largest closed
    neighborhoods falls short of the cover needed, so the prefix bound
    rejects every prefix. The sizes share one _tables, built when gamma
    reaches 4, the least weight of a size-2 set, so a graph swept only at
    sizes 0 and 1 builds none. Each size is swept with below = gamma, which
    no set undercuts: a prefix is skipped only when its least element adds
    at most one vertex, so the minimum sets that tie are all listed.
    """
    floors = _floors(closed, n) if gamma >= 6 else (0, 2, 4)
    tables = _tables(closed, n) if gamma >= 4 else None
    return sorted(
        hit
        for k in range(gamma // 2 + 1)
        if floors[k] <= gamma
        for hit in _light_sets(closed, n, k, gamma, tables, gamma)
    )


def _partitions_guard(n: int) -> None:
    """Refuse a partition enumeration past PARTITIONS_MAX_ORDER."""
    if n > PARTITIONS_MAX_ORDER:
        raise TooLarge(
            f"partition enumeration capped at order {PARTITIONS_MAX_ORDER}, got {n}"
        )


def _partition_pairs(
    closed: Sequence[int], n: int, gamma: int | None = None
) -> list[tuple[int, int]]:
    """(V2, V1) masks of every minimum Roman assignment, by ascending V2
    bitmask: minimal_partitions on closed-neighborhood masks, the product
    of the parts' own.

    A known gamma_r passed as gamma spares one solve: gamma_r adds over the
    parts, so the last part weighs what the others leave. The order cap
    comes first, before gamma_r is solved. Below order _SPLIT_ORDER the
    masks go straight to the sweep.
    """
    _partitions_guard(n)
    if n < _SPLIT_ORDER:
        if gamma is None:
            gamma = _lightest(closed, n, n)[0]
        return _sweep_pairs(closed, n, gamma)
    lone, parts = _components(closed, n, n)
    left = None if gamma is None else gamma - lone.bit_count()
    pairs = [(0, lone)]
    for i, (verts, sub) in enumerate(parts):
        m = len(sub)
        if left is not None and i == len(parts) - 1:
            w = left
        else:
            w = _lightest(sub, m, m)[0]
            if left is not None:
                left -= w
        options = _sweep_pairs(sub, m, w)
        if verts is None:  # the whole graph: no isolated vertices, no product
            return options
        options = [(_lift(s, verts), _lift(r, verts)) for s, r in options]
        pairs = [(s | s2, r | r2) for s, r in pairs for s2, r2 in options]
    pairs.sort()
    return pairs


def minimal_partitions(g: Graph) -> list[RomanAssignment]:
    """All minimum-weight Roman assignments, by ascending 2-set bitmask.

    Every minimum assignment labels exactly the undominated vertices 1
    (a dominated 1 could be relabeled 0 for less weight), so enumerating
    2-sets S with 2|S| + |V outside N[S]| = gamma_r is exhaustive, and
    2|S| <= gamma_r bounds the sweep to |S| <= gamma_r // 2. Guard: order
    <= 24.
    """
    n = g.n
    return [
        _assignment_from_masks(n, s, m1)
        for s, m1 in _partition_pairs(g.closed, n)
    ]
