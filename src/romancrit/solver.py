"""Exact Roman domination.

A Roman assignment labels every vertex 0, 1, or 2 so that each 0-vertex has
a 2-labeled neighbor; its weight is |V1| + 2|V2|. The solver finds the
minimum weight by sweeping 2-labeled candidate sets S in ascending-size
order and charging 2|S| plus one for every vertex left outside N[S]: any
minimum-weight assignment has exactly the vertices outside N[V2] labeled 1,
so the sweep is exhaustive. A separate oracle enumerates labelings by
ascending weight and shares nothing with that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .errors import LengthMismatch, TooLarge
from .graphs import Graph

ORACLE_MAX_ORDER = 12
PARTITIONS_MAX_ORDER = 24


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


def _subsets_of_size(n: int, k: int) -> Iterator[int]:
    """Bitmasks of popcount k over n bits, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((m ^ r) >> 2) // c) | r


def _assignment_from_masks(n: int, m2: int, m1: int) -> RomanAssignment:
    return RomanAssignment(
        tuple(2 if m2 >> v & 1 else 1 if m1 >> v & 1 else 0 for v in range(n))
    )


def gamma_mask(closed: Sequence[int], n: int) -> tuple[int, int]:
    """(gamma, S) from the closed-neighborhood masks: the minimum Roman
    weight and its first 2-set, smallest size then smallest bitmask."""
    if n == 0:
        return 0, 0
    full = (1 << n) - 1
    best = n
    best_s = 0
    k = 1
    while 2 * k < best:
        floor = 2 * k
        for s in _subsets_of_size(n, k):
            cov = 0
            t = s
            while t:
                low = t & -t
                cov |= closed[low.bit_length() - 1]
                t ^= low
            w = floor + (full & ~cov).bit_count()
            if w < best:
                best = w
                best_s = s
                if w == floor:
                    break
        k += 1
    return best, best_s


def _closed_masks(g: Graph) -> list[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def gamma_r(g: Graph) -> int:
    """The Roman domination number."""
    return gamma_mask(_closed_masks(g), g.n)[0]


def roman_number(g: Graph) -> GammaResult:
    """gamma_r plus a minimum witness assignment.

    The witness 2-set is the first minimizer by ascending size, then
    ascending bitmask (vertex i on bit i); its 1-set is everything the
    2-set fails to dominate.
    """
    if g.n == 0:
        return GammaResult(0, RomanAssignment(()))
    closed = _closed_masks(g)
    gamma, s = gamma_mask(closed, g.n)
    cov = 0
    t = s
    while t:
        low = t & -t
        cov |= closed[low.bit_length() - 1]
        t ^= low
    return GammaResult(gamma, _assignment_from_masks(g.n, s, g.full_mask & ~cov))


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


def minimal_partitions(g: Graph) -> list[RomanAssignment]:
    """All minimum-weight Roman assignments, by ascending 2-set bitmask.

    Every minimum assignment labels exactly the undominated vertices 1
    (a dominated 1 could be relabeled 0 for less weight), so enumerating
    2-sets S with 2|S| + |V outside N[S]| = gamma_r is exhaustive, and
    2|S| <= gamma_r bounds the sweep to |S| <= gamma_r // 2.
    Guard: order <= 24.
    """
    if g.n > PARTITIONS_MAX_ORDER:
        raise TooLarge(
            f"partition enumeration capped at order {PARTITIONS_MAX_ORDER}, got {g.n}"
        )
    n = g.n
    closed = _closed_masks(g)
    gamma = gamma_mask(closed, n)[0]
    full = (1 << n) - 1
    hits = []
    for k in range(gamma // 2 + 1):
        for s in _subsets_of_size(n, k):
            cov = 0
            t = s
            while t:
                low = t & -t
                cov |= closed[low.bit_length() - 1]
                t ^= low
            if 2 * k + (full & ~cov).bit_count() == gamma:
                hits.append((s, full & ~cov))
    hits.sort()
    return [_assignment_from_masks(n, s, m1) for s, m1 in hits]
