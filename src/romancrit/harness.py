"""Claim registry and exhaustive verification over small graphs.

Every claim is a per-graph (hypothesis, check) pair. A verification run
scans a source of graphs, counts the ones satisfying the hypothesis, and
collects a counterexample entry for every check diagnostic. Guard errors
raised while evaluating a graph become counterexample entries too: the
harness never silently skips a graph it was asked to verify.

Every source yields scan units (graph, size, copies): a graph standing for
``size`` labeled graphs and a listing of them, called with the graph, None
at size 1.
A file, family list or graph tuple yields one unit per graph, an enumeration
one per isomorphism class. Whether a claim's hypothesis holds and whether
its check reports are isomorphism invariants, so one loop evaluates each
unit once and lists its copies only where a unit of size above 1 reports or
raises; the reports equal those of a scan over every labeled graph. The
classes come from the checked-in ``_class_table``, which covers orders 0-8;
``ENUMERATION_MAX_ORDER`` is its top order, and every enumeration refuses
an order above it.

Each scanned graph gets one ``Facts`` (defined in ``criticality``), which
every claim and ``criticality_report`` read and hand to the predicates; a
copy gets its unit's ``Facts.relabeled``.
"""

from __future__ import annotations

import io
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, repeat
from typing import Callable, Iterator, Sequence

from .errors import InvalidOrder, RomanCritError, TooLarge, UnknownClaim
from .graphs import Graph, gen_family
from .graph6 import GRAPH6_BLANKS, edge_mask, emit_graph6, parse_graph6
from .graph6 import graph_from_edge_mask
# not called here; bench/tracer.py wraps these bindings
from .iso import is_isomorphic  # noqa: F401
from .solver import gamma_r, minimal_partitions  # noqa: F401
from .criticality import _pivot_condition, _saturated_over_partitions  # noqa: F401
from .criticality import (
    Facts,
    e_critical_condition,
    first_gamma_changing_edge,
    first_non_critical_vertex,
    first_non_ecritical_edge,
    first_unsaturated_nonedge,
    nonelementary_by_components,
    saturated_by_partitions,
    v_critical_by_partitions,
)
from .gamma4 import (
    CRITICAL_BUT_UNCLASSIFIED,
    IS_C5,
    IS_DN,
    _cut_structure,
    _witness_pairs_raw,
    catalog_verdict,
    classify_critical4,
    ecrit4_by_degrees,
    first_cut_vertex_without_pendant,
    high_class_bounds,
    local8_conditions,
    local8_fast,
    saturated4_by_degrees,
    vcrit4_by_degrees,
)

ENUMERATION_MAX_ORDER = 8


def _enumeration_guard(n: int) -> None:
    """Refuse an order below 0 or above the class table's top order."""
    if n < 0:
        raise InvalidOrder(f"order must be >= 0, got {n}")
    if n > ENUMERATION_MAX_ORDER:
        raise TooLarge(f"enumeration capped at order {ENUMERATION_MAX_ORDER}, got {n}")


def iter_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs of order n, ascending ``edge_mask``."""
    _enumeration_guard(n)
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)


_CHUNK = 5
_CHUNK_MASK = (1 << _CHUNK) - 1


class EdgePermutations:
    """Images of order-n edge masks under every vertex permutation.

    A mask is cut into 5-bit chunks. For each chunk position and chunk value
    one Python int packs, in one fixed-width field per permutation, the image
    of those edge bits, so the images of a whole mask under every permutation
    are the OR of one int per chunk, unpacked by one ``array``. Fields are 16
    bits up to order 6 and 32 bits at orders 7 and 8, the largest order a
    scan accepts. The tables take 138 KB at order 6 (96 ints of 720
    fields), 2.6 MB at order 7 (130 ints of 5040) and 27 MB at order 8 (168
    ints of 40320). A class scan builds them only once some class expands
    to its labeled copies; the orbit sweep in the tests, which writes
    ``_class_table``, always does.
    """

    __slots__ = ("n", "_code", "_nbytes", "_chunks")

    def __init__(self, n: int):
        self.n = n
        # the pairs in edge-mask order: (i, j) on bit j(j-1)/2 + i
        pairs = [(i, j) for j in range(n) for i in range(j)]
        bit = [[0] * n for _ in range(n)]
        for k, (u, v) in enumerate(pairs):
            bit[u][v] = bit[v][u] = 1 << k
        perms = list(permutations(range(n)))
        self._code = code = "H" if len(pairs) <= 16 else "I"
        self._nbytes = array(code).itemsize * len(perms)
        # bit_images[i]: the edge bit that edge i becomes, one field per perm
        bit_images = [
            int.from_bytes(
                array(code, [bit[p[u]][p[v]] for p in perms]).tobytes(),
                sys.byteorder,
            )
            for u, v in pairs
        ]
        self._chunks = []
        # orders 0 and 1 get one empty chunk, whose only column is zero
        for shift in range(0, max(len(pairs), 1), _CHUNK):
            bits = bit_images[shift : shift + _CHUNK]
            cols = [0]
            for value in range(1, 1 << len(bits)):
                low = value & -value
                cols.append(cols[value ^ low] | bits[low.bit_length() - 1])
            self._chunks.append((shift, cols))

    def orbit(self, mask: int) -> set[int]:
        """Edge masks of every relabeling of the graph with this mask."""
        images = 0
        for shift, cols in self._chunks:
            images |= cols[mask >> shift & _CHUNK_MASK]
        return set(array(self._code, images.to_bytes(self._nbytes, sys.byteorder)))


def isomorphism_classes(n: int) -> list[tuple[int, int]]:
    """One (representative, class size) pair per isomorphism class of order n.

    The representative is the smallest ``graph6.edge_mask`` of its class,
    read back by ``graph_from_edge_mask``, and the size its number of
    labeled copies, n!/|Aut|; pairs come in ascending representative order
    and the sizes sum to 2^C(n,2). Every order is read from the checked-in
    ``_class_table``, whose top order 8 is ``ENUMERATION_MAX_ORDER``; an
    order above it is refused.
    """
    _enumeration_guard(n)
    from ._class_table import CLASSES

    return [
        (int(rep), int(size))
        for rep, size in (token.split(":") for token in CLASSES[n].split())
    ]


@dataclass(frozen=True)
class CriticalityReport:
    gamma: int
    nonelementary: bool
    v_critical: bool
    e_critical: bool
    saturated: bool
    witnesses: dict = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "nonelementary": self.nonelementary,
            "v_critical": self.v_critical,
            "e_critical": self.e_critical,
            "saturated": self.saturated,
            "witnesses": self.witnesses,
            "diagnostics": list(self.diagnostics),
        }


def criticality_report(g: Graph) -> CriticalityReport:
    """One-stop summary read from one ``Facts``: gamma_r, the four
    predicates, their first failures, and the diagnostics of the dual-route
    checks, the e-critical one on v-critical graphs only. Each first failure
    settles its verdict in the ``Facts`` it reads, so no sweep runs twice.
    The partitions are read first, so an order they refuse fails at once."""
    if g.n == 0:
        raise InvalidOrder("criticality report needs order >= 1")
    f = Facts(g)
    f.partitions
    witnesses: dict = {}
    vc = first_non_critical_vertex(f)
    if vc is not None:
        v, after = vc
        witnesses["v_critical"] = {"vertex": v, "gamma_after": after}
    sat = first_unsaturated_nonedge(f)
    if sat is not None:
        u, v, after = sat
        witnesses["saturated"] = {"nonedge": [u, v], "gamma_after": after}
    diagnostics = _chk_vcrit_partitions(f) + _chk_saturated_partitions(f)
    if f.v_critical:
        ec = first_non_ecritical_edge(f)
        if ec is not None:
            witnesses["e_critical"] = {"edge": list(ec)}
        diagnostics += _chk_ecrit_condition(f)
    return CriticalityReport(
        gamma=f.gamma,
        nonelementary=f.nonelementary,
        v_critical=f.v_critical,
        e_critical=f.e_critical,
        saturated=f.saturated,
        witnesses=witnesses,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    hypothesis: Callable[[Facts], bool]
    check: Callable[[Facts], list[str]]


@dataclass(frozen=True)
class Counterexample:
    graph6: str
    diagnostic: str


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    source: str
    graphs_scanned: int
    graphs_in_hypothesis: int
    counterexamples: tuple[Counterexample, ...]
    wall_time_ms: int

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "source": self.source,
            "graphs_scanned": self.graphs_scanned,
            "graphs_in_hypothesis": self.graphs_in_hypothesis,
            "counterexamples": [
                {"graph6": c.graph6, "diagnostic": c.diagnostic}
                for c in self.counterexamples
            ],
        }
        if include_timing:
            out["wall_time_ms"] = self.wall_time_ms
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), indent=2)


# -- claim checks ------------------------------------------------------------


def _is_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and all(d == 2 for d in g.degrees())
        and len(g.component_masks()) == 1
    )


def _dual(name_a: str, val_a: bool, name_b: str, val_b: bool) -> list[str]:
    if val_a != val_b:
        return [f"dual-path-disagreement: {name_a}={val_a} {name_b}={val_b}"]
    return []


def _chk_cycle(f: Facts) -> list[str]:
    n = f.g.n
    k, r = divmod(n, 3)
    diags = []
    if r == 1 and f.gamma != 2 * k + 1:
        diags.append(f"gamma={f.gamma} expected={2 * k + 1} for cycle order {n}")
    if r == 2 and f.gamma != 2 * k + 2:
        diags.append(f"gamma={f.gamma} expected={2 * k + 2} for cycle order {n}")
    expected_vc = r != 0
    if f.v_critical != expected_vc:
        diags.append(
            f"is_v_critical={f.v_critical} expected={expected_vc} for cycle order {n}"
        )
    return diags


def _chk_nonelementary(f: Facts) -> list[str]:
    return _dual(
        "is_nonelementary",
        f.nonelementary,
        "by_components",
        nonelementary_by_components(f),
    )


def _chk_gamma_le_3(f: Facts) -> list[str]:
    n = f.g.n
    by_degree = any(d >= n - 2 for d in f.g.degrees())
    return _dual("gamma_le_3", f.gamma <= 3, "degree_route", by_degree)


def _chk_vcrit_partitions(f: Facts) -> list[str]:
    # the partition route first: it refuses an order above
    # PARTITIONS_MAX_ORDER before gamma_r is solved for the direct route
    by_parts = v_critical_by_partitions(f)
    return _dual("is_v_critical", f.v_critical, "v_critical_by_partitions", by_parts)


def _chk_saturated_partitions(f: Facts) -> list[str]:
    # the partition route first, as in _chk_vcrit_partitions
    by_parts = saturated_by_partitions(f)
    return _dual(
        "is_roman_saturated", f.saturated, "saturated_by_partitions", by_parts
    )


def _chk_edge_removal(f: Facts) -> list[str]:
    hit = first_gamma_changing_edge(f)
    if hit is not None:
        u, v, after = hit
        return [f"deleting edge ({u},{v}) changes gamma {f.gamma}->{after}"]
    return []


def _chk_ecrit_condition(f: Facts) -> list[str]:
    return _dual(
        "is_e_critical",
        f.e_critical,
        "e_critical_condition",
        e_critical_condition(f),
    )


def _chk_elementary4(f: Facts) -> list[str]:
    in_list = catalog_verdict(f) is not None
    return _dual("is_v_critical", f.v_critical, "in_order4_catalog", in_list)


def _chase_lands(pairs: list[list[tuple[int, int]]], x: int, a: int, b: int) -> bool:
    return any(a2 in (x, b) for a2, _ in pairs[a])


def _chk_carac_lemma(f: Facts) -> list[str]:
    g = f.g
    pairs = [_witness_pairs_raw(g, x) for x in range(g.n)]
    all_witnessed = all(pairs)
    diags = _dual(
        "is_v_critical", f.v_critical, "witness_everywhere", all_witnessed
    )
    if f.v_critical and all_witnessed:
        for x in range(g.n):
            for a, b in pairs[x]:
                if not _chase_lands(pairs, x, a, b):
                    diags.append(
                        f"witness chase fails at vertex {x}: no witness of {a} lands in ({x},{b})"
                    )
                    break
    return diags


def _chk_carac2(f: Facts) -> list[str]:
    return _dual(
        "is_v_critical",
        f.v_critical,
        "vcrit4_by_degrees",
        vcrit4_by_degrees(f),
    )


def _chk_half_bound(f: Facts) -> list[str]:
    ok, _ = high_class_bounds(f)
    if not ok:
        return [f"fewer than n/2 vertices of degree n-3 (n={f.g.n})"]
    return []


def _chk_threequarter_bound(f: Facts) -> list[str]:
    _, ok = high_class_bounds(f)
    if not ok:
        return [f"fewer than 3n/4 vertices of degree n-3 (n={f.g.n})"]
    return []


def _chk_cutvertex(f: Facts) -> list[str]:
    v = first_cut_vertex_without_pendant(f)
    return [] if v is None else [f"cut vertex {v} leaves no single-vertex component"]


def _chk_saturated4(f: Facts) -> list[str]:
    return _dual(
        "is_roman_saturated",
        f.saturated,
        "saturated4_by_degrees",
        saturated4_by_degrees(f),
    )


def _chk_ecrit4(f: Facts) -> list[str]:
    return _dual(
        "is_e_critical",
        f.e_critical,
        "ecrit4_by_degrees",
        ecrit4_by_degrees(f),
    )


def _chk_cut_structure(f: Facts) -> list[str]:
    if not _cut_structure(f):
        return ["neither the 5-cycle nor a single pendant low vertex on a cut vertex"]
    return []


def _chk_classification(f: Facts) -> list[str]:
    cls = classify_critical4(f)
    n = f.g.n
    if cls.verdict == CRITICAL_BUT_UNCLASSIFIED:
        return ["classification=CriticalButUnclassified"]
    expected = IS_C5 if n == 5 else IS_DN
    if cls.verdict != expected or (cls.verdict == IS_DN and cls.order != n):
        return [f"classification={cls} inconsistent with order {n}"]
    return []


def _chk_local8(f: Facts) -> list[str]:
    lit = local8_conditions(f)
    fast = local8_fast(f)
    diags = []
    if lit != fast:
        diags.append(
            f"dual-path-disagreement: local8_conditions={lit} local8_fast={fast}"
        )
    conj = all(lit)
    matches = catalog_verdict(f) == IS_DN
    if conj != matches:
        diags.append(
            f"local-conditions-conjunction={conj} matches-even-pendant-family={matches}"
        )
    critical = f.v_critical and f.e_critical and f.saturated
    if conj != critical:
        diags.append(
            f"local-conditions-conjunction={conj} criticality-conjunction={critical}"
        )
    return diags


_DN_PROPERTIES = (
    ("gamma", lambda f: f.gamma == 4),
    ("nonelementary", lambda f: f.nonelementary),
    ("v_critical", lambda f: f.v_critical),
    ("e_critical", lambda f: f.e_critical),
    ("saturated", lambda f: f.saturated),
)


def _hyp_dn(f: Facts) -> bool:
    return catalog_verdict(f) == IS_DN


def _chk_dn(f: Facts) -> list[str]:
    diags = [f"{name} fails" for name, prop in _DN_PROPERTIES if not prop(f)]
    g = f.g
    pendant = next(v for v, d in enumerate(g.degrees()) if d == 1)
    neighbor = g.adj[pendant].bit_length() - 1
    if neighbor not in g.cut_vertices():
        diags.append(f"pendant neighbor {neighbor} is not a cut vertex")
    return diags


def _hyp_all(f: Facts) -> bool:
    return True


def _hyp_order1(f: Facts) -> bool:
    return f.g.n >= 1


def _hyp_vcrit(f: Facts) -> bool:
    return f.g.n >= 1 and f.v_critical


def _hyp_gamma4(f: Facts) -> bool:
    return f.gamma == 4 and f.nonelementary


def _hyp_gamma4_vcrit(f: Facts) -> bool:
    return _hyp_gamma4(f) and f.v_critical


def _hyp_gamma4_vcrit_sat(f: Facts) -> bool:
    return _hyp_gamma4_vcrit(f) and f.saturated


def _hyp_qualifying(f: Facts) -> bool:
    return _hyp_gamma4_vcrit(f) and f.saturated and f.e_critical


def _hyp_elementary4(f: Facts) -> bool:
    return f.g.n == 4 and f.gamma == 4


def _hyp_local8(f: Facts) -> bool:
    return f.g.n >= 8 and f.gamma == 4


_CLAIM_LIST = [
    Claim(
        "cycle-criticality",
        "Cycle orders 3k+1 and 3k+2 have gamma_r 2k+1 and 2k+2, and a cycle "
        "is v-critical exactly when its order is not divisible by 3.",
        lambda f: _is_cycle(f.g),
        _chk_cycle,
    ),
    Claim(
        "nonelementary-components",
        "gamma_r < n holds exactly when some connected component has at "
        "least 3 vertices.",
        _hyp_all,
        _chk_nonelementary,
    ),
    Claim(
        "gamma-le-3-degree",
        "gamma_r <= 3 holds exactly when some vertex has degree >= n-2 "
        "(order >= 1).",
        _hyp_order1,
        _chk_gamma_le_3,
    ),
    Claim(
        "vcrit-partition-lemma",
        "v-critical holds exactly when every vertex is labeled 1 in some "
        "minimum assignment.",
        _hyp_order1,
        _chk_vcrit_partitions,
    ),
    Claim(
        "saturated-partition-prop",
        "Roman saturated holds exactly when every non-adjacent pair is "
        "split 1/2 by some minimum assignment.",
        _hyp_all,
        _chk_saturated_partitions,
    ),
    Claim(
        "edge-removal-gamma",
        "Removing one edge from a v-critical graph never changes gamma_r.",
        _hyp_vcrit,
        _chk_edge_removal,
    ),
    Claim(
        "ecrit-condition-prop",
        "A v-critical graph is e-critical exactly when every edge has a "
        "pivot vertex whose 1-labelings pin the edge as (0-endpoint, its "
        "unique 2-neighbor).",
        _hyp_vcrit,
        _chk_ecrit_condition,
    ),
    Claim(
        "elementary4-list",
        "The order-4 graphs with gamma_r = 4 are v-critical exactly when "
        "isomorphic to one of the three catalog graphs (edge sets {}, {ab}, "
        "{ab, cd}).",
        _hyp_elementary4,
        _chk_elementary4,
    ),
    Claim(
        "carac-lemma",
        "At gamma_r = 4 (nonelementary): v-critical holds exactly when every "
        "vertex x has a pair (a, b) with N[a] = V minus {x, b}; chasing the "
        "witness from a lands back in {x, b}.",
        _hyp_gamma4,
        _chk_carac_lemma,
    ),
    Claim(
        "carac2-theorem",
        "At gamma_r = 4 (nonelementary): v-critical holds exactly when every "
        "vertex has a non-neighbor of degree n-3.",
        _hyp_gamma4,
        _chk_carac2,
    ),
    Claim(
        "half-bound",
        "Nonelementary v-critical graphs with gamma_r = 4 have at least n/2 "
        "vertices of degree n-3.",
        _hyp_gamma4_vcrit,
        _chk_half_bound,
    ),
    Claim(
        "threequarter-bound",
        "Nonelementary v-critical saturated graphs with gamma_r = 4 have at "
        "least 3n/4 vertices of degree n-3.",
        _hyp_gamma4_vcrit_sat,
        _chk_threequarter_bound,
    ),
    Claim(
        "cutvertex-lemma",
        "In nonelementary v-critical graphs with gamma_r = 4, every cut "
        "vertex leaves a single-vertex component.",
        _hyp_gamma4_vcrit,
        _chk_cutvertex,
    ),
    Claim(
        "saturated4-degrees",
        "At gamma_r = 4 (nonelementary): saturated holds exactly when every "
        "two vertices of degree below n-3 are adjacent.",
        _hyp_gamma4,
        _chk_saturated4,
    ),
    Claim(
        "ecrit4-degrees",
        "At gamma_r = 4 (nonelementary, v-critical): e-critical holds "
        "exactly when every edge has a vertex whose non-dominated "
        "degree-(n-3) vertices are the edge's endpoints.",
        _hyp_gamma4_vcrit,
        _chk_ecrit4,
    ),
    Claim(
        "cut-structure-prop",
        "Qualifying graphs (gamma_r = 4, nonelementary, v- and e-critical, "
        "saturated) are the 5-cycle or have exactly one low vertex, pendant "
        "on a cut vertex.",
        _hyp_qualifying,
        _chk_cut_structure,
    ),
    Claim(
        "classification-theorem",
        "Qualifying graphs are exactly the 5-cycle and the even pendant "
        "family members.",
        _hyp_qualifying,
        _chk_classification,
    ),
    Claim(
        "local8-theorem",
        "At gamma_r = 4 and order >= 8: the three local adjacency conditions "
        "hold exactly for even-order pendant family members, and exactly for "
        "the v-critical e-critical saturated graphs; literal and degree "
        "evaluations agree.",
        _hyp_local8,
        _chk_local8,
    ),
    Claim(
        "dn-properties",
        "Every even pendant family member of order >= 6 is nonelementary, "
        "v-critical, e-critical, saturated, has gamma_r = 4, and hangs its "
        "pendant off a cut vertex.",
        _hyp_dn,
        _chk_dn,
    ),
]

CLAIMS: dict[str, Claim] = {c.id: c for c in _CLAIM_LIST}


def claim_catalog() -> list[tuple[str, str]]:
    return [(c.id, c.description) for c in _CLAIM_LIST]


# -- verification runs -------------------------------------------------------

Source = tuple


def _open_source(source: Source) -> tuple[str, Iterator[tuple]]:
    """The report label of a source and its scan units."""
    kind, arg = source[0], source[1]
    if kind == "enumerate":
        return f"enumerate({arg})", _class_units(arg)
    if kind == "file":
        return f"file:{arg}", ((g, 1, None) for g in read_graph6(arg))
    if kind == "families":
        items = ",".join(tag if n is None else f"{tag}:{n}" for tag, n in arg)
        return f"families:{items}", ((gen_family(t, n), 1, None) for t, n in arg)
    if kind == "graphs":
        return f"graphs:{len(arg)}", ((g, 1, None) for g in arg)
    raise ValueError(f"unknown source kind {kind!r}")


def _class_units(n: int) -> Iterator[tuple]:
    """One unit per isomorphism class of order n, every unit holding the
    one listing of copies for the order: it reads the representative's
    ``edge_mask`` off its graph and yields the copies in ascending mask
    order. The units come from zip and map, so no Python frame runs per
    class but graph_from_edge_mask's. The permutation tables are built on
    the first listing, so a scan that lists no copies never builds them."""
    perms = None

    def copies(g: Graph) -> Iterator[Graph]:
        nonlocal perms
        if perms is None:
            perms = EdgePermutations(n)
        for mask in sorted(perms.orbit(edge_mask(g))):
            yield graph_from_edge_mask(n, mask)

    reps, sizes = zip(*isomorphism_classes(n))
    return zip(map(partial(graph_from_edge_mask, n), reps), sizes, repeat(copies))


def read_graph6(path: str | None = None) -> Iterator[Graph]:
    """One graph per non-blank line of a graph6 file, or of stdin when path
    is None, parsed as it is read. Each byte decodes to the character of its
    value, so parse_graph6 names a bad byte; lines end at LF, CR or CR LF."""
    binary = sys.stdin.buffer if path is None else open(path, "rb")
    fh = io.TextIOWrapper(binary, encoding="latin-1")
    try:
        yield from (parse_graph6(line) for line in fh if line.strip(GRAPH6_BLANKS))
    finally:
        if path is None:
            fh.detach()  # leaves sys.stdin open
        else:
            fh.close()


def _resolve_claims(claim_ids: Sequence[str]) -> list[Claim]:
    out = []
    seen = set()
    for cid in claim_ids:
        if cid not in CLAIMS:
            known = ", ".join(CLAIMS)
            raise UnknownClaim(f"unknown claim {cid!r}; known claims: {known}")
        if cid not in seen:
            seen.add(cid)
            out.append(CLAIMS[cid])
    return out


def _evaluate(claim: Claim, f: Facts) -> tuple[bool, Sequence[str]]:
    """(hypothesis held, diagnostics) of one claim on one graph. A guard
    error is the one diagnostic ``guard-error: ...``."""
    held = False
    try:
        if not claim.hypothesis(f):
            return False, ()
        held = True
        return True, claim.check(f)
    except RomanCritError as exc:
        return held, (f"guard-error: {type(exc).__name__}: {exc}",)


def _scan(
    claims: list[Claim], f: Facts, size: int, copies: Callable | None, acc: dict
) -> None:
    """Evaluate each claim once on a unit, weighing a hypothesis that holds
    by the unit's size. A unit of size 1 records its own diagnostics; a
    larger one expands for each claim that reports or raises on it, and each
    copy, reading the unit's ``Facts.relabeled``, is scanned as a unit of
    size 1 for those claims, so the counterexamples are the labeled scan's.
    """
    expand = []
    for claim in claims:
        held, diags = _evaluate(claim, f)
        if diags:
            if size > 1:
                expand.append(claim)
                continue
            g6 = emit_graph6(f.g)
            acc[claim.id][1].extend((g6, d) for d in diags)
        if held:
            acc[claim.id][0] += size
    if expand:
        for h in copies(f.g):
            _scan(expand, f.relabeled(h), 1, None, acc)


def verify_claims(
    claim_ids: Sequence[str],
    source: Source,
    workers: int | None = None,
) -> list[VerificationReport]:
    """Run several claims over one source in a single scan of its units.

    Reports come back in claim order, with counterexamples sorted by graph6
    string then diagnostic, so output is byte-stable across runs and worker
    counts. Every source scans in this process; ``workers`` is accepted for
    compatibility and ignored.
    """
    claims = _resolve_claims(claim_ids)
    label, units = _open_source(source)
    start = time.monotonic()
    acc: dict[str, list] = {c.id: [0, []] for c in claims}
    scanned = 0
    for g, size, copies in units:
        _scan(claims, Facts(g), size, copies, acc)
        scanned += size

    wall_ms = int(round((time.monotonic() - start) * 1000))
    reports = []
    for claim in claims:
        in_hyp, cex = acc[claim.id]
        assert in_hyp <= scanned
        reports.append(
            VerificationReport(
                claim=claim.id,
                source=label,
                graphs_scanned=scanned,
                graphs_in_hypothesis=in_hyp,
                counterexamples=tuple(
                    Counterexample(g6, d) for g6, d in sorted(cex)
                ),
                wall_time_ms=wall_ms,
            )
        )
    return reports


def verify_claim(
    claim_id: str,
    source: Source,
    workers: int | None = None,
) -> VerificationReport:
    """Run one claim over a source of graphs."""
    return verify_claims([claim_id], source, workers)[0]
