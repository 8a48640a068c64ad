"""Search machinery for candidate top crystal structures.

The bottom gl_2 structure on B_lam(2,2) is known; a commuting top structure
is only partially determined.  A top string pairs bottom chains of one
b-type (chain of b-weights) only, so the search runs per b-type group: a
group's options arrange its chains into gl_2 strings of the correct
lengths.  Each option is checked piece by piece, each distinct piece once
per group: a (parent, child) chain pair for the weight shift and for
commutation with bottom f_1/e_1 on the parent chain, and a chain sequence
(the chains one top string passes through) for the string criterion.  The
check is exact: a group is a union of whole bottom f_1-chains, so off a
pair's parent chain both sides of every commutation condition are None.
is_valid_gl2_structure and commutes_with_bottom stay the naive
references: they re-check any option the pieces refuse, and name its
first failure.  A completion is one option per group; the skeleton and
the completion count are read from the groups without forming that
product, and the count also comes from the kernel before any search.

Also here: the top operators on one-row and one-column bitableaux obtained
from the u / u' reading words, which transport through RSK and Burge
insertion, and the fixed-reading-order gl_3 candidate on shape (2,1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bitableau import Bitableau, weights
from .crystal import (
    CrystalStructureError,
    check_cap,
    full_crystal,
    highest_weight_bitableaux,
)
from .graphs import CrystalGraph, CrystalVertex
from .kernels import count_d_table
from .partitions import Partition, check_int, enumerate_partitions, trim
from .tableaux import ssyt_from_reading_word
from .words import (
    bitableau_reading_cells,
    crystal_op_position,
    crystal_op_word,
)

Weight = tuple[int, ...]


@dataclass(frozen=True)
class PartialOperator:
    """A partial injection of vertex ids acting on the first-coordinate weights.

    images is a read-only dict copied once from the mapping, or the
    (source, target) pairs, passed in.
    """

    images: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", MappingProxyType(dict(self.images)))

    def __hash__(self) -> int:
        return hash(self.edge_set())

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.images.items())


@dataclass(frozen=True)
class SeminormalReport:
    valid: bool
    violations: tuple[tuple[int, str], ...] = ()


def _strings(images: Mapping[int, int], vertices: Iterable[int]) -> Iterable[list[int]]:
    """The strings of an injective images map, one per vertex without a preimage.

    Vertices are taken in the order given; each string runs from that vertex
    along images.  Injectivity keeps every walk from revisiting a vertex.
    """
    targets = set(images.values())
    for head in vertices:
        if head not in targets:
            path = [head]
            while (nxt := images.get(path[-1])) is not None:
                path.append(nxt)
            yield path


def is_valid_gl2_structure(
    images: Mapping[int, int], weight_a: Mapping[int, Weight]
) -> SeminormalReport:
    """String criterion for a rank-one structure.

    The functional graph must be a disjoint union of directed paths, and on
    every vertex the steps remaining down its string minus the steps taken
    from the top must equal a_1 - a_2.  Injectivity and the weight shift are
    checked first; once every edge lowers a_1 by exactly one, no cycle is
    left, so every vertex lies on the string of a vertex without a preimage.
    """
    violations: list[tuple[int, str]] = []
    preimage: dict[int, int] = {}
    for src, dst in images.items():
        if dst in preimage:
            violations.append((dst, "two f-edges share a target"))
        preimage[dst] = src
        a = weight_a[src]
        b = weight_a[dst]
        if (a[0] - 1, a[1] + 1) != tuple(b):
            violations.append((src, f"edge breaks the weight shift: {a} -> {b}"))
    if violations:
        return SeminormalReport(False, tuple(violations))
    for path in _strings(images, weight_a):
        length = len(path)
        for depth, v in enumerate(path):
            a1, a2 = weight_a[v]
            if a1 - a2 != (length - 1 - depth) - depth:
                violations.append(
                    (v, f"string of length {length} misplaced at depth {depth}")
                )
    return SeminormalReport(not violations, tuple(violations))


def commutes_with_bottom(
    f_top: Mapping[int, int] | PartialOperator, g: CrystalGraph
) -> tuple[bool, tuple[int, int, str] | None]:
    """Null-absorbing commutation of the top operator with every bottom f_i/e_i.

    Returns (True, None) or (False, (vertex, bottom index, which side)).
    """
    images = f_top.images if isinstance(f_top, PartialOperator) else f_top
    indices = g.operator_indices()
    for v in (vert.id for vert in g.vertices):
        for i in indices:
            down = g.f(v, i)
            lhs = images.get(down) if down is not None else None
            mid = images.get(v)
            rhs = g.f(mid, i) if mid is not None else None
            if lhs != rhs:
                return False, (v, i, "lowering")
            up = g.e(v, i)
            lhs = images.get(up) if up is not None else None
            rhs = g.e(mid, i) if mid is not None else None
            if lhs != rhs:
                return False, (v, i, "raising")
    return True, None


# --- completions of the gl_2 x gl_2 examples --------------------------------


def _arrangements(
    chains_by_level: dict[int, list[int]],
    levels: list[int],
    idx: int = 0,
    open_strings: Sequence[tuple[int, int]] = (),
) -> Iterable[list[tuple[int, int]]]:
    """All ways to stack chains into top strings, as (parent chain, child chain).

    Levels are a_1 - a_2 values, processed downward; every open string must
    pick up exactly one chain per level until it closes at the mirror level.
    Chain counts c are symmetric in a_1 - a_2, so c(-l) = c(l) strings are open
    at a level l < 0 and take every chain there; a chain left over raises.
    The ways start at levels[idx], with open_strings (chain index, levels
    left to fill) still open above it.
    """
    if idx == len(levels):
        if not open_strings:
            yield []
        return
    level = levels[idx]
    comps = chains_by_level.get(level, [])
    for assignment in itertools.permutations(comps, len(open_strings)):
        chosen = set(assignment)
        new_starts = [c for c in comps if c not in chosen]
        if new_starts and level < 0:
            raise CrystalStructureError(f"a top string would start at level {level}")
        pairs = [(parent, child) for (parent, _), child in zip(open_strings, assignment)]
        nxt = [(child, left - 1) for (_, left), child in zip(open_strings, assignment) if left - 1 > 0]
        nxt.extend((c, level) for c in new_starts if level > 0)
        for rest in _arrangements(chains_by_level, levels, idx + 1, nxt):
            yield pairs + rest


def _pair_edges(
    g: CrystalGraph, chains: Sequence[tuple[int, ...]], parent: int, child: int
) -> tuple[tuple[int, int], ...] | None:
    """The top edges of a (parent, child) chain pair, or None if the references would refuse them.

    Every edge must lower a_1 by one, and top f must commute with bottom
    f_1 and e_1 on the parent chain, where only this pair's edges act.
    """
    images = dict(zip(chains[parent], chains[child]))
    for v in chains[parent]:
        mid = images.get(v)
        if mid is not None:
            a, b = g.vertices[v].weight_a, g.vertices[mid].weight_a
            if (a[0] - 1, a[1] + 1) != tuple(b):
                return None
        for step in (g.f, g.e):  # no vertex is None, so a lookup of None gives None
            if images.get(step(v, 1)) != step(mid, 1):
                return None
    return tuple(images.items())


def _sequence_cover(levels: Sequence[int], group: frozenset[int], seq: tuple[int, ...]) -> int | None:
    """The string criterion on the chains one top string passes through, top down.

    A string of length r + 1 has level (a_1 - a_2) r - 2d at depth d.  On a
    pass, the number of the group's chains off level 0 that it covers; else None.
    """
    if any(levels[c] != len(seq) - 1 - 2 * d for d, c in enumerate(seq)):
        return None
    return sum(1 for c in seq if levels[c] and c in group)


def _top_strings(nxt: Mapping[int, int], children: set[int]) -> list[tuple[int, ...]]:
    """The chain sequences of a stacking: one per parent that is no child, its chains top down."""
    out = []
    for head in nxt.keys() - children:
        seq = [head]
        while (child := nxt.get(seq[-1])) is not None:
            seq.append(child)
        out.append(tuple(seq))
    return out


class _Stacking:
    """The per-piece check of one b-type group's stackings, each distinct piece checked once.

    check(pairs) accepts a stacking exactly when is_valid_gl2_structure on
    the group and commutes_with_bottom on the graph both would.  Parents
    and children must be distinct, so the edges are injective and every
    chain is on one string.  Each pair then passes _pair_edges: a group is
    a union of whole bottom f_1-chains, so off a pair's parent chain both
    sides of every commutation condition are None, and a pair that
    commutes maps chains of equal length.  Each chain sequence passes
    _sequence_cover, and together they cover every chain off level 0; a
    chain left uncovered is a one-vertex string, which fits at level 0 only.
    """

    def __init__(self, g: CrystalGraph, chains: Sequence[tuple[int, ...]], group: Iterable[int]):
        self.g, self.chains, self.group = g, chains, frozenset(group)
        self.levels = [a1 - a2 for a1, a2 in (g.vertices[chain[0]].weight_a for chain in chains)]
        self.cover = sum(1 for c in self.group if self.levels[c])
        self.pairs: dict[tuple[int, int], tuple[tuple[int, int], ...] | None] = {}
        self.sequences: dict[tuple[int, ...], int | None] = {}

    def check(
        self, pairs: Sequence[tuple[int, int]]
    ) -> tuple[dict[int, int], list[tuple[int, ...]], set[int]] | None:
        """(images, chain sequences, chains in a pair) of an accepted stacking, else None."""
        nxt = dict(pairs)
        children = set(nxt.values())
        if len(nxt) != len(pairs) or len(children) != len(pairs):
            return None
        images: dict[int, int] = {}
        for pair in pairs:
            if pair not in self.pairs:
                self.pairs[pair] = _pair_edges(self.g, self.chains, *pair)
            edges = self.pairs[pair]
            if edges is None:
                return None
            images.update(edges)
        strings = _top_strings(nxt, children)
        covered = 0
        for seq in strings:
            if seq not in self.sequences:
                self.sequences[seq] = _sequence_cover(self.levels, self.group, seq)
            count = self.sequences[seq]
            if count is None:
                return None
            covered += count
        if covered != self.cover:
            return None
        return images, strings, nxt.keys() | children


class _Group(NamedTuple):
    """One b-type group: its vertices, its options, and the skeleton read from them."""

    vertices: list[int]
    options: list[dict[int, int]]
    forced: list[tuple[int, int]]  # top edges of every option
    free: list[int]  # vertices whose (string length, depth) varies across options


def _group_options(
    lam: Sequence[int], conv: str, cap: int
) -> tuple[CrystalGraph, list[tuple[int, ...]], list[_Group]]:
    """The graph, its bottom chains and its b-type groups, sorted by b-type.

    Chains of equal type (same chain of b-weights) are stacked into gl_2
    strings in every level-respecting way; the operator between consecutive
    chains is the unique b-weight-preserving isomorphism.  Each option is
    checked on its own: its strings stay inside the group, and a bottom
    f_1 stays inside its chain, so a choice of one option per group is a
    valid completion exactly when every option is valid.  A group's
    _Stacking checks each option piece by piece, each distinct (parent,
    child) pair and chain sequence once.  That is exact: the group is a
    union of whole bottom f_1-chains, so off a pair's parent chain both
    sides of every commutation condition are None.  An option it refuses
    goes to is_valid_gl2_structure and commutes_with_bottom, which decide:
    they name its first failure, or keep it.  Forced edges are read per
    pair: an edge fixes its pair, so it is in every option when its pair
    is.  A vertex's slot is its chain's (sequence length, depth), or
    (1, 0) when the chain is in no pair.
    """
    g = full_crystal(lam, 2, 2, conv=conv, cap=cap)
    weight_a = {v.id: v.weight_a for v in g.vertices}
    f_1 = {src: dst for (src, _), dst in g.edges.items()}  # m = 2: the only bottom operator
    chains = [tuple(c) for c in _strings(f_1, weight_a)]
    by_type: dict[tuple[Weight, ...], dict[int, list[int]]] = {}
    for ci, chain in enumerate(chains):
        if len({weight_a[v] for v in chain}) != 1:
            raise CrystalStructureError("bottom chain does not preserve the a-weight")
        btype = tuple(g.vertices[v].weight_b for v in chain)
        a1, a2 = weight_a[chain[0]]
        by_type.setdefault(btype, {}).setdefault(a1 - a2, []).append(ci)

    groups = []
    for btype, by_level in sorted(by_type.items()):
        group = [ci for ids in by_level.values() for ci in ids]
        vertices = [v for ci in group for v in chains[ci]]
        stacking = _Stacking(g, chains, group)
        levels = sorted(by_level, reverse=True)
        options, sequences = [], set()
        forced = covered = None
        for pairs in _arrangements(by_level, list(range(levels[0], levels[-1] - 1, -2))):
            kept = stacking.check(pairs)
            if kept is None:
                images = {
                    src: dst for parent, child in pairs for src, dst in zip(chains[parent], chains[child])
                }
                report = is_valid_gl2_structure(images, {v: weight_a[v] for v in vertices})
                ok, witness = commutes_with_bottom(images, g)
                if not report.valid or not ok:
                    raise CrystalStructureError(
                        f"search produced an invalid candidate: {report.violations or witness}"
                    )
                nxt = dict(pairs)
                children = set(nxt.values())
                kept = images, _top_strings(nxt, children), nxt.keys() | children
            images, strings, paired = kept
            options.append(images)
            sequences.update(strings)
            forced = set(pairs) if forced is None else forced.intersection(pairs)
            covered = paired if covered is None else covered & paired
        if not options:
            raise CrystalStructureError(
                f"no valid stacking of bottom components of type {btype}"
            )
        slots = {ci: set() if ci in covered else {(1, 0)} for ci in group}
        for seq in sequences:
            for depth, ci in enumerate(seq):
                slots[ci].add((len(seq), depth))
        groups.append(_Group(
            vertices,
            options,
            [edge for parent, child in forced for edge in zip(chains[parent], chains[child])],
            [v for ci in group if len(slots[ci]) > 1 for v in chains[ci]],
        ))
    return g, chains, groups


def _completion_count(lam: Sequence[int], conv: str) -> int:
    """The number of completions, from the kernel alone.

    Per two-row nu, c_j counts the bottom-highest-weight bitableaux of
    b-weight nu and top weight (k - j, j).  Below the middle level top f
    injects level j into level j + 1; above it, the strings that go on map
    onto level j + 1.
    """
    k = sum(lam)
    total = 1
    for nu in enumerate_partitions(k, 2):
        table = count_d_table(lam, nu, 2, conv)
        if table:
            c = [table.get((k - j, j), 0) for j in range(k + 1)]
            total *= math.prod(
                math.perm(c[j + 1], c[j]) if 2 * (j + 1) <= k else math.factorial(c[j + 1])
                for j in range(k)
            )
    return total


def enumerate_completions(
    lam: Sequence[int], conv: str = "w", cap: int = 100_000
) -> tuple[CrystalGraph, list[PartialOperator]]:
    """All total top structures commuting with the bottom crystal.

    A completion is one validated option per b-type group; completions are
    sorted by their edge lists.  cap bounds both the vertices and the
    number of completions, which the kernel gives before the crystal is
    built; the product of the groups' option counts is checked again.
    """
    check_cap(_completion_count(lam, conv), cap, "completions")
    g, _, groups = _group_options(lam, conv, cap)
    check_cap(math.prod(len(group.options) for group in groups), cap, "completions")
    runs = [[sorted(op.items()) for op in group.options] for group in groups]
    edge_lists = [sorted(itertools.chain(*combo)) for combo in itertools.product(*runs)]
    edge_lists.sort()
    return g, [PartialOperator(edges) for edges in edge_lists]


@dataclass(frozen=True)
class SkeletonResult:
    """What skeleton() found; free_slots and free_segments are read-only copies."""

    graph: CrystalGraph
    forced: PartialOperator
    free_vertices: tuple[int, ...]
    free_slots: Mapping[tuple[Weight, Weight], tuple[int, ...]] = field(hash=False)
    free_segments: Mapping[Weight, tuple[tuple[int, ...], ...]] = field(hash=False)
    completion_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_slots", MappingProxyType(dict(self.free_slots)))
        object.__setattr__(self, "free_segments", MappingProxyType(dict(self.free_segments)))

    @property
    def forced_vertex_count(self) -> int:
        return len(self.graph.vertices) - len(self.free_vertices)


def skeleton(lam: Sequence[int], conv: str = "w", cap: int = 100_000) -> SkeletonResult:
    """Forced top edges (common to every completion) and the free slots.

    A vertex is free when its slot in the string structure (string length
    and depth from the top) varies across completions; free vertices are
    grouped by (a,b)-weight, free bottom chains by a-weight.  Both are read
    group by group, so no completion is built and cap bounds the vertices
    only.
    """
    g, chains, groups = _group_options(lam, conv, cap)
    free = {v for group in groups for v in group.free}
    slots: dict[tuple[Weight, Weight], list[int]] = {}
    for v in sorted(free):
        vert = g.vertices[v]
        slots.setdefault((vert.weight_a, vert.weight_b), []).append(v)
    segments: dict[Weight, list[tuple[int, ...]]] = {}
    for chain in chains:
        if any(v in free for v in chain):
            segments.setdefault(g.vertices[chain[0]].weight_a, []).append(chain)
    return SkeletonResult(
        graph=g,
        forced=PartialOperator(sorted(edge for group in groups for edge in group.forced)),
        free_vertices=tuple(sorted(free)),
        free_slots={key: tuple(ids) for key, ids in sorted(slots.items())},
        free_segments={key: tuple(val) for key, val in sorted(segments.items())},
        completion_count=math.prod(len(group.options) for group in groups),
    )


def highest_weight_census(
    f_top: Mapping[int, int] | PartialOperator, g: CrystalGraph
) -> dict[tuple[Partition, Partition], int]:
    """Doubly-highest-weight vertices per (a,b) weight pair.

    Only the graph's highest-weight vertices, read once per graph, are
    tested against the top operator's targets.
    """
    images = f_top.images if isinstance(f_top, PartialOperator) else f_top
    targets = set(images.values())
    census: dict[tuple[Partition, Partition], int] = {}
    for v in g.highest_weight_vertices:
        if v.id not in targets:
            key = (trim(v.weight_a), trim(v.weight_b))
            census[key] = census.get(key, 0) + 1
    return census


# --- RSK / bRSK transported top operators ------------------------------------


def _top_flip_resorted(
    t: Bitableau, method: str, j: int, direction: str
) -> Bitableau | None:
    """Word operator on a u/u' word, acting by top flip plus re-sorting.

    A one-row (or one-column) bitableau is just a sorted multiset of pairs,
    so after changing the source box's top entry the pairs are re-sorted;
    this is the action transported through RSK (resp. Burge insertion),
    which the intertwining tests pin down.  An invalid result would falsify
    the transported-crystal claims and raises.
    """
    word, cells = bitableau_reading_cells(t.rows, method)
    pos = crystal_op_position(word, j, direction)
    if pos is None:
        return None
    delta = 1 if direction == "lower" else -1
    flat = [pair for row in t.rows for pair in row]
    one_row = len(t.shape) == 1
    r, c = cells[pos]
    idx = c if one_row else r
    a, b = flat[idx]
    flat[idx] = (a + delta, b)
    flat.sort()
    rows = (tuple(flat),) if one_row else tuple((pair,) for pair in flat)
    try:
        return Bitableau(t.shape, rows, t.n, t.m)
    except ValueError as exc:
        raise CrystalStructureError(
            f"{method} operator {direction} f_{j} has no valid re-sorted image"
        ) from exc


def row_top_operator(t: Bitableau, j: int, direction: str) -> Bitableau | None:
    """gl_n operator on a one-row bitableau via the u reading word."""
    if len(t.shape) != 1:
        raise ValueError("row operator requires a one-row shape")
    if check_int(j, "operator index", 1) >= t.n:
        raise ValueError(f"operator index {j} outside [1, {t.n - 1}]")
    return _top_flip_resorted(t, "u", j, direction)


def column_top_operator(t: Bitableau, j: int, direction: str) -> Bitableau | None:
    """gl_n operator on a one-column bitableau via the u' reading word."""
    if any(length != 1 for length in t.shape):
        raise ValueError("column operator requires a one-column shape")
    if check_int(j, "operator index", 1) >= t.n:
        raise ValueError(f"operator index {j} outside [1, {t.n - 1}]")
    return _top_flip_resorted(t, "u_prime", j, direction)


# --- the fixed-reading-order gl_3 candidate on shape (2,1) -------------------

_EAST_ORDER = ((1, 0), (0, 1), (0, 0))
_SOUTH_ORDER = ((0, 0), (1, 0), (0, 1))
_CORNER_SOUTH_FIRST = ((1, 0), (0, 0), (0, 1))
_CORNER_EAST_FIRST = ((0, 1), (0, 0), (1, 0))


def _shape21_reading_order(t: Bitableau, corner_first: str) -> tuple[tuple[int, int], ...]:
    bottoms = (t.rows[0][0][1], t.rows[0][1][1], t.rows[1][0][1])
    if bottoms == (1, 2, 1):
        return _EAST_ORDER
    if bottoms == (1, 1, 2):
        return _SOUTH_ORDER
    if bottoms == (2, 1, 1):
        return _CORNER_SOUTH_FIRST if corner_first == "south" else _CORNER_EAST_FIRST
    raise ValueError(f"unexpected bottom arrangement {bottoms}")


def shape21_candidate_crystal(corner_first: str = "south") -> CrystalGraph:
    """Candidate gl_3 crystal on shape (2,1) bitableaux with b-content (2,1).

    Vertices are the Yamanouchi-w(T) bitableaux over [3] x [2] with two
    bottom ones and one bottom two.  The reading order of the top entries
    depends only on the bottom arrangement; in the corner arrangement the
    corner is read second and corner_first ("south" or "east") picks which
    of the other two boxes is read first.  Operators act on the reading
    word, and the image is the unique vertex carrying the new word.
    """
    if corner_first not in ("south", "east"):
        raise ValueError("corner_first must be 'south' or 'east'")
    keep = list(highest_weight_bitableaux((2, 1), 3, 2, bcontent=(2, 1)))

    words: dict[int, tuple[int, ...]] = {}
    lookup: dict[tuple[int, ...], int] = {}
    for vid, t in enumerate(keep):
        order = _shape21_reading_order(t, corner_first)
        vword = tuple(t.rows[r][c][0] for r, c in order)
        if ssyt_from_reading_word(vword) is None:
            raise CrystalStructureError(
                f"reading word {vword} is not the row word of a semistandard tableau"
            )
        if vword in lookup:
            raise CrystalStructureError(f"reading word {vword} is not injective")
        words[vid] = vword
        lookup[vword] = vid

    graph_vertices = []
    edges: dict[tuple[int, int], int] = {}
    for vid, t in enumerate(keep):
        a, b = weights(t)
        payload = {"shape": t.shape, "rows": t.rows, "n": t.n, "m": t.m}  # as full_crystal's
        graph_vertices.append(CrystalVertex(vid, payload, a, b))
        for i in (1, 2):
            image_word = crystal_op_word(words[vid], i, "lower")
            if image_word is None:
                continue
            target = lookup.get(image_word)
            if target is not None:
                edges[(vid, i)] = target
    return CrystalGraph(tuple(graph_vertices), edges)
