"""Search machinery for candidate top crystal structures.

The bottom gl_2 structure on B_lam(2,2) is known; a commuting top structure
is only partially determined.  A top string pairs bottom chains of one
b-type (chain of b-weights) only, so the search runs per b-type group: a
group's options stack its chains into gl_2 strings of the correct
lengths, each consecutive chain pair zipped position by position.  Every
such stacking is valid by construction (the proof is in _group_options),
so no option is checked at run time; is_valid_gl2_structure and
commutes_with_bottom are the naive references the tests hold every option
to.  A completion is one option per group; the skeleton and the
completion count are read from the groups without forming that product,
and the count also comes from the kernel before any search.

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


def _stackings(
    by_level: Mapping[int, Sequence[int]], levels: Sequence[int]
) -> Iterable[list[tuple[int, ...]]]:
    """All ways to stack chains into top strings, each string its chain indices top down.

    Levels are a_1 - a_2 values, processed downward.  A string started at
    level s > 0 takes exactly one chain per level until it closes at -s; a
    chain at level 0 that no string takes is a string of its own.  Which
    strings are open at a level follows from the chain counts alone, so
    each level's choice (a permutation of its chains onto the open
    strings, in the order they opened) is independent of the others.
    Chain counts c are symmetric in a_1 - a_2, so c(-l) = c(l) strings are
    open at a level l < 0 and take every chain there; a chain left over
    raises.
    """
    starts: list[int] = []  # the level each string starts at, in the order they open
    orders, slots = [], []
    for level in levels:
        comps = by_level.get(level, [])
        open_ids = [sid for sid, s in enumerate(starts) if s > level >= -s]
        new = len(comps) - len(open_ids)
        if new < 0:
            return
        if new and level < 0:
            raise CrystalStructureError(f"a top string would start at level {level}")
        slots.append(open_ids + list(range(len(starts), len(starts) + new)))
        starts.extend([level] * new)
        orders.append([
            taken + tuple(c for c in comps if c not in taken)
            for taken in itertools.permutations(comps, len(open_ids))
        ])
    if any(-s < levels[-1] for s in starts):
        return
    for choice in itertools.product(*orders):
        strings: list[list[int]] = [[] for _ in starts]
        for ids, order in zip(slots, choice):
            for sid, c in zip(ids, order):
                strings[sid].append(c)
        yield [tuple(s) for s in strings]


class _Group(NamedTuple):
    """One b-type group: its options, and the skeleton read from them."""

    options: list[dict[int, int]]
    forced: list[tuple[int, int]]  # top edges of every option
    free: list[int]  # vertices whose (string length, depth) varies across options


def _group_options(
    lam: Sequence[int], conv: str, cap: int
) -> tuple[CrystalGraph, list[tuple[int, ...]], list[_Group]]:
    """The graph, its bottom chains and its b-type groups, sorted by b-type.

    Chains of equal type (same chain of b-weights) are stacked into gl_2
    strings in every level-respecting way (_stackings); the operator
    between consecutive chains of a string zips them position by position.
    Every stacking is an option, by construction.  For n = 2,
    a_1 + a_2 = |lam| on every vertex, so:
    - a chain's level fixes its a-weight, so every edge lowers a_1 by one;
    - chains of one b-type have one length, so a zip commutes with bottom
      f_1 and e_1;
    - a string of length r + 1 runs from level r down to -r, which is the
      string criterion;
    - permutations keep the edges injective.
    A string stays inside its group, and a bottom f_1 inside its chain, so
    a choice of one option per group is a completion.  Forced edges are
    those of the chain pairs in every option.  A vertex is free when its
    chain's (string length, depth) takes more than one value over the
    distinct strings.
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
        levels = sorted(by_level, reverse=True)
        options, distinct = [], set()
        forced = None
        for strings in _stackings(by_level, list(range(levels[0], levels[-1] - 1, -2))):
            pairs = {pair for s in strings for pair in zip(s, s[1:])}
            options.append({
                src: dst for parent, child in pairs for src, dst in zip(chains[parent], chains[child])
            })
            distinct.update(strings)
            forced = pairs if forced is None else forced & pairs
        if not options:
            raise CrystalStructureError(
                f"no valid stacking of bottom components of type {btype}"
            )
        slots: dict[int, set[tuple[int, int]]] = {}
        for s in distinct:
            for depth, ci in enumerate(s):
                slots.setdefault(ci, set()).add((len(s), depth))
        groups.append(_Group(
            options,
            [edge for parent, child in forced for edge in zip(chains[parent], chains[child])],
            [v for ids in by_level.values() for ci in ids if len(slots[ci]) > 1 for v in chains[ci]],
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

    A completion is one option per b-type group; completions are
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
