"""Counting kernel: Yamanouchi bitableaux tallied by b-content and run, by a layer DP.

A bitableau of shape lam is a chain of top-entry shapes
() = lam^(0) <= lam^(1) <= ... <= lam^(n) = lam together with a semistandard
filling of bottom entries on each skew layer lam^(a)/lam^(a-1), the split
that crystal.skew_decomposition makes.  The sort-by-top word w is the
concatenation of the layers' row reading words for a = 1..n (w' for
a = n..1), so its Yamanouchi condition is carried layer by layer, as in the
lattice-word form of the Littlewood-Richardson rule.  A word is Yamanouchi
when every suffix has partition content, so both conventions read the word
backward, each layer top row first and right to left, under one lattice
test: the content read stays a partition.  They differ only in the order
the layers come.  w ends with the a = n layer, so its DP peels layers off
lam inward; w' ends with the a = 1 layer, so its DP grows layers from ()
out to lam.

Two traversals place the layers in that order, each sharing work across
shapes in its convention's direction.  _Walk places layers of given sizes
one top value at a time and keeps its walks by (shape left, sizes left,
content read).  Under w a walk peels from lam, and the rest of a walk from
a shape holds no lam, so one walker serves every lam: count_d's and
count_d_table's (_WALK), and the w sweep's in partition_runs.  A w' walk
grows toward lam, so its walker holds lam.  Every walk starts in
_Walk.run, at lam under w and at () under w'.  highest_weight_bitableaux
lists with a walker of its own, the only listing of bitableaux by content,
and crystal re-exports it.  kron_tableaux builds no bitableau: its a = 1
layer has one filling under w', so it lists only the a = 2 layer's, with
_lattice_fillings.  _push serves the w' sweep alone: what it has grown from
() holds no lam, so one push inside a bound holding every lam of k counts
all their runs at once, by b-content and run; column strictness and the
lattice test bound the letters and the content read at the end is b(T), so
it serves every nu.  Layer shapes come from partitions_between.

Empty layers add nothing to the word, so a run is the sizes of the nonempty
layers, a ascending.  count_d_table walks every composition run, so that its
symmetry in the a-content is checked, not assumed.  The sweep reads
partition runs alone (d is symmetric in mu): under w it walks the sizes of
each mu of k, under w' its push grows no layer larger than the one before.
_tally_python_dict is the naive reference: it filters one plain enumeration
by the Yamanouchi test on the reading word the crystal itself uses, not the
kernel's own backtracker, and tallies every b-content's a-contents from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .bitableau import Bitableau, PairRows, iter_bitableau_rows
from .partitions import (
    check_content, check_int, check_partition, check_triple, enumerate_partitions, partitions_between, trim
)
from .words import bitableau_reading_cells, check_conv, is_yamanouchi

Shape = tuple[int, ...]
Content = tuple[int, ...]
Runs = dict[Content, dict[tuple[int, ...], int]]  # b-content -> run -> count


def _layer_cells(outer: Shape, inner: Shape) -> list[tuple[int, int]]:
    """The cells of outer/inner in the order the word is read back: top row first, right to left."""
    return [(r, c) for r in range(len(outer)) for c in range(outer[r] - 1, inner[r] - 1, -1)]


def _lattice_fillings(
    outer: Shape, inner: Shape, start: Content, letters: int | None = None, listed: bool = False
) -> dict[Content, int] | dict[Content, list[tuple[int, ...]]]:
    """Lattice fillings of outer/inner that extend a word of content start.

    The layer is read backward, top row first and right to left, and the
    content read must stay a partition: a letter x > 0 is placed only after
    more x-1's than x's.  inner has the length of outer, and start is a
    partition.  Letters are 0, 1, ...; letters, when given, is how many
    may be used, and start uses no more.  Returns, by the content they end
    at, the number of fillings, or with listed the fillings themselves: each
    one's letters in the order of _layer_cells.
    """
    cells = _layer_cells(outer, inner)
    index = {cell: i for i, cell in enumerate(cells)}
    right = [index.get((r, c + 1), -1) for r, c in cells]  # placed earlier: no smaller
    above = [index.get((r - 1, c), -1) for r, c in cells]  # placed earlier: strictly smaller
    size = len(cells)
    vals = [0] * size
    cnt = list(start) + [0] * size
    if letters is not None and letters < len(cnt):  # else no word reaches that letter
        cnt[letters] = sum(start) + size + 1  # more than any letter's count: the lattice test bars it
    ends: dict = {}
    _fill(len(start), size, vals, cnt, above, right, ends, listed)
    return ends


def _fill(width: int, size: int, vals: list, cnt: list, above: list, right: list, ends: dict, listed: bool) -> None:
    """_lattice_fillings' backtracker: letters for every cell after width letters have been read.

    A loop over the cells, not a recursion, so a layer of any size fills in
    one frame.  Each cell tries its letters in increasing order, so the
    fillings come in lexicographic order of vals.  widths[i] is the width
    before cell i: the first letter not yet read.
    """
    if not size:
        key = tuple(cnt[:width])
        ends[key] = [()] if listed else 1
        return
    widths = [width] * (size + 1)
    last = size - 1
    i, x = 0, vals[above[0]] + 1 if above[0] >= 0 else 0
    while True:
        width = widths[i]
        hi = vals[right[i]] if right[i] >= 0 else width
        while x <= hi and x and cnt[x] >= cnt[x - 1]:  # the lattice test bars x
            x += 1
        if x > hi:  # cell i has no letter left: back to the cell before
            if not i:
                return
            i -= 1
            x = vals[i]
            cnt[x] -= 1
            x += 1
            continue
        cnt[x] += 1
        vals[i] = x
        if i == last:
            key = tuple(cnt[: width + (x == width)])
            if listed:
                ends.setdefault(key, []).append(tuple(vals))
            else:
                ends[key] = ends.get(key, 0) + 1
            cnt[x] -= 1
            x += 1
            continue
        widths[i + 1] = width + (x == width)
        i += 1
        x = vals[above[i]] + 1 if above[i] >= 0 else 0


def _push(bound: Shape, total: int) -> dict[Shape, Runs]:
    """The partition runs of every partition of total inside bound, by shape (w').

    The push grows layers from () out, each no larger than the one before.
    A state (shape, ceiling) holds, for each content read, the count of
    each run of the layers placed, and passes them on to the states one
    layer further, taken by their number of cells: each is complete when
    passed on, then dropped.  ceiling is the last layer's size, total for
    the empty shape.  Layer fillings are kept for one level, which no later
    level reads.
    """
    levels: list = [{} for _ in range(total + 1)]  # (shape, ceiling) -> start -> run -> count
    levels[0][(0,) * len(bound), total] = {(): {(): 1}}
    for filled in range(total):
        level: dict = {}
        for (shape, ceiling), starts in levels[filled].items():
            for outer, inner, nxt, size in _grown(shape, bound, 1, min(total - filled, ceiling)):
                state = levels[filled + size].setdefault((nxt, size), {})
                for begin, before in starts.items():
                    ends = level.get((outer, inner, begin))
                    if ends is None:
                        ends = level[outer, inner, begin] = _lattice_fillings(outer, inner, begin)
                    for end, ways in ends.items():
                        after = state.setdefault(end, {})
                        for sizes, count in before.items():
                            sizes += (size,)
                            after[sizes] = after.get(sizes, 0) + ways * count
        levels[filled] = None  # every state of this size has passed its counts on
    out: dict[Shape, Runs] = {}
    for (shape, _), ends in levels[total].items():
        runs = out.setdefault(trim(shape), {})
        for end, after in ends.items():
            runs.setdefault(end, {}).update(after)  # states of one shape differ in ceiling, the last size
    return out


def _peeled(shape: Shape, least: int, most: int) -> list:
    """Layers of least..most cells peeled off shape: (outer, inner, next, size)."""
    filled = sum(shape)
    inners = partitions_between((0,) * len(shape), shape, filled - most, filled - least)
    return [(shape, inner, trim(inner), filled - sum(inner)) for inner in inners]


def _grown(shape: Shape, bound: Shape, least: int, most: int) -> list:
    """Layers of least..most cells grown on shape inside bound: (outer, inner, next, size)."""
    filled = sum(shape)
    outers = partitions_between(shape, bound, filled + least, filled + most)
    return [(outer, shape, outer, sum(outer) - filled) for outer in outers]


def partition_runs(k: int, conv: str = "w") -> Iterator[tuple[Shape, Runs]]:
    """Each lam of k, in enumerate_partitions order, with its partition runs.

    The partition runs are the runs whose layers weakly decrease, a
    ascending, the keys the Theorem-2 sweep reads; nothing depends on nu.
    Under w one walker, kept for the generator's life, walks each lam with
    the sizes of each mu of k (d(lam, mu, .) for every nu at once) and
    reuses the rest of each walk, which holds no lam, across lam; no lam's
    runs outlive the step that yields them.  Under w' one push inside the
    bound (k, k // 2, ..., 1), which holds every lam of k, grows them all.
    k and conv are checked at the call, the runs found as they are read.
    """
    parts = enumerate_partitions(k)
    check_conv(conv)
    return _partition_runs(k, parts, conv)


def _partition_runs(k: int, parts: list[Shape], conv: str) -> Iterator[tuple[Shape, Runs]]:
    """partition_runs' generator, of checked arguments."""
    if conv == "w":
        walker = _Walk(conv, None, None, None, False)
        for lam in parts:
            runs: Runs = {}
            for mu in parts:
                for nu, count in walker.run(lam, mu).items():
                    runs.setdefault(nu, {})[mu] = count
            yield lam, runs
    else:
        bound = tuple(k // i for i in range(1, k + 1))  # i * lam_i <= k: every lam of k lies inside
        grown = _push(bound, k)
        for lam in parts:
            yield lam, grown[lam]


def _placements(n: int, j: int) -> list[Callable[[tuple[int, ...]], tuple[int, ...]]]:
    """Each way to give a run of j layers to j of the n top values, in increasing order.

    Each is a getter of the a-content from (0, *sizes): a top value holds
    the size of the layer it is given, 0 if none.
    """
    found = []
    for slots in combinations(range(n), j):
        pick = [0] * n
        for p, a in enumerate(slots, 1):
            pick[a] = p
        # an itemgetter of one index returns the item, not a 1-tuple, and one of none is refused
        found.append(itemgetter(*pick) if n > 1 else lambda padded, pick=pick: tuple(map(padded.__getitem__, pick)))
    return found


def count_d_table(
    shape: Sequence[int], bcontent: Sequence[int], n: int, conv: str = "w"
) -> dict[tuple[int, ...], int]:
    """Yamanouchi counts of one shape and b-content for every a-content at once.

    Keys are a-content vectors of length n; only nonzero counts appear.  The
    table walks every composition run of at most n layers and reads its
    count at bcontent, its trailing zeros trimmed; a run of j layers gives
    its sizes, in order, to each j of the n top values, the others unused.
    A b-content that is not a partition has no Yamanouchi word.  Under w the
    walks go on count_d's process walker (_WALK); under w' on the walker
    of the latest shape asked (_shape_walker, an lru_cache of one entry),
    so a caller that asks for one shape's tables in a row walks it once.
    """
    shape = check_partition(shape)
    nu = trim(check_content(bcontent, 0, "b-content"))
    check_int(n, "n")
    check_conv(conv)
    walker = _WALK if conv == "w" else _shape_walker(shape)
    total = sum(shape)
    runs = [()] if not total else [  # every composition of total into at most n parts, by its cuts
        tuple(b - a for a, b in zip((0,) + cut, cut + (total,)))
        for j in range(min(n, total)) for cut in combinations(range(1, total), j)
    ]
    table: dict[tuple[int, ...], int] = {}
    places: dict[int, list[Callable[[tuple[int, ...]], tuple[int, ...]]]] = {}  # by run length, per call
    for sizes in runs:
        count = walker.run(shape, sizes).get(nu)
        if not count:
            continue
        if len(sizes) not in places:
            places[len(sizes)] = _placements(n, len(sizes))
        padded = (0, *sizes)
        table.update(dict.fromkeys([place(padded) for place in places[len(sizes)]], count))
    return table


def count_d(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int], conv: str = "w") -> int:
    """Bitableaux of shape lam with a(T)=mu, b(T)=nu and Yamanouchi conv word.

    One count walk of layers of exactly mu's sizes, with no push.  Under w,
    which peels from lam, one process walker (_WALK) serves every query: it
    holds no lam, nor nu, as it skips no end content.  Under w', which
    grows toward lam, each call walks afresh, skipping ends that leave nu.
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    check_conv(conv)
    walker = _WALK if conv == "w" else _Walk(conv, lam, len(nu), nu, False)
    return walker.run(lam, mu).get(nu, 0)


def highest_weight_bitableaux(
    lam: Sequence[int], n: int, m: int, bcontent: Sequence[int] | None = None,
    acontent: Sequence[int] | None = None, conv: str = "w",
) -> Iterator[Bitableau]:
    """The highest-weight bitableaux of B_lam(n,m) under conv, in filler order.

    bcontent and acontent, when given, keep only the bitableaux with exactly
    that b- and a-content (partitions.check_content).  The arguments are
    checked and the rows found at the call, by one list walk of n layers, of
    any sizes or of the a-content's, with letters at most m (at most the
    b-content's length): every end content that leaves the b-content is
    skipped.  A chain holds its layers in the walk's order, a = n..1 under w
    and 1..n under w'.  Sorting gives the filler's row-major lexicographic
    order, and each row set is validated as a Bitableau as it is read.
    """
    lam = check_partition(lam)
    check_int(n, "n", 1)
    check_int(m, "m", 1)
    check_conv(conv)
    nu = check_content(bcontent, m, "b-content")
    mu = check_content(acontent, n, "a-content")
    if mu is not None and (sum(mu) != sum(lam) or any(mu[n:])):
        return iter(())
    nu = None if nu is None else trim(nu)
    sizes = (None,) * n if mu is None else tuple(mu[:n])
    ends = _Walk(conv, lam, m if nu is None else min(m, len(nu)), nu, True).run(lam, sizes)
    found: list[PairRows] = []
    tops = range(n, 0, -1) if conv == "w" else range(1, n + 1)
    for end, chains in ends.items():
        for placed in chains if nu is None or end == nu else ():
            grid: list[list] = [[None] * length for length in lam]
            for a, layer in zip(tops, placed):
                for (r, c), v in layer:
                    grid[r][c] = (a, v + 1)
            found.append(tuple(map(tuple, grid)))
    found.sort()
    return (Bitableau(lam, rows, n, m) for rows in found)


class _Walk:
    """Layers of given sizes placed one top value at a time in the DP's order, counted or listed.

    w peels layers a = n..1 in from a shape, w' grows them a = 1..n out from
    () inside lam; a size None places a layer of any size, the last one all
    that is left.  A layer's bottom entries are its lattice fillings (at most
    letters letters) extending the content read, and an end content that
    leaves nu is skipped: the content read only grows.  run starts a walk
    where conv starts, and walk maps each end content to its count or,
    listed, its chains (each layer's cells and letters).  A walker keeps its
    walks by (shape, sizes left, start) and its layers, with fillings by
    start, by (shape, size, last), each stored once complete; it is in no
    reference cycle.
    """

    def __init__(self, conv: str, lam: Shape | None, letters: int | None, nu: Content | None, listed: bool):
        self.inward, self.lam, self.letters, self.nu, self.listed = conv == "w", lam, letters, nu, listed
        self.memo, self.layers = {}, {}  # walks; layers with their fillings

    def run(self, lam: Shape, sizes: tuple) -> dict:
        """A walk of lam's layers of sizes from where conv starts: lam under w, () under w'."""
        return self.walk(lam if self.inward else (0,) * len(lam), sizes, ())

    def walk(self, shape: Shape, sizes: tuple, start: Content) -> dict:
        """The layers of sizes from shape on, after a word of content start."""
        if not sizes:
            return {start: [()] if self.listed else 1}
        key = (shape, sizes, start)
        out = self.memo.get(key)
        if out is not None:
            return out
        out, nu, listed = {}, self.nu, self.listed
        size, rest = (sizes[-1], sizes[:-1]) if self.inward else (sizes[0], sizes[1:])
        layers = self.layers.get((shape, size, not rest)) or self.step(shape, size, not rest)
        for outer, inner, nxt, cells, fills in layers:
            ends = fills.get(start)
            if ends is None:
                ends = fills[start] = _lattice_fillings(outer, inner, start, self.letters, listed)
            for end, got in ends.items():
                if nu is not None and not all(map(int.__le__, end, nu)):
                    continue
                if listed:
                    got = [(tuple(zip(cells, vals)),) for vals in got]
                for final, after in self.walk(nxt, rest, end).items():
                    if listed:
                        out.setdefault(final, []).extend(p + q for p in got for q in after)
                    else:
                        out[final] = out.get(final, 0) + got * after
        self.memo[key] = out
        return out

    def step(self, shape: Shape, size: int | None, last: bool) -> list:
        """The layers out of shape (the last: all that is left), each (outer, inner, next, cells, fillings)."""
        if last:  # all that is left, with no partitions_between call
            moves = [(shape, (0,) * len(shape), (), 0) if self.inward else (self.lam, shape, self.lam, 0)]
        else:
            room = sum(shape) if self.inward else sum(self.lam) - sum(shape)
            least, most = (0, room) if size is None else (size, size)
            moves = _peeled(shape, least, most) if self.inward else _grown(shape, self.lam, least, most)
        layers = [(o, i, nxt, self.listed and _layer_cells(o, i), {}) for o, i, nxt, _ in moves]
        return self.layers.setdefault((shape, size, last), layers)


_WALK = _Walk("w", None, None, None, False)  # count_d's w walker


@lru_cache(maxsize=1)
def _shape_walker(shape: Shape) -> _Walk:
    """count_d_table's w' walker of shape, kept for the latest shape asked."""
    return _Walk("w_prime", shape, None, None, False)


def _tally_python_dict(shape: Sequence[int], n: int, m: int, conv: str) -> dict[Content, dict[Content, int]]:
    """Naive reference: {b-content: {a-content: count}} of the bitableaux whose conv word is Yamanouchi.

    The contents are full vectors of m and n entries, all from one plain enumeration.
    """
    check_conv(conv)
    result: dict[Content, dict[Content, int]] = {}
    for rows in iter_bitableau_rows(shape, n, m):
        if is_yamanouchi(bitableau_reading_cells(rows, conv)[0]):
            tops, bottoms = [0] * n, [0] * m
            for row in rows:
                for a, b in row:
                    tops[a - 1] += 1
                    bottoms[b - 1] += 1
            key, table = tuple(tops), result.setdefault(tuple(bottoms), {})
            table[key] = table.get(key, 0) + 1
    return result
