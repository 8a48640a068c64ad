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

No b-content enters the DP.  Column strictness and the lattice test bound
the letters, and the content read at the end is b(T), so every count is
keyed by b-content and run, and one DP serves every nu.  The w state (inner
shape left, content read so far, floor) holds no lam either, so one memo
serves every shape, and so do its layer fillings, cached for the counter's
life.  The w' state (inner shape grown, ceiling), with the contents read so
far under it, holds no lam: one push grows every state from () out to every
partition of one size inside a bound, a number of cells at a time.
count_d and count_d_table push with the bound lam, the Theorem-2 sweep once
with a bound that holds every lam of its size.  Each level's states and
layer fillings are dropped once passed on, and the counter keeps the runs
of one bound and size, keyed by (bound, size, partitions), so a call for
another lam made while a push runs cannot swap them.  The layers' shapes come from
partitions.partitions_between.

Empty layers add nothing to the word, so the DP counts by run: the sizes of
the nonempty layers, a ascending.  A run's length is its number of top
values used.  A partition a-content without zeros is its own run; the full
table places each run in one loop, its j layers on each j of the n top
values in increasing order.
crystal.count_d and crystal.monomial_expansion_sweep read only partition
a-contents, and d(lam, mu, nu) is symmetric in mu, so they ask the counter
for partition runs alone: the DP then builds only layers no smaller than
the next one out.  count_d_table keeps every composition run, so that its
symmetry in the a-content is checked, not assumed.
highest_weight_rows lists what the DP counts: it chains the lattice
fillings of one shape and its contents, layer by layer in the same order,
and builds the bitableaux crystal.highest_weight_bitableaux returns, the only
listing by content: the one filler (bitableau.iter_bitableau_rows) has none.
It lists each layer afresh; only the counter caches fillings.
_tally_python_dict is the naive reference: it filters one plain enumeration by
the Yamanouchi test on the reading word the crystal itself uses, not the
kernel's own backtracker, and tallies every b-content's a-contents from it.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Callable, Iterator, Sequence

from .bitableau import PairRows, iter_bitableau_rows
from .partitions import check_content, check_int, check_partition, contains, partitions_between, trim
from .words import CONVENTIONS, bitableau_reading_cells, is_yamanouchi

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
    _fill(0, len(start), size, vals, cnt, above, right, ends, listed)
    return ends


def _fill(
    i: int, width: int, size: int, vals: list, cnt: list, above: list, right: list, ends: dict, listed: bool
) -> None:
    """_lattice_fillings' backtracker: letters for cells i.. after width letters have been read."""
    if i == size:
        key = tuple(cnt[:width])
        if listed:
            ends.setdefault(key, []).append(tuple(vals))
        else:
            ends[key] = ends.get(key, 0) + 1
        return
    lo = vals[above[i]] + 1 if above[i] >= 0 else 0
    hi = vals[right[i]] if right[i] >= 0 else width  # width: the first letter not yet read
    for x in range(lo, hi + 1):
        if x == 0 or cnt[x] < cnt[x - 1]:
            cnt[x] += 1
            vals[i] = x
            _fill(i + 1, width + (x == width), size, vals, cnt, above, right, ends, listed)
            cnt[x] -= 1


def layer_runs(conv: str = "w") -> Callable[..., Runs]:
    """Counter of the Yamanouchi bitableaux by run and b-content.

    runs(shape) maps each b-content, the partition the word's content ends
    at, to the count of each run, the nonempty layers' sizes, a ascending;
    it counts over every top and bottom alphabet.
    runs(shape, partitions=True) keeps only the weakly decreasing runs, the
    keys count_d and monomial_expansion_sweep read, and builds no other.
    runs(shape, partitions, bound) reads shape from a w' push over every
    partition of its size inside bound (shape by default), kept until a call
    asks for another bound or size; under w, which peels each shape from one
    memo, the bound is only checked to hold shape.  Nothing in the DP
    depends on nu.  The maps returned are the counter's own, to be read and
    not changed.  The counter is a closure over its caches alone (_peel and
    _grow are module functions), so it is in no reference cycle: a dropped
    counter frees its memo and fillings at once.
    """
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    fillings: dict[tuple[Shape, Shape, Content], dict[Content, int]] = {}  # w
    memo: dict[tuple[Shape, Content, int], Runs] = {}  # w
    grown: dict[tuple[Shape, int, bool], dict[Shape, Runs]] = {}  # w': one push's runs of every shape

    def runs(shape: Sequence[int], partitions: bool = False, bound: Sequence[int] | None = None) -> Runs:
        shape = check_partition(shape)
        bound = shape if bound is None else check_partition(bound)
        if not contains(bound, shape):
            raise ValueError(f"shape {shape!r} is not inside the bound {bound!r}")
        if conv == "w":
            return _peel(memo, fillings, shape, (), 1 if partitions else 0)
        key = (bound, sum(shape), partitions)
        out = grown.get(key)
        if out is None:
            out = _grow(*key)
            for old in [old for old in list(grown) if old[:2] != key[:2]]:
                grown.pop(old, None)  # keep the runs of one bound and size
            grown[key] = out
        return out[shape]

    return runs


def _peel(memo: dict, fillings: dict, state: Shape, start: Content, floor: int) -> Runs:
    """w: the layers inside state, the outermost first, after a word of content start.

    floor 0 counts every run.  A floor f >= 1 counts only the runs whose
    layers all hold at least f cells and weakly decrease, a ascending: each
    layer peeled is the floor of the layers inside it.  memo and fillings
    are the counter's: results by (state, start, floor) and layer fillings
    by (outer, inner, start).
    """
    if not state:
        return {start: {(): 1}}
    key = (state, start, floor)
    out = memo.get(key)
    if out is not None:
        return out
    out = {}
    total = sum(state)
    zero = (0,) * len(state)
    if floor:  # the inner shape is empty or holds layers no smaller than this one
        inners = chain([zero], partitions_between(zero, state, (total + 1) // 2, total - floor))
    else:
        inners = partitions_between(zero, state, 0, total - 1)
    for inner in inners:
        size = total - sum(inner)
        nxt = trim(inner)
        ends = fillings.get((state, inner, start))
        if ends is None:
            ends = fillings[state, inner, start] = _lattice_fillings(state, inner, start)
        for end, ways in ends.items():
            for content, counts in _peel(memo, fillings, nxt, end, floor and size).items():
                merged = out.setdefault(content, {})
                for sizes, count in counts.items():
                    sizes += (size,)
                    merged[sizes] = merged.get(sizes, 0) + ways * count
    memo[key] = out
    return out


def _grow(bound: Shape, total: int, partitions: bool) -> dict[Shape, Runs]:
    """w': the layers from () out to every partition of total inside bound, the innermost first.

    A state (inner shape, ceiling) holds, for each content read, the count
    of each run of the layers inside it, and passes them on to the states
    one layer out; states are taken by their number of cells, so each is
    complete before it is passed on.  The start contents sit under their
    state, so one enumeration of the outer shapes serves them all.
    ceiling 0 counts every run.  A ceiling c >= 1 counts only the runs
    whose layers all hold at most c cells and weakly decrease, a
    ascending: each layer grown is the ceiling of the layers outside it.
    A layer's fillings are kept for one level only: its inner shape has
    that level's number of cells, so no later level reads them.
    """
    levels: list = [{} for _ in range(total + 1)]  # (inner, ceiling) -> start -> run -> count
    levels[0][(0,) * len(bound), total if partitions else 0] = {(): {(): 1}}
    for filled in range(total):
        level: dict[tuple[Shape, Shape, Content], dict[Content, int]] = {}  # this level's fillings
        for (inner, ceiling), starts in levels[filled].items():
            most = min(total, filled + ceiling) if ceiling else total
            for outer in partitions_between(inner, bound, filled + 1, most):
                size = sum(outer) - filled
                cut = trim(outer)
                state = levels[filled + size].setdefault((outer, ceiling and size), {})
                for start, before in starts.items():
                    ends = level.get((outer, inner, start))
                    if ends is None:
                        ends = level[outer, inner, start] = _lattice_fillings(cut, inner[: len(cut)], start)
                    for end, ways in ends.items():
                        after = state.setdefault(end, {})
                        for sizes, count in before.items():
                            sizes += (size,)
                            after[sizes] = after.get(sizes, 0) + ways * count
        levels[filled] = None  # every state of this size has passed its counts on
    out: dict[Shape, Runs] = {}
    for (outer, _), ends in levels[total].items():
        shape = out.setdefault(trim(outer), {})
        for end, after in ends.items():
            shape.setdefault(end, {}).update(after)  # states of one shape differ in ceiling, the last size
    return out


_SHARED: dict[str, Callable[..., Runs]] = {}


def shared_runs(conv: str) -> Callable[..., Runs]:
    """The process-wide counter of one convention, which count_d and count_d_table read."""
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    return _SHARED.get(conv) or _SHARED.setdefault(conv, layer_runs(conv))


def count_d_table(
    shape: Sequence[int], bcontent: Sequence[int], n: int, conv: str = "w"
) -> dict[tuple[int, ...], int]:
    """Yamanouchi counts of one shape and b-content for every a-content at once.

    Keys are a-content vectors of length n; only nonzero counts appear.  The
    table reads the composition runs of the process-wide counter
    (shared_runs) that end at bcontent, its trailing zeros trimmed, and
    keeps those of at most n layers.  A b-content that is not a partition
    has no Yamanouchi word.
    """
    shape = check_partition(shape)
    nu = check_content(bcontent, 0, "b-content")
    check_int(n, "n")
    return _table(shared_runs(conv)(shape), trim(nu), n)


def _table(runs: Runs, nu: Content, n: int) -> dict[tuple[int, ...], int]:
    """The a-content table over n top values of one shape's runs that end at b-content nu.

    A run of j layers gives its sizes, in order, to each j of the n top values;
    the other top values are unused.
    """
    table: dict[tuple[int, ...], int] = {}
    for sizes, count in runs.get(nu, {}).items():
        for slots in combinations(range(n), len(sizes)):
            acontent = [0] * n
            for a, size in zip(slots, sizes):
                acontent[a] = size
            table[tuple(acontent)] = count
    return table


def highest_weight_rows(
    lam: Shape, n: int, m: int, nu: Content | None = None, mu: Sequence[int] | None = None, conv: str = "w"
) -> list[PairRows]:
    """The rows of every bitableau of shape lam over [n] x [m] with a Yamanouchi conv word, sorted.

    The layers come in the DP's order, w' growing a = 1..n out from (), w
    peeling a = n..1 in from lam, and each layer's bottom entries are the
    lattice fillings (listed, letters at most m) that extend the content
    read so far.  nu, a trimmed b-content, keeps the rows whose word ends at
    content nu; mu, an a-content of at least n entries, sizes the layers.
    Sorting gives the filler's row-major lexicographic order.
    """
    if mu is not None and (sum(mu) != sum(lam) or any(mu[n:])):
        return []
    lister = _Lister(lam, n, m if nu is None else min(m, len(nu)), nu, mu)
    if conv == "w":
        lister.peel(n, lam, ())
    else:
        lister.grow(1, (0,) * len(lam), ())
    lister.found.sort()
    return lister.found


class _Lister:
    """One highest_weight_rows listing: the layers placed so far and the rows found.

    Its methods recurse through the class, not through a closure, so a
    listing leaves no reference cycle.
    """

    def __init__(self, lam: Shape, n: int, letters: int, nu: Content | None, mu: Sequence[int] | None) -> None:
        self.lam, self.total, self.n, self.letters, self.nu, self.mu = lam, sum(lam), n, letters, nu, mu
        self.placed: list[tuple[int, list[tuple[int, int]], list[tuple[int, ...]]]] = []  # (top, cells, fillings)
        self.grid: list[list] = [[None] * length for length in lam]
        self.found: list[PairRows] = []

    def layer(self, a: int, outer: Shape, inner: Shape, start: Content) -> Iterator[Content]:
        """Place each filling of layer a = outer/inner after start; yield the content each ends at."""
        cells, nu = _layer_cells(outer, inner), self.nu
        for end, fills in _lattice_fillings(outer, inner, start, self.letters, True).items():
            if nu is None or all(map(int.__le__, end, nu)):  # the content read only grows: skip what leaves nu
                self.placed.append((a, cells, fills))
                yield end
                self.placed.pop()

    def finish(self, end: Content) -> None:
        if self.nu is not None and end != self.nu:
            return
        placed, grid = self.placed, self.grid
        for choice in product(*(fills for _, _, fills in placed)):
            for (a, cells, _), vals in zip(placed, choice):
                for (r, c), v in zip(cells, vals):
                    grid[r][c] = (a, v + 1)
            self.found.append(tuple(map(tuple, grid)))

    def grow(self, a: int, inner: Shape, start: Content) -> None:
        """w': layers a, a + 1, ..., n out from inner."""
        if a > self.n:
            return self.finish(start)
        filled, total, mu = sum(inner), self.total, self.mu
        least, most = (filled + mu[a - 1],) * 2 if mu is not None else (total if a == self.n else filled, total)
        for outer in partitions_between(inner, self.lam, least, most):
            for end in self.layer(a, outer, inner, start):
                self.grow(a + 1, outer, end)

    def peel(self, a: int, outer: Shape, start: Content) -> None:
        """w: layers a, a - 1, ..., 1 in from outer."""
        if a == 0:
            return self.finish(start)
        filled, mu = sum(outer), self.mu
        least, most = (filled - mu[a - 1],) * 2 if mu is not None else (0, 0 if a == 1 else filled)
        for inner in partitions_between((0,) * len(outer), outer, least, most):
            for end in self.layer(a, outer, inner, start):
                self.peel(a - 1, inner, end)


def _tally_python_dict(shape: Sequence[int], n: int, m: int, conv: str) -> dict[Content, dict[Content, int]]:
    """Naive reference: {b-content: {a-content: count}} of the bitableaux whose conv word is Yamanouchi.

    The contents are full vectors of m and n entries, all from one plain enumeration.
    """
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
