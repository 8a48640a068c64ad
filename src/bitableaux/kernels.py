"""Counting kernel: Yamanouchi bitableaux tallied by a-content, by a layer DP.

A bitableau of shape lam is a chain of top-entry shapes
() = lam^(0) <= lam^(1) <= ... <= lam^(n) = lam together with a semistandard
filling of bottom entries on each skew layer lam^(a)/lam^(a-1), the split
that crystal.skew_decomposition makes.  The sort-by-top word w is the
concatenation of the layers' row reading words for a = 1..n (w' for
a = n..1), so its Yamanouchi condition is carried layer by layer, as in the
lattice-word form of the Littlewood-Richardson rule.  Both conventions peel
the layers off lam, a = n first: the end of w, read backward, and the front
of w', read forward.  The DP state (remaining inner shape, content read so
far, layers left) does not depend on lam, so one memo serves every shape.

Empty layers add nothing to the word, so the DP counts by run: the sizes of
the nonempty layers, a ascending.  A partition a-content without zeros is its
own run; _spread places each run over the n top values for the full table.
crystal.count_d and crystal.monomial_expansion_sweep read only partition
a-contents, and d(lam, mu, nu) is symmetric in mu, so they ask the counter
for partition runs alone: the DP then peels only layers no smaller than the
one peeled before it.  count_d_table keeps every composition run, so that its
symmetry in the a-content is checked, not assumed.
_tally_python_dict is the naive reference: it tallies the crystal's
highest-weight bitableaux (crystal.highest_weight_bitableaux), so the kernel
is checked against the reading word the crystal itself uses.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Callable, Sequence

from .partitions import check_partition, is_int, trim
from .words import CONVENTIONS

Shape = tuple[int, ...]
Content = tuple[int, ...]
Runs = dict[tuple[int, ...], int]


def _lattice_fillings(
    outer: Shape, inner: Shape, start: Content, cap: Content, conv: str
) -> dict[Content, int]:
    """Lattice fillings of outer/inner that extend a word of content start.

    w reads the layer backward (top row first, right to left) and keeps the
    content read a partition; w' reads it forward (bottom row first, left to
    right) and keeps cap minus the content read a partition.  Each letter is
    checked as it is placed; letter x may not exceed cap[x] in total.
    Returns the number of fillings by the content they end at.
    """
    m = len(cap)
    suffix = conv == "w"
    cells = [(r, c) for r in range(len(outer) - 1, -1, -1) for c in range(inner[r], outer[r])]
    if suffix:
        cells.reverse()
    index = {cell: i for i, cell in enumerate(cells)}
    d = 1 if suffix else -1  # placed earlier: right and above for w, left and below for w'
    row = [index.get((r, c + d), -1) for r, c in cells]
    col = [index.get((r - d, c), -1) for r, c in cells]
    size = len(cells)
    vals = [0] * size
    cnt = list(start)
    ends: dict[Content, int] = {}

    def fill(i: int) -> None:
        if i == size:
            key = tuple(cnt)
            ends[key] = ends.get(key, 0) + 1
            return
        if suffix:  # above: strictly smaller; right: weakly larger
            lo = vals[col[i]] + 1 if col[i] >= 0 else 0
            hi = vals[row[i]] if row[i] >= 0 else m - 1
        else:  # left: weakly smaller; below: strictly larger
            lo = vals[row[i]] if row[i] >= 0 else 0
            hi = vals[col[i]] - 1 if col[i] >= 0 else m - 1
        for x in range(lo, hi + 1):
            if cnt[x] < cap[x] and (
                (x == 0 or cnt[x] < cnt[x - 1])
                if suffix
                else (x == m - 1 or cap[x] - cnt[x] > cap[x + 1] - cnt[x + 1])
            ):
                cnt[x] += 1
                vals[i] = x
                fill(i + 1)
                cnt[x] -= 1

    fill(0)
    return ends


def _partitions_between(lo: Shape, hi: Shape):
    """Partitions p with lo <= p <= hi entrywise, all of the same length."""
    p = [0] * len(hi)

    def rec(r: int):
        if r == len(hi):
            yield tuple(p)
            return
        top = min(hi[r], p[r - 1]) if r else hi[r]
        for x in range(lo[r], top + 1):
            p[r] = x
            yield from rec(r + 1)

    return rec(0)


def layer_runs(bcontent: Sequence[int], conv: str = "w") -> Callable[..., Runs]:
    """Counter of the Yamanouchi bitableaux of b-content bcontent, by run.

    runs(shape, n) maps each run of at most n layers to its count.  Its
    memos live as long as runs and serve every shape; a b-content that is
    not a partition (padded with zeros) has no Yamanouchi word.
    runs(shape, n, _partitions=True) keeps only the weakly decreasing runs,
    the keys count_d and monomial_expansion_sweep read, and builds no other.
    """
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    cap = tuple(bcontent)
    if not all(is_int(x) for x in cap):
        raise ValueError(f"b-content entries must be integers, got {cap!r}")
    m = len(cap)
    lattice = all(x >= y for x, y in zip(cap, cap[1:] + (0,)))  # weakly decreasing, >= 0
    fillings: dict[tuple[Shape, Shape, Content], dict[Content, int]] = {}
    memo: dict[tuple[Shape, Content, int, int], Runs] = {}

    def rest(state: Shape, start: Content, budget: int, floor: int) -> Runs:
        """Counts of the layers inside state, after a word of content start.

        floor 0 counts every run.  A floor f >= 1 counts only the runs whose
        layers all hold at least f cells and weakly decrease, a ascending:
        as layers come off a = n first, each one peeled is the floor of the
        rest, so the rest holds no layer smaller than it.
        """
        if not state:
            return {(): 1}
        total = sum(state)
        budget = min(budget, total // max(floor, 1))
        key = (state, start, budget, floor)
        out = memo.get(key)
        if out is not None:
            return out
        out = {}
        if budget > 0:
            # a column of a layer holds at most m cells: its bottom entries strictly increase
            lo = state[m:] + (0,) * min(m, len(state))
            for inner in _partitions_between(lo, state):
                size = total - sum(inner)
                if size == 0 or size < floor or (floor and 0 < total - size < size):
                    continue
                nxt = trim(inner)
                ends = fillings.get((state, inner, start))
                if ends is None:
                    ends = _lattice_fillings(state, inner, start, cap, conv)
                    fillings[state, inner, start] = ends
                for end, ways in ends.items():
                    for sizes, count in rest(nxt, end, budget - 1, floor and size).items():
                        sizes += (size,)
                        out[sizes] = out.get(sizes, 0) + ways * count
        memo[key] = out
        return out

    def runs(shape: Sequence[int], n: int, _partitions: bool = False) -> Runs:
        shape = check_partition(shape)
        if not is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if not lattice or sum(shape) != sum(cap):
            return {}
        return rest(shape, (0,) * m, n, 1 if _partitions else 0)

    return runs


def count_d_table(
    shape: Sequence[int], bcontent: Sequence[int], n: int, conv: str = "w"
) -> dict[tuple[int, ...], int]:
    """Yamanouchi counts of one shape and b-content for every a-content at once.

    Keys are a-content vectors of length n; only nonzero counts appear.
    """
    shape = check_partition(shape)
    runs = layer_runs(bcontent, conv)(shape, n)
    if not shape:  # the empty bitableau, if bcontent is all zeros
        return {(0,) * n: count for count in runs.values()}
    return _spread(runs, n)


def _spread(runs: dict[tuple[int, ...], int], n: int) -> dict[tuple[int, ...], int]:
    """Every a-content of length n whose nonzero entries, in order, form a run."""
    if n == 1:
        return runs  # a single layer: its size is the a-content
    result: dict[tuple[int, ...], int] = {}
    placements: dict[int, list[itemgetter]] = {}
    for sizes, count in runs.items():
        j = len(sizes)
        if j not in placements:
            # read each slot from sizes + (0,): its layer's size, or the 0 at index j
            placements[j] = [
                itemgetter(*(slots.index(i) if i in slots else j for i in range(n)))
                for slots in combinations(range(n), j)
            ]
        padded = sizes + (0,)
        result.update(dict.fromkeys([place(padded) for place in placements[j]], count))
    return result


def _tally_python_dict(
    shape: Sequence[int], n: int, bcontent: Sequence[int], conv: str
) -> dict[tuple[int, ...], int]:
    """Naive reference: the crystal's highest-weight bitableaux, tallied by a-content."""
    from .bitableau import weights
    from .crystal import highest_weight_bitableaux

    result: dict[tuple[int, ...], int] = {}
    for t in highest_weight_bitableaux(shape, n, len(bcontent), bcontent, conv=conv):
        key = weights(t)[0]
        result[key] = result.get(key, 0) + 1
    return result
