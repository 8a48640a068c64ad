"""Counting kernel: Yamanouchi bitableaux tallied by a-content, by a layer DP.

A bitableau of shape lam is a chain of top-entry shapes
() = lam^(0) <= lam^(1) <= ... <= lam^(n) = lam together with a semistandard
filling of bottom entries on each skew layer lam^(a)/lam^(a-1), the split
that crystal.skew_decomposition makes.  The sort-by-top word w is the
concatenation of the layers' row reading words for a = 1..n (w' for
a = n..1), so its Yamanouchi suffix condition is carried layer by layer, as
in the lattice-word form of the Littlewood-Richardson rule.  The DP state is
one shape of the chain and the content of the word suffix read so far; a
layer transition counts the lattice fillings of one skew shape that extend a
suffix of that content.  Layers are read from the end of the word: a = n
down to 1 for w, a = 1 up to n for w'.

Empty layers add nothing to the word, so the DP runs over chains of
nonempty layers and the tally spreads each sequence of layer sizes over the
n top values afterwards.  _tally_python_dict is the naive reference that
enumerates every filling.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Sequence

from .partitions import check_partition

Shape = tuple[int, ...]
Content = tuple[int, ...]


def _lattice_fillings(
    outer: Shape, inner: Shape, start: Content, cap: Content
) -> dict[Content, int]:
    """Lattice fillings of outer/inner that extend a suffix of content start.

    Cells are filled in the reverse of the row reading word (top row first,
    right to left), so each letter is prepended to the suffix and the
    Yamanouchi condition is checked as it is placed; letter x may not
    exceed cap[x] in total.  Returns the number of fillings by the content
    they end at.
    """
    m = len(cap)
    right: list[int] = []  # index of the layer cell to the right, or -1
    up: list[int] = []  # index of the layer cell above, or -1
    above: dict[int, int] = {}
    for r, (hi, lo) in enumerate(zip(outer, inner)):
        here: dict[int, int] = {}
        for col in range(hi - 1, lo - 1, -1):
            here[col] = len(right)
            right.append(here.get(col + 1, -1))
            up.append(above.get(col, -1))
        above = here
    size = len(right)
    vals = [0] * size
    cnt = list(start)
    ends: dict[Content, int] = {}

    def fill(i: int) -> None:
        if i == size:
            key = tuple(cnt)
            ends[key] = ends.get(key, 0) + 1
            return
        lo = vals[up[i]] + 1 if up[i] >= 0 else 0
        hi = vals[right[i]] if right[i] >= 0 else m - 1
        for x in range(lo, hi + 1):
            if cnt[x] < cap[x] and (x == 0 or cnt[x] < cnt[x - 1]):
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


def _layer_runs(shape: Shape, n: int, cap: Content, conv: str) -> dict[tuple[int, ...], int]:
    """Yamanouchi counts by the sizes of the nonempty layers, a ascending.

    At most n layers are used.  The memos live for one call only.
    """
    m = len(cap)
    rows = len(shape)
    k = sum(shape)
    down = conv == "w"  # w ends with the layer a = n: peel layers off lam
    fillings: dict[tuple[Shape, Shape, Content], dict[Content, int]] = {}
    runs: dict[tuple[Shape, Content, int], dict[tuple[int, ...], int]] = {}

    def layers(state: Shape):
        """(outer, inner, next state) of each nonempty layer next to state.

        A column of a layer holds at most m cells, since its bottom entries
        strictly increase.
        """
        if down:
            lo = state[m:] + (0,) * min(m, rows)
            for inner in _partitions_between(lo, state):
                if inner != state:
                    yield state, inner, inner
        else:
            hi = tuple(min(b, state[r - m]) if r >= m else b for r, b in enumerate(shape))
            for outer in _partitions_between(state, hi):
                if outer != state:
                    yield outer, state, outer

    def rest(state: Shape, start: Content, budget: int) -> dict[tuple[int, ...], int]:
        """Counts of the layers still to read from state, after a suffix of content start."""
        left = k - sum(start)
        if left == 0:
            return {(): 1}
        budget = min(budget, left)
        key = (state, start, budget)
        out = runs.get(key)
        if out is not None:
            return out
        out = {}
        if budget:
            for outer, inner, nxt in layers(state):
                size = sum(outer) - sum(inner)
                ends = fillings.get((outer, inner, start))
                if ends is None:
                    ends = fillings[outer, inner, start] = _lattice_fillings(outer, inner, start, cap)
                for end, ways in ends.items():
                    for sizes, count in rest(nxt, end, budget - 1).items():
                        sizes = sizes + (size,) if down else (size,) + sizes
                        out[sizes] = out.get(sizes, 0) + ways * count
        runs[key] = out
        return out

    return rest(shape if down else (0,) * rows, (0,) * m, n)


def tally_yamanouchi_acontent(
    shape: Sequence[int], n: int, bcontent: Sequence[int], conv: str = "w"
) -> dict[tuple[int, ...], int]:
    """Counts of Yamanouchi-reading-word bitableaux by exact a-content.

    Keys are a-content vectors of length n; only nonzero counts appear.
    b-content is fixed to bcontent (length m).
    """
    shape = check_partition(shape)
    if conv not in ("w", "w_prime"):
        raise ValueError(f"unknown convention {conv!r}")
    k = sum(shape)
    if k != sum(bcontent):
        return {}
    if k == 0:
        return {(0,) * n: 1}
    if n < 1:
        return {}
    return _spread(_layer_runs(shape, n, tuple(bcontent), conv), n)


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
    """Naive reference: enumerate every filling and test its reading word."""
    from .bitableau import iter_bitableau_rows
    from .words import is_yamanouchi

    result: dict[tuple[int, ...], int] = {}
    groups = range(1, n + 1) if conv == "w" else range(n, 0, -1)
    for rows in iter_bitableau_rows(shape, n, len(bcontent), bcontent):
        word = [
            b
            for a in groups
            for r in range(len(rows) - 1, -1, -1)
            for (x, b) in rows[r]
            if x == a
        ]
        if is_yamanouchi(word):
            acnt = [0] * n
            for row in rows:
                for a, _ in row:
                    acnt[a - 1] += 1
            key = tuple(acnt)
            result[key] = result.get(key, 0) + 1
    return result

