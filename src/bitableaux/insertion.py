"""RSK row insertion, Burge insertion, dual RSK, jeu de taquin, Knuth classes."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .bitableau import Bitableau
from .partitions import check_int, conjugate
from .tableaux import SSYT, Rows, SkewSSYT
from .words import bitableau_reading_cells

Word = tuple[int, ...]
Cell = tuple[int, int]


@dataclass(frozen=True)
class Biword:
    """Two-row array of columns (top, bottom).

    lexicographic: columns sorted weakly by top, ties weakly increasing by
    bottom, repeats allowed.  burge: ties strictly decreasing by bottom, so
    no column repeats.
    """

    tops: Word
    bottoms: Word
    flavor: str = "lexicographic"

    def __post_init__(self) -> None:
        if len(self.tops) != len(self.bottoms):
            raise ValueError("rows of a biword must have equal length")
        for x in (*self.tops, *self.bottoms):
            check_int(x, "biword entry", 1)
        cols = list(zip(self.tops, self.bottoms))
        for i in range(len(cols) - 1):
            (a1, b1), (a2, b2) = cols[i], cols[i + 1]
            if a1 > a2:
                raise ValueError("top row must be weakly increasing")
            if a1 == a2:
                if self.flavor == "lexicographic" and b1 > b2:
                    raise ValueError("ties must be weakly increasing by bottom entry")
                if self.flavor == "burge" and b1 <= b2:
                    raise ValueError("burge ties must be strictly decreasing by bottom entry")
        if self.flavor not in ("lexicographic", "burge"):
            raise ValueError(f"unknown biword flavor {self.flavor!r}")

    def swapped(self) -> "Biword":
        """Exchange the rows and re-sort lexicographically."""
        cols = sorted(zip(self.bottoms, self.tops))
        return Biword(
            tuple(a for a, _ in cols), tuple(b for _, b in cols), "lexicographic"
        )


@dataclass(frozen=True)
class TableauPair:
    """(P, Q) insertion/recording pair; kind records which correspondence."""

    insertion: SSYT
    recording: SSYT
    kind: str = "rsk"

    def __post_init__(self) -> None:
        if self.kind == "rsk" and self.insertion.shape != self.recording.shape:
            raise ValueError("RSK output must have equal shapes")
        if self.kind == "brsk" and self.recording.shape != conjugate(self.insertion.shape):
            raise ValueError("bRSK recording shape must be conjugate to the insertion shape")

    def to_json(self) -> dict:
        return {"P": self.insertion.to_json(), "Q": self.recording.to_json()}


def row_insert(t: SSYT, x: int) -> tuple[SSYT, Cell]:
    """Bump x through the rows; returns the new tableau and 1-based new cell."""
    rows = [list(r) for r in t.rows]
    r = _bump(rows, check_int(x, "inserted value", 1))
    return SSYT.from_rows(rows, max(t.max_entry, x)), (r + 1, len(rows[r]))


def _bump(rows: list[list[int]], x: int, strict: bool = False) -> int:
    """Insert x into rows in place; returns the row of the new cell.

    Each row's leftmost entry greater than x (row insertion) or, strict, at
    least x (dual insertion) is bumped into the next row.
    """
    find = bisect_left if strict else bisect_right
    for r, row in enumerate(rows):
        pos = find(row, x)
        if pos == len(row):
            row.append(x)
            return r
        x, row[pos] = row[pos], x
    rows.append([x])
    return len(rows) - 1


def insert_word(word: Sequence[int]) -> SSYT:
    """P(w): successive row insertion into an initially empty tableau."""
    rows: list[list[int]] = []
    for x in word:
        _bump(rows, check_int(x, "inserted value", 1))
    return SSYT.from_rows(rows)


def rsk(bw: Biword) -> TableauPair:
    """Insert the bottom row, record the top row at each created cell.

    For burge-flavor words the recording array is row-strict while it is
    built and is transposed at the end, giving conjugate shapes.
    """
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for top, bottom in zip(bw.tops, bw.bottoms):
        r = _bump(prows, bottom)
        if r == len(qrows):
            qrows.append([])
        qrows[r].append(top)
    p = SSYT.from_rows(prows)
    if bw.flavor == "burge":
        q = SSYT.from_rows(transpose_rows(tuple(tuple(r) for r in qrows)))
        return TableauPair(p, q, "brsk")
    return TableauPair(p, SSYT.from_rows(qrows), "rsk")


def transpose_rows(rows: Rows) -> Rows:
    if not rows:
        return ()
    return tuple(
        tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0]))
    )


def burge_word(t: Bitableau) -> Biword:
    """Burge word of a single-column bitableau.

    Its columns are the entries in the order of the w reading word: (1,*)
    first, then (2,*) and so on, bottom to top, which sorts ties in
    decreasing order of the second coordinate.
    """
    if any(length != 1 for length in t.shape):
        raise ValueError("burge words are read from single-column bitableaux")
    _, cells = bitableau_reading_cells(t.rows, "w")
    cols = [t.rows[r][c] for r, c in cells]
    return Biword(
        tuple(a for a, _ in cols), tuple(b for _, b in cols), "burge"
    )


def brsk(t: Bitableau) -> TableauPair:
    """Burge insertion of a column bitableau; recording transposed at the end."""
    return rsk(burge_word(t))


def dual_rsk_insert(word: Sequence[int]) -> Rows:
    """P'(w): dual insertion tableau, row-strict (transpose is semistandard)."""
    rows: list[list[int]] = []
    for x in word:
        _bump(rows, x, strict=True)
    out = tuple(tuple(r) for r in rows)
    SSYT.from_rows(transpose_rows(out))  # validates row-strictness
    return out


def knuth_equivalent(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """True iff the insertion tableaux coincide."""
    return insert_word(w1) == insert_word(w2)


# --- jeu de taquin ---------------------------------------------------------


def _skew_state(t: SkewSSYT) -> tuple[list[int], list[int], dict[Cell, int]]:
    inner = list(t.inner) + [0] * (len(t.outer) - len(t.inner))
    grid = {
        (r, inner[r] + c): x
        for r, row in enumerate(t.rows)
        for c, x in enumerate(row)
    }
    return list(t.outer), inner, grid


def _inner_corners(inner: list[int]) -> list[Cell]:
    corners = []
    for r, length in enumerate(inner):
        if length and (r + 1 >= len(inner) or inner[r + 1] < length):
            corners.append((r, length - 1))
    return corners


def _slide(outer: list[int], inner: list[int], grid: dict[Cell, int], corner: Cell) -> None:
    r, c = corner
    while True:
        right = grid.get((r, c + 1)) if c + 1 < outer[r] else None
        below = grid.get((r + 1, c)) if r + 1 < len(outer) and c < outer[r + 1] else None
        if right is None and below is None:
            break
        if right is None or (below is not None and below <= right):
            grid[(r, c)] = below
            del grid[(r + 1, c)]
            r += 1
        else:
            grid[(r, c)] = right
            del grid[(r, c + 1)]
            c += 1
    outer[r] -= 1
    inner[corner[0]] -= 1
    if outer[r] != c:
        raise AssertionError("slide did not terminate on the outer boundary")


def _grid_to_ssyt(outer: list[int], grid: dict[Cell, int]) -> SSYT:
    shape = tuple(length for length in outer if length)
    rows = tuple(tuple(grid[(r, c)] for c in range(length)) for r, length in enumerate(shape))
    return SSYT.from_rows(rows)


def rectify(t: SkewSSYT) -> SSYT:
    """Slide to a straight shape, always choosing the topmost inner corner."""
    outer, inner, grid = _skew_state(t)
    while any(inner):
        _slide(outer, inner, grid, _inner_corners(inner)[0])
    return _grid_to_ssyt(outer, grid)


def all_rectifications(t: SkewSSYT) -> set[SSYT]:
    """Results of every maximal slide sequence (for confluence checking)."""
    results: set[SSYT] = set()
    _rectifications(*_skew_state(t), set(), results)
    return results


def _rectifications(outer: list[int], inner: list[int], grid: dict[Cell, int], seen: set, results: set) -> None:
    """Add to results the rectification of every slide sequence from this state not yet in seen."""
    key = (tuple(outer), tuple(inner), tuple(sorted(grid.items())))
    if key in seen:
        return
    seen.add(key)
    corners = _inner_corners(inner)
    if not corners:
        results.add(_grid_to_ssyt(outer, grid))
        return
    for corner in corners:
        o2, i2, g2 = list(outer), list(inner), dict(grid)
        _slide(o2, i2, g2, corner)
        _rectifications(o2, i2, g2, seen, results)


def product_skew(left: SSYT, right: SSYT) -> SkewSSYT:
    """Place left southwest of right, forming one skew tableau."""
    if not left.shape:
        return SkewSSYT(right.shape, (), right.rows)
    if not right.shape:
        return SkewSSYT(left.shape, (), left.rows)
    offset = left.shape[0]
    outer = tuple(offset + part for part in right.shape) + left.shape
    inner = (offset,) * len(right.shape)
    return SkewSSYT(outer, inner, right.rows + left.rows)


def jdt_product(left: SSYT, right: SSYT) -> SSYT:
    """Plactic product: rectify the southwest concatenation."""
    if not left.shape:
        return right
    if not right.shape:
        return left
    return rectify(product_skew(left, right))
