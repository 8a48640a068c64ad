"""Semistandard Young tableaux, straight and skew, and the one semistandard filler."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .partitions import Partition, check_int, check_partition, contains, is_int

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SSYT:
    """Semistandard filling: rows weakly increase, columns strictly increase."""

    shape: Partition
    rows: Rows
    max_entry: int

    def __post_init__(self) -> None:
        check_int(self.max_entry, "max_entry", 1)
        check_partition(self.shape)
        if tuple(len(r) for r in self.rows) != self.shape:
            raise ValueError("row lengths do not match shape")
        for row in self.rows:
            for x in row:
                if check_int(x, "entry", 1) > self.max_entry:
                    raise ValueError(f"entry {x} outside [1, {self.max_entry}]")
        check_semistandard(self.rows)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [list(r) for r in self.rows],
            "max_entry": self.max_entry,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SSYT":
        rows = grid_rows(data.get("rows"), is_int, "an integer")
        # max_entry is inferred from the entries only when the key is absent
        max_entry = data.get("max_entry", max((x for r in rows for x in r), default=1))
        return cls(json_shape(data, rows), rows, max_entry)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], max_entry: int | None = None) -> "SSYT":
        grid = grid_rows(rows, is_int, "an integer")
        if max_entry is None:
            max_entry = max((x for r in grid for x in r), default=1)
        return cls(tuple(len(r) for r in grid), grid, max_entry)


@dataclass(frozen=True)
class SkewSSYT:
    """Semistandard filling of a skew shape outer/inner.

    rows[i] holds the filled cells of row i, columns inner[i]..outer[i]-1.
    """

    outer: Partition
    inner: Partition
    rows: Rows

    def __post_init__(self) -> None:
        check_partition(self.outer)
        check_partition(self.inner)
        if not contains(self.outer, self.inner):
            raise ValueError("inner shape must fit inside outer shape")
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        if tuple(len(r) for r in self.rows) != tuple(
            o - i for o, i in zip(self.outer, inner)
        ):
            raise ValueError("row lengths do not match skew shape")
        for row in self.rows:
            for x in row:
                check_int(x, "entry", 1)
        check_semistandard(self.rows, inner)


def grid_rows(rows: object, is_cell, cell_form: str) -> tuple[tuple, ...]:
    """rows as a tuple of row tuples; ValueError unless every cell passes is_cell."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"rows must be a list of rows, got {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"each row must be a list of cells, got {row!r}")
        for x in row:
            if not is_cell(x):
                raise ValueError(f"cell {x!r} is not {cell_form}")
    return tuple(tuple(row) for row in rows)


def json_shape(data: dict, rows: tuple[tuple, ...]) -> Partition:
    """The row lengths of rows; ValueError unless data's "shape", when present, is the same."""
    shape = tuple(len(row) for row in rows)
    given = data.get("shape", shape)
    if not isinstance(given, (list, tuple)) or check_partition(given) != shape:
        raise ValueError(f"shape {given!r} does not match the row lengths {list(shape)}")
    return shape


def check_semistandard(rows: Sequence[Sequence], inner: Sequence[int] = ()) -> None:
    """ValueError unless rows weakly increase and columns strictly increase.

    Row r starts at column inner[r] (0 past the end of inner).  Entries
    compare in their alphabet's order, so integers and lexicographically
    ordered pairs both work.  This is the one semistandard check.
    """
    starts = tuple(inner) + (0,) * (len(rows) - len(inner))
    for r, row in enumerate(rows):
        # cell c of row r sits below cell c + shift of the row above
        above = rows[r - 1] if r else ()
        shift = starts[r] - starts[r - 1] if r else 0
        for c, x in enumerate(row):
            if c and x < row[c - 1]:
                raise ValueError("rows must weakly increase")
            if 0 <= c + shift < len(above) and x <= above[c + shift]:
                raise ValueError("columns must strictly increase")


def iter_ssyt_rows(shape: Sequence[int], letters: int | Sequence) -> Iterator[tuple[tuple, ...]]:
    """Yield the row tuples of every semistandard filling of the shape.

    letters is the alphabet in increasing order; an int n means 1..n.
    Row-major lexicographic order: cells are filled left to right, top to
    bottom, smallest feasible letter first.  This is the one backtracking
    filler, with no content constraint; bitableaux are its fillings over the
    pair alphabet.
    """
    shape = tuple(shape)
    if not shape:  # no cell reads the alphabet, so it is never built
        yield ()
        return
    if isinstance(letters, int):
        letters = range(1, letters + 1)
    letters = tuple(letters)
    size = len(letters)
    if len(shape) > size:
        return
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    last = len(cells) - 1
    # letter indices drive the row and column checks; the letters
    # themselves go straight into the output grid
    index = [[0] * length for length in shape]
    grid: list[list] = [[None] * length for length in shape]
    # an odometer over the cells: each cell takes each letter the cells
    # left of it and above it allow, and the cells after it start afresh
    pos, entering = 0, True
    while pos >= 0:
        r, c = cells[pos]
        index_row, grid_row = index[r], grid[r]
        if entering:
            v = index_row[c - 1] if c else 0
            if r:
                v = max(v, index[r - 1][c] + 1)
            if pos == last:
                for v in range(v, size):
                    grid_row[c] = letters[v]
                    yield tuple(map(tuple, grid))
                pos, entering = pos - 1, False
                continue
        else:
            v = index_row[c] + 1
        if v < size:
            index_row[c] = v
            grid_row[c] = letters[v]
            pos, entering = pos + 1, True
        else:
            pos, entering = pos - 1, False


def enumerate_ssyt(shape: Sequence[int], n: int) -> list[SSYT]:
    """All SSYT of the shape with entries in [1, n], deterministic order."""
    check_int(n, "n", 1)
    shape = check_partition(shape)
    return [SSYT(shape, rows, n) for rows in iter_ssyt_rows(shape, n)]


def count_ssyt(shape: Sequence[int], n: int) -> int:
    """Number of SSYT of the shape over [1, n], s_shape(1^n) by the hook-content formula."""
    shape = check_partition(shape)
    check_int(n, "n")
    num = den = 1
    for r, length in enumerate(shape):
        for c in range(length):
            leg = sum(1 for below in shape[r + 1 :] if below > c)
            num *= n + c - r
            den *= length - c + leg
    return num // den


def reading_word(t: SSYT | SkewSSYT) -> tuple[int, ...]:
    """Row reading word: rows left-to-right, bottom row first."""
    word: list[int] = []
    for row in reversed(t.rows):
        word.extend(row)
    return tuple(word)


def ssyt_from_reading_word(word: Sequence[int]) -> SSYT | None:
    """Reconstruct the SSYT with the given row reading word, or None.

    Within a row word the value strictly drops at every row boundary, so the
    maximal weakly increasing runs are the rows (bottom to top).
    """
    word = tuple(word)
    if not word:
        return SSYT((), (), 1)
    runs: list[list[int]] = [[word[0]]]
    for x in word[1:]:
        if x >= runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    rows = tuple(tuple(run) for run in reversed(runs))
    try:
        return SSYT.from_rows(rows)
    except ValueError:
        return None
