"""Semistandard Young tableaux, straight and skew, with deterministic enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .partitions import Partition, check_partition, contains

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SSYT:
    """Semistandard filling: rows weakly increase, columns strictly increase."""

    shape: Partition
    rows: Rows
    max_entry: int

    def __post_init__(self) -> None:
        check_partition(self.shape)
        if tuple(len(r) for r in self.rows) != self.shape:
            raise ValueError("row lengths do not match shape")
        check_semistandard(self.rows, self.max_entry)

    @property
    def size(self) -> int:
        return sum(self.shape)

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector of entries, length max_entry."""
        counts = [0] * self.max_entry
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [list(r) for r in self.rows],
            "max_entry": self.max_entry,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SSYT":
        rows = tuple(tuple(int(x) for x in r) for r in data["rows"])
        max_entry = int(data.get("max_entry") or max((x for r in rows for x in r), default=1))
        return cls(tuple(len(r) for r in rows), rows, max_entry)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], max_entry: int | None = None) -> "SSYT":
        grid = tuple(tuple(int(x) for x in r) for r in rows)
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
        for r, row in enumerate(self.rows):
            for c, x in enumerate(row):
                if x < 1:
                    raise ValueError("entries must be positive")
                if c and x < row[c - 1]:
                    raise ValueError("rows must weakly increase")
        # column strictness across the inner offset
        for r in range(1, len(self.rows)):
            hi, lo = inner[r - 1], inner[r]
            for c, x in enumerate(self.rows[r]):
                col = lo + c
                if col >= hi and col < self.outer[r - 1]:
                    if x <= self.rows[r - 1][col - hi]:
                        raise ValueError("columns must strictly increase")

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)


def check_semistandard(rows: Sequence[Sequence[int]], max_entry: int) -> None:
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if not 1 <= x <= max_entry:
                raise ValueError(f"entry {x} outside [1, {max_entry}]")
            if c and x < row[c - 1]:
                raise ValueError("rows must weakly increase")
            if r and c < len(rows[r - 1]) and x <= rows[r - 1][c]:
                raise ValueError("columns must strictly increase")


def iter_ssyt_rows(shape: Sequence[int], n: int) -> Iterator[Rows]:
    """Yield raw row tuples of every SSYT of the shape with entries <= n.

    Row-major lexicographic order: cells are filled left-to-right, top-to-
    bottom, smallest feasible entry first.
    """
    shape = tuple(shape)
    if not shape:
        yield ()
        return
    if len(shape) > n:
        return
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    k = len(cells)
    grid = [[0] * length for length in shape]

    def rec(pos: int) -> Iterator[Rows]:
        if pos == k:
            yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[pos]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for val in range(lo, n + 1):
            grid[r][c] = val
            yield from rec(pos + 1)
        grid[r][c] = 0

    yield from rec(0)


def iter_ssyt_rows_content(shape: Sequence[int], content: Sequence[int]) -> Iterator[Rows]:
    """Yield SSYT row tuples with the exact content vector, row-major lex order."""
    shape = tuple(shape)
    content = tuple(content)
    n = len(content)
    if sum(shape) != sum(content):
        return
    if not shape:
        yield ()
        return
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    k = len(cells)
    grid = [[0] * length for length in shape]
    remaining = list(content)

    def rec(pos: int) -> Iterator[Rows]:
        if pos == k:
            yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[pos]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for val in range(lo, n + 1):
            if remaining[val - 1] == 0:
                continue
            remaining[val - 1] -= 1
            grid[r][c] = val
            yield from rec(pos + 1)
            remaining[val - 1] += 1
        grid[r][c] = 0

    yield from rec(0)


def enumerate_ssyt(shape: Sequence[int], n: int) -> list[SSYT]:
    """All SSYT of the shape with entries in [1, n], deterministic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    shape = check_partition(shape)
    return [SSYT(shape, rows, n) for rows in iter_ssyt_rows(shape, n)]


def count_ssyt(shape: Sequence[int], n: int) -> int:
    """Number of SSYT of the shape over [1, n], s_shape(1^n) by the hook-content formula."""
    shape = check_partition(shape)
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
