"""Lexicographic bitableaux: pair-valued fillings, weights, and the [nm] encoding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .partitions import Partition, check_int, check_partition, is_int
from .tableaux import SSYT, check_semistandard, grid_rows, iter_ssyt_rows, json_shape

Pair = tuple[int, int]
PairRows = tuple[tuple[Pair, ...], ...]


@dataclass(frozen=True)
class Bitableau:
    """Filling by ordered pairs, semistandard for the lexicographic order.

    Entries weakly increase lexicographically along rows and strictly
    increase lexicographically down columns; first coordinates lie in [1, n],
    second coordinates in [1, m].
    """

    shape: Partition
    rows: PairRows
    n: int
    m: int

    def __post_init__(self) -> None:
        check_int(self.n, "n", 1)
        check_int(self.m, "m", 1)
        check_partition(self.shape)
        if tuple(len(r) for r in self.rows) != self.shape:
            raise ValueError("row lengths do not match shape")
        for row in self.rows:
            for a, b in row:
                if check_int(a, "top entry", 1) > self.n or check_int(b, "bottom entry", 1) > self.m:
                    raise ValueError(f"entry ({a},{b}) outside [1,{self.n}]x[1,{self.m}]")
        check_semistandard(self.rows)

    @property
    def size(self) -> int:
        return sum(self.shape)

    def with_entry(self, r: int, c: int, pair: Pair) -> "Bitableau":
        """Copy with cell (r, c) of the shape replaced (revalidates)."""
        r, c = check_int(r, "row"), check_int(c, "column")
        if r >= len(self.shape) or c >= self.shape[r]:
            raise ValueError(f"cell ({r}, {c}) outside shape {self.shape!r}")
        rows = list(list(row) for row in self.rows)
        rows[r][c] = pair
        return Bitableau(self.shape, tuple(tuple(row) for row in rows), self.n, self.m)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [[[a, b] for a, b in row] for row in self.rows],
            "n": self.n,
            "m": self.m,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Bitableau":
        rows = _pair_rows(data.get("rows"))
        # n and m are inferred from the entries only when the key is absent
        n = data.get("n", max((a for row in rows for a, _ in row), default=1))
        m = data.get("m", max((b for row in rows for _, b in row), default=1))
        return cls(json_shape(data, rows), rows, n, m)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Sequence[int]]], n: int | None = None, m: int | None = None
    ) -> "Bitableau":
        grid = _pair_rows(rows)
        if n is None:
            n = max((a for row in grid for a, _ in row), default=1)
        if m is None:
            m = max((b for row in grid for _, b in row), default=1)
        return cls(tuple(len(r) for r in grid), grid, n, m)


def _is_pair(x: object) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(is_int(v) for v in x)


def _pair_rows(rows: object) -> PairRows:
    grid = grid_rows(rows, _is_pair, "an integer pair")
    return tuple(tuple(tuple(pair) for pair in row) for row in grid)


def pair_to_int(pair: Pair, m: int) -> int:
    """Order isomorphism ([n]x[m], lex) -> [nm] via (i,j) -> (i-1)m + j."""
    i, j = pair
    check_int(i, "first coordinate", 1)
    if check_int(j, "second coordinate", 1) > check_int(m, "m", 1):
        raise ValueError(f"second coordinate {j} outside [1, {m}]")
    return (i - 1) * m + j


def int_to_pair(value: int, m: int) -> Pair:
    check_int(value, "value", 1)
    check_int(m, "m", 1)
    return ((value - 1) // m + 1, (value - 1) % m + 1)


def iter_bitableau_rows(shape: Sequence[int], n: int, m: int) -> Iterator[PairRows]:
    """Yield raw pair-row tuples of every bitableau, row-major lex order.

    A bitableau is a semistandard filling over the pair alphabet [n]x[m] in
    lexicographic order, so this is the plain filler (tableaux.iter_ssyt_rows)
    over that alphabet.  Listing by b- or a-content is
    kernels.highest_weight_bitableaux, for the Yamanouchi ones only.
    """
    check_int(n, "n", 1)
    check_int(m, "m", 1)
    shape = tuple(shape)
    # the empty shape's one filling uses no letter, so its alphabet is left empty
    letters = [(a, b) for a in range(1, n + 1) for b in range(1, m + 1)] if shape else []
    return iter_ssyt_rows(shape, letters)


def enumerate_bitableaux(shape: Sequence[int], n: int, m: int) -> list[Bitableau]:
    """All lexicographic bitableaux with entries in [n]x[m], deterministic order."""
    shape = check_partition(shape)
    return [Bitableau(shape, rows, n, m) for rows in iter_bitableau_rows(shape, n, m)]


def weights(t: Bitableau) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a-weight, b-weight): coordinate multiplicity vectors of lengths (n, m)."""
    a = [0] * t.n
    b = [0] * t.m
    for row in t.rows:
        for x, y in row:
            a[x - 1] += 1
            b[y - 1] += 1
    return tuple(a), tuple(b)


def bitableau_to_ssyt(t: Bitableau) -> SSYT:
    """Entrywise (i,j) -> (i-1)m + j; semistandard over [nm]."""
    rows = tuple(tuple(pair_to_int(p, t.m) for p in row) for row in t.rows)
    return SSYT(t.shape, rows, t.n * t.m)


def ssyt_to_bitableau(s: SSYT, n: int, m: int) -> Bitableau:
    """Inverse of bitableau_to_ssyt; rejects entries larger than n*m."""
    for row in s.rows:
        for x in row:
            if x > n * m:
                raise ValueError(f"entry {x} exceeds n*m = {n * m}")
    rows = tuple(tuple(int_to_pair(x, m) for x in row) for row in s.rows)
    return Bitableau(s.shape, rows, n, m)
