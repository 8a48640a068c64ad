"""The gl_m crystal on bitableaux via sort-by-top reading words.

Operators act directly on the reading word with a back-map from letter
position to source box; the skew decomposition is kept as a cross-check of
that streamlined route.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .bitableau import Bitableau, PairRows, iter_bitableau_rows, weights
from .graphs import CrystalGraph, CrystalVertex
from .kernels import count_d_table, layer_runs  # count_d_table is re-exported here
from .partitions import Partition, check_partition, check_triple, enumerate_partitions, trim
from .symfunc import monomial_coefficient_row
from .tableaux import SkewSSYT, count_ssyt
from .words import (
    CONVENTIONS,
    bitableau_reading_cells,
    crystal_op_position,
    is_yamanouchi,
)


class CrystalStructureError(RuntimeError):
    """An operator produced an invalid filling; this would falsify the construction."""


class CapExceededError(RuntimeError):
    """A vertex budget was exceeded."""


def _image_rows(
    rows: PairRows, word: Sequence[int], cells: Sequence[tuple[int, int]], i: int, direction: str
) -> tuple[tuple[int, int], PairRows] | None:
    """The cell an operator changes and the unchecked rows it leaves, or None."""
    pos = crystal_op_position(word, i, direction)
    if pos is None:
        return None
    r, c = cells[pos]
    a, b = rows[r][c]
    row = rows[r][:c] + ((a, b + (1 if direction == "lower" else -1)),) + rows[r][c + 1 :]
    return (r, c), rows[:r] + (row,) + rows[r + 1 :]


def crystal_op_bitableau(
    t: Bitableau, i: int, direction: str, conv: str = "w"
) -> Bitableau | None:
    """gl_m operator on the bottom entries; conv picks the w or w' word.

    None mirrors the word-level null; an invalid resulting filling raises
    CrystalStructureError.
    """
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    if not 1 <= i < t.m:
        raise ValueError(f"operator index {i} outside [1, {t.m - 1}]")
    image = _image_rows(t.rows, *bitableau_reading_cells(t.rows, conv), i, direction)
    if image is None:
        return None
    cell, rows = image
    try:
        return Bitableau(t.shape, rows, t.n, t.m)
    except ValueError as exc:
        raise CrystalStructureError(
            f"{conv} operator {direction} f_{i} broke semistandardness at {cell}"
        ) from exc


def is_highest_weight(t: Bitableau, conv: str = "w") -> bool:
    return is_yamanouchi(bitableau_reading_cells(t.rows, conv)[0])


def highest_weight_bitableaux(
    lam: Sequence[int],
    n: int,
    m: int,
    bcontent: Sequence[int] | None = None,
    acontent: Sequence[int] | None = None,
    conv: str = "w",
) -> Iterator[Bitableau]:
    """The highest-weight bitableaux of B_lam(n,m) under conv, in filler order.

    bcontent and acontent, when given, keep only the fillings with exactly
    that b- and a-content.
    """
    lam = check_partition(lam)
    for rows in iter_bitableau_rows(lam, n, m, bcontent, acontent):
        if is_yamanouchi(bitableau_reading_cells(rows, conv)[0]):
            yield Bitableau(lam, rows, n, m)


def count_d(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int], conv: str = "w"
) -> int:
    """Bitableaux of shape lam with a(T)=mu, b(T)=nu and Yamanouchi word.

    The partition mu is its own run, so the counter builds partition runs only.
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    return layer_runs(nu, conv)(lam, len(mu), _partitions=True).get(mu, 0)


def monomial_expansion_sweep(k: int, conv: str = "w") -> list[tuple[Partition, Partition, Partition, int, int]]:
    """Crystal count versus character-side d for every triple of partitions of k.

    Rows run lam, nu, mu in partition order.  The crystal side reads one
    layer_runs memo per nu, which holds partition runs only: every mu is its
    own run, and the count is symmetric in the a-content, so no other run is
    read.  The oracle side is monomial_coefficient_row, the
    permutation-character route, once per (lam, nu).  The d point query keeps
    the other route, monomial_coefficient_d.
    """
    parts = enumerate_partitions(k)
    rows = {}
    for nu in parts:
        runs = layer_runs(nu, conv)  # one memo per nu, dropped after it
        for lam in parts:
            table, oracle = runs(lam, k, _partitions=True), monomial_coefficient_row(lam, nu)
            rows[lam, nu] = [(lam, mu, nu, table.get(mu, 0), oracle[mu]) for mu in parts]
    return [row for lam in parts for nu in parts for row in rows[lam, nu]]


def skew_decomposition(t: Bitableau) -> list[SkewSSYT]:
    """One skew tableau of bottom entries per top value, ascending.

    Cells with top entry at most a form a Young diagram, so the top-entry
    classes are nested skew shapes; empty classes are omitted.
    """
    pieces: list[SkewSSYT] = []
    prev = [0] * len(t.shape)
    for a in range(1, t.n + 1):
        outer = [sum(1 for (x, _) in row if x <= a) for row in t.rows]
        rows = tuple(tuple(b for (x, b) in row if x == a) for row in t.rows)
        if any(len(r) for r in rows):
            depth = max(r + 1 for r in range(len(outer)) if outer[r] > prev[r])
            piece = SkewSSYT(
                tuple(outer[:depth]), trim(prev[:depth]), rows[:depth]
            )
            pieces.append(piece)
        prev = outer
    return pieces


def full_crystal(
    lam: Sequence[int], n: int, m: int, conv: str = "w", cap: int = 10**6
) -> CrystalGraph:
    """Graph over all of B_lam(n,m) with every gl_m operator.

    Vertex ids follow the filler's row-major lexicographic order, so exports
    are byte-stable.  An image outside B_lam(n,m) broke semistandardness.
    """
    lam = check_partition(lam)
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    size = count_ssyt(lam, n * m)  # |B_lam(n,m)| through the [nm] encoding
    if size > cap:
        raise CapExceededError(f"{size} vertices exceed the cap {cap}")
    index = {rows: vid for vid, rows in enumerate(iter_bitableau_rows(lam, n, m))}
    vertices = []
    edges: dict[tuple[int, int], int] = {}
    for rows, vid in index.items():
        t = Bitableau(lam, rows, n, m)
        vertices.append(CrystalVertex(vid, t.to_json(), *weights(t)))
        word, cells = bitableau_reading_cells(rows, conv)
        for i in range(1, m):
            if (image := _image_rows(rows, word, cells, i, "lower")) is not None:
                if image[1] not in index:
                    raise CrystalStructureError(
                        f"{conv} operator lower f_{i} broke semistandardness at {image[0]}"
                    )
                edges[(vid, i)] = index[image[1]]
    return CrystalGraph(tuple(vertices), edges)
