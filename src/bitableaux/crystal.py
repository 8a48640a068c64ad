"""The gl_m crystal on bitableaux via sort-by-top reading words.

Operators act directly on the reading word with a back-map from letter
position to source box; the skew decomposition is kept as a cross-check of
that streamlined route.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .bitableau import Bitableau, PairRows, iter_bitableau_rows, weights
from .graphs import CrystalGraph, CrystalVertex
from .kernels import count_d_table, highest_weight_rows, layer_runs, shared_runs  # count_d_table is re-exported here
from .partitions import (
    Partition,
    check_content,
    check_int,
    check_partition,
    check_triple,
    conjugate,
    enumerate_partitions,
    trim,
)
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


def check_cap(count: int, cap: int, noun: str) -> None:
    """CapExceededError if count exceeds cap; a cap that is not an int >= 0 is a ValueError."""
    if count > check_int(cap, "cap"):
        raise CapExceededError(f"{count} {noun} exceed the cap {cap}")


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
    if check_int(i, "operator index", 1) >= t.m:
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
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
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

    bcontent and acontent, when given, keep only the bitableaux with exactly
    that b- and a-content (partitions.check_content).  The rows are built
    layer by layer by the kernel's lattice backtracker
    (kernels.highest_weight_rows), not filtered from every filling, and each
    row set is validated as a Bitableau.
    """
    lam = check_partition(lam)
    check_int(n, "n", 1)
    check_int(m, "m", 1)
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    nu = check_content(bcontent, m, "b-content")
    mu = check_content(acontent, n, "a-content")
    for rows in highest_weight_rows(lam, n, m, None if nu is None else trim(nu), mu, conv):
        yield Bitableau(lam, rows, n, m)


def count_d(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int], conv: str = "w"
) -> int:
    """Bitableaux of shape lam with a(T)=mu, b(T)=nu and Yamanouchi word.

    The partition mu is its own run, so the counter builds partition runs
    only.  It is the process-wide counter of conv (kernels.shared_runs):
    its DP holds no nu, and under w no lam either, so queries share its
    memo; under w' each lam is one push, and queries share the last lam's runs.
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    return shared_runs(conv)(lam, partitions=True).get(nu, {}).get(mu, 0)


def monomial_expansion_sweep(k: int, conv: str = "w") -> list[tuple[Partition, Partition, Partition, int, int]]:
    """Crystal count versus character-side d for every triple of partitions of k.

    Rows run lam, nu, mu in partition order.  The crystal side is one
    layer_runs counter per call, read once per lam: its partition runs hold
    every (mu, nu) of that lam at once, since the DP holds no nu, and the
    count is symmetric in the a-content, so no other run is read.  Under w
    its memo serves every lam; under w' one push inside the bound
    (k, k // 2, ..., 1) grows every lam.  The oracle side is
    monomial_coefficient_row, the permutation-character route, once per
    orbit {(lam, nu), (nu, lam), (lam', nu'), (nu', lam')}: chi^{lam'} is
    sgn * chi^lam, so the weights sizes * chi^lam * chi^nu, and the row, are
    the orbit's.  The d point query keeps the other route,
    monomial_coefficient_d.
    """
    parts = enumerate_partitions(k)
    runs = layer_runs(conv)
    bound = tuple(k // i for i in range(1, k + 1))  # i * lam_i <= k: every lam of k lies inside
    conj = {p: conjugate(p) for p in parts}
    oracle: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    rows = []
    for lam in parts:
        tables = runs(lam, partitions=True, bound=bound)
        for nu in parts:
            pair = min((lam, nu), (nu, lam), (conj[lam], conj[nu]), (conj[nu], conj[lam]))  # names the orbit
            if pair not in oracle:
                oracle[pair] = monomial_coefficient_row(*pair)
            table, row = tables.get(nu, {}), oracle[pair]
            rows += [(lam, mu, nu, table.get(mu, 0), row[mu]) for mu in parts]
    return rows


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
    check_int(n, "n", 1)
    check_int(m, "m", 1)
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    check_cap(count_ssyt(lam, n * m), cap, "vertices")  # |B_lam(n,m)| through the [nm] encoding
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
