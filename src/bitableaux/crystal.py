"""The gl_m crystal on bitableaux via sort-by-top reading words.

Operators act directly on the reading word with a back-map from letter
position to source box; the skew decomposition is kept as a cross-check of
that streamlined route.  full_crystal works on the filler's [nm] integer
codes, with no Bitableau per vertex: B_lam(n,m) splits by top filling into
word crystals, so each vertex is keyed by its top filling and its bottom
word, its payload's rows are built from one pair tuple per code, one
bracket scan per distinct word places every f_i, each image of an f_i is
one lookup of the image word in its top filling's table, and every vertex
is still checked semistandard: each distinct row once, each vertex's
columns at C level.
"""

from __future__ import annotations

from itertools import chain
from operator import gt, lt
from typing import Iterator, Sequence

from .bitableau import Bitableau, int_to_pair
from .graphs import CrystalGraph, CrystalVertex
from .kernels import count_d, count_d_table, highest_weight_bitableaux, partition_runs  # the first three re-exported
from .partitions import (
    Partition,
    check_int,
    check_partition,
    conjugate,
    enumerate_partitions,
    trim,
)
from .symfunc import monomial_coefficient_row
from .tableaux import SkewSSYT, check_semistandard, count_ssyt, iter_ssyt_rows
from .words import bitableau_reading_cells, check_conv, crystal_op_position, is_yamanouchi, lowering_positions


class CrystalStructureError(RuntimeError):
    """An operator produced an invalid filling; this would falsify the construction."""


class CapExceededError(RuntimeError):
    """A vertex budget was exceeded."""


def check_cap(count: int, cap: int, noun: str) -> None:
    """CapExceededError if count exceeds cap; a cap that is not an int >= 0 is a ValueError."""
    if count > check_int(cap, "cap"):
        raise CapExceededError(f"{count} {noun} exceed the cap {cap}")


def crystal_op_bitableau(
    t: Bitableau, i: int, direction: str, conv: str = "w"
) -> Bitableau | None:
    """gl_m operator on the bottom entries; conv picks the w or w' word.

    None mirrors the word-level null; an invalid resulting filling raises
    CrystalStructureError.
    """
    check_conv(conv)
    if check_int(i, "operator index", 1) >= t.m:
        raise ValueError(f"operator index {i} outside [1, {t.m - 1}]")
    word, cells = bitableau_reading_cells(t.rows, conv)
    pos = crystal_op_position(word, i, direction)
    if pos is None:
        return None
    r, c = cells[pos]
    a, b = t.rows[r][c]
    try:
        return t.with_entry(r, c, (a, b + (1 if direction == "lower" else -1)))
    except ValueError as exc:
        raise CrystalStructureError(
            f"{conv} operator {direction} f_{i} broke semistandardness at {(r, c)}"
        ) from exc


def is_highest_weight(t: Bitableau, conv: str = "w") -> bool:
    check_conv(conv)
    return is_yamanouchi(bitableau_reading_cells(t.rows, conv)[0])


Row = tuple[Partition, Partition, Partition, int, int]  # lam, mu, nu, crystal count, oracle d


def monomial_expansion_rows(k: int, conv: str = "w") -> Iterator[list[Row]]:
    """The rows (lam, mu, nu, crystal, oracle) of every triple of partitions of k, one lam at a time.

    Each item is one lam's rows, nu then mu in partition order; the lam
    come in partition order.  The crystal side is kernels.partition_runs,
    read once per lam: a lam's partition runs hold every (mu, nu) of that
    lam at once, since the DP holds no nu, and the count is symmetric in
    the a-content, so no other run is read.  The oracle side
    is monomial_coefficient_row, the permutation-character route, once per
    orbit {(lam, nu), (nu, lam), (lam', nu'), (nu', lam')}: chi^{lam'} is
    sgn * chi^lam, so the weights sizes * chi^lam * chi^nu, and the row,
    are the orbit's.  The d point query reads the same sum at its one mu,
    class by class (monomial_coefficient_point).  k and conv are checked at
    the call, the rows found as they are read.
    """
    return _expansion_rows(enumerate_partitions(k), partition_runs(k, conv))


def _expansion_rows(parts: list[Partition], runs: Iterator) -> Iterator[list[Row]]:
    """monomial_expansion_rows' generator: the rows of parts' triples, from each lam's runs."""
    conj = {p: conjugate(p) for p in parts}
    oracle: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    for lam, tables in runs:
        rows = []
        for nu in parts:
            pair = min((lam, nu), (nu, lam), (conj[lam], conj[nu]), (conj[nu], conj[lam]))  # names the orbit
            if pair not in oracle:
                oracle[pair] = monomial_coefficient_row(*pair)
            table, row = tables.get(nu, {}), oracle[pair]
            rows += [(lam, mu, nu, table.get(mu, 0), row[mu]) for mu in parts]
        yield rows


def monomial_expansion_sweep(k: int, conv: str = "w") -> list[Row]:
    """Crystal count versus character-side d for every triple of partitions of k.

    The rows of monomial_expansion_rows, every lam's in one list.
    """
    return list(chain.from_iterable(monomial_expansion_rows(k, conv)))


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

    The vertices are the plain filler's fillings over [nm], which the [nm]
    encoding (bitableau.int_to_pair) reads as bitableaux; vertex ids follow
    the filler's row-major lexicographic order, so exports are byte-stable.
    Every vertex is checked semistandard, as tableaux.check_semistandard
    would: each distinct row of codes for a descent once, when it first
    enters the table of pair rows, and each vertex's columns with one C-level
    comparison per pair of rows; a fault raises check_semistandard's own
    ValueError.  Its payload is
    {"shape": lam, "rows": rows, "n": n, "m": m}, rows equal to its
    Bitableau's rows: a tuple of row tuples of pair tuples, one pair tuple
    per code and one row tuple per distinct row of codes, each shared by
    every vertex that holds it, as is one tuple per distinct weight.

    The bottom operators never change a top entry and read the bottom
    entries only through the conv word, so B_lam(n,m) splits by top filling
    and each piece is a word crystal.  A vertex is keyed by its top filling
    and its bottom word.  Each distinct top filling sorts the reading order
    once and holds its weight_a and a table {word: vertex id}; each distinct
    word gets one left-to-right bracket scan (words.lowering_positions),
    which gives its weight_b and every f_i image word, its letter b < m at
    one position raised to b + 1.  Each edge is then one lookup of that word
    in the vertex's own top filling's table.  An image outside B_lam(n,m),
    or a bottom entry m that would wrap into the next top value, broke
    semistandardness.
    """
    lam = check_partition(lam)
    check_int(n, "n", 1)
    check_int(m, "m", 1)
    check_conv(conv)
    check_cap(count_ssyt(lam, n * m), cap, "vertices")  # |B_lam(n,m)| through the [nm] encoding
    # pairs[x] = (top[x], bottom[x]): the pair of code x under bitableau's
    # [nm] encoding, one tuple per code shared by every vertex; the empty
    # shape uses no code
    pairs = [(0, 0)] + [int_to_pair(x, m) for x in range(1, (n * m if lam else 0) + 1)]
    top, bottom = [a for a, _ in pairs], [b for _, b in pairs]
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    # flat positions in row reading order (bottom row first, left to right),
    # sorted stably by top entry as in bitableau_reading_cells
    reading = sorted(range(len(cells)), key=lambda p: -cells[p][0])
    descending = conv == "w_prime"
    below = range(1, len(lam))  # the rows with a row above
    pair_rows: dict[tuple[int, ...], tuple] = {}  # each distinct row of codes, as pairs
    weights: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct weight

    def weight(letters: tuple[int, ...], size: int) -> tuple[int, ...]:
        counts = [0] * (size + 1)
        for x in letters:
            counts[x] += 1
        counts = tuple(counts[1:])
        return weights.setdefault(counts, counts)

    # top filling -> (reading order, weight_a, {word: vertex id})
    fillings: dict[tuple[int, ...], tuple[list[int], tuple[int, ...], dict]] = {}
    # word -> (word, weight_b, [(i, position, image word, or None for a wrap)])
    scans: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...], list]] = {}
    vertices, vertex_fillings, vertex_scans = [], [], []
    for vid, rows in enumerate(iter_ssyt_rows(lam, n * m)):
        # semistandard: each distinct row is checked for a descent once, as
        # it enters pair_rows, and each vertex's columns at C level;
        # check_semistandard, called only on a fault, raises its message
        for row in rows:
            if row not in pair_rows:
                if any(map(gt, row, row[1:])):
                    check_semistandard(rows)
                pair_rows[row] = tuple(map(pairs.__getitem__, row))
        for r in below:
            if not all(map(lt, rows[r - 1], rows[r])):
                check_semistandard(rows)
        codes = sum(rows, ())
        tops = tuple([top[x] for x in codes])
        filling = fillings.get(tops)
        if filling is None:
            order = sorted(reading, key=tops.__getitem__, reverse=descending)
            filling = fillings[tops] = (order, weight(tops, n), {})
        order, weight_a, table = filling
        word = tuple([bottom[codes[p]] for p in order])
        scan = scans.get(word)
        if scan is None:
            images = [
                (i, pos, None if word[pos] == m else word[:pos] + (word[pos] + 1,) + word[pos + 1 :])
                for i, pos in enumerate(lowering_positions(word, m), 1)
                if pos is not None
            ]
            scan = scans[word] = (word, weight(word, m), images)
        table[scan[0]] = vid  # keyed by the word's one tuple
        vertex_fillings.append(filling)
        vertex_scans.append(scan)
        payload = {"shape": lam, "rows": tuple(map(pair_rows.__getitem__, rows)), "n": n, "m": m}
        vertices.append(CrystalVertex(vid, payload, weight_a, scan[1]))
    edges: dict[tuple[int, int], int] = {}
    # the ids are the vertices' own int objects, as the images are, not a second copy
    for vertex, (order, _, table), (_, _, images) in zip(vertices, vertex_fillings, vertex_scans):
        for i, pos, image_word in images:
            image = table.get(image_word)
            if image is None:
                raise CrystalStructureError(
                    f"{conv} operator lower f_{i} broke semistandardness at {cells[order[pos]]}"
                )
            edges[(vertex.id, i)] = image
    return CrystalGraph(tuple(vertices), edges)
