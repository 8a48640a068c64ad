"""Reading words and the bracket-matching crystal operators on words.

The parenthesization rule: for the operator index i, every letter i becomes
")" and every i+1 becomes "(".  Lowering flips the rightmost unmatched ")"
(an i becomes i+1), raising flips the leftmost unmatched "(" (an i+1 becomes
i).  No unmatched bracket means the operator sends the word to zero, which is
returned as None.
"""

from __future__ import annotations

from typing import Sequence

from .bitableau import Bitableau, PairRows
from .graphs import CrystalGraph, CrystalVertex
from .partitions import check_int

Word = tuple[int, ...]

CONVENTIONS = ("w", "w_prime")  # the sort-by-top words of the crystal and the kernel
READING_METHODS = ("row", *CONVENTIONS, "u", "u_prime")


def check_conv(conv: str) -> None:
    """ValueError unless conv is one of CONVENTIONS: the one convention rule."""
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")


# method -> (coordinate the boxes are sorted by, descending)
_READING_SORTS = {"w": (0, False), "w_prime": (0, True), "u": (1, False), "u_prime": (1, True)}


def bitableau_reading_cells(
    rows: PairRows, method: str
) -> tuple[Word, tuple[tuple[int, int], ...]]:
    """Reading word of bitableau rows together with each letter's source cell.

    The boxes in row reading order (bottom row first, left to right) are
    sorted stably by one coordinate, and the other coordinate is read: w / w'
    sort by top entry (ascending / descending) and read bottom entries; u / u'
    sort by bottom entry and read top entries.
    """
    if method not in _READING_SORTS:
        raise ValueError(f"unknown bitableau reading method {method!r}")
    key, descending = _READING_SORTS[method]
    boxes = [
        (pair, (r, c)) for r in range(len(rows) - 1, -1, -1) for c, pair in enumerate(rows[r])
    ]
    boxes.sort(key=lambda box: box[0][key], reverse=descending)
    return tuple(pair[1 - key] for pair, _ in boxes), tuple(cell for _, cell in boxes)


def bitableau_reading_word(t: Bitableau, method: str) -> Word:
    if method == "row":
        raise ValueError("method 'row' applies to integer tableaux, not bitableaux")
    return bitableau_reading_cells(t.rows, method)[0]


def unmatched_brackets(word: Sequence[int], i: int) -> tuple[list[int], list[int]]:
    """Positions of unmatched "(" (letters i+1) and unmatched ")" (letters i)."""
    opens: list[int] = []
    closes: list[int] = []
    for pos, x in enumerate(word):
        if x == i + 1:
            opens.append(pos)
        elif x == i:
            if opens:
                opens.pop()
            else:
                closes.append(pos)
    return opens, closes


def lowering_positions(word: Sequence[int], m: int) -> list[int | None]:
    """For i = 1..m-1, the index of the letter f_i changes (None: sent to zero), from one scan.

    The letters are in [1, m].  A letter b is ")" for i = b and "(" for
    i = b - 1.  Read left to right, a ")" closes an open "(" of its i if one
    is left, else it stays unmatched for good, so f_i flips the last
    unmatched one.  unmatched_brackets, one scan per i, is the reference.
    """
    opens = [0] * (m + 1)  # unmatched "(" so far, by i
    last: list[int | None] = [None] * (m + 1)  # the last unmatched ")" so far, by i
    for pos, b in enumerate(word):
        if opens[b]:
            opens[b] -= 1
        else:
            last[b] = pos
        opens[b - 1] += 1
    return last[1:m]


def crystal_op_word(word: Sequence[int], i: int, direction: str) -> Word | None:
    """Apply f_i ("lower") or e_i ("raise"); None encodes "sent to zero"."""
    check_int(i, "operator index", 1)
    word = tuple(word)
    pos = crystal_op_position(word, i, direction)
    if pos is None:
        return None
    return word[:pos] + (i + 1 if direction == "lower" else i,) + word[pos + 1 :]


def crystal_op_position(word: Sequence[int], i: int, direction: str) -> int | None:
    """Index of the letter the operator would change, or None."""
    opens, closes = unmatched_brackets(word, i)
    if direction == "lower":
        return closes[-1] if closes else None
    if direction == "raise":
        return opens[0] if opens else None
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def is_yamanouchi(word: Sequence[int]) -> bool:
    """True iff every suffix has at least as many i's as (i+1)'s, for all i."""
    counts: dict[int, int] = {}
    for x in reversed(word):
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


def word_weight(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Letter multiplicity vector of length n."""
    counts = [0] * check_int(n, "n")
    for x in word:
        if check_int(x, "letter", 1) > n:
            raise ValueError(f"letter {x} outside [1, {n}]")
        counts[x - 1] += 1
    return tuple(counts)


def word_crystal_component(word: Sequence[int], n: int) -> CrystalGraph:
    """Connected component of the word under all e_i / f_i with i < n."""
    start = tuple(word)
    word_weight(start, n)  # validates the alphabet bound
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, n):
                for direction in ("lower", "raise"):
                    img = crystal_op_word(w, i, direction)
                    if img is not None and img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    vertices = sorted(seen)
    index = {w: vid for vid, w in enumerate(vertices)}
    edges = {
        (vid, i): index[img]
        for vid, w in enumerate(vertices)
        for i in range(1, n)
        if (img := crystal_op_word(w, i, "lower")) is not None
    }
    return CrystalGraph(
        tuple(
            CrystalVertex(vid, list(w), None, word_weight(w, n)) for vid, w in enumerate(vertices)
        ),
        edges,
    )
