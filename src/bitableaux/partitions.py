"""Integer partitions: validation, enumeration, conjugation.

partitions_between is the one enumerator of partitions between two shapes:
the kernel's layers and the oracle's Kostka strips are read from it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]


def is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(value: object, name: str, least: int | None = 0) -> int:
    """value, if it is an int (not a bool) of at least least; otherwise ValueError.

    least None bounds nothing.  This is the one integer rule for scalar
    arguments, caps, cells and content entries.
    """
    if not is_int(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable into a partition tuple, rejecting bad input.

    Parts must be positive ints (not bools) and weakly decreasing; no
    trailing zeros are stored (strip them yourself first if you have a
    padded weight vector).
    """
    p = tuple(parts)
    for i, part in enumerate(p):
        if not is_int(part):
            raise ValueError(f"partition parts must be integers, got {p!r}")
        if part < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i and part > p[i - 1]:
            raise ValueError(f"partition parts must be weakly decreasing, got {p}")
    return p


def check_triple(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> tuple[Partition, ...]:
    """Three partitions of one size, normalized, or ValueError."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if not sum(lam) == sum(mu) == sum(nu):
        raise ValueError("all three partitions must have the same size")
    return lam, mu, nu


def check_content(content: Iterable[int] | None, letters: int, name: str) -> tuple[int, ...] | None:
    """content as a tuple of ints (the integer rule, unbounded), or None for None.

    A content counts each of letters letters, so one with fewer entries is a
    ValueError.  A negative entry or a wrong sum is left to match nothing.
    """
    if content is None:
        return None
    content = tuple(check_int(x, f"{name} entry", None) for x in content)
    if len(content) < letters:
        raise ValueError(f"{name} {content!r} has fewer than {letters} entries")
    return content


def trim(vec: Sequence[int]) -> Partition:
    """Drop trailing zeros, e.g. to compare a weight vector with a partition."""
    end = len(vec)
    while end and vec[end - 1] == 0:
        end -= 1
    return tuple(vec[:end])


def partitions_between(lo: Sequence[int], hi: Sequence[int], least: int, most: int) -> Iterator[Partition]:
    """Partitions p with lo <= p <= hi entrywise and least <= |p| <= most, all of len(hi).

    hi is a partition and lo has its length.  An empty range yields nothing.
    """
    n = len(hi)
    p = [0] * n
    rest_lo = [sum(lo[r:]) for r in range(n + 1)]
    rest_hi = [sum(hi[r:]) for r in range(n + 1)]

    def rec(r: int, filled: int) -> Iterator[Partition]:
        if r == n:
            if least <= filled <= most:
                yield tuple(p)
            return
        top = min(hi[r], p[r - 1]) if r else hi[r]
        for x in range(lo[r], min(top, most - filled - rest_lo[r + 1]) + 1):
            # the rows below hold at most x each, and at most hi
            if filled + x + min(rest_hi[r + 1], x * (n - r - 1)) >= least:
                p[r] = x
                yield from rec(r + 1, filled + x)

    return rec(0, 0)


def enumerate_partitions(k: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of k (at most max_length parts), reverse-lexicographic.

    No shape bounds it, so it keeps its own recursion: partitions_between,
    which pads each partition to k rows, lists the same set 9-14x slower at
    k = 20, 30 and 40.
    """
    check_int(k, "k")
    limit = k if max_length is None else min(check_int(max_length, "max_length"), k)
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, slots: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(max_part, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, slots - 1, prefix)
            prefix.pop()

    rec(k, k, limit, [])
    return out


def count_partitions(k: int, max_length: int | None = None) -> int:
    """len(enumerate_partitions(k, max_length)), counted without listing them.

    Partitions with at most L parts are conjugate to those with parts at
    most L, so ways[s] adds one allowed part size at a time: the recurrence
    p(s; parts <= j) = p(s; parts <= j - 1) + p(s - j; parts <= j).
    """
    check_int(k, "k")
    limit = k if max_length is None else min(check_int(max_length, "max_length"), k)
    ways = [1] + [0] * k
    for part in range(1, limit + 1):
        for s in range(part, k + 1):
            ways[s] += ways[s - part]
    return ways[k]


def conjugate(p: Sequence[int]) -> Partition:
    """Column lengths of the diagram; involutive."""
    p = check_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Cellwise containment of Young diagrams."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))
