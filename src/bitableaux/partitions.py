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

    hi is a partition and lo has its length.  They come in lexicographic
    order; an empty range yields nothing.  The rows turn as an odometer:
    row r takes each value its bounds leave, the smallest first, and the
    rows below it start afresh at each one.
    """
    n = len(hi)
    if not n:
        if least <= 0 <= most:
            yield ()
        return
    rest_lo = [sum(lo[r:]) for r in range(n + 1)]
    rest_hi = [sum(hi[r:]) for r in range(n + 1)]
    p = [0] * n
    last = [0] * n  # the largest value row r may take, once the rows above are set
    r = filled = 0  # filled: the cells of the rows above r
    entering = True
    while r >= 0:
        if entering:
            # the rows below hold at most x each and at most hi, at least lo
            below, rows = rest_hi[r + 1], n - r - 1
            need = least - filled
            x = max(lo[r], -(-need // (rows + 1)))  # the least x with x + min(below, x * rows) >= need
            if x * rows > below:
                x = max(x, need - below)
            top = min(hi[r], p[r - 1] if r else hi[0], most - filled - rest_lo[r + 1])
            if r == n - 1:
                for p[r] in range(x, top + 1):
                    yield tuple(p)
                r -= 1
                entering = False
                continue
            last[r] = top
        else:
            filled -= p[r]
            x = p[r] + 1
        if x <= last[r]:
            p[r] = x
            filled += x
            r += 1
            entering = True
        else:
            r -= 1
            entering = False


def enumerate_partitions(k: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of k (at most max_length parts), reverse-lexicographic.

    No shape bounds it, so it keeps its own recursion: partitions_between,
    which pads each partition to k rows, lists the same set 6-10x slower at
    k = 20, 30 and 40 (bound (k,) * k or (k, k // 2, ..., 1), minimum of 3
    runs, Python 3.11 on a 2-vCPU x86 guest).
    """
    check_int(k, "k")
    limit = k if max_length is None else min(check_int(max_length, "max_length"), k)
    out: list[Partition] = []
    _partitions_into(out, [], k, k, limit)
    return out


def _partitions_into(out: list[Partition], prefix: list[int], remaining: int, max_part: int, slots: int) -> None:
    """Append prefix + q to out for each partition q of remaining into at most slots parts of at most max_part."""
    if remaining == 0:
        out.append(tuple(prefix))
        return
    if slots == 0:
        return
    for part in range(min(max_part, remaining), 0, -1):
        prefix.append(part)
        _partitions_into(out, prefix, remaining - part, part, slots - 1)
        prefix.pop()


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
