"""Shared worked-example data used across the test modules."""

from __future__ import annotations

import gc
import itertools
import types
from collections import Counter
from typing import Callable

import pytest

from bitableaux import Bitableau

# five-box bitableau with a-weight (1,3,1), b-weight (2,3,0)
FIVE_BOX = Bitableau.from_rows(
    [[(1, 2), (2, 1)], [(2, 2), (2, 2)], [(3, 1)]], 3, 3
)

# 18-box bitableau over [3] x [2] whose sort-by-top reading word is Yamanouchi
EIGHTEEN_BOX = Bitableau.from_rows(
    [
        [(1, 1), (1, 1), (1, 1), (1, 2), (2, 1), (3, 1), (3, 1)],
        [(1, 2), (2, 1), (2, 1), (2, 2), (3, 1), (3, 2)],
        [(2, 1), (2, 2), (3, 1), (3, 1), (3, 2)],
    ],
    3,
    2,
)

EIGHTEEN_BOX_WORD = (2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 2, 1, 1)

# seven-box column over [3] x [4]
SEVEN_BOX_COLUMN = Bitableau.from_rows(
    [[(1, 1)], [(1, 2)], [(2, 1)], [(2, 3)], [(2, 4)], [(3, 1)], [(3, 3)]], 3, 4
)


def cyclic_garbage(call: Callable[[], object]) -> dict[str, int]:
    """What only the cyclic collector could free after call(), by the function that owns it.

    A full collection first clears older garbage.  Then call() runs with the
    collector off, its result is dropped, and a collection under
    gc.DEBUG_SAVEALL keeps every object it finds.  A function, frame or
    generator is named by its code's qualified name, a cell by what it
    holds, anything else by its type; the map counts them.  Empty means
    reference counting freed everything the call made.  A generator must be
    consumed inside call.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(map(_owner, gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return dict(found)


def _owner(obj: object) -> str:
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:
            return "empty cell"
    if isinstance(obj, types.FrameType):
        obj = obj.f_code
    if isinstance(obj, types.CodeType):
        return getattr(obj, "co_qualname", obj.co_name)  # co_qualname is new in Python 3.11
    name = getattr(obj, "__qualname__", None)  # a function's or generator's
    return name if isinstance(name, str) else type(obj).__name__


def small_shapes(max_size: int):
    from bitableaux import enumerate_partitions

    for size in range(max_size + 1):
        yield from enumerate_partitions(size)


def nm_pairs(bound: int):
    return itertools.product(range(1, bound + 1), repeat=2)


@pytest.fixture
def five_box() -> Bitableau:
    return FIVE_BOX


@pytest.fixture
def eighteen_box() -> Bitableau:
    return EIGHTEEN_BOX


@pytest.fixture
def seven_box_column() -> Bitableau:
    return SEVEN_BOX_COLUMN
