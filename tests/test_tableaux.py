import itertools

import pytest

from bitableaux.partitions import enumerate_partitions
from bitableaux.tableaux import (
    SSYT,
    SkewSSYT,
    count_ssyt,
    enumerate_ssyt,
    iter_ssyt_rows,
    reading_word,
    ssyt_from_reading_word,
)


def brute_force_ssyt_count(shape, n):
    cells = sum(shape)
    count = 0
    for flat in itertools.product(range(1, n + 1), repeat=cells):
        rows = []
        pos = 0
        for length in shape:
            rows.append(flat[pos : pos + length])
            pos += length
        ok = all(
            row[c] <= row[c + 1] for row in rows for c in range(len(row) - 1)
        ) and all(
            rows[r][c] < rows[r + 1][c]
            for r in range(len(rows) - 1)
            for c in range(len(rows[r + 1]))
        )
        count += ok
    return count


def test_enumerate_ssyt_examples():
    assert len(enumerate_ssyt((1,), 3)) == 3
    assert [t.rows for t in enumerate_ssyt((2, 2), 2)] == [((1, 1), (2, 2))]
    assert len(enumerate_ssyt((2, 1), 3)) == 8


def test_enumerate_ssyt_empty_when_too_tall():
    assert enumerate_ssyt((1, 1, 1), 2) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_ssyt_against_brute_force(n):
    for size in range(6):
        for shape in enumerate_partitions(size):
            expected = brute_force_ssyt_count(shape, n)
            assert len(enumerate_ssyt(shape, n)) == expected
            assert count_ssyt(shape, n) == expected


def test_count_ssyt_rejects_negative_alphabets():
    assert count_ssyt((2,), 0) == 0 and count_ssyt((), 0) == 1
    for n in (-1, -2):
        with pytest.raises(ValueError):
            count_ssyt((2,), n)


def test_enumerate_ssyt_row_major_lex_order_and_determinism():
    tabs = enumerate_ssyt((2, 1), 3)
    flat = [tuple(x for row in t.rows for x in row) for t in tabs]
    assert flat == sorted(flat)
    assert tabs == enumerate_ssyt((2, 1), 3)


def test_reading_word_examples():
    t = SSYT.from_rows([[1, 1, 1, 2, 2, 3], [2, 2, 3], [3, 4]])
    assert reading_word(t) == (3, 4, 2, 2, 3, 1, 1, 1, 2, 2, 3)
    assert reading_word(SSYT.from_rows([[1, 2, 3]])) == (1, 2, 3)
    assert reading_word(SSYT.from_rows([[1], [2], [3]])) == (3, 2, 1)


def test_skew_reading_word_position_independent():
    # the same filled cells shifted east must read identically
    base = SkewSSYT((3, 2), (1,), ((1, 2), (1, 3)))
    shifted = SkewSSYT((5, 4, 2), (3, 2, 2), ((1, 2), (1, 3), ()))
    assert reading_word(base) == reading_word(shifted) == (1, 3, 1, 2)


def test_skew_validation():
    with pytest.raises(ValueError):
        SkewSSYT((2, 2), (1,), ((2,), (1, 1)))  # column violation
    with pytest.raises(ValueError):
        SkewSSYT((2,), (1, 1), ((1,),))  # inner not contained


def test_ssyt_from_reading_word_round_trip():
    for size in range(5):
        for shape in enumerate_partitions(size):
            for t in enumerate_ssyt(shape, 3):
                assert ssyt_from_reading_word(reading_word(t)).rows == t.rows


def test_ssyt_from_reading_word_rejects_non_row_words():
    assert ssyt_from_reading_word((2, 2, 1)) is None
    assert ssyt_from_reading_word((1, 2, 2)).rows == ((1, 2, 2),)


def test_ssyt_validation():
    with pytest.raises(ValueError):
        SSYT.from_rows([[2, 1]])
    with pytest.raises(ValueError):
        SSYT.from_rows([[1, 1], [1, 2]])
    with pytest.raises(ValueError):
        SSYT((2,), ((1, 2),), 1)


@pytest.mark.parametrize("rows", [5, None, "ab", [5], ["12"], [[[1]]], [["1"]], [[1.0]], [[True]]])
def test_malformed_rows_are_value_errors(rows):
    with pytest.raises(ValueError):
        SSYT.from_rows(rows)
    with pytest.raises(ValueError):
        SSYT.from_json({"rows": rows})


def test_from_json_infers_max_entry_only_when_absent():
    data = SSYT.from_rows([[1, 2], [3]]).to_json()
    assert SSYT.from_json({"rows": data["rows"]}).max_entry == 3
    assert SSYT.from_json(dict(data, max_entry=7)).max_entry == 7
    for bad in (0, None, "3", 2):
        with pytest.raises(ValueError):
            SSYT.from_json(dict(data, max_entry=bad))
    with pytest.raises(ValueError):
        SSYT((), (), 0)


def test_plain_filler_over_an_ordered_alphabet():
    # the filler over an arbitrary ordered alphabet, in row-major
    # lexicographic order: s_(2,1)(1^3) = 8 fillings
    rows = list(iter_ssyt_rows((2, 1), "abe"))
    assert rows == [
        (("a", "a"), ("b",)),
        (("a", "a"), ("e",)),
        (("a", "b"), ("b",)),
        (("a", "b"), ("e",)),
        (("a", "e"), ("b",)),
        (("a", "e"), ("e",)),
        (("b", "b"), ("e",)),
        (("b", "e"), ("e",)),
    ]
    assert len(rows) == count_ssyt((2, 1), 3) == 8


@pytest.mark.parametrize("letters", ["abe", ((1, 1), (1, 2), (2, 1), (2, 2)), (10, 20, 30, 40, 50)])
def test_plain_filler_is_the_integer_filler_relabelled(letters):
    # the filler reads only the order of its alphabet: over letters it is
    # the filler over 1..len(letters) with i replaced by letters[i - 1]
    for size in range(6):
        for shape in enumerate_partitions(size):
            relabelled = [
                tuple(tuple(letters[x - 1] for x in row) for row in rows)
                for rows in iter_ssyt_rows(shape, len(letters))
            ]
            assert list(iter_ssyt_rows(shape, letters)) == relabelled, shape


def test_plain_filler_edge_shapes():
    # the empty shape has one (empty) filling over any alphabet, even an
    # empty one; a shape taller than its alphabet has none, and a column as
    # tall as its alphabet has one
    for letters in (0, 2, "", "ab"):
        assert list(iter_ssyt_rows((), letters)) == [()]
    assert list(iter_ssyt_rows((1, 1, 1), "ab")) == []
    assert list(iter_ssyt_rows((1,), "")) == []
    assert list(iter_ssyt_rows((1, 1, 1), "abc")) == [(("a",), ("b",), ("c",))]


def test_plain_filler_streams():
    # a generator: the least filling comes first without the rest being
    # built (s_(6,5,4,3,2,1)(1^30) is far too many to list)
    rows = next(iter_ssyt_rows((6, 5, 4, 3, 2, 1), 30))
    assert rows == tuple(tuple([r + 1] * length) for r, length in enumerate((6, 5, 4, 3, 2, 1)))
