import pytest

from conftest import EIGHTEEN_BOX, FIVE_BOX, SEVEN_BOX_COLUMN, nm_pairs, small_shapes
from bitableaux.bitableau import (
    Bitableau,
    bitableau_to_ssyt,
    enumerate_bitableaux,
    int_to_pair,
    iter_bitableau_rows,
    pair_to_int,
    ssyt_to_bitableau,
    weights,
)
from bitableaux.tableaux import enumerate_ssyt


def hook_content_count(shape, n):
    """Number of SSYT with entries <= n by the hook content formula."""
    num = 1
    den = 1
    for r, length in enumerate(shape):
        for c in range(length):
            num *= n + c - r
            arm = length - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            den *= arm + leg + 1
    return num // den


def test_enumerate_examples():
    assert len(enumerate_bitableaux((1,), 2, 2)) == 4
    assert len(enumerate_bitableaux((2, 2), 2, 2)) == 20
    assert hook_content_count((2, 2), 4) == 20
    assert enumerate_bitableaux((1, 1, 1), 1, 2) == []


def test_cardinality_matches_ssyt_over_nm():
    # the pair filler against the integer filler through (i,j) -> (i-1)m + j,
    # in order; both against the hook-content formula
    for shape in small_shapes(6):
        for n, m in nm_pairs(3):
            pair_rows = list(iter_bitableau_rows(shape, n, m))
            encoded = [
                tuple(tuple(pair_to_int(p, m) for p in row) for row in rows) for rows in pair_rows
            ]
            assert encoded == [t.rows for t in enumerate_ssyt(shape, n * m)], (shape, n, m)
            assert len(pair_rows) == hook_content_count(shape, n * m)


def test_enumeration_deterministic():
    assert enumerate_bitableaux((2, 1), 2, 2) == enumerate_bitableaux((2, 1), 2, 2)


def test_validation_rejects_non_lex_fillings():
    with pytest.raises(ValueError):
        Bitableau.from_rows([[(1, 2), (2, 1)], [(3, 2), (2, 2)], [(3, 3)]])
    with pytest.raises(ValueError):
        Bitableau.from_rows([[(1, 2), (2, 2)], [(2, 2), (2, 2)], [(3, 1)]])


def test_weights_examples():
    assert weights(FIVE_BOX) == ((1, 3, 1), (2, 3, 0))
    assert weights(Bitableau((), (), 2, 2)) == ((0, 0), (0, 0))
    assert weights(SEVEN_BOX_COLUMN) == ((2, 3, 2), (3, 1, 2, 1))


def test_weight_sums_equal_size():
    for shape in small_shapes(5):
        for t in enumerate_bitableaux(shape, 2, 3):
            a, b = weights(t)
            assert sum(a) == sum(b) == t.size


def test_pair_to_int_examples():
    assert pair_to_int((1, 1), 2) == 1
    assert pair_to_int((3, 2), 2) == 6
    assert pair_to_int((2, 1), 3) == 4
    with pytest.raises(ValueError):
        pair_to_int((1, 3), 2)


@pytest.mark.parametrize("m", [0, -1])
def test_an_empty_second_alphabet_is_a_value_error(m):
    for convert in (lambda: int_to_pair(3, m), lambda: pair_to_int((1, 1), m)):
        with pytest.raises(ValueError):
            convert()


def test_pair_int_round_trip():
    for n, m in nm_pairs(4):
        for a in range(1, n + 1):
            for b in range(1, m + 1):
                v = pair_to_int((a, b), m)
                assert 1 <= v <= n * m
                assert int_to_pair(v, m) == (a, b)
    # order isomorphism
    pairs = [(a, b) for a in range(1, 4) for b in range(1, 3)]
    codes = [pair_to_int(p, 2) for p in pairs]
    assert codes == sorted(codes) == list(range(1, 7))


def test_bitableau_to_ssyt_examples():
    s = bitableau_to_ssyt(EIGHTEEN_BOX)
    assert s.rows == ((1, 1, 1, 2, 3, 5, 5), (2, 3, 3, 4, 5, 6), (3, 4, 5, 5, 6))
    one = Bitableau.from_rows([[(1, 1)]], 1, 2)
    assert bitableau_to_ssyt(one).rows == ((1,),)
    row = Bitableau.from_rows([[(1, 2), (2, 1)]], 2, 2)
    assert bitableau_to_ssyt(row).rows == ((2, 3),)


def test_ssyt_to_bitableau_rejects_large_entries():
    s = bitableau_to_ssyt(EIGHTEEN_BOX)
    with pytest.raises(ValueError):
        ssyt_to_bitableau(s, 2, 2)


def test_encoding_round_trip_everywhere():
    for shape in small_shapes(5):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            for t in enumerate_bitableaux(shape, n, m):
                s = bitableau_to_ssyt(t)
                assert s.max_entry == n * m
                assert ssyt_to_bitableau(s, n, m) == t


def test_json_round_trip():
    data = FIVE_BOX.to_json()
    assert data["shape"] == [2, 2, 1] and data["n"] == 3 and data["m"] == 3
    assert Bitableau.from_json(data) == FIVE_BOX


def test_validation_requires_positive_alphabets():
    for n, m in ((0, 0), (0, 1), (1, 0)):
        with pytest.raises(ValueError):
            Bitableau((), (), n, m)
    assert Bitableau((), (), 1, 1).size == 0


def test_from_json_infers_only_absent_sizes():
    data = FIVE_BOX.to_json()
    with pytest.raises(ValueError):
        Bitableau.from_json(dict(data, n=0))
    with pytest.raises(ValueError):
        Bitableau.from_json(dict(data, m=0))
    with pytest.raises(ValueError):
        Bitableau.from_json(dict(data, n=None))
    wide = Bitableau.from_json(dict(data, n=5, m=4))
    assert (wide.n, wide.m) == (5, 4)
    inferred = Bitableau.from_json({"rows": data["rows"]})
    assert (inferred.n, inferred.m) == (3, 2)


@pytest.mark.parametrize(
    "rows",
    [5, None, "ab", [5], ["12"], [[1, 2]], [[[1]]], [[[1, 2, 3]]], [[["1", 2]]], [[[True, 1]]]],
)
def test_malformed_rows_are_value_errors(rows):
    with pytest.raises(ValueError):
        Bitableau.from_rows(rows)
    with pytest.raises(ValueError):
        Bitableau.from_json({"rows": rows})


def test_from_json_needs_rows():
    with pytest.raises(ValueError):
        Bitableau.from_json({"n": 2, "m": 2})


def test_the_empty_shape_builds_no_alphabet():
    import tracemalloc

    tracemalloc.start()
    try:
        rows = list(iter_bitableau_rows((), 300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rows == [()]
