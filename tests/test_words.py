import itertools

import pytest

from conftest import EIGHTEEN_BOX, EIGHTEEN_BOX_WORD, FIVE_BOX, nm_pairs, small_shapes
from bitableaux.bitableau import enumerate_bitableaux
from bitableaux.words import (
    bitableau_reading_word,
    crystal_op_position,
    crystal_op_word,
    is_yamanouchi,
    lowering_positions,
    word_crystal_component,
    word_weight,
)


def all_words(max_len, alphabet):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=length)


def test_bitableau_reading_words():
    assert bitableau_reading_word(FIVE_BOX, "w") == (2, 2, 2, 1, 1)
    assert bitableau_reading_word(FIVE_BOX, "w_prime") == (1, 2, 2, 1, 2)
    assert bitableau_reading_word(FIVE_BOX, "u") == (3, 2, 2, 2, 1)
    assert bitableau_reading_word(EIGHTEEN_BOX, "w") == EIGHTEEN_BOX_WORD
    with pytest.raises(ValueError):
        bitableau_reading_word(FIVE_BOX, "row")


def test_crystal_op_word_examples():
    word = (3, 4, 2, 2, 3, 1, 1, 1, 2, 2, 3)
    assert crystal_op_word(word, 2, "lower") == (3, 4, 2, 2, 3, 1, 1, 1, 2, 3, 3)
    assert crystal_op_word((1,), 1, "raise") is None
    assert crystal_op_word((2, 1), 1, "lower") is None


def test_is_yamanouchi_examples():
    assert is_yamanouchi((1, 1, 1))
    assert not is_yamanouchi((2, 2, 2, 1, 1))
    assert is_yamanouchi(EIGHTEEN_BOX_WORD)


def test_word_weight_examples():
    assert word_weight((3, 4, 2, 2, 3, 1, 1, 1, 2, 2, 3), 4) == (3, 4, 3, 1)
    assert word_weight((), 2) == (0, 0)
    assert word_weight((2, 2, 2, 1, 1), 3) == (2, 3, 0)
    with pytest.raises(ValueError):
        word_weight((3,), 2)


def test_partial_inverse_and_weight_laws():
    for word in all_words(6, 4):
        for i in range(1, 4):
            lowered = crystal_op_word(word, i, "lower")
            if lowered is not None:
                assert crystal_op_word(lowered, i, "raise") == word
                before, after = word_weight(word, 4), word_weight(lowered, 4)
                diff = tuple(a - b for a, b in zip(after, before))
                expected = tuple(
                    -1 if j == i - 1 else 1 if j == i else 0 for j in range(4)
                )
                assert diff == expected
            raised = crystal_op_word(word, i, "raise")
            if raised is not None:
                assert crystal_op_word(raised, i, "lower") == word


def test_yamanouchi_iff_all_raises_null():
    for word in all_words(6, 4):
        null_raises = all(
            crystal_op_word(word, i, "raise") is None for i in range(1, 4)
        )
        assert is_yamanouchi(word) == null_raises


def test_word_crystal_component_examples():
    chain = word_crystal_component((1,), 2)
    assert len(chain.vertices) == 2
    assert len(chain.edges) == 1
    singleton = word_crystal_component((2, 1), 2)
    assert len(singleton.vertices) == 1 and not singleton.edges
    chain3 = word_crystal_component((1, 1), 2)
    assert sorted(tuple(v.payload) for v in chain3.vertices) == [
        (1, 1),
        (1, 2),
        (2, 2),
    ]


def test_reading_word_letter_multisets():
    for shape in small_shapes(5):
        for n, m in nm_pairs(3):
            for t in enumerate_bitableaux(shape, n, m):
                bottoms = sorted(b for row in t.rows for _, b in row)
                tops = sorted(a for row in t.rows for a, _ in row)
                for method in ("w", "w_prime"):
                    assert sorted(bitableau_reading_word(t, method)) == bottoms
                for method in ("u", "u_prime"):
                    assert sorted(bitableau_reading_word(t, method)) == tops


def test_one_scan_finds_every_lowering_position():
    # the one-scan positions against one bracket matching per i, on every
    # word over [m] of length at most 6, m <= 4
    words = 0
    for m in range(1, 5):
        for word in all_words(6, m):
            expected = [crystal_op_position(word, i, "lower") for i in range(1, m)]
            assert lowering_positions(word, m) == expected, (word, m)
            words += 1
    assert words == sum(m**length for m in range(1, 5) for length in range(7))
