import itertools
import re

import pytest

from bitableaux import (
    Biword,
    Bitableau,
    CrystalGraph,
    CrystalVertex,
    SSYT,
    SkewSSYT,
    SymPoly,
    TableauPair,
    column_top_operator,
    count_d_table,
    crystal_op_bitableau,
    crystal_op_word,
    enumerate_bitableaux,
    enumerate_completions,
    enumerate_ssyt,
    export_crystal,
    full_crystal,
    highest_weight_bitableaux,
    jdt_product,
    kronecker_tableaux,
    phi,
    row_top_operator,
    shape21_candidate_crystal,
    skeleton,
    word_weight,
)
from bitableaux.insertion import product_skew, transpose_rows
from bitableaux.partitions import (
    check_partition,
    check_triple,
    conjugate,
    contains,
    count_partitions,
    enumerate_partitions,
    partitions_between,
    trim,
)
from bitableaux.symfunc import expand_in_schur_schur, kostka, make_sympoly
from bitableaux.words import bitableau_reading_cells


def brute_force_partitions(k: int) -> set[tuple[int, ...]]:
    """All weakly decreasing positive tuples summing to k, by raw product."""
    found = {()} if k == 0 else set()
    for length in range(1, k + 1):
        for parts in itertools.product(range(1, k + 1), repeat=length):
            if sum(parts) == k and all(a >= b for a, b in zip(parts, parts[1:])):
                found.add(parts)
    return found


@pytest.mark.parametrize("k", range(8))
def test_partitions_between_against_a_brute_force_filter(k):
    # every hi of size k, every lo <= hi entrywise, every size range in [-1, k + 1], empty ones included
    for hi in enumerate_partitions(k):
        tuples = list(itertools.product(*(range(h + 1) for h in hi)))
        below = [p for p in tuples if all(a >= b for a, b in zip(p, p[1:]))]
        for lo in tuples:
            between = [p for p in below if all(a >= b for a, b in zip(p, lo))]
            for least in range(-1, k + 2):
                for most in range(least - 1, k + 2):
                    found = list(partitions_between(lo, hi, least, most))
                    expected = [p for p in between if least <= sum(p) <= most]  # lexicographic, as product lists them
                    assert found == expected, (lo, hi, least, most)


def test_partitions_of_zero():
    assert enumerate_partitions(0) == [()]


def test_partitions_of_four():
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_max_length():
    assert enumerate_partitions(3, max_length=2) == [(3,), (2, 1)]
    assert enumerate_partitions(3, max_length=0) == []
    with pytest.raises(ValueError):
        enumerate_partitions(3, max_length=-1)


@pytest.mark.parametrize("k", range(8))
def test_partitions_against_brute_force(k):
    assert set(enumerate_partitions(k)) == brute_force_partitions(k)


def test_partitions_reverse_lexicographic_order():
    for k in range(9):
        parts = enumerate_partitions(k)
        assert parts == sorted(parts, reverse=True)


def test_partitions_deterministic():
    assert enumerate_partitions(6) == enumerate_partitions(6)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involutive_up_to_twelve():
    for k in range(13):
        for lam in enumerate_partitions(k):
            assert conjugate(conjugate(lam)) == lam


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@pytest.mark.parametrize("parts", [(2.9, 1), (2, 1.2), "21", (True,), (2.0,), ("2",)])
def test_check_partition_takes_only_int_parts(parts):
    # no silent truncation: int(2.9) would read (2.9, 1) as (2, 1)
    with pytest.raises(ValueError):
        check_partition(parts)


def test_check_triple_is_the_one_size_check():
    from bitableaux.crystal import count_d
    from bitableaux.symfunc import (
        kronecker_coefficient,
        kronecker_coefficient_point,
        monomial_coefficient_d,
        monomial_coefficient_point,
    )

    assert check_triple([2, 1], (1, 1, 1), (3,)) == ((2, 1), (1, 1, 1), (3,))
    assert check_triple((), (), ()) == ((), (), ())
    for bad in [((2, 1), (2,), (3,)), ((2, 1), (3,), (1, 1)), ((1, 2), (3,), (3,))]:
        with pytest.raises(ValueError):
            check_triple(*bad)
        for f in (
            kronecker_coefficient,
            kronecker_coefficient_point,
            monomial_coefficient_d,
            monomial_coefficient_point,
            count_d,
        ):
            with pytest.raises(ValueError):
                f(*bad)


def test_trim():
    assert trim((2, 3, 0, 0)) == (2, 3)


def test_count_partitions_counts_the_listing():
    for k in range(13):
        for max_length in [None, *range(k + 2)]:
            assert count_partitions(k, max_length) == len(enumerate_partitions(k, max_length)), (k, max_length)
    assert count_partitions(100) == 190569292


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((3,), ())


ONE_ROW = Bitableau.from_rows([[(1, 1), (2, 1)]], 2, 2)
ONE_COLUMN = Bitableau.from_rows([[(1, 1)], [(2, 1)]], 2, 2)

# each site: the name and least value of the integer it checks (None: no
# least value, as for a content entry, where a negative one matches nothing),
# and a call taking that integer; every site is refused through the one
# integer rule
INTEGER_SITES = {
    "enumerate_ssyt": ("n", 1, lambda v: enumerate_ssyt((2, 1), v)),
    "enumerate_bitableaux": ("n", 1, lambda v: enumerate_bitableaux((1, 1, 1), v, 2)),
    "word_weight": ("n", 0, lambda v: word_weight((1, 2), v)),
    "word_weight-letter": ("letter", 1, lambda v: word_weight((v, 2), 2)),
    "crystal_op_word": ("operator index", 1, lambda v: crystal_op_word((1, 2), v, "lower")),
    "crystal_op_bitableau": ("operator index", 1, lambda v: crystal_op_bitableau(ONE_ROW, v, "lower")),
    "row_top_operator": ("operator index", 1, lambda v: row_top_operator(ONE_ROW, v, "lower")),
    "column_top_operator": ("operator index", 1, lambda v: column_top_operator(ONE_COLUMN, v, "lower")),
    "kronecker_tableaux": ("p", 0, lambda v: kronecker_tableaux((2, 1), v, (2, 1))),
    "Biword": ("biword entry", 1, lambda v: Biword((v,), (1,))),
    "full_crystal": ("n", 1, lambda v: full_crystal((1, 1, 1), v, 2)),
    "full_crystal-cap": ("cap", 0, lambda v: full_crystal((2, 1), 2, 2, cap=v)),
    "skeleton-cap": ("cap", 0, lambda v: skeleton((2, 2), cap=v)),
    "enumerate_completions-cap": ("cap", 0, lambda v: enumerate_completions((1,), cap=v)),
    "SSYT-cell": ("entry", 1, lambda v: SSYT((2,), ((v, 2),), 2)),
    "Bitableau-cell": ("bottom entry", 1, lambda v: Bitableau((1,), (((1, v),),), 2, 2)),
    "SkewSSYT-cell": ("entry", 1, lambda v: SkewSSYT((2,), (), ((v, 2),))),
    "count_partitions": ("k", 0, lambda v: count_partitions(v)),
    "count_partitions-max_length": ("max_length", 0, lambda v: count_partitions(3, v)),
    "expand_in_schur_schur": ("degree", 0, lambda v: expand_in_schur_schur(make_sympoly(("x1", "y1"), {}), v)),
    "kostka": ("content entry", 0, lambda v: kostka((2, 1), (v, 1))),
    "highest_weight_bitableaux-bcontent": (
        "b-content entry", None, lambda v: list(highest_weight_bitableaux((2, 1), 2, 2, (v, 1)))
    ),
    "highest_weight_bitableaux-acontent": (
        "a-content entry", None, lambda v: list(highest_weight_bitableaux((2, 1), 2, 2, None, (1, v)))
    ),
    "count_d_table-bcontent": ("b-content entry", None, lambda v: count_d_table((2, 1), (v, 1), 2)),
    "CrystalGraph-id": ("vertex id", 0, lambda v: CrystalGraph((CrystalVertex(v, None, None, (1,)),), {})),
    "CrystalGraph-index": (
        "operator index", 1,
        lambda v: CrystalGraph(tuple(CrystalVertex(x, None, None, (1,)) for x in (0, 1)), {(0, v): 1}),
    ),
}


@pytest.mark.parametrize(
    "site, kind",
    [
        (site, kind)
        for site, (_, least, _) in INTEGER_SITES.items()
        for kind in ["float", "bool", "below"]
        if least is not None or kind != "below"
    ],
)
def test_the_integer_rule_refuses_a_float_a_bool_and_a_value_below_range(site, kind):
    name, least, call = INTEGER_SITES[site]
    if least is None:  # a whole float, which int() would take as 2
        value = {"float": 2.0, "bool": True}[kind]
        expected = f"{name} must be an integer, got {value!r}"
    else:
        value = {"float": least + 0.5, "bool": True, "below": least - 1}[kind]
        expected = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        call(value)


EMPTY = SSYT((), (), 1)
ONE = SSYT.from_rows([[1]])

# each site: a call and what it gives, either a value or the ValueError that
# refuses it
EDGE_SITES = {
    "row_top_operator-shape": (
        lambda: row_top_operator(ONE_COLUMN, 1, "lower"), ValueError("row operator requires a one-row shape")
    ),
    "column_top_operator-shape": (
        lambda: column_top_operator(ONE_ROW, 1, "lower"), ValueError("column operator requires a one-column shape")
    ),
    "row_top_operator-index": (
        lambda: row_top_operator(ONE_ROW, 2, "lower"), ValueError("operator index 2 outside [1, 1]")
    ),
    "column_top_operator-index": (
        lambda: column_top_operator(ONE_COLUMN, 2, "lower"), ValueError("operator index 2 outside [1, 1]")
    ),
    "Bitableau-entry": (
        lambda: Bitableau((1,), (((3, 1),),), 2, 2), ValueError("entry (3,1) outside [1,2]x[1,2]")
    ),
    "Bitableau-rows": (lambda: Bitableau((2,), (((1, 1),),), 1, 1), ValueError("row lengths do not match shape")),
    "SSYT-rows": (lambda: SSYT((2,), ((1,),), 1), ValueError("row lengths do not match shape")),
    "SkewSSYT-rows": (
        lambda: SkewSSYT((2,), (1,), ((1, 1),)), ValueError("row lengths do not match skew shape")
    ),
    # a negative or bool row would index the list from the end or as 1
    "with_entry-negative-row": (
        lambda: ONE_COLUMN.with_entry(-1, 0, (2, 2)), ValueError("row must be an integer >= 0, got -1")
    ),
    "with_entry-bool-row": (
        lambda: ONE_COLUMN.with_entry(True, 0, (2, 2)), ValueError("row must be an integer >= 0, got True")
    ),
    "with_entry-float-row": (
        lambda: ONE_COLUMN.with_entry(1.0, 0, (2, 2)), ValueError("row must be an integer >= 0, got 1.0")
    ),
    "with_entry-column": (
        lambda: ONE_COLUMN.with_entry(0, 1, (2, 2)), ValueError("cell (0, 1) outside shape (1, 1)")
    ),
    "kronecker_tableaux-size": (
        lambda: kronecker_tableaux((2, 1), 1, (2,)), ValueError("shape and b-weight must have the same size")
    ),
    "kronecker_tableaux-p": (lambda: kronecker_tableaux((2, 1), 4, (2, 1)), ValueError("p = 4 outside [0, 3]")),
    "Biword-rows": (lambda: Biword((1, 2), (1,)), ValueError("rows of a biword must have equal length")),
    # sorted columns with strictly decreasing ties never repeat, so the tie rule refuses a repeat
    "Biword-burge-repeat": (
        lambda: Biword((1, 1), (2, 2), "burge"), ValueError("burge ties must be strictly decreasing by bottom entry")
    ),
    "Biword-flavor": (lambda: Biword((1,), (1,), "plain"), ValueError("unknown biword flavor 'plain'")),
    "TableauPair-rsk": (
        lambda: TableauPair(SSYT.from_rows([[1, 1]]), SSYT.from_rows([[1], [2]])),
        ValueError("RSK output must have equal shapes"),
    ),
    "TableauPair-brsk": (
        lambda: TableauPair(SSYT.from_rows([[1, 1]]), SSYT.from_rows([[1, 1]]), "brsk"),
        ValueError("bRSK recording shape must be conjugate to the insertion shape"),
    ),
    "export_crystal-format": (lambda: export_crystal(CrystalGraph((), {}), "svg"), ValueError("unknown format 'svg'")),
    "bitableau_reading_cells-method": (
        lambda: bitableau_reading_cells(ONE_ROW.rows, "x"), ValueError("unknown bitableau reading method 'x'")
    ),
    "crystal_op_word-direction": (
        lambda: crystal_op_word((1, 2), 1, "up"), ValueError("direction must be 'raise' or 'lower', got 'up'")
    ),
    "shape21_candidate_crystal-corner": (
        lambda: shape21_candidate_crystal("north"), ValueError("corner_first must be 'south' or 'east'")
    ),
    "kostka-size": (lambda: kostka((2,), (1,)), ValueError("content must sum to the shape size")),
    "SymPoly-exponents": (
        lambda: SymPoly(("x1", "x2"), {(1,): 1}), ValueError("exponent vector length must match variable count")
    ),
    "SymPoly-zero": (lambda: SymPoly(("x1",), {(1,): 0}), ValueError("zero terms must not be stored")),
    "phi-empty": (lambda: phi(Bitableau((), (), 2, 1)), None),
    "transpose_rows-empty": (lambda: transpose_rows(()), ()),
    "product_skew-left-empty": (lambda: product_skew(EMPTY, ONE), SkewSSYT((1,), (), ((1,),))),
    "product_skew-right-empty": (lambda: product_skew(ONE, EMPTY), SkewSSYT((1,), (), ((1,),))),
    "jdt_product-right-empty": (lambda: jdt_product(ONE, EMPTY), ONE),
}


@pytest.mark.parametrize("site", list(EDGE_SITES))
def test_refusals_and_edge_returns(site):
    call, expected = EDGE_SITES[site]
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
