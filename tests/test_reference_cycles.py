"""No call leaves a reference cycle: everything it allocates is freed by reference counting.

Each public entry point and each CLI subcommand runs once under
conftest.cyclic_garbage, which names the function owning any object that
only the cyclic collector could free.
"""

import inspect
import json
import types

import pytest

import bitableaux as bt
from conftest import EIGHTEEN_BOX, FIVE_BOX, SEVEN_BOX_COLUMN, cyclic_garbage
from bitableaux import cli, kernels
from bitableaux.bitableau import iter_bitableau_rows
from bitableaux.crystal import monomial_expansion_rows
from bitableaux.insertion import all_rectifications
from bitableaux.kernels import partition_runs
from bitableaux.partitions import partitions_between
from bitableaux.tableaux import iter_ssyt_rows

ROW = bt.Bitableau.from_rows([[(1, 1), (1, 2), (2, 1)]], 2, 2)
SSYT_21 = bt.SSYT.from_rows([[1, 1], [2]])
SKEW = bt.SkewSSYT((3, 2), (1,), ((1, 2), (1, 3)))
GRAPH = bt.full_crystal((2, 1), 2, 2)
HIGHEST = next(bt.highest_weight_bitableaux((3, 1), 2, 2))

CALLS = {
    "bitableau_reading_word": lambda: bt.bitableau_reading_word(FIVE_BOX, "w_prime"),
    "bitableau_to_ssyt": lambda: bt.bitableau_to_ssyt(FIVE_BOX),
    "brsk": lambda: bt.brsk(SEVEN_BOX_COLUMN),
    "burge_word": lambda: bt.burge_word(SEVEN_BOX_COLUMN),
    "character_table": lambda: bt.character_table(5),
    "column_top_operator": lambda: bt.column_top_operator(SEVEN_BOX_COLUMN, 1, "lower"),
    "commutes_with_bottom": lambda: bt.commutes_with_bottom({}, GRAPH),
    "conjugate": lambda: bt.conjugate((3, 1)),
    "count_d": lambda: [bt.count_d((3, 2, 1), (3, 2, 1), (3, 2, 1), conv) for conv in ("w", "w_prime")],
    "count_d_table": lambda: [bt.count_d_table((3, 2, 1), (3, 2, 1), 3, conv) for conv in ("w", "w_prime")],
    "count_kronecker_tableaux": lambda: bt.count_kronecker_tableaux((3, 1), 1, (2, 2)),
    "crystal_op_bitableau": lambda: bt.crystal_op_bitableau(FIVE_BOX, 1, "lower"),
    "crystal_op_word": lambda: bt.crystal_op_word((1, 2, 1), 1, "lower"),
    "dual_rsk_insert": lambda: bt.dual_rsk_insert((3, 1, 2)),
    "enumerate_bitableaux": lambda: bt.enumerate_bitableaux((2, 1), 2, 2),
    "enumerate_completions": lambda: bt.enumerate_completions((3, 1)),
    "enumerate_partitions": lambda: bt.enumerate_partitions(8, 3),
    "enumerate_ssyt": lambda: bt.enumerate_ssyt((2, 1), 3),
    "expand_in_schur_schur": lambda: bt.expand_in_schur_schur(bt.kron_coproduct_poly((2, 1), 3, 3), 3),
    "export_crystal": lambda: (bt.export_crystal(GRAPH), bt.export_crystal(GRAPH, "json")),
    "full_crystal": lambda: bt.full_crystal((3, 2), 2, 2, "w_prime"),
    "highest_weight_bitableaux": lambda: list(bt.highest_weight_bitableaux((3, 2), 2, 3)),
    "highest_weight_census": lambda: bt.highest_weight_census({}, GRAPH),
    "insert_word": lambda: bt.insert_word((3, 1, 2)),
    "int_to_pair": lambda: bt.int_to_pair(5, 2),
    "is_highest_weight": lambda: bt.is_highest_weight(EIGHTEEN_BOX),
    "is_kronecker_tableau": lambda: bt.is_kronecker_tableau(HIGHEST),
    "is_valid_gl2_structure": lambda: bt.is_valid_gl2_structure({0: 1}, {0: (1, 0), 1: (0, 1)}),
    "is_yamanouchi": lambda: bt.is_yamanouchi((1, 2, 1)),
    "jdt_product": lambda: bt.jdt_product(SSYT_21, SSYT_21),
    "knuth_equivalent": lambda: bt.knuth_equivalent((2, 1, 3), (2, 3, 1)),
    "kostka": lambda: bt.kostka((4, 2), (2, 2, 1, 1)),
    "kron_coproduct_poly": lambda: bt.kron_coproduct_poly((2, 1), 2, 2),
    "kronecker_coefficient": lambda: bt.kronecker_coefficient((3, 2), (3, 2), (2, 2, 1)),
    "kronecker_coefficient_point": lambda: bt.kronecker_coefficient_point((3, 2), (3, 2), (2, 2, 1)),
    "kronecker_tableaux": lambda: bt.kronecker_tableaux((3, 1), 1, (2, 2)),
    "mn_character": lambda: bt.mn_character((3, 2), (2, 2, 1)),
    "monomial_coefficient_d": lambda: bt.monomial_coefficient_d((3, 2), (2, 2, 1), (3, 1, 1)),
    "monomial_coefficient_point": lambda: bt.monomial_coefficient_point((3, 2), (2, 2, 1), (3, 1, 1)),
    "monomial_coefficient_row": lambda: bt.monomial_coefficient_row((3, 2), (3, 1, 1)),
    "monomial_expansion_sweep": lambda: [bt.monomial_expansion_sweep(5, conv) for conv in ("w", "w_prime")],
    "pair_to_int": lambda: bt.pair_to_int((2, 1), 2),
    "permutation_characters": lambda: bt.permutation_characters(5),
    "phi": lambda: bt.phi(HIGHEST),
    "reading_word": lambda: bt.reading_word(SKEW),
    "rectify": lambda: bt.rectify(SKEW),
    "row_insert": lambda: bt.row_insert(SSYT_21, 1),
    "row_top_operator": lambda: bt.row_top_operator(ROW, 1, "lower"),
    "rsk": lambda: bt.rsk(bt.Biword((1, 1, 2), (1, 2, 1))),
    "schur_poly": lambda: bt.schur_poly((2, 1), ("x1", "x2", "x3")),
    "shape21_candidate_crystal": lambda: bt.shape21_candidate_crystal("east"),
    "skeleton": lambda: bt.skeleton((3, 1)),
    "skew_decomposition": lambda: bt.skew_decomposition(FIVE_BOX),
    "ssyt_to_bitableau": lambda: bt.ssyt_to_bitableau(SSYT_21, 2, 2),
    "weights": lambda: bt.weights(FIVE_BOX),
    "word_crystal_component": lambda: bt.word_crystal_component((1, 2, 1), 3),
    "word_weight": lambda: bt.word_weight((1, 2, 1), 3),
}

# module-level helpers the entry points above are built on
HELPERS = {
    "all_rectifications": lambda: all_rectifications(SKEW),
    "iter_bitableau_rows": lambda: list(iter_bitableau_rows((2, 2), 2, 2)),
    "iter_ssyt_rows": lambda: list(iter_ssyt_rows((3, 2, 1), 3)),
    "monomial_expansion_rows": lambda: list(monomial_expansion_rows(4)),
    "partition_runs": lambda: [list(partition_runs(5, conv)) for conv in ("w", "w_prime")],
    "partitions_between": lambda: list(partitions_between((1, 0, 0), (4, 3, 1), 3, 6)),
}


def test_every_public_function_is_called():
    public = {
        name
        for name in bt.__all__
        if callable(getattr(bt, name)) and not isinstance(getattr(bt, name), (type, types.GenericAlias))
    }
    assert public == set(CALLS)


def test_every_public_kernel_function_is_called():
    # a new kernel entry point must not go unchecked
    public = {
        name
        for name, function in inspect.getmembers(kernels, inspect.isfunction)
        if function.__module__ == kernels.__name__ and not name.startswith("_")
    }
    assert public and public <= set(CALLS) | set(HELPERS)


@pytest.mark.parametrize("name", sorted(CALLS) + sorted(HELPERS))
def test_call_leaves_no_reference_cycle(name):
    call = CALLS.get(name) or HELPERS[name]
    assert cyclic_garbage(call) == {}


ARGV = [
    (["enumerate", "--k", "5"], 0),
    (["enumerate", "--shape", "2,1", "--n", "2", "--m", "2"], 0),
    (["weights", "--tableau", json.dumps(FIVE_BOX.to_json())], 0),
    (["word", "--method", "w", "--tableau", json.dumps(FIVE_BOX.to_json())], 0),
    (["rsk", "--tops", "1,1,2", "--bottoms", "1,2,1"], 0),
    (["brsk", "--tableau", json.dumps(SEVEN_BOX_COLUMN.to_json())], 0),
    (["jdt", "--left", "[[1, 2]]", "--right", "[[1]]"], 0),
    (["crystal", "--shape", "2,1", "--n", "2", "--m", "2", "--format", "json"], 0),
    (["g", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1"], 0),
    (["d", "--lam", "3,2", "--mu", "2,2,1", "--nu", "3,1,1", "--conv", "w_prime"], 0),
    (["verify-thm2", "--k", "4"], 0),
    (["kron-tableaux", "--lam", "3,1", "--p", "1", "--nu", "2,2"], 0),
    (["skeleton", "--shape", "3,1", "--format", "json"], 0),
    (["completions", "--shape", "2,2"], 0),
    (["census", "--shape", "2,2"], 0),
    (["d", "--lam", "3,x", "--mu", "2,2,1", "--nu", "3,1,1"], cli.USAGE_ERROR),
    (["enumerate", "--k", "8", "--cap", "5"], cli.CAP_EXCEEDED),
]


def test_every_subcommand_is_run():
    commands = next(a for a in cli._PARSER._actions if a.dest == "command").choices
    assert {argv[0] for argv, _ in ARGV} == set(commands)


@pytest.mark.parametrize("argv, code", ARGV, ids=[" ".join(argv[:3]) for argv, _ in ARGV])
def test_cli_leaves_no_reference_cycle(capsys, argv, code):
    codes = []
    assert cyclic_garbage(lambda: codes.append(cli.main(argv))) == {}
    assert codes == [code]
    capsys.readouterr()
