import itertools
import os
import subprocess
import sys

import pytest

from conftest import nm_pairs, small_shapes
from bitableaux.crystal import count_d
from bitableaux.kernels import _spread, _tally_python_dict, count_d_table, layer_runs
from bitableaux.partitions import enumerate_partitions


def test_kernel_matches_reference_tally():
    # every shape with |lam| <= 5, n, m <= 3, every b-content composition
    cases = 0
    for shape in small_shapes(5):
        k = sum(shape)
        for n, m in nm_pairs(3):
            for bcontent in itertools.product(range(k + 1), repeat=m):
                if sum(bcontent) != k:
                    continue
                for conv in ("w", "w_prime"):
                    fast = count_d_table(shape, bcontent, n, conv)
                    slow = _tally_python_dict(shape, n, bcontent, conv)
                    assert fast == slow, (shape, n, bcontent, conv)
                    cases += 1
    assert cases == 2250


def test_one_memo_serves_every_shape():
    # the grid above, with one counter (one memo) per (b-content, n, conv)
    # reused over every shape of the size, ascending and then descending with
    # a fresh counter: a stale or shape-dependent memo entry changes a later
    # shape's table.  Size 0 has one shape, so it shares nothing.
    cases = 0
    for k in range(1, 6):
        shapes = enumerate_partitions(k)
        for n, m in nm_pairs(3):
            for bcontent in itertools.product(range(k + 1), repeat=m):
                if sum(bcontent) != k:
                    continue
                for conv in ("w", "w_prime"):
                    slow = {shape: _tally_python_dict(shape, n, bcontent, conv) for shape in shapes}
                    for order in (shapes[::-1], shapes):
                        runs = layer_runs(bcontent, conv)
                        for shape in order:
                            assert _spread(runs(shape, n), n) == slow[shape], (shape, n, bcontent, conv)
                            cases += 1
    assert cases == 2 * (2250 - 18)


def test_partition_runs_are_the_nonincreasing_composition_runs():
    # one counter per (nu, conv) serves both kinds of run over every lam, in
    # both orders, so a floor that leaks into the shared memo changes a table
    cases = 0
    for k in range(1, 8):
        shapes = enumerate_partitions(k)
        for nu in shapes:
            for conv in ("w", "w_prime"):
                runs = layer_runs(nu, conv)
                for i, lam in enumerate(shapes):
                    if i % 2:
                        full, part = runs(lam, k), runs(lam, k, _partitions=True)
                    else:
                        part, full = runs(lam, k, _partitions=True), runs(lam, k)
                    kept = {key: c for key, c in full.items() if list(key) == sorted(key, reverse=True)}
                    assert part == kept, (lam, nu, conv)
                    cases += 1
    assert cases == 868


@pytest.mark.parametrize(
    "call",
    [
        lambda: layer_runs((2, 1))((2, 1), 2.5),
        lambda: layer_runs((2, 1))((2, 1), 2.0, _partitions=True),
        lambda: layer_runs((2, 1))((2, 1), True),
        lambda: count_d_table((), (), -1),
        lambda: count_d_table((2, 1), (2.0, 1), 2),
        lambda: count_d_table((2, 1), (2, 1), -1, "w_prime"),
        lambda: layer_runs((2, 1.0)),
    ],
    ids=["float-n", "float-n-partitions", "bool-n", "negative-n-empty", "float-bcontent",
         "negative-n", "float-bcontent-counter"],
)
def test_kernel_refuses_a_bad_n_or_bcontent(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_negative_bcontent_counts_nothing(conv):
    # a b-content with a negative entry has no filling, however it sums
    cases = 0
    for shape in small_shapes(4):
        k = sum(shape)
        for n in (1, 2, 3):
            for bcontent in [(k + 1, -1), (k + 2, -1, -1), (k + 1, 0, -1), (-1, k + 1), (1, -1)]:
                if sum(bcontent) != k:
                    continue
                slow = _tally_python_dict(shape, n, bcontent, conv)
                assert count_d_table(shape, bcontent, n, conv) == slow == {}, (shape, n, bcontent)
                assert layer_runs(bcontent, conv)(shape, n) == {}
                cases += 1
    assert cases == 3 * (12 * 4 + 1)  # 12 shapes of size <= 4; (1, -1) fits only the empty one


def test_empty_shape():
    assert count_d_table((), (), 2) == {(0, 0): 1}
    assert count_d((), (), ()) == 1


def test_count_yamanouchi_examples():
    assert count_d((2,), (1, 1), (2,)) == 1
    assert count_d((1,), (1,), (1,)) == 1


def test_wide_alphabet_falls_back_to_dict():
    # a top alphabet wider than the shape has rows: the table restricted to
    # a-contents supported on the first three letters is the narrow table
    shape = (5, 2, 1)
    wide = count_d_table(shape, (8,), 8, "w")
    narrow = count_d_table(shape, (8,), 3, "w")
    projected = {
        key[:3]: count
        for key, count in wide.items()
        if all(x == 0 for x in key[3:])
    }
    assert projected == narrow


def test_tables_are_symmetric_in_the_acontent():
    # d(lam, mu, nu) depends on mu only up to order, so permuting an
    # a-content never changes its count
    for shape in small_shapes(6):
        k = sum(shape)
        for n in (2, 3, 4):
            for nu in enumerate_partitions(k, 3):
                for conv in ("w", "w_prime"):
                    table = count_d_table(shape, nu, n, conv)
                    for key, count in table.items():
                        for perm in set(itertools.permutations(key)):
                            assert table.get(perm) == count, (shape, n, nu, conv, key, perm)


def test_import_does_not_load_numpy():
    import bitableaux

    src = os.path.dirname(os.path.dirname(bitableaux.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, bitableaux; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
