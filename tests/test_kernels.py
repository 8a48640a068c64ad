import itertools
import os
import subprocess
import sys
from functools import lru_cache

import pytest

from conftest import nm_pairs, small_shapes
from bitableaux.crystal import count_d
import bitableaux.kernels as kernels
from bitableaux.kernels import _push, _tally_python_dict, _Walk, count_d_table, partition_runs
from bitableaux.partitions import enumerate_partitions, trim
from bitableaux.symfunc import monomial_coefficient_row
from bitableaux.words import CONVENTIONS


def cold_tables(shape, nus, n, conv):
    # count_d_table's tables of shape at each nu, from cold walkers: a w
    # walker no other call shares, the process one put back afterwards, and
    # an emptied w' shape cache
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_WALK", _Walk("w", None, None, None, False))
        kernels._shape_walker.cache_clear()
        return [count_d_table(shape, nu, n, conv) for nu in nus]


def composition_runs(shape, conv):
    # every composition run of shape by b-content, read off cold tables over
    # one top value per cell: a run is an a-content with no zero before its
    # last nonzero entry
    nus = enumerate_partitions(sum(shape))
    runs = {}
    for nu, table in zip(nus, cold_tables(shape, nus, sum(shape), conv)):
        kept = {trim(a): count for a, count in table.items() if 0 not in trim(a)}
        if kept:
            runs[nu] = kept
    return runs


def test_kernel_matches_reference_tally():
    # every shape with |lam| <= 5, n, m <= 3, every b-content composition
    cases = 0
    for shape in small_shapes(5):
        k = sum(shape)
        for n, m in nm_pairs(3):
            for conv in ("w", "w_prime"):
                tally = _tally_python_dict(shape, n, m, conv)  # every b-content at once
                for bcontent in itertools.product(range(k + 1), repeat=m):
                    if sum(bcontent) != k:
                        continue
                    fast = count_d_table(shape, bcontent, n, conv)
                    assert fast == tally.get(bcontent, {}), (shape, n, bcontent, conv)
                    cases += 1
    assert cases == 2250


def test_one_memo_serves_every_shape(monkeypatch):
    # the grid above through count_d_table, with one cold process memo per
    # convention and order, reused over every shape, b-content and n, with
    # the shapes of each size descending and then ascending: a stale or
    # shape-dependent memo entry changes a later shape's table.  Size 0 has
    # one shape, so it shares nothing.
    memos = {
        (conv, order): (_Walk("w", None, None, None, False), lru_cache(maxsize=1)(kernels._shape_walker.__wrapped__))
        for conv in CONVENTIONS
        for order in (-1, 1)
    }
    cases = 0
    for k in range(1, 6):
        shapes = enumerate_partitions(k)
        for n, m in nm_pairs(3):
            for conv in CONVENTIONS:
                tallies = {shape: _tally_python_dict(shape, n, m, conv) for shape in shapes}
                for bcontent in itertools.product(range(k + 1), repeat=m):
                    if sum(bcontent) != k:
                        continue
                    for order in (-1, 1):
                        walker, latest = memos[conv, order]
                        monkeypatch.setattr(kernels, "_WALK", walker)
                        monkeypatch.setattr(kernels, "_shape_walker", latest)
                        for shape in shapes[::order]:
                            table = count_d_table(shape, bcontent, n, conv)
                            assert table == tallies[shape].get(bcontent, {}), (shape, n, bcontent, conv)
                            cases += 1
    assert cases == 2 * (2250 - 18)


def test_partition_runs_are_the_nonincreasing_composition_runs():
    # every lam of k, in partition order, gets the composition runs of its
    # cold tables that weakly decrease, over every nu: a walk or a ceiling
    # that leaks between the lam the sweep shares its work across changes a
    # later lam's runs
    cases = 0
    for k in range(1, 8):
        shapes = enumerate_partitions(k)
        for conv in CONVENTIONS:
            swept = list(partition_runs(k, conv))
            assert [lam for lam, _ in swept] == shapes
            for lam, part in swept:
                full = composition_runs(lam, conv)
                for nu in shapes:
                    kept = {run: c for run, c in full.get(nu, {}).items() if list(run) == sorted(run, reverse=True)}
                    assert part.get(nu, {}) == kept, (lam, nu, conv)
                    cases += 1
    assert cases == 868


def test_count_d_equals_the_partition_runs_and_the_oracle_on_every_triple_to_k8():
    # count_d walks layers of mu's sizes, under w on the process walker
    # (_WALK); every triple of k <= 8, both conventions interleaved, forward
    # and then reversed, must match the sweep's fresh partition runs and the
    # permutation-character oracle
    cases = 0
    for order in (1, -1):
        for k in range(1, 9)[::order]:
            parts = enumerate_partitions(k)[::order]
            fresh = {conv: dict(partition_runs(k, conv)) for conv in CONVENTIONS}
            for lam in parts:
                for nu in parts:
                    oracle = monomial_coefficient_row(lam, nu)
                    for mu in parts:
                        for conv in CONVENTIONS:
                            expected = fresh[conv][lam].get(nu, {}).get(mu, 0)
                            assert count_d(lam, mu, nu, conv) == expected == oracle[mu], (lam, mu, nu, conv)
                            cases += 1
    assert cases == 2 * 2 * sum(len(enumerate_partitions(k)) ** 3 for k in range(1, 9))


def test_count_d_makes_no_push(monkeypatch):
    # the push serves the w' sweep alone: with every push refused, count_d
    # and count_d_table under both conventions and the w sweep still answer
    # every triple of k <= 5
    def refused(*args, **kwargs):
        raise AssertionError("pushed")

    monkeypatch.setattr(kernels, "_push", refused)
    cases = 0
    for k in range(6):
        parts = enumerate_partitions(k)
        swept = dict(partition_runs(k, "w"))
        for lam in parts:
            for nu in parts:
                oracle = monomial_coefficient_row(lam, nu)
                tables = {conv: count_d_table(lam, nu, k, conv) for conv in CONVENTIONS}
                for mu in parts:
                    acontent = mu + (0,) * (k - len(mu))
                    assert swept[lam].get(nu, {}).get(mu, 0) == oracle[mu], (lam, mu, nu)
                    for conv in CONVENTIONS:
                        assert count_d(lam, mu, nu, conv) == oracle[mu], (lam, mu, nu, conv)
                        assert tables[conv].get(acontent, 0) == oracle[mu], (lam, mu, nu, conv)
                        cases += 1
    assert cases == 2 * sum(len(enumerate_partitions(k)) ** 3 for k in range(6))


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_the_sweep_push_gives_each_shape_its_own_runs(conv):
    # partition_runs (under w one walker over every lam, under w' one push
    # over every partition of k, bound (k, k // 2, ..., 1)) against each lam
    # alone (under w a fresh walker, under w' a push bound by lam), every
    # lam of k <= 8, k = 0 and 1 included
    cases = 0
    for k in range(9):
        parts = enumerate_partitions(k)
        for lam, runs in partition_runs(k, conv):
            if conv == "w":
                alone = {}
                walker = _Walk("w", None, None, None, False)
                for mu in parts:
                    for nu, count in walker.walk(lam, mu, ()).items():
                        alone.setdefault(nu, {})[mu] = count
            else:
                alone = _push(lam, k)[lam]
            assert runs == alone, lam
            cases += 1
    assert cases == sum(len(enumerate_partitions(k)) for k in range(9))


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_a_count_d_table_call_made_while_one_pushes_keeps_each_shape_its_own_runs(monkeypatch, conv):
    # count_d_table walks on one process walker (w) or the latest shape's
    # (w'); a call for a second shape made from inside the first one's walk
    # (as another thread may make it) must not file either shape's counts
    # under the other
    first, second = (3, 3, 1), (5, 1, 1)
    nus = enumerate_partitions(7)
    expected = {shape: cold_tables(shape, nus, 7, conv) for shape in (first, second)}
    assert expected[first] != expected[second]

    def tables(shape):
        return [count_d_table(shape, nu, 7, conv) for nu in nus]

    monkeypatch.setattr(kernels, "_WALK", _Walk("w", None, None, None, False))  # cold: the walk reaches
    kernels._shape_walker.cache_clear()  # partitions_between
    between = kernels.partitions_between
    pending, nested = [second], []

    def between_once_calling_second(*args):
        if pending:
            nested.append(tables(pending.pop()))
        return between(*args)

    monkeypatch.setattr(kernels, "partitions_between", between_once_calling_second)
    assert tables(first) == expected[first]
    assert nested == [expected[second]]
    assert tables(second) == expected[second]
    assert tables(first) == expected[first]


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_count_d_is_right_under_threads(monkeypatch, conv):
    # four threads ask d at k = 7 from a cold process walker (w' walks per
    # call), each from another lam first, with a thread switch about every
    # microsecond; every answer must match the oracle
    import threading

    monkeypatch.setattr(kernels, "_WALK", _Walk("w", None, None, None, False))
    parts = enumerate_partitions(7)
    oracle = {(lam, nu): monomial_coefficient_row(lam, nu) for lam in parts for nu in parts}
    wrong, done = [], []

    def ask(offset):
        for lam in parts[offset:] + parts[:offset]:
            for nu in parts:
                for mu in parts:
                    if count_d(lam, mu, nu, conv) != oracle[lam, nu][mu]:
                        wrong.append((lam, mu, nu))
        done.append(offset)  # a thread that raised or hung never gets here

    offsets = [0, 4, 8, 12]
    threads = [threading.Thread(target=ask, args=(offset,), daemon=True) for offset in offsets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == offsets and wrong == []


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_count_d_table_is_right_under_threads(monkeypatch, conv):
    # four threads ask for the tables of k = 6 from a cold process walker,
    # each from another lam first, so the latest shape's w' walker is
    # swapped between threads, with a thread switch about every microsecond;
    # every table must match the naive reference
    import threading

    monkeypatch.setattr(kernels, "_WALK", _Walk("w", None, None, None, False))
    kernels._shape_walker.cache_clear()
    parts = enumerate_partitions(6)
    tally = {lam: _tally_python_dict(lam, 3, 3, conv) for lam in parts}
    bcontents = [b for b in itertools.product(range(7), repeat=3) if sum(b) == 6]
    wrong, done = [], []

    def ask(offset):
        for lam in parts[offset:] + parts[:offset]:
            for bcontent in bcontents:
                if count_d_table(lam, bcontent, 3, conv) != tally[lam].get(bcontent, {}):
                    wrong.append((lam, bcontent))
        done.append(offset)  # a thread that raised or hung never gets here

    offsets = [0, 3, 6, 9]
    threads = [threading.Thread(target=ask, args=(offset,), daemon=True) for offset in offsets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == offsets and wrong == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_d_table((2, 1), (2, 1), 2.5),
        lambda: count_d_table((2, 1), (2, 1), 2.0, "w_prime"),
        lambda: count_d_table((2, 1), (2, 1), True),
        lambda: count_d_table((), (), -1),
        lambda: count_d_table((2, 1), (2.0, 1), 2),
        lambda: count_d_table((2, 1), (2, 1), -1, "w_prime"),
        lambda: count_d_table((2, 1), (2, 1), 2, "u"),
        lambda: list(partition_runs(3, "u")),
        lambda: count_d_table((2, 1.0), (2, 1), 2),
        lambda: count_d((1,), (1,), (1,), ["w"]),
        lambda: count_d((1,), (1,), (1,), "u"),
        lambda: _tally_python_dict((1,), 1, 1, "u"),
        lambda: partition_runs(3, "u"),
        lambda: partition_runs(-1),
        lambda: kernels.highest_weight_bitableaux((2, 1), 0, 2),
    ],
    ids=["float-n", "float-n-w_prime", "bool-n", "negative-n-empty", "float-bcontent",
         "negative-n", "unknown-conv-count_d_table", "unknown-conv-partition_runs",
         "float-shape-count_d_table", "list-conv-count_d", "unknown-conv-count_d",
         "unknown-conv-_tally_python_dict", "unknown-conv-partition_runs-uniterated",
         "negative-k-partition_runs-uniterated", "zero-n-highest_weight_bitableaux-uniterated"],
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
                slow = _tally_python_dict(shape, n, len(bcontent), conv).get(bcontent, {})
                assert count_d_table(shape, bcontent, n, conv) == slow == {}, (shape, n, bcontent)
                cases += 1
    assert cases == 3 * (12 * 4 + 1)  # 12 shapes of size <= 4; (1, -1) fits only the empty one


def test_empty_shape():
    assert count_d_table((), (), 2) == {(0, 0): 1}
    assert count_d((), (), ()) == 1


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_a_layer_of_1200_cells_fills_without_recursion(conv):
    # the backtracker is a loop over the cells: one frame for any layer
    assert count_d((1200,), (1200,), (1200,), conv) == 1

def test_count_yamanouchi_examples():
    assert count_d((2,), (1, 1), (2,)) == 1
    assert count_d((1,), (1,), (1,)) == 1


def test_wide_top_alphabet_projects_to_the_narrow_table():
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
