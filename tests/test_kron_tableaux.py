import pytest

from bitableaux.bitableau import Bitableau, weights
from bitableaux.kernels import _lattice_fillings, _layer_cells, count_d_table
from bitableaux.kron_tableaux import (
    count_kronecker_tableaux,
    in_two_row_regime,
    is_kronecker_tableau,
    iter_b_prime_content,
    kronecker_count_row,
    kronecker_tableaux,
    phi,
    top_one_shape,
)
from bitableaux.partitions import enumerate_partitions, partitions_between, trim
from bitableaux.symfunc import kronecker_coefficient
from bitableaux.words import bitableau_reading_word, is_yamanouchi

FIRST = Bitableau.from_rows(
    [[(1, 1), (1, 1), (2, 1), (2, 2)], [(1, 2), (2, 3), (2, 3)]], 2, 3
)
SECOND = Bitableau.from_rows(
    [[(1, 1), (1, 1), (2, 2), (2, 3)], [(1, 2), (2, 1), (2, 3)]], 2, 3
)


def test_displayed_tableaux_are_kronecker():
    for t in (FIRST, SECOND):
        verdict = is_kronecker_tableau(t)
        assert verdict.is_kronecker
        assert verdict.alpha == (2, 1)
    assert "IIii" not in is_kronecker_tableau(FIRST).failed_conditions
    assert "IIi" not in is_kronecker_tableau(SECOND).failed_conditions


def test_non_kronecker_example():
    t = Bitableau.from_rows([[(1, 1), (1, 1)], [(2, 1)]], 2, 1)
    verdict = is_kronecker_tableau(t)
    assert not verdict.is_kronecker
    assert verdict.alpha == (2,)
    assert verdict.failed_conditions == frozenset({"I", "IIi", "IIii"})


def test_membership_is_enforced():
    not_highest = Bitableau.from_rows([[(1, 1), (1, 2)]], 2, 2)
    assert not is_yamanouchi(bitableau_reading_word(not_highest, "w_prime"))
    with pytest.raises(ValueError):
        is_kronecker_tableau(not_highest)
    with pytest.raises(ValueError):
        phi(not_highest)
    three_tops = Bitableau.from_rows([[(3, 1)]], 3, 1)
    with pytest.raises(ValueError):
        is_kronecker_tableau(three_tops)


def test_phi_examples():
    t = Bitableau.from_rows([[(1, 1), (1, 1)], [(2, 1)]], 2, 1)
    assert phi(t) == Bitableau.from_rows([[(1, 1), (2, 1)], [(2, 1)]], 2, 1)
    assert phi(FIRST) is None
    assert phi(Bitableau.from_rows([[(1, 1)]], 2, 1)) == Bitableau.from_rows(
        [[(2, 1)]], 2, 1
    )
    no_top_one_in_first_row = Bitableau.from_rows([[(2, 1), (2, 1)]], 2, 1)
    assert phi(no_top_one_in_first_row) is None


def test_phi_weight_law():
    for k in range(1, 6):
        for lam in enumerate_partitions(k):
            for m in (2, 3):
                for t in _all_b_prime(lam, m):
                    image = phi(t)
                    if image is None:
                        continue
                    a0, b0 = weights(t)
                    a1, b1 = weights(image)
                    assert a1 == (a0[0] - 1, a0[1] + 1)
                    assert b1 == b0


def _all_b_prime(lam, m):
    from bitableaux.bitableau import enumerate_bitableaux

    return [
        t
        for t in enumerate_bitableaux(lam, 2, m)
        if is_yamanouchi(bitableau_reading_word(t, "w_prime"))
    ]


def test_phi_zero_iff_kronecker_small():
    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            for m in (1, 2, 3):
                for t in _all_b_prime(lam, m):
                    assert (phi(t) is None) == is_kronecker_tableau(t).is_kronecker


def test_alpha_is_top_left_justified():
    for lam in enumerate_partitions(5):
        for t in _all_b_prime(lam, 3):
            alpha = top_one_shape(t)
            assert all(
                alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)
            )


def test_count_examples():
    assert count_kronecker_tableaux((4, 3), 3, (3, 2, 2)) == 2
    found = kronecker_tableaux((4, 3), 3, (3, 2, 2))
    assert {t.rows for t in found} == {FIRST.rows, SECOND.rows}
    for k in (0, 1, 3, 5):
        row = trim((k,))  # the empty shape at k = 0
        assert count_kronecker_tableaux(row, 0, row) == 1


def test_regime_equality_five_two():
    lam = (5, 2)
    for nu in enumerate_partitions(7):
        assert count_kronecker_tableaux(lam, 2, nu) == kronecker_coefficient(
            lam, (5, 2), nu
        )


def test_regime_sweep_small():
    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            for nu in enumerate_partitions(k):
                for p in range(k // 2 + 1):
                    count = count_kronecker_tableaux(lam, p, nu)
                    g = kronecker_coefficient(lam, trim((k - p, p)), nu)
                    if in_two_row_regime(lam, p):
                        assert count == g, (lam, p, nu)
                    else:
                        assert count >= g, (lam, p, nu)


def test_lowering_target_is_unique():
    # exactly one highest-weight tableau of shape (4,3) with a-weight (2,5)
    # and b-weight (3,2,2): the candidate image of the conjectured operator
    matches = list(iter_b_prime_content((4, 3), 2, (3, 2, 2)))
    assert len(matches) == 1
    assert matches[0].rows == (
        ((1, 1), (1, 1), (2, 2), (2, 2)),
        ((2, 1), (2, 3), (2, 3)),
    )


def test_b_prime_content_matches_the_kernel():
    # the enumerator of B'_lam(2,m) members with a(T) = (p, k-p), b(T) = nu
    # against the counting kernel's w' table, every lam, nu |- k <= 6, every p
    cases = total = 0
    for k in range(1, 7):
        parts = enumerate_partitions(k)
        for lam in parts:
            for nu in parts:
                table = count_d_table(lam, nu, 2, "w_prime")
                for p in range(k + 1):
                    count = len(list(iter_b_prime_content(lam, p, nu)))
                    assert count == table.get((p, k - p), 0), (lam, p, nu)
                    cases += 1
                    total += count
    assert (cases, total) == (1316, 840)
    # p > k asks for a negative second top count: no member, not every filling
    assert list(iter_b_prime_content((2,), 3, (2,))) == []


def test_csv_row():
    lam, p, nu, count, g, regime = kronecker_count_row((4, 3), 3, (3, 2, 2))
    assert (count, g, regime) == (2, 1, False)
    with pytest.raises(ValueError):
        kronecker_count_row((2, 1), 2, (2, 1))


def test_kronecker_grid_work_counters(monkeypatch):
    # exact work of the Kronecker grid of every two-row lam |- 8, p = 0..4 and
    # every nu, from a cold row: one row per (lam, p) serves every nu, one
    # listing of the a = 2 layer's lattice fillings per a = 1 shape alpha |- p
    import bitableaux.kernels as kernels
    import bitableaux.kron_tableaux as kron_tableaux

    kron_tableaux._kronecker_row.cache_clear()
    work = {"calls": 0, "fillings": 0}
    fillings = kernels._lattice_fillings

    def counted_fillings(*args):
        ends = fillings(*args)
        work["calls"] += 1
        work["fillings"] += sum(map(len, ends.values()))
        return ends

    monkeypatch.setattr(kron_tableaux, "_lattice_fillings", counted_fillings)
    shapes = [lam for lam in enumerate_partitions(8) if len(lam) <= 2]
    total = sum(
        count_kronecker_tableaux(lam, p, nu) for lam in shapes for p in range(5) for nu in enumerate_partitions(8)
    )
    assert total == 140
    assert work == {"calls": 40, "fillings": 313}


def test_the_a1_layer_has_one_lattice_filling():
    # the fact the row counter rests on: read first under w', a layer of
    # partition shape alpha from () has one lattice filling, row r all
    # letter r, ending at content alpha; every alpha inside every lam of k <= 10
    cases = 0
    for k in range(11):
        for lam in enumerate_partitions(k):
            for alpha in partitions_between((0,) * len(lam), lam, 0, k):
                empty = (0,) * len(alpha)
                rows = tuple(r for r, _ in _layer_cells(alpha, empty))
                assert _lattice_fillings(alpha, empty, (), None, True) == {trim(alpha): [rows]}, alpha
                cases += 1
    assert cases == 2888


def test_count_is_the_length_of_the_listing_to_k8():
    # the row count against the filtered listing, every (lam, p, nu) of k <= 8
    cases = 0
    for k in range(9):
        parts = enumerate_partitions(k)
        for lam in parts:
            for p in range(k + 1):
                for nu in parts:
                    assert count_kronecker_tableaux(lam, p, nu) == len(kronecker_tableaux(lam, p, nu)), (lam, p, nu)
                    cases += 1
    assert cases == 7473


def test_count_refuses_what_the_listing_refuses():
    bad = [((2, 1), 1, (2, 2)), ((2, 1), 4, (2, 1)), ((2, 1), -1, (2, 1)), ((2, 1), True, (2, 1)), ((1, 2), 0, (3,))]
    for args in bad:
        with pytest.raises(ValueError):
            kronecker_tableaux(*args)
        with pytest.raises(ValueError):
            count_kronecker_tableaux(*args)
    for p in (True, 1.5, -3, "2"):
        with pytest.raises(ValueError):
            in_two_row_regime((3,), p)
    for p in ("a", 1.5, True):
        with pytest.raises(ValueError):
            kronecker_count_row((2, 1), p, (2, 1))


def test_count_is_right_under_threads(monkeypatch):
    # four threads ask for every nu of k = 7, four rounds each, each from
    # another (lam, p) first and one (lam, p) behind the next, so the latest
    # row is swapped between threads while another asks for it, with a
    # thread switch about every microsecond; every count must match the
    # listing
    import sys
    import threading

    import bitableaux.kron_tableaux as kron_tableaux

    kron_tableaux._kronecker_row.cache_clear()
    parts = enumerate_partitions(7)
    cases = [(lam, p) for lam in parts for p in range(4)]
    listing = {(lam, p, nu): len(kronecker_tableaux(lam, p, nu)) for lam, p in cases for nu in parts}
    wrong, done = [], []

    def ask(offset):
        for lam, p in (cases[offset:] + cases[:offset]) * 4:
            for nu in parts:
                if count_kronecker_tableaux(lam, p, nu) != listing[lam, p, nu]:
                    wrong.append((lam, p, nu))
        done.append(offset)  # a thread that raised or hung never gets here

    offsets = [0, 1, 2, 3]
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
