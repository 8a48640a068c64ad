import itertools

import pytest

from bitableaux.partitions import enumerate_partitions
from bitableaux.symfunc import (
    character_table,
    expand_in_schur_schur,
    kostka,
    kron_coproduct_poly,
    kronecker_coefficient,
    make_sympoly,
    mn_character,
    monomial_coefficient_d,
    schur_poly,
)


def test_character_examples():
    for rho in enumerate_partitions(5):
        assert mn_character((5,), rho) == 1
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        mn_character((2,), (1, 1, 1))


def test_character_orthogonality_up_to_seven():
    for k in range(1, 8):
        assert character_table(k).check_orthogonality()


def test_kronecker_examples():
    assert kronecker_coefficient((4, 3), (4, 3), (3, 2, 2)) == 1
    assert kronecker_coefficient((2,), (1, 1), (1, 1)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1


def test_kronecker_symmetric_up_to_six():
    for k in range(1, 7):
        parts = enumerate_partitions(k)
        table = {
            (lam, mu, nu): kronecker_coefficient(lam, mu, nu)
            for lam, mu, nu in itertools.product(parts, repeat=3)
        }
        for (lam, mu, nu), g in table.items():
            for perm in itertools.permutations((lam, mu, nu)):
                assert table[perm] == g


def test_kronecker_with_trivial_factor():
    for k in range(1, 7):
        for mu in enumerate_partitions(k):
            for nu in enumerate_partitions(k):
                expected = 1 if mu == nu else 0
                assert kronecker_coefficient((k,), mu, nu) == expected


def test_kostka_examples():
    assert kostka((3, 1), (3, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2, 0)) == 0


def test_kostka_matches_enumeration():
    from bitableaux.tableaux import iter_ssyt_rows

    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            for mu in enumerate_partitions(k):
                n = len(mu)
                direct = sum(1 for _ in iter_ssyt_rows(lam, n, [(range(n), mu)]))
                assert kostka(lam, mu) == direct


def test_schur_poly_examples():
    assert schur_poly((1,), ("x1", "x2")).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((2,), ("x1", "x2")).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert schur_poly((1, 1, 1), ("x1", "x2")).is_zero()


def test_kron_coproduct_examples():
    assert kron_coproduct_poly((1,), 1, 1).terms == {(1, 1): 1}
    assert kron_coproduct_poly((1, 1, 1), 1, 2).is_zero()
    p = kron_coproduct_poly((2,), 2, 2)
    assert sum(p.terms.values()) == 10
    assert p.terms == kron_coproduct_poly((2,), 2, 2, route="substitution").terms


def test_expand_examples():
    p = kron_coproduct_poly((2,), 2, 2)
    assert expand_in_schur_schur(p, 2) == {((2,), (2,)): 1, ((1, 1), (1, 1)): 1}
    zero = make_sympoly(("x1", "y1"), {})
    assert expand_in_schur_schur(zero, 1) == {}
    single = make_sympoly(("x1", "x2", "y1"), {})
    mu, nu = (2, 1), (3,)
    from bitableaux.symfunc import _product_terms

    prod = make_sympoly(
        ("x1", "x2", "y1"),
        _product_terms(
            schur_poly(mu, ("x1", "x2")).terms, schur_poly(nu, ("y1",)).terms
        ),
    )
    assert expand_in_schur_schur(prod, 3) == {(mu, nu): 1}


def test_expand_rejects_junk():
    bad = make_sympoly(("x1", "x2", "y1", "y2"), {(0, 1, 1, 0): 1})
    with pytest.raises(ArithmeticError):
        expand_in_schur_schur(bad, 1)


def test_coproduct_identity_small():
    # both routes agree and the expansion returns the Kronecker coefficients
    for k in range(1, 4):
        for lam in enumerate_partitions(k):
            p = kron_coproduct_poly(lam, k, k, route="checked")
            expansion = expand_in_schur_schur(p, k)
            for mu in enumerate_partitions(k):
                for nu in enumerate_partitions(k):
                    assert expansion.get((mu, nu), 0) == kronecker_coefficient(
                        lam, mu, nu
                    )


def test_monomial_coefficient_examples():
    assert monomial_coefficient_d((1,), (1,), (1,)) == 1
    assert monomial_coefficient_d((2,), (1, 1), (2,)) == 1
    assert monomial_coefficient_d((2,), (2,), (1, 1)) == 0


def test_monomial_coefficient_dominates_kronecker():
    for k in range(1, 6):
        for lam, mu, nu in itertools.product(enumerate_partitions(k), repeat=3):
            assert monomial_coefficient_d(lam, mu, nu) >= kronecker_coefficient(
                lam, mu, nu
            )


def test_equal_polynomials_hash_alike():
    a = schur_poly((2, 1), ("x1", "x2"))
    b = schur_poly((2, 1), ("x1", "x2"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, schur_poly((2, 1), ("y1", "y2"))}) == 2
