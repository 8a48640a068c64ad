import dataclasses
import itertools
import math

import pytest

from bitableaux.partitions import conjugate, enumerate_partitions
from bitableaux.symfunc import (
    SymPoly,
    character_table,
    default_variables,
    expand_in_schur_schur,
    kostka,
    kron_coproduct_poly,
    kronecker_coefficient,
    kronecker_coefficient_point,
    make_sympoly,
    mn_character,
    monomial_coefficient_d,
    monomial_coefficient_point,
    monomial_coefficient_row,
    permutation_characters,
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


def test_character_table_rows_and_columns_up_to_eight():
    for k in range(1, 9):
        table = character_table(k)
        kfact = math.factorial(k)
        assert sum(table.sizes) == kfact
        assert len(table.sizes) == len(table.classes)
        assert list(table.chi) == list(table.classes)
        rows = [table.chi[lam] for lam in table.classes]
        assert all(len(row) == len(table.classes) for row in rows)
        # column orthogonality: sum_lam chi^lam(rho_i) chi^lam(rho_j) = delta_ij z_rho_i
        for i, j in itertools.product(range(len(table.classes)), repeat=2):
            total = sum(row[i] * row[j] for row in rows)
            assert total == (kfact // table.sizes[i] if i == j else 0), (k, i, j)


def test_character_table_is_read_only():
    table = character_table(3)
    with pytest.raises(TypeError):
        table.chi[(3,)] = (0, 0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.sizes = ()
    assert table.chi[(3,)] == (1, 1, 1)


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


def test_point_kronecker_equals_the_table_up_to_seven():
    for k in range(8):
        for lam, mu, nu in itertools.product(enumerate_partitions(k), repeat=3):
            assert kronecker_coefficient_point(lam, mu, nu) == kronecker_coefficient(lam, mu, nu), (lam, mu, nu)


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


def test_kostka_edge_cases():
    from bitableaux.symfunc import _kostka

    assert kostka((), ()) == 1
    assert kostka((), (0, 0)) == 1
    # kostka refuses a content of another size; the recursion must count 0 there,
    # as the strip of size |lam| - content[-1] < 0 is an empty range
    assert _kostka((), (1,)) == 0
    assert _kostka((1,), (2,)) == 0
    assert kostka((2, 1), (1, 0, 1, 0, 1)) == 2


def test_non_integer_input_is_refused():
    from bitableaux.bitableau import int_to_pair, pair_to_int
    from bitableaux.crystal import count_d
    from bitableaux.tableaux import count_ssyt

    # floats used to pass: enumerate_partitions(3, 1.5) listed (1, 1, 1), count_ssyt
    # gave 4.0, pair_to_int 2.0, int_to_pair (1.0, 2.5); a float k raised TypeError
    for call in (
        lambda: kronecker_coefficient([2.9, 1], [2, 1.2], [3]),
        lambda: count_d("21", "21", "21"),
        lambda: kostka((2,), (1.7, 1)),
        lambda: kostka((2,), (True, 1)),
        lambda: monomial_coefficient_d((2, 1), (2, 1), (2.0, 1)),
        lambda: enumerate_partitions(3, 1.5),
        lambda: count_ssyt((2, 1), 2.5),
        lambda: pair_to_int((1.5, 1), 2),
        lambda: int_to_pair(2.5, 2),
        lambda: enumerate_partitions(4.0),
        lambda: kron_coproduct_poly((2, 1), 2.0, 2),
        lambda: kron_coproduct_poly((2, 1), True, 2),
        lambda: kron_coproduct_poly((2, 1), 0, 2),
    ):
        with pytest.raises(ValueError):
            call()


def test_kostka_matches_enumeration():
    from collections import Counter

    from bitableaux.tableaux import iter_ssyt_rows

    for k in range(1, 7):
        contents = list(enumerate_partitions(k))
        if k <= 5:  # every content of length k, zeros included
            contents = [c for c in itertools.product(range(k + 1), repeat=k) if sum(c) == k]
        for lam in enumerate_partitions(k):
            for n in {len(mu) for mu in contents}:
                # one plain enumeration per (lam, n), tallied by content
                direct = Counter(
                    tuple(sum(row.count(x) for row in rows) for x in range(1, n + 1))
                    for rows in iter_ssyt_rows(lam, n)
                )
                for mu in contents:
                    if len(mu) == n:
                        assert kostka(lam, mu) == direct.get(mu, 0), (lam, mu)


def test_schur_poly_examples():
    assert schur_poly((1,), ("x1", "x2")).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((2,), ("x1", "x2")).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert schur_poly((1, 1, 1), ("x1", "x2")).is_zero()


def test_schur_poly_matches_enumeration():
    # the Kostka sum against the content tally of the tableau filler, compositions included
    from bitableaux.tableaux import enumerate_ssyt

    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            for n in range(1, 6):
                tally = {}
                for t in enumerate_ssyt(lam, n):
                    content = [0] * n
                    for row in t.rows:
                        for x in row:
                            content[x - 1] += 1
                    tally[tuple(content)] = tally.get(tuple(content), 0) + 1
                assert schur_poly(lam, default_variables(n)).terms == tally, (lam, n)


def _per_word_kostka_sum(lam, slots, width):
    # s_lam(z) = sum over each multiset of |lam| variables of K_{lam, its content} z^word
    terms = {}
    for word in itertools.combinations_with_replacement(range(len(slots)), sum(lam)):
        content = sorted((word.count(v) for v in set(word)), reverse=True)
        coeff = kostka(lam, content)
        if coeff:
            exps = [0] * width
            for v in word:
                for slot in slots[v]:
                    exps[slot] += 1
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return terms


def test_schur_terms_are_the_per_word_kostka_sum():
    # the monomials listed once per alphabet, weighted by Kostka numbers,
    # against one Kostka number per word, on schur_poly's layout and on the
    # coproduct's z_(i,j) = x_i y_j
    from bitableaux.symfunc import _schur_terms

    cases = 0
    for k in range(6):
        for lam in enumerate_partitions(k):
            for n in range(1, 4):
                layouts = [(tuple((v,) for v in range(n)), n)]
                layouts += [(tuple((i, n + j) for i in range(n) for j in range(m)), n + m) for m in range(1, 4)]
                for slots, width in layouts:
                    assert _schur_terms(lam, slots, width) == _per_word_kostka_sum(lam, slots, width), (lam, slots)
                    cases += 1
    assert cases == 19 * 3 * 4  # 19 partitions of k <= 5, three n, four layouts each

def test_kron_coproduct_examples():
    assert kron_coproduct_poly((1,), 1, 1).terms == {(1, 1): 1}
    assert kron_coproduct_poly((1, 1, 1), 1, 2).is_zero()
    # s_(2)[xy] = h_2(x1y1, x1y2, x2y1, x2y2), exponents (x1, x2, y1, y2)
    assert kron_coproduct_poly((2,), 2, 2).terms == {
        (2, 0, 2, 0): 1,
        (2, 0, 1, 1): 1,
        (2, 0, 0, 2): 1,
        (1, 1, 2, 0): 1,
        (1, 1, 1, 1): 2,
        (1, 1, 0, 2): 1,
        (0, 2, 2, 0): 1,
        (0, 2, 1, 1): 1,
        (0, 2, 0, 2): 1,
    }


def test_kron_coproduct_fillings_must_agree(monkeypatch):
    # the Kostka sum with z_(i,j) = x_i y_j is the reference every call checks against
    import bitableaux.symfunc as symfunc

    real = symfunc._schur_terms

    def perturbed(lam, slots, width):
        terms = real(lam, slots, width)
        terms[min(terms)] += 1
        return terms

    monkeypatch.setattr(symfunc, "_schur_terms", perturbed)
    with pytest.raises(ArithmeticError):
        kron_coproduct_poly((2,), 2, 2)


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
    # s1(x) s1(y) with the y-variables first: the x/y split reads the
    # variables in order, so that order is refused by name, not misread
    late_x = make_sympoly(("y1", "y2", "x1"), {(1, 0, 1): 1, (0, 1, 1): 1})
    with pytest.raises(ValueError, match=r"\('y1', 'y2', 'x1'\)"):
        expand_in_schur_schur(late_x, 1)


def test_coproduct_identity_small():
    # both sides agree and the expansion returns the Kronecker coefficients
    # with l(mu) <= n and l(nu) <= m; n != m tells x from y
    for k in range(1, 4):
        for n, m in ((k, k), (2, 3), (3, 2)):
            for lam in enumerate_partitions(k):
                p = kron_coproduct_poly(lam, n, m)
                expansion = expand_in_schur_schur(p, k)
                for mu in enumerate_partitions(k, n):
                    for nu in enumerate_partitions(k, m):
                        assert expansion.get((mu, nu), 0) == kronecker_coefficient(
                            lam, mu, nu
                        ), (lam, mu, nu, n, m)


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


def test_permutation_characters_count_every_assignment_up_to_six():
    # the naive reference: give each cycle of rho to a part of mu in every way
    for k in range(7):
        table = character_table(k)
        rows = permutation_characters(k)
        assert list(rows) == list(table.classes)
        for mu, row in rows.items():
            naive = tuple(
                sum(
                    1
                    for owner in itertools.product(range(len(mu)), repeat=len(rho))
                    if all(
                        sum(c for c, o in zip(rho, owner) if o == i) == part
                        for i, part in enumerate(mu)
                    )
                )
                for rho in table.classes
            )
            assert row == naive, (k, mu)


def test_monomial_coefficient_row_matches_tau_sum_up_to_eight():
    # the tau-sum is the naive reference for both row routes; the point route to k = 7
    for k in range(9):
        parts = enumerate_partitions(k)
        for lam, nu in itertools.product(parts, repeat=2):
            row = monomial_coefficient_row(lam, nu)
            assert list(row) == parts
            for mu in parts:
                d = monomial_coefficient_d(lam, mu, nu)
                assert row[mu] == d, (lam, mu, nu)
                if k <= 7:
                    assert monomial_coefficient_point(lam, mu, nu) == d, (lam, mu, nu)
    with pytest.raises(ValueError):
        monomial_coefficient_row((2,), (1,))
    with pytest.raises(ValueError):
        monomial_coefficient_row((1, 2), (2, 1))



def test_monomial_coefficient_row_is_one_row_per_conjugate_orbit():
    # chi^{lam'} = sgn * chi^lam, so sizes * chi^lam * chi^nu, and with it the
    # row, is the same for (lam, nu), (nu, lam), (lam', nu') and (nu', lam');
    # the Theorem-2 sweep forms one row per orbit on the strength of this
    for k in range(9):
        parts = enumerate_partitions(k)
        for lam, nu in itertools.product(parts, repeat=2):
            row = monomial_coefficient_row(lam, nu)
            lc, nc = conjugate(lam), conjugate(nu)
            for other in ((nu, lam), (lc, nc), (nc, lc)):
                assert monomial_coefficient_row(*other) == row, (lam, nu, other)


@pytest.mark.parametrize(
    "perturb, word",
    [
        (lambda row: row[:-1] + (row[-1] + 1,), "non-integer"),  # one more at the identity
        (lambda row: tuple(-x for x in row), "negative"),
    ],
    ids=["non-integer", "negative"],
)
def test_monomial_coefficient_row_must_be_natural(monkeypatch, capsys, perturb, word):
    # the row route checks each d as _g checks each g; verify-thm2 exits 5 on it
    import bitableaux.symfunc as symfunc
    from bitableaux.cli import main

    real = symfunc.permutation_characters
    monkeypatch.setattr(
        symfunc,
        "permutation_characters",
        lambda k: {mu: perturb(row) for mu, row in real(k).items()},
    )
    with pytest.raises(ArithmeticError, match=word):
        monomial_coefficient_row((2,), (2,))
    assert main(["verify-thm2", "--k", "2"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: oracle arithmetic failed: {word} monomial coefficient")


def test_equal_polynomials_hash_alike():
    a = schur_poly((2, 1), ("x1", "x2"))
    b = schur_poly((2, 1), ("x1", "x2"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, schur_poly((2, 1), ("y1", "y2"))}) == 2


def test_polynomial_terms_are_read_only():
    source = {(1, 0): 1, (0, 1): 1}
    p = make_sympoly(("x1", "x2"), source)
    before = hash(p)
    source[(5, 5)] = 1
    with pytest.raises(TypeError):
        p.terms[(5, 5)] = 1
    assert dict(p.terms) == {(1, 0): 1, (0, 1): 1} and hash(p) == before
    q = schur_poly((1,), ("x1", "x2"))
    with pytest.raises(TypeError):
        q.terms[(5, 5)] = 1
    assert p == q and hash(q) == before


def test_polynomial_terms_are_natural_exponents_and_integer_coefficients():
    # make_sympoly used to store int(1.5) = 1; SymPoly stored 1.5 and (-1,) as given
    for terms in ({(1,): 1.5}, {(1,): 0.5}, {(1,): True}, {(-1,): 1}, {(1.0,): 1}):
        for build in (make_sympoly, SymPoly):
            with pytest.raises(ValueError, match="integers"):
                build(("x1",), terms)
    assert make_sympoly(("x1",), {(1,): 2, (0,): 0}).terms == {(1,): 2}


@pytest.mark.parametrize(
    "variables, terms, message",
    [
        (("x1", "x1"), {(1, 0): 1}, "variable names must not repeat, got ('x1', 'x1')"),
        (("x1", "x2"), {(1, 0): 1, (1,): 1, (1, 2, 3): 1}, "exponent vector length must match variable count"),
        (("x1", "x2"), {(1, 0): 1, (0, True): 1, (-1, 0): 1}, "exponents must be nonnegative integers, got (0, True)"),
        (("x1", "x2"), {(1, 0): 1, (0, -1): 1, (2.0, 0): 1}, "exponents must be nonnegative integers, got (0, -1)"),
        (("x1", "x2"), {(1, 0): 1, (2.0, 0): 1, (0, -1): 1}, "exponents must be nonnegative integers, got (2.0, 0)"),
        (("x1", "x2"), {(1, 0): 1, (0, 1): True, (1, 1): 1.5}, "coefficients must be integers, got True"),
        (("x1", "x2"), {(1, 0): 1, (0, 1): 1.5, (1, 1): True}, "coefficients must be integers, got 1.5"),
        (("x1", "x2"), {(1, 0): 1, (0, 1): 0, (1, 1): 1.5}, "zero terms must not be stored"),
    ],
)
def test_polynomial_refusals_name_the_first_bad_term(variables, terms, message):
    with pytest.raises(ValueError) as raised:
        SymPoly(variables, terms)
    assert str(raised.value) == message


def test_polynomial_takes_int_subclass_exponents_and_coefficients():
    class Int(int):
        pass

    p = SymPoly(("x1", "x2"), {(Int(2), 0): 1, (1, Int(1)): Int(3)})
    assert p.terms == {(2, 0): 1, (1, 1): 3}
    with pytest.raises(ValueError, match="zero terms must not be stored"):
        SymPoly(("x1",), {(1,): Int(0)})


def test_polynomial_variables_are_distinct():
    # schur_poly((1,), ("x1", "x1")) used to give x1 + x1 as two terms in two variables both named x1
    for build in (
        lambda: schur_poly((1,), ("x1", "x1")),
        lambda: SymPoly(("x1", "x1"), {(1, 0): 1}),
        lambda: make_sympoly(("y", "x", "y"), {}),
    ):
        with pytest.raises(ValueError, match="repeat"):
            build()
