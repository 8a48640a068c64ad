"""Acceptance suite: one test per criterion, all checks exact (tolerance zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools

from conftest import EIGHTEEN_BOX, EIGHTEEN_BOX_WORD, FIVE_BOX, SEVEN_BOX_COLUMN
from bitableaux.bitableau import Bitableau, enumerate_bitableaux, weights
from bitableaux.completion import (
    column_top_operator,
    commutes_with_bottom,
    enumerate_completions,
    row_top_operator,
    shape21_candidate_crystal,
    skeleton,
)
from bitableaux.crystal import count_d_table, crystal_op_bitableau, monomial_expansion_sweep
from bitableaux.insertion import (
    Biword,
    all_rectifications,
    brsk,
    insert_word,
    jdt_product,
    product_skew,
    rsk,
)
from bitableaux.kron_tableaux import (
    count_kronecker_tableaux,
    in_two_row_regime,
    is_kronecker_tableau,
    kronecker_tableaux,
    phi,
)
from bitableaux.partitions import enumerate_partitions, pad, trim
from bitableaux.symfunc import (
    character_table,
    expand_in_schur_schur,
    kron_coproduct_poly,
    kronecker_coefficient,
    monomial_coefficient_d,
)
from bitableaux.tableaux import SSYT, enumerate_ssyt, reading_word
from bitableaux.words import (
    bitableau_reading_word,
    crystal_op_word,
    is_yamanouchi,
    word_weight,
)


def _report(number: int, text: str) -> None:
    print(f"criterion {number} PASS: {text}")


def test_criterion_1_monomial_expansion_sweep():
    checked = 0
    for k in range(7):
        for lam, mu, nu, crystal, oracle in monomial_expansion_sweep(k):
            assert crystal == oracle, (lam, mu, nu, crystal, oracle)
            checked += 1
    _report(1, f"crystal count equals the character-side count on {checked} triples (k <= 6)")


def test_criterion_2_coproduct_identity():
    triples = 0
    for k in range(1, 6):
        for lam in enumerate_partitions(k):
            poly = kron_coproduct_poly(lam, k, k)
            expansion = expand_in_schur_schur(poly, k)
            for mu in enumerate_partitions(k):
                for nu in enumerate_partitions(k):
                    assert expansion.get((mu, nu), 0) == kronecker_coefficient(
                        lam, mu, nu
                    ), (lam, mu, nu)
                    triples += 1
    _report(2, f"bitableaux, Kostka sum and Schur expansion agree on {triples} coefficients")


def test_criterion_3_point_values():
    # insertion of a fixed word
    assert insert_word((2, 1, 1, 3, 2, 3)).rows == ((1, 1, 2, 3), (2, 3))
    # plactic product of the displayed pair
    assert jdt_product(
        SSYT.from_rows([[1, 3], [2]]), SSYT.from_rows([[1, 1, 2], [2, 3]])
    ).rows == ((1, 1, 1, 2), (2, 2, 3), (3,))
    # weights and reading words of the five-box example
    assert weights(FIVE_BOX) == ((1, 3, 1), (2, 3, 0))
    assert bitableau_reading_word(FIVE_BOX, "w") == (2, 2, 2, 1, 1)
    assert bitableau_reading_word(FIVE_BOX, "w_prime") == (1, 2, 2, 1, 2)
    # the 18-box example: word, highest weight, and the lowering image
    assert bitableau_reading_word(EIGHTEEN_BOX, "w") == EIGHTEEN_BOX_WORD
    assert is_yamanouchi(EIGHTEEN_BOX_WORD)
    assert word_weight((3, 4, 2, 2, 3, 1, 1, 1, 2, 2, 3), 4) == (3, 4, 3, 1)
    lowered = crystal_op_bitableau(EIGHTEEN_BOX, 1, "lower", "w")
    rows = [list(r) for r in EIGHTEEN_BOX.rows]
    rows[0][6] = (3, 2)
    assert lowered == Bitableau.from_rows(rows, 3, 2)
    assert all(
        crystal_op_bitableau(EIGHTEEN_BOX, i, "raise", "w") is None for i in (1,)
    )
    # Burge insertion of the seven-box column
    pair = brsk(SEVEN_BOX_COLUMN)
    assert pair.insertion.rows == ((1, 1, 1), (2, 3, 3), (4,))
    assert pair.recording.rows == ((1, 1, 2), (2, 2), (3, 3))
    # the two-part coefficient and its two witnesses
    assert kronecker_coefficient((4, 3), (4, 3), (3, 2, 2)) == 1
    found = {t.rows for t in kronecker_tableaux((4, 3), 3, (3, 2, 2))}
    assert found == {
        (((1, 1), (1, 1), (2, 1), (2, 2)), ((1, 2), (2, 3), (2, 3))),
        (((1, 1), (1, 1), (2, 2), (2, 3)), ((1, 2), (2, 1), (2, 3))),
    }
    _report(3, "all fixed worked-example values reproduced exactly")


def test_criterion_4_insertion_crystal_isomorphisms():
    # one-row: RSK(T) = (P(w), P(u)), rows r <= 5
    for r in range(1, 6):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for t in enumerate_bitableaux((r,), n, m):
                cells = [p for row in t.rows for p in row]
                pair = rsk(
                    Biword(tuple(a for a, _ in cells), tuple(b for _, b in cells))
                )
                assert pair.insertion == insert_word(bitableau_reading_word(t, "w"))
                assert pair.recording == insert_word(bitableau_reading_word(t, "u"))
    # one-column: bRSK(T) = (P(w), P(u')), r <= 6
    for r in range(1, 7):
        for n, m in itertools.product((1, 2, 3, 4), repeat=2):
            for t in enumerate_bitableaux((1,) * r, n, m):
                pair = brsk(t)
                assert pair.insertion == insert_word(bitableau_reading_word(t, "w"))
                assert pair.recording == insert_word(
                    bitableau_reading_word(t, "u_prime")
                )
    # the transported structures commute with the bottom operators
    for r in range(1, 6):
        for t in enumerate_bitableaux((r,), 3, 3):
            for j, i in itertools.product((1, 2), repeat=2):
                for td, bd in itertools.product(("lower", "raise"), repeat=2):
                    x = row_top_operator(t, j, td)
                    y = crystal_op_bitableau(t, i, bd, "w")
                    lhs = crystal_op_bitableau(x, i, bd, "w") if x else None
                    rhs = row_top_operator(y, j, td) if y else None
                    assert lhs == rhs
    for r in range(1, 7):
        for t in enumerate_bitableaux((1,) * r, 3, 3):
            for j, i in itertools.product((1, 2), repeat=2):
                for td, bd in itertools.product(("lower", "raise"), repeat=2):
                    x = column_top_operator(t, j, td)
                    y = crystal_op_bitableau(t, i, bd, "w")
                    lhs = crystal_op_bitableau(x, i, bd, "w") if x else None
                    rhs = column_top_operator(y, j, td) if y else None
                    assert lhs == rhs
    _report(4, "insertion pairs match the reading-word tableaux and transport commutes")


def test_criterion_5_two_letter_lowering_map():
    # phi(T) = 0 iff Kronecker, exhaustively for k <= 8, m <= 3
    checked = 0
    for k in range(1, 9):
        for lam in enumerate_partitions(k):
            for m in (1, 2, 3):
                for t in enumerate_bitableaux(lam, 2, m):
                    if not is_yamanouchi(bitableau_reading_word(t, "w_prime")):
                        continue
                    assert (phi(t) is None) == is_kronecker_tableau(t).is_kronecker
                    checked += 1
    # count = coefficient in the two-row regime, upper bound outside, k <= 8
    for k in range(1, 9):
        for lam in enumerate_partitions(k):
            for nu in enumerate_partitions(k):
                for p in range(k // 2 + 1):
                    count = count_kronecker_tableaux(lam, p, nu)
                    g = kronecker_coefficient(lam, trim((k - p, p)), nu)
                    if in_two_row_regime(lam, p):
                        assert count == g, (lam, p, nu, count, g)
                    else:
                        assert count >= g, (lam, p, nu, count, g)
    _report(5, f"lowering map characterizes the {checked} highest-weight two-letter tableaux")


def test_criterion_6_partial_crystal_reproduction():
    square = skeleton((2, 2))
    assert square.forced_vertex_count == 18
    assert len(square.free_vertices) == 2
    assert square.completion_count == 2
    hook = skeleton((3, 1))
    assert {key: len(val) for key, val in hook.free_segments.items()} == {
        (3, 1): 2,
        (2, 2): 3,
        (1, 3): 2,
    }
    assert hook.completion_count == 24  # every weight-respecting assignment
    _, ops = enumerate_completions((3, 1))
    assert len(ops) == 24
    g = shape21_candidate_crystal("south")
    assert sorted(len(c) for c in g.components()) == [1, 8, 10]

    def label(vid):
        rows = g.vertices[vid].payload["rows"]
        return (
            "".join(f"{a}{b}" for a, b in rows[0])
            + "/"
            + "".join(f"{a}{b}" for a, b in rows[1])
        )

    edges = {(label(s), i, label(d)) for (s, i), d in g.edges.items()}
    from test_completion import COMPONENT_EIGHT, COMPONENT_TEN

    assert edges == COMPONENT_TEN | COMPONENT_EIGHT
    _report(6, "determined skeletons, completion counts, and both components reproduced")


def test_criterion_7_property_suites():
    # word operators: partial inverses and weight laws, length <= 6, alphabet <= 4
    for length in range(7):
        for word in itertools.product((1, 2, 3, 4), repeat=length):
            for i in (1, 2, 3):
                lowered = crystal_op_word(word, i, "lower")
                if lowered is not None:
                    assert crystal_op_word(lowered, i, "raise") == word
                raised = crystal_op_word(word, i, "raise")
                if raised is not None:
                    assert crystal_op_word(raised, i, "lower") == word
            assert is_yamanouchi(word) == all(
                crystal_op_word(word, i, "raise") is None for i in (1, 2, 3)
            )
    # bitableau operators preserve first-coordinate weights, |shape| <= 5
    for size in range(1, 6):
        for lam in enumerate_partitions(size):
            for n, m in itertools.product((1, 2, 3), repeat=2):
                for t in enumerate_bitableaux(lam, n, m):
                    a0, _ = weights(t)
                    for conv in ("w", "w_prime"):
                        for i in range(1, m):
                            for d in ("lower", "raise"):
                                image = crystal_op_bitableau(t, i, d, conv)
                                if image is None:
                                    continue
                                assert weights(image)[0] == a0
                                back = crystal_op_bitableau(
                                    image, i, "raise" if d == "lower" else "lower", conv
                                )
                                assert back == t
    # exact character orthogonality
    for k in range(1, 8):
        assert character_table(k).check_orthogonality()
    # full symmetry of the coefficients
    for k in range(1, 7):
        parts = enumerate_partitions(k)
        table = {
            triple: kronecker_coefficient(*triple)
            for triple in itertools.product(parts, repeat=3)
        }
        for triple, value in table.items():
            for perm in itertools.permutations(triple):
                assert table[perm] == value
    # slide confluence on small products
    tableaux = [
        t
        for size in range(1, 5)
        for lam in enumerate_partitions(size)
        for t in enumerate_ssyt(lam, 3)
    ]
    for left, right in itertools.product(tableaux, repeat=2):
        results = all_rectifications(product_skew(left, right))
        assert len(results) == 1
        assert next(iter(results)).rows == insert_word(
            reading_word(left) + reading_word(right)
        ).rows
    _report(7, "word, crystal, character, and slide invariants all hold")


def test_criterion_8_sweep_k7_k8_both_conventions():
    # crystal count == character-side count on every triple of k = 7 and 8,
    # under w and w'; the oracle value of a triple is shared by both
    checked = 0
    for k in (7, 8):
        parts = enumerate_partitions(k)
        for lam in parts:
            for nu in parts:
                tables = {conv: count_d_table(lam, nu, k, conv) for conv in ("w", "w_prime")}
                for mu in parts:
                    oracle = monomial_coefficient_d(lam, mu, nu)
                    for conv, table in tables.items():
                        crystal = table.get(pad(mu, k), 0)
                        assert crystal == oracle, (k, conv, lam, mu, nu, crystal, oracle)
                        checked += 1
    assert checked == 2 * (15**3 + 22**3)
    _report(8, f"crystal count equals the character-side count on {checked // 2} triples (k = 7, 8), w and w'")


def test_criterion_9_sweep_k9_both_conventions():
    # every triple of k = 9 through monomial_expansion_sweep under w and w',
    # the oracle taken from the permutation-character route
    for conv in ("w", "w_prime"):
        rows = monomial_expansion_sweep(9, conv)
        assert len(rows) == 30**3
        for lam, mu, nu, crystal, oracle in rows:
            assert crystal == oracle, (conv, lam, mu, nu, crystal, oracle)
        assert sum(row[4] for row in rows) == 16_498_740
    _report(9, "crystal count equals the character-side count on 27000 triples (k = 9), w and w'")


def test_criterion_10_sweep_k10_both_conventions():
    # every triple of k = 10 through monomial_expansion_sweep under w and w',
    # the kernel counting partition runs only
    for conv in ("w", "w_prime"):
        rows = monomial_expansion_sweep(10, conv)
        assert len(rows) == 42**3
        for lam, mu, nu, crystal, oracle in rows:
            assert crystal == oracle, (conv, lam, mu, nu, crystal, oracle)
        assert sum(row[4] for row in rows) == 220_874_588
    _report(10, "crystal count equals the character-side count on 74088 triples (k = 10), w and w'")
