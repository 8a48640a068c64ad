import hashlib
import itertools
import json
import re

import pytest

from conftest import EIGHTEEN_BOX, FIVE_BOX, nm_pairs, small_shapes
from bitableaux.bitableau import Bitableau, enumerate_bitableaux, iter_bitableau_rows, weights
from bitableaux.completion import PartialOperator, is_valid_gl2_structure, skeleton
from bitableaux.crystal import (
    CapExceededError,
    CrystalStructureError,
    count_d,
    crystal_op_bitableau,
    full_crystal,
    highest_weight_bitableaux,
    is_highest_weight,
    skew_decomposition,
    monomial_expansion_rows,
    monomial_expansion_sweep,
)
from bitableaux.graphs import CrystalGraph, CrystalVertex, _compact_json, export_crystal
from bitableaux.insertion import Biword, rsk
from bitableaux.kron_tableaux import KroneckerVerdict
from bitableaux.partitions import enumerate_partitions, trim
from bitableaux.symfunc import (
    CharacterTable,
    character_table,
    monomial_coefficient_d,
    monomial_coefficient_row,
    schur_poly,
)
from bitableaux.tableaux import SSYT, SkewSSYT, iter_ssyt_rows, reading_word
from bitableaux.words import (
    bitableau_reading_cells,
    bitableau_reading_word,
    crystal_op_word,
    is_yamanouchi,
    word_crystal_component,
)


def test_lowering_on_the_worked_example():
    image = crystal_op_bitableau(EIGHTEEN_BOX, 1, "lower", "w")
    expected_rows = [list(row) for row in EIGHTEEN_BOX.rows]
    expected_rows[0][6] = (3, 2)
    assert image == Bitableau.from_rows(expected_rows, 3, 2)
    assert crystal_op_bitableau(EIGHTEEN_BOX, 1, "raise", "w") is None


def test_single_box_lowering():
    t = Bitableau.from_rows([[(1, 1)]], 1, 2)
    assert crystal_op_bitableau(t, 1, "lower").rows == (((1, 2),),)


def test_operator_index_validation():
    with pytest.raises(ValueError):
        crystal_op_bitableau(FIVE_BOX, 3, "lower")
    with pytest.raises(ValueError):
        crystal_op_bitableau(FIVE_BOX, 1, "lower", conv="u")
    with pytest.raises(ValueError):
        full_crystal((1,), 1, 1, conv="u")


def test_full_crystal_needs_nonempty_alphabets():
    for n, m in [(0, 2), (2, 0), (-1, 2), (2, -1), (0, 0)]:
        with pytest.raises(ValueError):
            full_crystal((2,), n, m)


def test_is_highest_weight_examples():
    assert is_highest_weight(EIGHTEEN_BOX, "w")
    assert not is_highest_weight(FIVE_BOX, "w")
    assert is_highest_weight(Bitableau.from_rows([[(1, 1)]], 1, 1))


# malformed contents: a content shorter than its alphabet (m for the
# b-content, n for the a-content) or an unknown convention is a ValueError; a
# wrong sum, a negative entry or a b-content that is not a partition yields
# nothing; trailing zeros are accepted
HIGHEST_WEIGHT_EDGES = [
    # (lam, n, m, bcontent, acontent, conv, count or ValueError)
    ((2, 1), 2, 3, (2, 1), None, "w", ValueError),
    ((3,), 2, 1, None, (3,), "w", ValueError),
    ((), 1, 2, (), None, "w", ValueError),
    ((), 2, 1, None, (), "w_prime", ValueError),
    ((2, 1), 2, 2, (2, 2), None, "w", 0),
    ((2, 1), 2, 2, None, (2, 2), "w", 0),
    ((2, 1), 2, 2, (4, -1), None, "w", 0),
    ((2, 1), 2, 2, None, (4, -1), "w_prime", 0),
    ((), 1, 1, None, (0, -1), "w", 0),
    ((2, 1), 2, 2, None, (3, 1, -1), "w", 0),
    ((2, 1), 2, 2, (1, 2), None, "w", 0),
    ((2, 1), 2, 2, (2, 1, 1), None, "w", 0),
    ((2, 1), 2, 2, None, (1, 1, 1), "w_prime", 0),
    ((2, 1), 2, 2, (2, 1, 0), None, "w", 6),
    ((2, 1), 2, 2, None, (1, 2, 0), "w_prime", 3),
    ((2, 1), 2, 2, (2, 1, 0), (1, 2, 0, 0), "w", 2),
    ((), 2, 2, (0, 0), (0, 0), "w", 1),
    ((), 2, 2, None, None, "w_prime", 1),
    ((1, 1, 1), 1, 2, None, None, "w", 0),
    ((2, 1), 2, 2, None, None, "x", ValueError),
    ((2, 1), 2, 2, (2, 1), None, "row", ValueError),
]


@pytest.mark.parametrize("lam, n, m, bcontent, acontent, conv, expected", HIGHEST_WEIGHT_EDGES)
def test_highest_weight_bitableaux_on_malformed_contents(lam, n, m, bcontent, acontent, conv, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            list(highest_weight_bitableaux(lam, n, m, bcontent, acontent, conv))
        return
    got = [t.rows for t in highest_weight_bitableaux(lam, n, m, bcontent, acontent, conv)]
    assert len(got) == expected
    # trailing zeros change nothing
    cut = [c if c is None or any(c[size:]) else c[:size] for c, size in ((bcontent, m), (acontent, n))]
    assert [t.rows for t in highest_weight_bitableaux(lam, n, m, *cut, conv)] == got


def test_a_short_content_or_an_unknown_convention_is_refused_before_any_filling():
    # a content shorter than its alphabet is refused whatever the other
    # content, and only the crystal's two conventions are taken
    for call in (
        lambda: list(highest_weight_bitableaux((2, 1), 2, 2, (2, 2), (2,))),
        lambda: list(highest_weight_bitableaux((2, 1), 2, 2, (3, 1), None, "u")),
        lambda: list(highest_weight_bitableaux((2, 1), 2, 2, (2, 1), None, "u_prime")),
        lambda: is_highest_weight(EIGHTEEN_BOX, "u"),
        lambda: is_highest_weight(EIGHTEEN_BOX, "u_prime"),
    ):
        with pytest.raises(ValueError):
            call()


def test_the_listers_refuse_bad_arguments_at_the_call():
    # each raises before anything is read from it
    for call in (
        lambda: highest_weight_bitableaux((2, 1), 2, 2, None, None, "u"),
        lambda: monomial_expansion_rows(-2),
        lambda: monomial_expansion_rows(3, "u"),
    ):
        with pytest.raises(ValueError):
            call()


def test_the_package_has_one_highest_weight_lister():
    import bitableaux
    from bitableaux import kernels

    assert bitableaux.highest_weight_bitableaux is highest_weight_bitableaux is kernels.highest_weight_bitableaux


def test_highest_weight_bitableaux_match_the_filtered_filler():
    # the layer-by-layer build against the plain filter, row for row and in
    # order: no content, every partition b-content, and with it every a-content
    def weak_compositions(k, parts):
        return [c for c in itertools.product(range(k + 1), repeat=parts) if sum(c) == k]

    for shape in small_shapes(5):
        k = sum(shape)
        for n, m in nm_pairs(3):
            bs = [b for b in weak_compositions(k, m) if list(b) == sorted(b, reverse=True)]
            contents = [(None, None)] + [(b, None) for b in bs] + [(b, a) for b in bs for a in weak_compositions(k, n)]
            for conv in ("w", "w_prime"):
                # one plain enumeration per (shape, n, m, conv), filtered by weights below
                highest = [
                    (t.rows, *weights(t))
                    for t in enumerate_bitableaux(shape, n, m)
                    if is_yamanouchi(bitableau_reading_cells(t.rows, conv)[0])
                ]
                for b, a in contents:
                    want = [rows for rows, ta, tb in highest if b in (None, tb) and a in (None, ta)]
                    got = [t.rows for t in highest_weight_bitableaux(shape, n, m, b, a, conv)]
                    assert got == want, (shape, n, m, b, a, conv)


def test_crystal_property_suite():
    # weight preservation, weight law, partial inverses, word commutation
    for shape in small_shapes(5):
        for n, m in nm_pairs(3):
            for t in enumerate_bitableaux(shape, n, m):
                a0, b0 = weights(t)
                for conv in ("w", "w_prime"):
                    word = bitableau_reading_word(t, conv)
                    for i in range(1, m):
                        for d in ("lower", "raise"):
                            image = crystal_op_bitableau(t, i, d, conv)
                            word_image = crystal_op_word(word, i, d)
                            if image is None:
                                assert word_image is None
                                continue
                            assert bitableau_reading_word(image, conv) == word_image
                            a1, b1 = weights(image)
                            assert a1 == a0
                            delta = -1 if d == "lower" else 1
                            expected = list(b0)
                            expected[i - 1] += delta
                            expected[i] -= delta
                            assert b1 == tuple(expected)
                            back = crystal_op_bitableau(
                                image, i, "raise" if d == "lower" else "lower", conv
                            )
                            assert back == t


def test_count_d_examples():
    assert count_d((2,), (1, 1), (2,)) == 1
    assert count_d((1,), (1,), (1,)) == 1
    # the only witness for ((2),(1,1),(2)) is the displayed one
    witnesses = [
        t
        for t in enumerate_bitableaux((2,), 2, 1)
        if weights(t) == ((1, 1), (2,)) and is_highest_weight(t)
    ]
    assert [t.rows for t in witnesses] == [(((1, 1), (2, 1)),)]


def test_monomial_expansion_sweep_small():
    for k in range(1, 5):
        parts = enumerate_partitions(k)
        triples = [(lam, mu, nu) for lam in parts for nu in parts for mu in parts]
        for conv in ("w", "w_prime"):
            rows = monomial_expansion_sweep(k, conv)
            assert [row[:3] for row in rows] == triples
            for lam, mu, nu, crystal, oracle in rows:
                assert crystal == oracle == monomial_coefficient_d(lam, mu, nu), (conv, lam, mu, nu)


def test_every_sweep_oracle_is_its_own_row():
    # the sweep forms one oracle row per conjugate orbit; each row it returns
    # must still carry monomial_coefficient_row(lam, nu)[mu] of its own triple
    for k in range(8):
        parts = enumerate_partitions(k)
        rows = {(lam, nu): monomial_coefficient_row(lam, nu) for lam in parts for nu in parts}
        for conv in ("w", "w_prime"):
            for lam, mu, nu, _, oracle in monomial_expansion_sweep(k, conv):
                assert oracle == rows[lam, nu][mu], (conv, lam, mu, nu)


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_sweep_work_counters_at_k8(monkeypatch, conv):
    # exact work of one sweep at k = 8: one oracle row per conjugate orbit of
    # (lam, nu) (133 of 484 pairs), the layer fillings the DP computes, and
    # under w' one push for every lam (a push asks once for the outer shapes
    # of at least one cell around the empty shape)
    import bitableaux.crystal as crystal
    import bitableaux.kernels as kernels

    calls = {"rows": 0, "fillings": 0, "pushes": 0}
    oracle_row, fillings = crystal.monomial_coefficient_row, kernels._lattice_fillings
    between = kernels.partitions_between

    def counted_row(*args):
        calls["rows"] += 1
        return oracle_row(*args)

    def counted_fillings(*args):
        calls["fillings"] += 1
        return fillings(*args)

    def counted_between(lo, hi, least, most):
        calls["pushes"] += least == 1 and not any(lo)
        return between(lo, hi, least, most)

    monkeypatch.setattr(crystal, "monomial_coefficient_row", counted_row)
    monkeypatch.setattr(kernels, "_lattice_fillings", counted_fillings)
    monkeypatch.setattr(kernels, "partitions_between", counted_between)
    rows = monomial_expansion_sweep(8, conv)
    assert len(rows) == 22**3 and all(row[3] == row[4] for row in rows)
    assert calls["rows"] == 133
    assert calls["fillings"] == {"w": 859, "w_prime": 2451}[conv]
    if conv == "w_prime":
        assert calls["pushes"] == 1


def test_count_d_convention_agnostic():
    for k in range(1, 5):
        for lam, mu, nu in itertools.product(enumerate_partitions(k), repeat=3):
            assert count_d(lam, mu, nu, "w") == count_d(lam, mu, nu, "w_prime")


def test_full_crystal_examples():
    chain = full_crystal((1,), 1, 2)
    assert len(chain.vertices) == 2 and len(chain.edges) == 1
    big = full_crystal((2, 2), 2, 2)
    assert len(big.vertices) == 20


def test_full_crystal_numbers_vertices_in_filler_order():
    import json

    def vertex_rows(g):
        return [tuple(tuple(map(tuple, row)) for row in v.payload["rows"]) for v in g.vertices]

    for shape in small_shapes(4):
        for n, m in nm_pairs(3):
            rows = vertex_rows(full_crystal(shape, n, m))
            assert rows == list(iter_bitableau_rows(shape, n, m))
            # with single-digit entries this is the order of the sorted JSON forms
            by_json = sorted(
                enumerate_bitableaux(shape, n, m),
                key=lambda t: json.dumps(t.to_json(), sort_keys=True),
            )
            assert rows == [t.rows for t in by_json]
    # with two-digit entries the order is numeric: 2 before 10
    assert vertex_rows(full_crystal((1,), 10, 1)) == [(((a, 1),),) for a in range(1, 11)]
    assert vertex_rows(full_crystal((2,), 1, 10)) == [
        (((1, b), (1, c)),) for b in range(1, 11) for c in range(b, 11)
    ]


def _per_vertex_crystal(lam, n, m, conv):
    """Vertices (id, payload, weights) and f-edges through Bitableau and crystal_op_bitableau."""
    tableaux = [Bitableau(lam, rows, n, m) for rows in iter_bitableau_rows(lam, n, m)]
    index = {t.rows: vid for vid, t in enumerate(tableaux)}
    vertices = [
        (vid, {"shape": t.shape, "rows": t.rows, "n": t.n, "m": t.m}, *weights(t))
        for vid, t in enumerate(tableaux)
    ]
    edges = {
        (vid, i): index[image.rows]
        for vid, t in enumerate(tableaux)
        for i in range(1, m)
        if (image := crystal_op_bitableau(t, i, "lower", conv)) is not None
    }
    return vertices, edges


def test_full_crystal_is_the_per_vertex_operator():
    cases = [(lam, n, m) for lam in small_shapes(5) for n, m in nm_pairs(3)]
    cases += [(lam, n, 4) for lam in small_shapes(4) for n in (1, 2, 3)]
    for lam, n, m in cases:
        for conv in ("w", "w_prime"):
            g = full_crystal(lam, n, m, conv)
            vertices = [(v.id, v.payload, v.weight_a, v.weight_b) for v in g.vertices]
            assert (vertices, dict(g.edges)) == _per_vertex_crystal(lam, n, m, conv)
            # the tuple payload is written as the Bitableau's JSON form
            assert [json.dumps(v.payload, sort_keys=True) for v in g.vertices] == [
                json.dumps(Bitableau(lam, v.payload["rows"], n, m).to_json(), sort_keys=True)
                for v in g.vertices
            ]


def test_exports_of_larger_crystals_are_pinned():
    # digests of the exports of the builder that keyed each vertex by its
    # flat tuple of codes; the per-vertex test above stops at |lam| = 5
    digests = {
        ((3, 2), "w"): (
            "a9a8fe96f7b2844474fdacdb335e819d23de3417c6377d14a407c32a894f451d",
            "f100dc8cc1f98ca084ab83005a7d019c278f9961d0bbe074134a40a9b3fb864b",
        ),
        ((3, 2), "w_prime"): (
            "c783920b64528ee549a3ce55e86e25d97f1c1d73e1a26931c815f43ba947ce1b",
            "0cc879675f9ca1fc9dd1456a13779e158adcf2441dbf48ce67245a5af63df244",
        ),
        ((4, 2), "w"): (
            "ff4451f7fd9020a6d2a1a1dd912ac0a854f3e6ea8d97f6d2b274a0644bd722a3",
            "2fb89f8e8da2031efee42d2613e9a16720bb1b0250b0d2e7e2485aa37311b150",
        ),
        ((4, 2), "w_prime"): (
            "cd639f80f55fc4cfcec9c3337a99fc045f7553084d49c942290e20bf5c054ee7",
            "e1bed3cb38ac69d675a12865c0a9977f784c0009e8b47749c6c43537a4eee5ab",
        ),
        ((3, 2, 1), "w"): (
            "ad1df2f6a8123ec970dd02115e651bdf6789cddb7da4547e4c5a1bc640ae537b",
            "293ebd37bdfac9fa7b03138a0a6bf6716e437f1a1e948f825bf6dd7d8b654290",
        ),
        ((3, 2, 1), "w_prime"): (
            "6056010a9c0b86e5802e08d6be781720e757d751152a17a8319543f76c67baa3",
            "3ff2ea7537ead2113db675bf64a3aa8c52bca2c2c2139cbbb6fde534098b42a5",
        ),
    }
    for (lam, conv), (dot, js) in digests.items():
        g = full_crystal(lam, 3, 3, conv)
        for fmt, digest in (("dot", dot), ("json", js)):
            assert hashlib.sha256(export_crystal(g, fmt).encode()).hexdigest() == digest, (lam, conv, fmt)


def test_full_crystal_scans_each_distinct_bottom_word_once(monkeypatch):
    import bitableaux.crystal as crystal

    calls = []
    real = crystal.lowering_positions
    monkeypatch.setattr(crystal, "lowering_positions", lambda word, m: calls.append(tuple(word)) or real(word, m))
    for conv in ("w", "w_prime"):
        calls.clear()
        g = full_crystal((4, 2), 3, 3, conv)
        # every word in [3]^6 is the bottom word of some of the 10,692 vertices
        assert len(g.vertices) == 10692
        assert len(calls) == len(set(calls)) == 3**6, conv


def test_full_crystal_shares_one_pair_per_code_and_one_tuple_per_row():
    g = full_crystal((3, 2), 3, 3)
    rows = [row for v in g.vertices for row in v.payload["rows"]]
    cells = {id(cell) for row in rows for cell in row}
    assert len(cells) <= 3 * 3
    assert len({id(row) for row in rows}) == len(set(rows))
    assert all(v.payload["shape"] is g.vertices[0].payload["shape"] for v in g.vertices)


def test_full_crystal_shares_one_tuple_per_weight():
    for lam in ((3, 2), (4, 2)):
        g = full_crystal(lam, 3, 3)
        for weights in ([v.weight_a for v in g.vertices], [v.weight_b for v in g.vertices]):
            assert len({id(w) for w in weights}) == len(set(weights))


# fillings over [4] that the filler might yield before a bad one
_VALID = {
    (3, 2): [((1, 1, 1), (2, 2)), ((1, 2, 2), (3, 3)), ((2, 2, 2), (3, 3)), ((2, 2, 2), (3, 4))],
    (2, 1, 1): [((1, 1), (2,), (3,)), ((1, 2), (2,), (3,)), ((1, 1), (2,), (4,)), ((1, 1), (3,), (4,))],
}


@pytest.mark.parametrize(
    "shape, bad, message",
    [
        # a descent in a row behind a first row already seen
        ((3, 2), ((1, 1, 1), (3, 2)), "rows must weakly increase"),
        # a descent in a new first row, above a row already seen
        ((3, 2), ((2, 1, 1), (3, 3)), "rows must weakly increase"),
        # two rows each already seen, with equal entries in column 0
        ((3, 2), ((2, 2, 2), (2, 2)), "columns must strictly increase"),
        # rows 1 and 2 each already seen, with equal entries in column 0
        ((2, 1, 1), ((1, 1), (3,), (3,)), "columns must strictly increase"),
    ],
)
def test_full_crystal_refuses_a_filling_that_is_not_semistandard(monkeypatch, shape, bad, message):
    # full_crystal checks each distinct row once and each vertex's columns;
    # a fault raises check_semistandard's own ValueError
    import bitableaux.crystal as crystal

    with pytest.raises(ValueError) as expected:
        crystal.check_semistandard(bad)
    assert str(expected.value) == message
    valid = _VALID[shape]
    monkeypatch.setattr(crystal, "iter_ssyt_rows", lambda shape, letters: iter(valid + [bad] + valid))
    with pytest.raises(ValueError) as raised:
        full_crystal(shape, 2, 2)
    assert raised.type is ValueError and str(raised.value) == message


def test_the_empty_shape_builds_no_alphabet():
    import tracemalloc

    tracemalloc.start()
    try:
        g = full_crystal((), 300, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [v.payload for v in g.vertices] == [{"shape": (), "rows": (), "n": 300, "m": 300}]
    assert g.edges == {}


def _reference_dot(g, name="crystal", dashed=()):
    """The DOT writer with one JSON encoder call per vertex label."""
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        payload = v.payload
        rows = payload["rows"] if isinstance(payload, dict) and "rows" in payload else payload
        attrs = ['label="%s"' % _compact_json(rows).replace("\\", "\\\\").replace('"', '\\"')]
        if v.weight_a is not None:
            attrs.append(f'weight_a="{",".join(map(str, v.weight_a))}"')
        attrs.append(f'weight_b="{",".join(map(str, v.weight_b))}"')
        if v.id in dashed:
            attrs.append("style=dashed")
        lines.append(f'  v{v.id} [{" ".join(attrs)}];')
    lines += [f'  v{s} -> v{d} [label="{i}"];' for (s, i), d in sorted(g.edges.items())]
    return "\n".join(lines + ["}"]) + "\n"


def _hand_built_graphs():
    def graph(payloads):
        vertices = tuple(CrystalVertex(vid, p, (1,), (1,)) for vid, p in enumerate(payloads))
        return CrystalGraph(vertices, {(0, 1): 1})

    shared = (1, 2)
    yield graph([{"rows": [[[1, 1]], [[2, 1]]]}, {"rows": [[[1, 2]]]}, [1, 2], None])
    # tuple rows: one row object held twice, and rows equal to it as tuples
    # whose JSON differs (1.0, True), each written as itself
    yield graph([{"rows": (shared, shared)}, {"rows": ((1.0, 2), shared)}, {"rows": ((True, 2),)}])
    # text that DOT escapes, in tuple rows and in list rows
    yield graph([{"rows": (('a"b', "c\\d"),)}, {"rows": [['a"b']]}, {"rows": ()}, {"shape": ()}])
    # items that sort before and after rows, a nested dict among them; two
    # payloads share their other values, and (1,) and (True,) are equal
    # values written differently
    nested = {"z": [1], "b": {"y": None, "x": 2.5}}
    yield graph([
        {"shape": (2,), "rows": ((1, 2),), "a": nested, "m": 1},
        {"shape": (2,), "rows": ((2, 2),), "a": nested, "m": 1},
        {"rows": (), "shape": (1,)},
        {"rows": (), "shape": (True,)},
    ])
    # non-ASCII text in tuple rows, which JSON escapes, and a row whose keys
    # JSON sorts and DOT does not
    yield graph([{"rows": (("é", "日本"),), "n": "ü"}, {"rows": [["é"]]}, {"rows": ({"b": 1, "a": 2},)}])
    # no a-weight beside tuple rows, and equal weights of different types
    rows = {"rows": ((1, 1),)}
    yield CrystalGraph((CrystalVertex(0, rows, None, (1,)), CrystalVertex(1, rows, (True,), (1,))), {(0, 1): 1})
    yield CrystalGraph((CrystalVertex(0, rows, (1,), (True,)), CrystalVertex(1, rows, (True,), (1, 0))), {(1, 1): 0})
    # ids and an operator index beyond 64 bits
    big = (CrystalVertex(0, rows, (1,), (1,)), CrystalVertex(2**70, rows, (1,), (1,)))
    yield CrystalGraph(big, {(0, 2**65): 2**70})


def test_exports_equal_the_per_vertex_reference():
    from bitableaux.completion import shape21_candidate_crystal

    cases = [
        (full_crystal(lam, n, m, conv), {})
        for lam in small_shapes(4)
        for n, m in nm_pairs(3)
        for conv in ("w", "w_prime")
    ]
    sk = skeleton((2, 2))
    forced = CrystalGraph(sk.graph.vertices, {(s, 1): d for s, d in sk.forced.images.items()})
    cases.append((forced, {"name": "skeleton", "dashed": sk.free_vertices}))
    cases += [(shape21_candidate_crystal(corner), {}) for corner in ("south", "east")]
    cases.append((word_crystal_component((1, 2, 1, 3), 3), {}))
    cases += [(g, {"dashed": (0,)}) for g in _hand_built_graphs()]
    for g, options in cases:
        assert export_crystal(g, **options) == _reference_dot(g, **options)
        assert export_crystal(g, "json") == json.dumps(g.to_json(), separators=(",", ":"), sort_keys=True)


@pytest.mark.parametrize("name", ["my graph", "", "1st", "v-1", "a\"b", "graph", "Digraph", "NODE", "edge", "subgraph", "strict", None])
def test_dot_export_refuses_a_name_no_dot_reader_accepts(name):
    with pytest.raises(ValueError):
        export_crystal(full_crystal((2, 1), 2, 2), name=name)


def test_dot_export_takes_an_identifier_name():
    g = full_crystal((2, 1), 2, 2)
    for name in ("crystal", "skeleton", "_g2", "Graph_1"):
        assert export_crystal(g, name=name) == _reference_dot(g, name=name)
        assert export_crystal(g, name=name).startswith(f"digraph {name} {{\n")


def test_json_export_of_a_non_str_payload_key_raises_as_json_dumps():
    vertex = CrystalVertex(0, {"rows": ((1, 1),), 1: "one"}, (1,), (1,))
    g = CrystalGraph((vertex,), {})
    with pytest.raises(TypeError) as expected:
        json.dumps(g.to_json(), separators=(",", ":"), sort_keys=True)
    with pytest.raises(TypeError) as raised:
        export_crystal(g, "json")
    assert str(raised.value) == str(expected.value)
    assert export_crystal(g) == _reference_dot(g)


def test_full_crystal_never_wraps_a_bottom_entry(monkeypatch):
    import bitableaux.crystal as crystal

    real, wrapped = crystal.lowering_positions, []

    def raise_the_first_bottom_m(word, m):
        if list(word) == [2] and not wrapped:  # the vertex ((1,2),) of B_(1)(2,2)
            wrapped.append(word)
            return [0]
        return real(word, m)

    # its bottom 2 raised as code 2 + 1 would be the vertex ((2,1),); no later
    # vertex breaks, so only the wrap check stops the graph
    monkeypatch.setattr(crystal, "lowering_positions", raise_the_first_bottom_m)
    with pytest.raises(CrystalStructureError, match=r"broke semistandardness at \(0, 0\)"):
        full_crystal((1,), 2, 2)
    assert len(wrapped) == 1


def test_full_crystal_cap():
    with pytest.raises(CapExceededError):
        full_crystal((2, 2), 2, 2, cap=3)


def test_full_crystal_cap_refuses_before_enumerating(monkeypatch):
    import bitableaux.crystal as crystal

    def no_enumeration(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(crystal, "iter_ssyt_rows", no_enumeration)
    with pytest.raises(CapExceededError, match="2970 vertices"):
        full_crystal((3, 2), 3, 3, cap=5)
    monkeypatch.undo()
    assert len(full_crystal((2, 2), 2, 2, cap=20).vertices) == 20


def test_full_crystal_components_have_unique_highest_weight():
    from bitableaux.symfunc import kostka

    for shape in small_shapes(4):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            g = full_crystal(shape, n, m)
            for comp in g.components():
                heads = [
                    v
                    for v in comp
                    if all(g.e(v, i) is None for i in range(1, m))
                ]
                assert len(heads) == 1
                nu = trim(g.vertices[heads[0]].weight_b)
                # weight multiset of the component matches the irreducible
                weights_seen = sorted(g.vertices[v].weight_b for v in comp)
                by_content = sorted(
                    content
                    for content in itertools.product(range(sum(shape) + 1), repeat=m)
                    if sum(content) == sum(shape)
                    for _ in range(kostka(nu, content))
                )
                assert weights_seen == by_content


def test_conventions_agree_in_aggregate():
    for shape in small_shapes(4):
        for n, m in ((2, 2), (3, 2), (2, 3)):
            muls = []
            for conv in ("w", "w_prime"):
                g = full_crystal(shape, n, m, conv)
                heads = g.highest_weight_ids()
                muls.append(
                    sorted(trim(g.vertices[v].weight_b) for v in heads)
                )
            assert muls[0] == muls[1]


def test_skew_decomposition_worked_example():
    pieces = skew_decomposition(EIGHTEEN_BOX)
    assert [reading_word(p) for p in pieces] == [
        (2, 1, 1, 1, 2),
        (1, 2, 1, 1, 2, 1),
        (1, 1, 2, 1, 2, 1, 1),
    ]
    assert [(p.outer, p.inner) for p in pieces] == [
        ((4, 1), ()),
        ((5, 4, 2), (4, 1)),
        ((7, 6, 5), (5, 4, 2)),
    ]


def test_skew_decomposition_small_cases():
    single = skew_decomposition(Bitableau.from_rows([[(2, 3)]], 2, 3))
    assert len(single) == 1 and reading_word(single[0]) == (3,)
    row = skew_decomposition(Bitableau.from_rows([[(1, 1), (2, 1)]], 2, 1))
    assert [reading_word(p) for p in row] == [(1,), (1,)]


def test_skew_decomposition_concatenates_to_reading_word():
    for shape in small_shapes(5):
        for t in enumerate_bitableaux(shape, 3, 2):
            joined = tuple(
                letter
                for piece in skew_decomposition(t)
                for letter in reading_word(piece)
            )
            assert joined == bitableau_reading_word(t, "w")


def test_export_empty_and_chain():
    from bitableaux.graphs import CrystalGraph

    empty = CrystalGraph((), {})
    assert export_crystal(empty) == "digraph crystal {\n}\n"
    chain = full_crystal((1,), 1, 2)
    dot = export_crystal(chain)
    assert dot.count("->") == 1 and dot.count('label="') == 3
    assert export_crystal(chain) == dot  # byte stable
    payload = export_crystal(chain, "json")
    import json

    parsed = json.loads(payload)
    assert len(parsed["vertices"]) == 2 and len(parsed["edges"]) == 1
    assert parsed["edges"][0]["dir"] == "f"


def test_export_names_the_graph_and_dashes_the_given_vertices():
    g = word_crystal_component((1, 2), 2)  # words 11, 12, 22; no a-weights
    lines = export_crystal(g, name="skeleton", dashed=(1,)).splitlines()
    assert lines[0] == "digraph skeleton {"
    assert [line for line in lines if "style=dashed" in line] == [lines[2]]
    assert lines[2] == '  v1 [label="[1,2]" weight_b="1,1" style=dashed];'


def test_an_invalid_image_is_a_structure_error(monkeypatch, capsys):
    import bitableaux.cli as cli
    import bitableaux.crystal as crystal

    t = Bitableau.from_rows([[[1, 1], [1, 1]]], 1, 2)
    assert crystal_op_bitableau(t, 1, "lower").rows == (((1, 1), (1, 2)),)
    # lowering the first box instead breaks the row
    monkeypatch.setattr(crystal, "crystal_op_position", lambda word, i, direction: 0)
    with pytest.raises(CrystalStructureError, match=r"broke semistandardness at \(0, 0\)"):
        crystal_op_bitableau(t, 1, "lower")
    # the graph builder finds the image missing from B_(2)(1,2)
    monkeypatch.setattr(crystal, "lowering_positions", lambda word, m: [0] * (m - 1))
    with pytest.raises(CrystalStructureError, match=r"broke semistandardness at \(0, 0\)"):
        full_crystal((2,), 1, 2)
    assert cli.main(["crystal", "--shape", "2", "--n", "1", "--m", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: crystal structure broken")
    assert err.count("\n") == 1


def test_crystal_graph_refuses_a_non_injective_f():
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in range(3))
    with pytest.raises(ValueError, match="f_1 is not injective at vertex 2"):
        CrystalGraph(vertices, {(0, 1): 2, (1, 1): 2})


def test_crystal_graph_refuses_an_edge_off_its_vertices():
    vertex = (CrystalVertex(5, [1], None, (1,)),)
    for edges in ({(0, 1): 7}, {(5, 1): 7}, {(0, 1): 5}):
        with pytest.raises(ValueError, match="f_1 edge .* is not between vertices"):
            CrystalGraph(vertex, edges)


@pytest.mark.parametrize(
    "edges, message",
    [
        ({(0, 1): 1, (1, 1): 7, (2, 1): 1, (3, 1): 9}, "f_1 edge 1 -> 7 is not between vertices"),
        ({(0, 1): 1, (8, 2): 2, (3, 1): 9}, "f_2 edge 8 -> 2 is not between vertices"),
        ({(0, 1): 1, (2, 1): 1, (3, 1): 9}, "f_1 is not injective at vertex 1"),
        ({(0, 2): 3, (1, 1): 2, (2, 2): 3, (3, 1): 2}, "f_2 is not injective at vertex 3"),
    ],
)
def test_crystal_graph_names_the_first_bad_edge(edges, message):
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in range(4))
    with pytest.raises(ValueError) as raised:
        CrystalGraph(vertices, edges)
    assert str(raised.value) == message


def test_crystal_graph_refuses_a_repeated_vertex_id():
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in (0, 1, 0))
    with pytest.raises(ValueError, match="vertex ids must be distinct"):
        CrystalGraph(vertices, {})


@pytest.mark.parametrize("ids", [("a",), (0, "a"), ("a", 0)])
def test_crystal_graph_refuses_a_str_vertex_id(ids):
    # mixed int and str ids would make both exports and components() raise TypeError
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in ids)
    with pytest.raises(ValueError, match=re.escape("vertex id must be an integer >= 0, got 'a'")):
        CrystalGraph(vertices, {})


def test_crystal_graph_refuses_an_endpoint_that_is_not_an_int():
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in (0, 1))
    for edges, bad in (({(0, 1): 1.0}, "1.0"), ({(True, 1): 0}, "True")):
        with pytest.raises(ValueError, match=re.escape(f"vertex id must be an integer >= 0, got {bad}")):
            CrystalGraph(vertices, edges)


def test_highest_weight_ids_are_the_vertices_without_an_e_edge():
    def by_e_lookup(g):
        idx = g.operator_indices()
        return [v.id for v in g.vertices if all(g.e(v.id, i) is None for i in idx)]

    graphs = [full_crystal(lam, n, m) for lam in small_shapes(4) for n, m in nm_pairs(3)]
    graphs.append(word_crystal_component((1, 2, 1, 3), 3))
    graphs.append(CrystalGraph(tuple(CrystalVertex(v, None, None, (0,)) for v in range(3)), {}))
    for g in graphs:
        assert g.highest_weight_ids() == by_e_lookup(g)
    assert graphs[-1].highest_weight_ids() == [0, 1, 2]


def _fresh_character_table():
    table = character_table(3)  # cached, so copy it into a new value
    return CharacterTable(table.k, table.classes, table.sizes, dict(table.chi))


VALUE_TYPES = {
    "Bitableau": lambda: Bitableau.from_rows([[[1, 1], [1, 2]], [[2, 1]]]),
    "SSYT": lambda: SSYT.from_rows([[1, 2], [3]]),
    "SkewSSYT": lambda: SkewSSYT((2, 1), (1,), ((2,), (1,))),
    "Biword": lambda: Biword((1, 1, 2), (2, 3, 1)),
    "TableauPair": lambda: rsk(Biword((1, 1, 2), (2, 3, 1))),
    "CrystalVertex": lambda: CrystalVertex(0, {"rows": [[1]]}, (1,), (1,)),
    "CrystalGraph": lambda: full_crystal((2, 1), 2, 2),
    "CharacterTable": _fresh_character_table,
    "SymPoly": lambda: schur_poly((2, 1), ("x1", "x2")),
    "PartialOperator": lambda: PartialOperator({1: 2, 3: 4}),
    "SkeletonResult": lambda: skeleton((2, 1)),
    "SeminormalReport": lambda: is_valid_gl2_structure({0: 1}, {0: (2, 0), 1: (0, 2)}),
    "KroneckerVerdict": lambda: KroneckerVerdict(False, (2, 1), frozenset({"I"})),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equal_values_hash_alike(name):
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)


def test_crystal_graph_is_frozen():
    import dataclasses

    from bitableaux.graphs import CrystalGraph

    g = full_crystal((2, 1), 2, 2)
    edges = dict(g.edges)
    with pytest.raises(TypeError):
        g.edges[(0, 1)] = 5
    with pytest.raises(TypeError):
        del g.edges[next(iter(edges))]
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = {}
    assert g.edges == edges
    for (src, i), dst in edges.items():
        assert g.f(src, i) == dst and g.e(dst, i) == src
    # the graph keeps its own copy of the mapping it was built from
    source = {(0, 1): 1}
    chain = CrystalGraph(g.vertices[:2], source)
    source[(1, 1)] = 0
    assert dict(chain.edges) == {(0, 1): 1} and chain.e(0, 1) is None
    assert chain == CrystalGraph(g.vertices[:2], {(0, 1): 1})
