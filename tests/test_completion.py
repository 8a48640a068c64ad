import dataclasses
import itertools
import json
import math

import pytest

from bitableaux.bitableau import Bitableau, enumerate_bitableaux
from bitableaux.completion import (
    PartialOperator,
    _completion_count,
    _group_options,
    _stackings,
    column_top_operator,
    commutes_with_bottom,
    enumerate_completions,
    highest_weight_census,
    is_valid_gl2_structure,
    row_top_operator,
    shape21_candidate_crystal,
    skeleton,
)
from bitableaux.crystal import (
    CapExceededError,
    CrystalStructureError,
    crystal_op_bitableau,
    full_crystal,
)
from bitableaux.graphs import CrystalGraph, CrystalVertex
from bitableaux.insertion import Biword, brsk, rsk
from bitableaux.kernels import count_d_table
from bitableaux.partitions import enumerate_partitions
from bitableaux.symfunc import kronecker_coefficient
from bitableaux.tableaux import reading_word
from bitableaux.words import crystal_op_word


def test_string_criterion_accepts_a_three_chain():
    weight_a = {0: (2, 0), 1: (1, 1), 2: (0, 2)}
    report = is_valid_gl2_structure({0: 1, 1: 2}, weight_a)
    assert report.valid and not report.violations


def test_string_criterion_rejects_a_two_cycle():
    weight_a = {0: (1, 1), 1: (1, 1)}
    report = is_valid_gl2_structure({0: 1, 1: 0}, weight_a)
    assert not report.valid


def test_string_criterion_rejects_a_cycle_by_its_weight_shift():
    # 1 -> 2 respects the shift, so only 2 -> 1 can reject the cycle
    report = is_valid_gl2_structure({1: 2, 2: 1}, {1: (1, 0), 2: (0, 1)})
    assert not report.valid
    assert report.violations == ((2, "edge breaks the weight shift: (0, 1) -> (1, 0)"),)


def test_string_criterion_rejects_two_edges_into_one_target():
    # both strings 0 -> 2 and 1 -> 2 are well placed; only the shared target fails
    report = is_valid_gl2_structure({0: 2, 1: 2}, {0: (1, 0), 1: (1, 0), 2: (0, 1)})
    assert not report.valid
    assert report.violations == ((2, "two f-edges share a target"),)


def test_string_criterion_rejects_misplaced_strings():
    # a lone vertex with unbalanced weight cannot be a singleton string
    report = is_valid_gl2_structure({}, {0: (2, 0)})
    assert not report.valid
    # weight shift must be exactly (-1, +1)
    report = is_valid_gl2_structure({0: 1}, {0: (2, 0), 1: (0, 2)})
    assert not report.valid


def test_commutes_on_singleton():
    g = full_crystal((1,), 1, 1)
    ok, witness = commutes_with_bottom({}, g)
    assert ok and witness is None


def _row_transport_graph(r, n, m):
    g = full_crystal((r,), n, m)
    tabs = [Bitableau.from_json(v.payload) for v in g.vertices]
    index = {t.rows: v.id for t, v in zip(tabs, g.vertices)}
    images = {}
    for t, v in zip(tabs, g.vertices):
        image = row_top_operator(t, 1, "lower")
        if image is not None:
            images[v.id] = index[image.rows]
    return g, images


def test_row_transport_commutes():
    for r in range(1, 5):
        g, images = _row_transport_graph(r, 2, 2)
        ok, witness = commutes_with_bottom(images, g)
        assert ok, witness


def test_commutation_fails_on_the_raising_side():
    # bottom chains 0 -> 1 and 2 -> 3 -> 4; the top map sends the first chain
    # onto the end of the second, so every lowering square closes but e_1
    # of the image of 0 is 2 while 0 has no e_1
    vertices = tuple(CrystalVertex(v, None, None, (0,)) for v in range(5))
    g = CrystalGraph(vertices, {(0, 1): 1, (2, 1): 3, (3, 1): 4})
    assert commutes_with_bottom({0: 3, 1: 4}, g) == (False, (0, 1, "raising"))


def test_broken_transport_reports_a_counterexample():
    g, images = _row_transport_graph(2, 2, 2)
    keys = sorted(images)
    assert len(keys) >= 2
    broken = dict(images)
    broken[keys[0]], broken[keys[1]] = broken[keys[1]], broken[keys[0]]
    ok, witness = commutes_with_bottom(broken, g)
    assert not ok and witness is not None


def test_transported_structures_commute_exhaustively():
    # one-row case via u, one-column case via u'
    for r in range(1, 6):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for t in enumerate_bitableaux((r,), n, m):
                for j in range(1, n):
                    for i in range(1, m):
                        for td, bd in itertools.product(("lower", "raise"), repeat=2):
                            x = row_top_operator(t, j, td)
                            y = crystal_op_bitableau(t, i, bd, "w")
                            lhs = (
                                crystal_op_bitableau(x, i, bd, "w")
                                if x is not None
                                else None
                            )
                            rhs = row_top_operator(y, j, td) if y is not None else None
                            assert lhs == rhs
    for r in range(1, 7):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for t in enumerate_bitableaux((1,) * r, n, m):
                for j in range(1, n):
                    for i in range(1, m):
                        for td, bd in itertools.product(("lower", "raise"), repeat=2):
                            x = column_top_operator(t, j, td)
                            y = crystal_op_bitableau(t, i, bd, "w")
                            lhs = (
                                crystal_op_bitableau(x, i, bd, "w")
                                if x is not None
                                else None
                            )
                            rhs = (
                                column_top_operator(y, j, td) if y is not None else None
                            )
                            assert lhs == rhs


def test_insertion_intertwines_the_transported_operators():
    for r in range(1, 5):
        for t in enumerate_bitableaux((r,), 3, 2):
            cells = [pair for row in t.rows for pair in row]
            pair = rsk(
                Biword(tuple(a for a, _ in cells), tuple(b for _, b in cells))
            )
            for j in (1, 2):
                image = row_top_operator(t, j, "lower")
                recorded = crystal_op_word(reading_word(pair.recording), j, "lower")
                if image is None:
                    assert recorded is None
                    continue
                cells2 = [p for row in image.rows for p in row]
                pair2 = rsk(
                    Biword(tuple(a for a, _ in cells2), tuple(b for _, b in cells2))
                )
                assert pair2.insertion == pair.insertion
                assert reading_word(pair2.recording) == recorded
    for r in range(1, 6):
        for t in enumerate_bitableaux((1,) * r, 3, 3):
            pair = brsk(t)
            for j in (1, 2):
                image = column_top_operator(t, j, "lower")
                recorded = crystal_op_word(reading_word(pair.recording), j, "lower")
                if image is None:
                    assert recorded is None
                    continue
                pair2 = brsk(image)
                assert pair2.insertion == pair.insertion
                assert reading_word(pair2.recording) == recorded


def test_square_skeleton():
    result = skeleton((2, 2))
    assert result.completion_count == 2
    assert result.forced_vertex_count == 18
    assert len(result.free_vertices) == 2
    assert list(result.free_slots) == [(((2, 2)), (2, 2))]
    free_rows = {
        json.dumps(result.graph.vertices[v].payload["rows"])
        for v in result.free_vertices
    }
    assert free_rows == {
        "[[[1, 2], [1, 2]], [[2, 1], [2, 1]]]",
        "[[[1, 1], [2, 1]], [[1, 2], [2, 2]]]",
    }
    assert len(result.forced.images) == 8


def test_single_box_skeleton_is_forced():
    result = skeleton((1,))
    assert result.completion_count == 1
    assert not result.free_vertices
    assert result.forced_vertex_count == 4


def test_hook_skeleton_slots_by_a_weight():
    result = skeleton((3, 1))
    segments = {key: len(val) for key, val in result.free_segments.items()}
    assert segments == {(3, 1): 2, (2, 2): 3, (1, 3): 2}
    assert result.completion_count == 24  # 2! * 3! * 2! weight-respecting ways
    assert len(result.free_vertices) == 21


def _skeleton_from_completions(g, ops):
    """Reference skeleton: a walk over every completion of the whole product."""
    forced = set(ops[0].edge_set()).intersection(*(op.edge_set() for op in ops[1:]))
    positions = {v.id: set() for v in g.vertices}
    for op in ops:
        targets = set(op.images.values())
        for head in positions:
            if head in targets:
                continue
            path = [head]
            while (nxt := op.images.get(path[-1])) is not None:
                path.append(nxt)
            for depth, v in enumerate(path):
                positions[v].add((len(path), depth))
    free = sorted(v for v, pos in positions.items() if len(pos) > 1)
    slots = {}
    for v in free:
        slots.setdefault((g.vertices[v].weight_a, g.vertices[v].weight_b), []).append(v)
    segments = {}
    for head in (v.id for v in g.vertices if g.e(v.id, 1) is None):
        chain = [head]
        while (nxt := g.f(chain[-1], 1)) is not None:
            chain.append(nxt)
        if any(v in free for v in chain):
            segments.setdefault(g.vertices[head].weight_a, []).append(tuple(chain))
    return (
        forced,
        tuple(free),
        {key: tuple(ids) for key, ids in sorted(slots.items())},
        {key: tuple(val) for key, val in sorted(segments.items())},
    )


def test_forced_edges_equal_intersection_of_completions():
    # skeleton reads its groups; the reference validates and walks the product
    for k in range(1, 6):
        for shape in enumerate_partitions(k, 4):
            for conv in ("w", "w_prime"):
                result = skeleton(shape, conv=conv)
                g, ops = enumerate_completions(shape, conv=conv)
                weight_a = {v.id: v.weight_a for v in g.vertices}
                for op in ops:
                    assert is_valid_gl2_structure(op.images, weight_a).valid, (shape, conv)
                    assert commutes_with_bottom(op, g) == (True, None), (shape, conv)
                keys = [list(op.images.items()) for op in ops]
                assert keys == sorted(keys) and len(set(ops)) == len(ops)
                forced, free, slots, segments = _skeleton_from_completions(g, ops)
                assert set(result.forced.images.items()) == forced, (shape, conv)
                assert result.free_vertices == free, (shape, conv)
                assert dict(result.free_slots) == slots and list(result.free_slots) == list(slots)
                assert dict(result.free_segments) == segments
                assert list(result.free_segments) == list(segments)
                assert result.completion_count == len(ops), (shape, conv)


def test_skeleton_builds_no_completion(monkeypatch):
    import bitableaux.completion as completion

    def never(*args, **kwargs):
        raise AssertionError("skeleton enumerated the completions")

    monkeypatch.setattr(completion, "enumerate_completions", never)
    assert skeleton((5, 1)).completion_count == 20736


def test_completion_cap_counts_completions_before_building_them():
    # (3,2) has 60 vertices and 576 completions
    assert len(enumerate_completions((3, 2), cap=576)[1]) == 576
    with pytest.raises(CapExceededError, match="576 completions exceed the cap 575"):
        enumerate_completions((3, 2), cap=575)
    assert skeleton((3, 2), cap=575).completion_count == 576


def test_completion_cap_is_checked_from_the_kernel_before_the_search(monkeypatch):
    import bitableaux.completion as completion

    def never(*args, **kwargs):
        raise AssertionError("the search ran before the cap was checked")

    monkeypatch.setattr(completion, "_stackings", never)
    with pytest.raises(CapExceededError, match="1327104 completions exceed the cap 10"):
        enumerate_completions((4, 2), cap=10)
    # its nu = (7, 3) group alone has about 9.8e21 options
    with pytest.raises(CapExceededError, match="completions exceed the cap 100000"):
        enumerate_completions((7, 3))


def test_census_is_one_per_group_and_sums_to_the_coefficients():
    """Every option's census is g: a Theorem-2 check for two top letters.

    The census is forced.  At level j a completion has c_j - c_(j-1)
    doubly-highest-weight elements (c_j as in the option-count test below),
    and Theorem 2 makes that g(lam, (k-j, j), nu), so this test is not
    evidence for any one top structure.
    """
    # a top string stays inside one b-type group, so the census of a
    # completion is the sum of its options' local censuses: equal censuses
    # within every group make every completion's census that of any one
    for k in range(1, 6):
        two_row = [p for p in enumerate_partitions(k) if len(p) <= 2]
        for lam in enumerate_partitions(k, 4):
            for conv in ("w", "w_prime"):
                g, _, groups = _group_options(lam, conv, 100_000)
                first = {}
                for group in groups:
                    census = highest_weight_census(group.options[0], g)
                    assert all(highest_weight_census(op, g) == census for op in group.options[1:])
                    first.update(group.options[0])
                census = highest_weight_census(first, g)
                for mu in two_row:
                    for nu in two_row:
                        expected = kronecker_coefficient(lam, mu, nu)
                        assert census.get((mu, nu), 0) == expected, (lam, mu, nu, conv)


def test_every_completion_census_matches_the_coefficients():
    """Every completion's census is g, for k <= 4.

    Forced, as above: a Theorem-2 check for two top letters, not evidence
    for any one completion.  The search cannot go much further: for
    lam = (7, 3) the group of nu = (7, 3) alone has about 9.8e21 options.
    """
    for k in range(1, 5):
        for lam in enumerate_partitions(k):
            g, ops = enumerate_completions(lam)
            for op in ops:
                census = highest_weight_census(op, g)
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(k):
                        if len(mu) > 2 or len(nu) > 2:
                            continue
                        expected = kronecker_coefficient(lam, mu, nu)
                        assert census.get((mu, nu), 0) == expected, (lam, mu, nu)


def test_single_box_census():
    g, ops = enumerate_completions((1,))
    assert highest_weight_census(ops[0], g) == {((1,), (1,)): 1}


def test_one_row_bicrystal_census_is_diagonal():
    # doubly-highest-weight one-row bitableaux occur once per weight pair
    # (mu, mu), matching the coefficients of a one-row shape
    from bitableaux.partitions import trim
    from bitableaux.words import bitableau_reading_word, is_yamanouchi

    for r in range(1, 5):
        for n, m in ((2, 2), (3, 3)):
            census = {}
            for t in enumerate_bitableaux((r,), n, m):
                if not is_yamanouchi(bitableau_reading_word(t, "w")):
                    continue
                if not is_yamanouchi(bitableau_reading_word(t, "u")):
                    continue
                from bitableaux.bitableau import weights

                a, b = weights(t)
                key = (trim(a), trim(b))
                census[key] = census.get(key, 0) + 1
            for mu in enumerate_partitions(r):
                for nu in enumerate_partitions(r):
                    if len(mu) > n or len(nu) > m:
                        continue
                    expected = 1 if mu == nu else 0
                    assert census.get((mu, nu), 0) == expected, (r, mu, nu)


def _edge_labels(g):
    def label(vid):
        rows = g.vertices[vid].payload["rows"]
        return (
            "".join(f"{a}{b}" for a, b in rows[0])
            + "/"
            + "".join(f"{a}{b}" for a, b in rows[1])
        )

    return {(label(src), i, label(dst)) for (src, i), dst in g.edges.items()}


# the two displayed components: 10 vertices with 12 arrows, 8 with 8 arrows
COMPONENT_TEN = {
    ("1111/12", 1, "1121/12"),
    ("1121/12", 1, "1121/22"),
    ("1121/22", 1, "2121/22"),
    ("1121/12", 2, "1131/12"),
    ("1121/22", 2, "1131/22"),
    ("2121/22", 2, "2131/22"),
    ("1131/12", 1, "1131/22"),
    ("1131/22", 1, "2131/22"),
    ("1131/22", 2, "1131/32"),
    ("2131/22", 2, "2131/32"),
    ("1131/32", 1, "2131/32"),
    ("2131/32", 2, "3131/32"),
}
COMPONENT_EIGHT = {
    ("1112/21", 1, "1221/21"),
    ("1221/21", 2, "1231/21"),
    ("1231/21", 2, "1231/31"),
    ("1231/31", 1, "2231/31"),
    ("1112/21", 2, "1112/31"),
    ("1112/31", 1, "1221/31"),
    ("1221/31", 1, "2122/31"),
    ("2122/31", 2, "2231/31"),
}


def test_candidate_crystal_reproduces_the_displayed_components():
    g = shape21_candidate_crystal("south")
    assert len(g.vertices) == 19
    assert sorted(len(c) for c in g.components()) == [1, 8, 10]
    assert _edge_labels(g) == COMPONENT_TEN | COMPONENT_EIGHT
    singleton = [c for c in g.components() if len(c) == 1][0]
    assert g.vertices[singleton[0]].payload["rows"] == (
        ((1, 1), (2, 2)),
        ((3, 1),),
    )


def test_candidate_crystal_dot_export():
    from bitableaux.graphs import export_crystal

    dot = export_crystal(shape21_candidate_crystal("south"))
    assert dot.count(" -> ") == 20
    assert dot.count("label=") == 19 + 20


def test_alternate_corner_order_swaps_the_center_column():
    south = shape21_candidate_crystal("south")
    east = shape21_candidate_crystal("east")
    assert [v.payload for v in south.vertices] == [v.payload for v in east.vertices]
    labels = {
        "".join(f"{a}{b}" for a, b in v.payload["rows"][0])
        + "/"
        + "".join(f"{a}{b}" for a, b in v.payload["rows"][1]): v.id
        for v in south.vertices
    }
    u, w = labels["1231/21"], labels["1221/31"]
    perm = {v.id: v.id for v in south.vertices}
    perm[u], perm[w] = w, u
    remapped = {(perm[s], i): perm[d] for (s, i), d in south.edges.items()}
    assert remapped == east.edges


def test_candidate_crystal_single_operators_are_valid_strings():
    g = shape21_candidate_crystal("south")
    for i in (1, 2):
        images = {src: dst for (src, op), dst in g.edges.items() if op == i}
        weight_a = {
            v.id: (v.weight_a[i - 1], v.weight_a[i]) for v in g.vertices
        }
        assert is_valid_gl2_structure(images, weight_a).valid


def test_partial_operator_edge_set():
    op = PartialOperator({1: 2, 3: 4})
    assert op.edge_set() == frozenset({(1, 2), (3, 4)})


def test_partial_operator_and_report_are_frozen():
    source = {1: 2, 3: 4}
    op = PartialOperator(source)
    source[5] = 6
    assert dict(op.images) == {1: 2, 3: 4}
    with pytest.raises(TypeError):
        op.images[5] = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.images = {}
    assert op == PartialOperator({3: 4, 1: 2}) and hash(op) == hash(PartialOperator({3: 4, 1: 2}))
    report = is_valid_gl2_structure({0: 1, 1: 0}, {0: (1, 0), 1: (0, 1)})
    assert not report.valid and isinstance(report.violations, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.valid = True


def test_skeleton_result_is_frozen():
    result = skeleton((2, 2))
    with pytest.raises(TypeError):
        result.free_slots[((1, 1), (1, 1))] = (0,)
    with pytest.raises(TypeError):
        result.free_segments[(2, 2)] = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.completion_count = 0
    assert list(result.free_slots) == [((2, 2), (2, 2))]


def _option_count(c, k):
    """Top maps on one group, level by level from the bottom-highest-weight counts c_j.

    Below the middle level f is an injection into the next level; above it,
    the strings that go on map bijectively onto the next level.
    """
    return math.prod(
        math.factorial(c[j + 1]) // math.factorial(c[j + 1] - c[j])
        if 2 * (j + 1) <= k
        else math.factorial(c[j + 1])
        for j in range(k)
    )


def test_option_counts_follow_from_the_kernel():
    # c_j counts the bottom-highest-weight bitableaux of b-weight nu and top
    # weight (k - j, j); a top f commuting with the bottom crystal is fixed by
    # its values on them
    for k in range(1, 6):
        for lam in enumerate_partitions(k):
            for conv in ("w", "w_prime"):
                expected = []
                for nu in enumerate_partitions(k, 2):
                    table = count_d_table(lam, nu, 2, conv)
                    if table:
                        c = [table.get((k - j, j), 0) for j in range(k + 1)]
                        expected.append(_option_count(c, k))
                _, _, groups = _group_options(lam, conv, 100_000)
                counts = sorted(len(group.options) for group in groups)
                assert counts == sorted(expected), (lam, conv)
                assert _completion_count(lam, conv) == math.prod(counts), (lam, conv)


def test_a_string_starting_below_the_axis_is_a_structure_error():
    # chain counts 1 at level 1 and 2 at level -1 are not symmetric
    with pytest.raises(CrystalStructureError, match="start at level -1"):
        list(_stackings({1: [0], -1: [1, 2]}, [1, -1]))


def test_stackings_of_a_small_group_by_hand():
    # the string from level 2 takes either level-0 chain; the other stands alone
    assert list(_stackings({2: [0], 0: [1, 2], -2: [3]}, [2, 0, -2])) == [
        [(0, 1, 3), (2,)],
        [(0, 2, 3), (1,)],
    ]


def test_stackings_yield_nothing_when_strings_cannot_close():
    # two strings open at level 1, but one chain at level -1 to close them
    assert list(_stackings({1: [0, 1], -1: [2]}, [1, -1])) == []


def test_stackings_are_strings_that_pass_the_references():
    """Every option is the zip of its strings, and passes both references.

    What the construction rests on is checked on every stacking: its
    strings partition the group's chains, and a string of length r + 1
    visits levels r, r - 2, ..., -r.  (3, 2, 1) is the smallest shape with
    a group in which two top strings have one length.
    """
    shapes = [lam for k in range(1, 6) for lam in enumerate_partitions(k, 4)] + [(3, 2, 1)]
    for lam in shapes:
        for conv in ("w", "w_prime"):
            g, chains, groups = _group_options(lam, conv, 100_000)
            by_type = {}
            for ci, chain in enumerate(chains):
                a1, a2 = g.vertices[chain[0]].weight_a
                btype = tuple(g.vertices[v].weight_b for v in chain)
                by_type.setdefault(btype, {}).setdefault(a1 - a2, []).append(ci)
            assert len(by_type) == len(groups)
            for (_, by_level), group in zip(sorted(by_type.items()), groups):
                level_of = {ci: level for level, ids in by_level.items() for ci in ids}
                group_a = {v: g.vertices[v].weight_a for ci in level_of for v in chains[ci]}
                levels = sorted(by_level, reverse=True)
                stackings = list(_stackings(by_level, list(range(levels[0], levels[-1] - 1, -2))))
                assert len(stackings) == len(group.options), (lam, conv)
                for strings, images in zip(stackings, group.options):
                    assert sorted(ci for s in strings for ci in s) == sorted(level_of), (lam, conv)
                    for s in strings:
                        r = len(s) - 1
                        assert [level_of[ci] for ci in s] == list(range(r, -r - 1, -2)), (lam, conv, s)
                    assert images == {
                        src: dst
                        for s in strings
                        for parent, child in zip(s, s[1:])
                        for src, dst in zip(chains[parent], chains[child])
                    }
                    assert is_valid_gl2_structure(images, group_a).valid, (lam, conv)
                    assert commutes_with_bottom(images, g) == (True, None), (lam, conv)
