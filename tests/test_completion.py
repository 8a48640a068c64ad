import dataclasses
import itertools
import json
import math

import pytest

from bitableaux.bitableau import Bitableau, enumerate_bitableaux
from bitableaux.completion import (
    PartialOperator,
    _Stacking,
    _arrangements,
    _completion_count,
    _group_options,
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

    monkeypatch.setattr(completion, "_arrangements", never)
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
        list(_arrangements({1: [0], -1: [1, 2]}, [1, -1]))


def _chain_pairs(images, chain_of):
    """An option's (parent chain, child chain) pairs, in the order of its edges."""
    return list(dict.fromkeys((chain_of[src], chain_of[dst]) for src, dst in images.items()))


def _reference_verdict(g, chains, group, pairs):
    """is_valid_gl2_structure on the group and every chain in a pair, and commutes_with_bottom."""
    images = {src: dst for parent, child in pairs for src, dst in zip(chains[parent], chains[child])}
    ids = {v for ci in set(group).union(*pairs) for v in chains[ci]}
    report = is_valid_gl2_structure(images, {v: g.vertices[v].weight_a for v in ids})
    return report.valid and commutes_with_bottom(images, g)[0]


def _corruptions(pairs, chains, group):
    """Corrupted (chains, pairs) variants of a stacking.

    A child chain reversed, one child given to two pairs, the children of
    two pairs swapped, and a child of another b-type.
    """
    for _, child in pairs:
        reversed_chains = list(chains)
        reversed_chains[child] = chains[child][::-1]
        yield reversed_chains, pairs
    for i, j in itertools.permutations(range(len(pairs)), 2):
        (parent_i, child_i), (parent_j, child_j) = pairs[i], pairs[j]
        shared = list(pairs)
        shared[j] = (parent_j, child_i)
        yield chains, shared
        if i < j:
            swapped = list(shared)
            swapped[i] = (parent_i, child_j)
            yield chains, swapped
    for i, (parent, _) in enumerate(pairs):
        for other in range(len(chains)):
            if other not in group:
                yield chains, pairs[:i] + [(parent, other)] + pairs[i + 1 :]


def test_per_piece_check_agrees_with_the_references():
    """Kept options pass both references; corrupted stackings get the references' verdict.

    (3, 2, 1) is the smallest shape with a group in which two top strings
    have one length, so that they can end on one shared child.
    """
    verdicts = set()
    shapes = [lam for k in range(1, 6) for lam in enumerate_partitions(k, 4)] + [(3, 2, 1)]
    for lam in shapes:
        for conv in ("w", "w_prime"):
            g, chains, groups = _group_options(lam, conv, 100_000)
            chain_of = {v: ci for ci, chain in enumerate(chains) for v in chain}
            for group in groups:
                group_a = {v: g.vertices[v].weight_a for v in group.vertices}
                members = {chain_of[v] for v in group.vertices}
                for images in group.options:
                    assert is_valid_gl2_structure(images, group_a).valid, (lam, conv)
                    assert commutes_with_bottom(images, g) == (True, None), (lam, conv)
                for images in group.options[:3]:
                    pairs = _chain_pairs(images, chain_of)
                    for bad_chains, bad_pairs in _corruptions(pairs, chains, members):
                        stacking = _Stacking(g, bad_chains, members)
                        verdict = stacking.check(bad_pairs) is not None
                        expected = _reference_verdict(g, bad_chains, members, bad_pairs)
                        assert verdict == expected, (lam, conv, bad_pairs)
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def _counting(monkeypatch, name, key=lambda *args: args):
    """Wrap a completion function so that each call's key is recorded."""
    import bitableaux.completion as completion

    calls = []
    original = getattr(completion, name)

    def counted(*args):
        calls.append(key(*args))
        return original(*args)

    monkeypatch.setattr(completion, name, counted)
    return calls


# distinct (parent, child) pairs and chain sequences over each shape's groups,
# against 149 options that each ran both references over the whole graph
PIECE_COUNTS = {
    ((3, 2), "w"): (34, 90),
    ((3, 2), "w_prime"): (34, 90),
    ((4, 1), "w"): (36, 90),
    ((4, 1), "w_prime"): (36, 90),
}


def test_each_piece_is_checked_once_and_the_references_never_run(monkeypatch):
    pair_calls = _counting(monkeypatch, "_pair_edges", lambda g, chains, parent, child: (parent, child))
    sequence_calls = _counting(monkeypatch, "_sequence_cover", lambda levels, group, seq: seq)
    string_calls = _counting(monkeypatch, "is_valid_gl2_structure")
    commutation_calls = _counting(monkeypatch, "commutes_with_bottom")
    counts = {}
    for lam in ((3, 2), (4, 1)):
        for conv in ("w", "w_prime"):
            pair_calls.clear()
            sequence_calls.clear()
            _group_options(lam, conv, 100_000)
            counts[lam, conv] = (len(pair_calls), len(sequence_calls))
            # a piece is checked once per group, and no two groups share a chain
            assert len(set(pair_calls)) == len(pair_calls)
            assert len(set(sequence_calls)) == len(sequence_calls)
    assert not string_calls and not commutation_calls
    assert counts == PIECE_COUNTS


def test_the_references_decide_what_the_pieces_refuse(monkeypatch):
    import bitableaux.completion as completion

    expected = skeleton((3, 2), conv="w_prime")
    monkeypatch.setattr(completion, "_pair_edges", lambda *args: None)
    result = skeleton((3, 2), conv="w_prime")
    assert result.forced == expected.forced
    assert result.free_vertices == expected.free_vertices
    assert result.completion_count == expected.completion_count

    def shared_child(by_level, levels, idx=0, open_strings=()):
        for pairs in _arrangements(by_level, levels, idx, open_strings):
            if idx == 0 and len(pairs) > 1:
                pairs[1] = (pairs[1][0], pairs[0][1])
            yield pairs

    monkeypatch.setattr(completion, "_arrangements", shared_child)
    with pytest.raises(CrystalStructureError, match="invalid candidate.*two f-edges share a target"):
        skeleton((3, 2))
