import hashlib
import json

import pytest

from conftest import nm_pairs, small_shapes
from bitableaux.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_g_example(capsys):
    code, out, _ = run(capsys, "g", "--lam", "4,3", "--mu", "4,3", "--nu", "3,2,2")
    assert code == 0 and out.strip() == "1"


def test_g_sweep_table(capsys):
    code, out, _ = run(capsys, "g", "--sweep-k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,mu,nu,g"
    assert len(lines) == 28
    assert lines[1] == "3,3,3,1"


def test_word_example(tmp_path, capsys):
    rows = "[[[1,2],[2,1]],[[2,2],[2,2]],[[3,1]]]"
    path = tmp_path / "rows.json"
    path.write_text(rows)
    for tableau in (rows, f"@{path}"):
        code, out, _ = run(capsys, "word", "--method", "w", "--shape", "2,2,1", "--tableau", tableau)
        assert code == 0 and out.strip() == "22211"


def test_verify_thm2(capsys):
    code, out, _ = run(capsys, "verify-thm2", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,mu,nu,crystal,oracle"
    assert lines[-1] == "OK k=3 triples=27"


def test_byte_identical_reruns(capsys):
    first = run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2")
    second = run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2")
    assert first == second and first[0] == 0


def test_enumerate_partitions(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "4")
    assert code == 0
    assert json.loads(out) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_enumerate_bitableaux_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "2", "--n", "2", "--m", "2")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 10
    for item in items:
        assert set(item) == {"shape", "rows", "n", "m"}


def test_weights(capsys):
    code, out, _ = run(
        capsys,
        "weights",
        "--tableau",
        "[[[1,2],[2,1]],[[2,2],[2,2]],[[3,1]]]",
        "--n",
        "3",
        "--m",
        "3",
    )
    assert code == 0
    assert json.loads(out) == {"a": [1, 3, 1], "b": [2, 3, 0]}


def test_rsk_and_jdt(capsys):
    code, out, _ = run(capsys, "rsk", "--tops", "1,1,2", "--bottoms", "2,3,1")
    assert code == 0
    pair = json.loads(out)
    assert pair["P"]["rows"] == [[1, 3], [2]]
    code, out, _ = run(
        capsys, "jdt", "--left", "[[1,3],[2]]", "--right", "[[1,1,2],[2,3]]"
    )
    assert code == 0
    assert json.loads(out)["rows"] == [[1, 1, 1, 2], [2, 2, 3], [3]]


def test_brsk_from_file(tmp_path, capsys):
    column = [[[1, 1]], [[1, 2]], [[2, 1]], [[2, 3]], [[2, 4]], [[3, 1]], [[3, 3]]]
    path = tmp_path / "column.json"
    path.write_text(json.dumps(column))
    code, out, _ = run(capsys, "brsk", "--in", str(path))
    assert code == 0
    pair = json.loads(out)
    assert pair["P"]["rows"] == [[1, 1, 1], [2, 3, 3], [4]]
    assert pair["Q"]["rows"] == [[1, 1, 2], [2, 2], [3, 3]]


def test_d_both_modes(capsys):
    code, out, _ = run(capsys, "d", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "d", "--lam", "2", "--mu", "1,1", "--nu", "2", "--mode", "oracle"
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "d", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1", "--mode", "crystal"
    )
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_d_at_k16_under_each_convention(capsys, conv):
    # a large-k point query: the crystal count walks layers of mu's sizes,
    # never building every run of lam, and agrees with the oracle
    argv = ["d", "--lam", "10,3,2,1", "--mu", "8,4,2,2", "--nu", "11,3,1,1", "--mode", "both", "--conv", conv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "10589\n", "")


@pytest.mark.parametrize("conv", ["w", "w_prime"])
def test_d_on_a_layer_of_1200_cells(capsys, conv):
    argv = ["d", "--lam", "1200", "--mu", "1200", "--nu", "1200", "--mode", "crystal", "--conv", conv]
    assert run(capsys, *argv) == (0, "1\n", "")

def test_kron_tableaux_csv(capsys):
    code, out, _ = run(
        capsys, "kron-tableaux", "--lam", "4,3", "--p", "3", "--nu", "3,2,2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,p,nu,count,g,regime_flag"
    assert lines[1] == '"4,3",3,"3,2,2",2,1,0'
    code, out, _ = run(
        capsys, "kron-tableaux", "--lam", "4,3", "--p", "3", "--nu", "3,2,2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"lam": [4, 3], "p": 3, "nu": [3, 2, 2], "count": 2, "g": 1, "regime": False}
    code, out, _ = run(capsys, "kron-tableaux", "--lam", "-", "--p", "0", "--nu", "-")
    assert code == 0 and out.strip().splitlines()[1] == "-,0,-,1,1,1"


def test_skeleton_and_census(capsys):
    code, out, _ = run(capsys, "skeleton", "--shape", "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["completions"] == 2
    assert payload["forced_vertex_count"] == 18
    code, out, _ = run(capsys, "skeleton", "--shape", "2,2")
    assert code == 0
    assert out.count("style=dashed") == 2
    code, out, _ = run(capsys, "census", "--shape", "2,2", "--completion", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "mu,nu,count"
    assert len(rows) == 5


def test_skeleton_json_of_a_large_shape_is_pinned(capsys):
    # digests of the output of the search that checked every option on the whole graph
    digests = {
        "w": "a31eccf354a4702a7a9c36df7e97f2a53a14f51676b7385e91ecc1dc52ba0a00",
        "w_prime": "d25ee100e27697d24e637210a5f0be02803154d98ab649d2bb8b7c60818cdff8",
    }
    for conv, digest in digests.items():
        code, out, _ = run(capsys, "skeleton", "--shape", "4,2", "--format", "json", "--conv", conv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, conv


def test_completions_json(capsys):
    code, out, _ = run(capsys, "completions", "--shape", "2,2")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_completion_count_over_the_cap_is_refused(capsys):
    # (3,2) has 60 vertices and 576 completions; skeleton builds no completion
    for command in ("completions", "census"):
        code, out, err = run(capsys, command, "--shape", "3,2", "--cap", "575")
        assert code == 3 and out == "" and err == "error: 576 completions exceed the cap 575\n"
    code, out, _ = run(capsys, "skeleton", "--shape", "3,2", "--format", "json", "--cap", "575")
    assert code == 0 and json.loads(out)["completions"] == 576


def test_candidate_crystal_flag(capsys):
    code, out, _ = run(capsys, "crystal", "--candidate-21", "south")
    assert code == 0
    assert out.count(" -> ") == 20


@pytest.mark.parametrize("option", [("--shape", "3,2"), ("--n", "2"), ("--m", "2")])
def test_candidate_crystal_refuses_a_shape_or_alphabet(capsys, option):
    code, out, err = run(capsys, "crystal", "--candidate-21", "south", *option)
    assert (code, out, err) == (1, "", "error: --candidate-21 takes no --shape, --n or --m\n")


@pytest.mark.parametrize("option", [("--conv", "w_prime"), ("--conv", "w"), ("--cap", "0"), ("--cap", "1000000")])
def test_candidate_crystal_refuses_a_convention_or_cap(capsys, option):
    # the candidate has one fixed reading order and 20 vertices; both options used to be ignored
    code, out, err = run(capsys, "crystal", "--candidate-21", "south", *option)
    assert (code, out, err) == (1, "", "error: --candidate-21 takes no --conv or --cap\n")


def test_crystal_conv_and_cap_keep_their_defaults(capsys):
    plain = run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2")
    assert plain == run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2", "--conv", "w", "--cap", "1000000")
    assert plain != run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2", "--conv", "w_prime")
    code, out, err = run(capsys, "crystal", "--shape", "2,1", "--n", "2", "--m", "2", "--cap", "19")
    assert (code, out, err) == (3, "", "error: 20 vertices exceed the cap 19\n")
    # the shared --conv and --cap of the other subcommands keep theirs
    args = build_parser().parse_args(["d", "--lam", "1", "--mu", "1", "--nu", "1"])
    assert args.conv == "w"
    assert build_parser().parse_args(["enumerate", "--k", "3"]).cap == 10**6


def test_crystal_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "crystal", "--shape", "2", "--n", "2", "--m", "2", "--format", "json"
    )
    assert code == 0
    graph = json.loads(out)
    assert {e["dir"] for e in graph["edges"]} == {"f"}
    assert len(graph["vertices"]) == 10
    for vertex in graph["vertices"]:
        assert set(vertex) == {"id", "payload", "weight_a", "weight_b"}


def test_word_row_method(capsys):
    code, out, _ = run(
        capsys, "word", "--method", "row", "--tableau", "[[1,1,1,2,2,3],[2,2,3],[3,4]]"
    )
    assert code == 0 and out.strip() == "34223111223"
    code, out, _ = run(capsys, "word", "--method", "row", "--tableau", "[[1,10],[2]]")
    assert code == 0 and out.strip() == "2,1,10"
    code, _, err = run(capsys, "word", "--method", "row")
    assert code == 1 and "error" in err


def test_word_refuses_an_empty_shape_for_nonempty_rows(capsys):
    code, out, err = run(capsys, "word", "--method", "row", "--tableau", "[[1,2]]", "--shape", "-")
    assert code == 1 and out == "" and err == "error: --shape does not match the rows\n"


def test_word_takes_an_empty_shape_for_no_rows(capsys):
    code, _, err = run(capsys, "word", "--method", "row", "--tableau", "[]", "--shape", "-")
    assert code == 0 and err == ""


def test_usage_errors_exit_one(capsys):
    code, out, errtext = run(capsys, "g", "--lam", "oops", "--mu", "1", "--nu", "1")
    assert code == 1 and out == ""
    assert errtext == "error: argument --lam: invalid literal for int() with base 10: 'oops'\n"
    code, _, errtext = run(capsys, "enumerate")
    assert code == 1 and "error" in errtext
    code, out, errtext = run(capsys, "enumerate", "--k", "3", "--max-length", "-1")
    assert code == 1 and out == "" and errtext == "error: max_length must be an integer >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["enumerate", "--k", "x"],
        ["enumerate", "--shape", "2,1"],
        ["weights", "--tableau", "[[[1,1]]", "--n", "1", "--m", "1"],
        ["word", "--method", "v", "--tableau", "[[1]]"],
        ["word", "--shape", "2", "--tableau", "[[[1,1]],[[2,1]]]", "--n", "2", "--m", "1"],
        ["rsk", "--tops", "1,2"],
        ["brsk"],
        ["jdt", "--left", "[[1]]"],
        ["crystal", "--shape", "2,1", "--n", "2"],
        ["crystal", "--candidate-21", "west"],
        ["g", "--lam", "2,1"],
        ["g", "--sweep-k", "two"],
        ["d", "--lam", "2,1"],
        ["d", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1", "--conv", "u"],
        ["verify-thm2"],
        ["verify-thm2", "--k", "3", "--extra"],
        ["kron-tableaux", "--lam", "4,3", "--nu", "3,2,2"],
        ["skeleton", "--shape", "1,2"],
        ["completions"],
        ["census", "--shape", "2,2", "--completion", "2"],
        ["census", "--shape", "2,2", "--cap", "many"],
    ],
)
def test_every_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["d", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bitableaux d ")


def test_count_only_counts_the_listing(capsys):
    alphabets = [["--n", str(n)] for n in (1, 2, 3)]
    alphabets += [["--n", str(n), "--m", str(m)] for n, m in nm_pairs(3)]
    for shape in small_shapes(5):
        text = ",".join(map(str, shape)) or "-"
        for sizes in alphabets:
            code, out, _ = run(capsys, "enumerate", "--shape", text, *sizes)
            assert code == 0
            listed = len(json.loads(out))
            code, out, _ = run(capsys, "enumerate", "--shape", text, *sizes, "--count-only")
            assert code == 0 and out == f"{listed}\n", (shape, sizes)
    for sizes in (["--n", "0"], ["--n", "-1"], ["--n", "2", "--m", "0"], ["--n", "0", "--m", "2"]):
        code, out, err = run(capsys, "enumerate", "--shape", "2,1", *sizes, "--count-only")
        assert code == 1 and out == "" and err.startswith("error: "), sizes
    for k in range(7):
        for lengths in ([], *(["--max-length", str(n)] for n in range(k + 1))):
            code, out, _ = run(capsys, "enumerate", "--k", str(k), *lengths)
            assert code == 0
            listed = len(json.loads(out))
            code, out, _ = run(capsys, "enumerate", "--k", str(k), *lengths, "--count-only")
            assert code == 0 and out == f"{listed}\n", (k, lengths)


def test_enumerate_cap_refuses_before_filling(capsys, monkeypatch):
    import bitableaux.cli as cli

    code, out, _ = run(capsys, "enumerate", "--shape", "2,1", "--n", "2", "--m", "2", "--cap", "20")
    assert code == 0 and len(json.loads(out)) == 20

    def never(*args):
        raise AssertionError("the filler ran above the cap")

    monkeypatch.setattr(cli, "enumerate_ssyt", never)
    monkeypatch.setattr(cli, "enumerate_bitableaux", never)
    monkeypatch.setattr(cli, "enumerate_partitions", never)
    code, out, err = run(capsys, "enumerate", "--k", "8", "--cap", "5")
    assert code == 3 and out == "" and err == "error: 22 partitions exceed the cap 5\n"
    code, out, err = run(capsys, "enumerate", "--k", "8", "--max-length", "2", "--cap", "4")
    assert code == 3 and out == "" and err == "error: 5 partitions exceed the cap 4\n"
    code, out, err = run(capsys, "enumerate", "--shape", "2,1", "--n", "2", "--m", "2", "--cap", "19")
    assert code == 3 and out == "" and err == "error: 20 bitableaux exceed the cap 19\n"
    code, out, err = run(capsys, "enumerate", "--shape", "3,2", "--n", "3", "--cap", "0")
    assert code == 3 and out == "" and err == "error: 15 tableaux exceed the cap 0\n"
    # the default cap is 10**6, and --count-only builds nothing, so no cap applies
    code, out, err = run(capsys, "enumerate", "--shape", "4,3,2,1", "--n", "10")
    assert code == 3 and out == "" and err == "error: 1812096 tableaux exceed the cap 1000000\n"
    code, out, _ = run(capsys, "enumerate", "--shape", "4,3,2,1", "--n", "10", "--count-only", "--cap", "0")
    assert code == 0 and out == "1812096\n"
    code, out, _ = run(capsys, "enumerate", "--k", "30", "--count-only", "--cap", "0")
    assert code == 0 and out == "5604\n"


def test_mismatch_exit_code(capsys, monkeypatch):
    import bitableaux.cli as cli

    monkeypatch.setattr(cli, "count_d", lambda *a, **k: 99)
    argv = ["d", "--lam", "2,1", "--mu", "1,1,1", "--nu", "3", "--conv", "w_prime"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "99\n"
    assert err == (
        "MISMATCH k=3 lam=2,1 mu=1,1,1 nu=3 conv=w_prime crystal=99 oracle=2 "
        "replay: bitableaux d --lam 2,1 --mu 1,1,1 --nu 3 --conv w_prime\n"
    )


def test_verify_thm2_mismatch_goes_to_stderr(capsys, monkeypatch):
    import bitableaux.cli as cli

    rows = [((1,), (1,), (1,), 1, 1), ((2,), (1, 1), (2,), 5, 1), ((2,), (2,), (2,), 0, 1)]
    monkeypatch.setattr(cli, "monomial_expansion_rows", lambda k, conv: iter([rows[:1], rows[1:]]))
    code, out, err = run(capsys, "verify-thm2", "--k", "2", "--quiet")
    assert code == 2 and out == ""
    assert err == (
        "MISMATCH k=2 lam=2 mu=1,1 nu=2 conv=w crystal=5 oracle=1 "
        "replay: bitableaux d --lam 2 --mu 1,1 --nu 2 --conv w\n"
    )
    code, out, err = run(capsys, "verify-thm2", "--k", "2")
    assert code == 2
    assert out.splitlines()[0] == "lam,mu,nu,crystal,oracle" and "MISMATCH" not in out
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--tableau", '{"rows": 5}'],
        ["weights", "--tableau", "[[1,2]]"],
        ["weights", "--tableau", "{}"],
        ["word", "--method", "w", "--tableau", '[["12"]]'],
        ["word", "--method", "row", "--tableau", '{"rows": [[1, 2]], "max_entry": null}'],
        ["word", "--method", "row", "--tableau", "[[[1, 2]]]"],
        ["brsk", "--tableau", '{"rows": [[[1, 2, 3]]]}'],
        ["jdt", "--left", '{"rows": 3}', "--right", "[[1]]"],
        ["jdt", "--left", "[[1]]", "--right", "7"],
        ["weights", "--tableau", '{"shape": [5], "rows": [[[1, 1]], [[2, 1]]]}'],
        ["jdt", "--left", '{"shape": [1], "rows": [[1, 2]]}', "--right", "[[1]]"],
    ],
)
def test_malformed_tableau_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("route", ["inline", "at-file", "in", "jdt-left"])
def test_json_nested_too_deeply_is_a_usage_error(tmp_path, capsys, route):
    deep = "[" * 100_000 + "]" * 100_000  # json.loads raises RecursionError on it
    path = tmp_path / "deep.json"
    path.write_text(deep)
    argv = {
        "inline": ["weights", "--tableau", deep],
        "at-file": ["weights", "--tableau", f"@{path}"],
        "in": ["weights", "--in", str(path)],
        "jdt-left": ["jdt", "--left", deep, "--right", "[[1]]"],
    }[route]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: JSON nested too deeply to decode\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_crystal_on_an_empty_alphabet_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, "crystal", "--shape", "2", "--n", n, "--m", "2")
    assert code == 1 and out == ""
    assert err == f"error: n must be an integer >= 1, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--shape", "2", "--n", "2"],
        ["enumerate", "--shape", "2", "--n", "1", "--count-only"],
        ["enumerate", "--k", "4"],
        ["enumerate", "--k", "4", "--count-only"],
        ["crystal", "--shape", "2", "--n", "2", "--m", "2"],
        ["completions", "--shape", "2"],
    ],
)
def test_a_negative_cap_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap", "-1")
    assert code == 1 and out == ""
    assert err == "error: cap must be an integer >= 0, got -1\n"


def test_cap_exceeded_exits_three_without_traceback():
    import os
    import subprocess
    import sys

    import bitableaux

    src = os.path.dirname(os.path.dirname(bitableaux.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "bitableaux.cli", "crystal", "--shape", "3,2", "--n", "3", "--m", "3", "--cap", "5"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: 2970 vertices exceed the cap 5\n"


def test_structure_and_arithmetic_errors_exit_codes(capsys, monkeypatch):
    import bitableaux.cli as cli
    from bitableaux.crystal import CrystalStructureError

    def broken(*args):
        raise CrystalStructureError("f_1 broke semistandardness")

    monkeypatch.setattr(cli, "full_crystal", broken)
    code, out, err = run(capsys, "crystal", "--shape", "1", "--n", "1", "--m", "2")
    assert code == 4 and out == ""
    assert err.startswith("error: crystal structure broken") and "Traceback" not in err

    def non_integer(*args):
        raise ArithmeticError("non-integer Kronecker coefficient")

    monkeypatch.setattr(cli, "monomial_coefficient_point", non_integer)
    code, out, err = run(capsys, "d", "--lam", "1", "--mu", "1", "--nu", "1", "--mode", "oracle")
    assert code == 5 and out == ""
    assert err.startswith("error: oracle arithmetic failed") and "Traceback" not in err


@pytest.mark.parametrize(
    "row, reason",
    [((1, 2), "non-integer"), ((-3, 1), "negative")],  # g((2),(2),(2)) = 9/2, then -13
)
def test_g_refuses_a_non_integral_or_negative_value(capsys, monkeypatch, row, reason):
    # the point g reads chi^(2) at the classes (2) and (1, 1) from _mn, so perturb that row there
    import bitableaux.symfunc as symfunc

    real, perturbed = symfunc._mn, dict(zip([(2,), (1, 1)], row))
    monkeypatch.setattr(symfunc, "_mn", lambda lam, rho: perturbed[rho] if lam == (2,) else real(lam, rho))
    code, out, err = run(capsys, "g", "--lam", "2", "--mu", "2", "--nu", "2")
    assert code == 5 and out == ""
    assert err == f"error: oracle arithmetic failed: {reason} Kronecker coefficient for (2,),(2,),(2,)\n"


@pytest.mark.parametrize(
    "row, reason",
    [((1, 2), "non-integer"), ((-1, -1), "negative")],  # d((2),(2),(2)) = 3/2, then -1
)
def test_d_refuses_a_non_integral_or_negative_value(capsys, monkeypatch, row, reason):
    # the point d reads xi^(2) at the classes (2) and (1, 1) from _xi, so perturb that row there
    import bitableaux.symfunc as symfunc

    real, perturbed = symfunc._xi, dict(zip([(2,), (1, 1)], row))
    monkeypatch.setattr(symfunc, "_xi", lambda rho, mu: perturbed[rho] if mu == (2,) else real(rho, mu))
    for mode in ("oracle", "both"):
        code, out, err = run(capsys, "d", "--lam", "2", "--mu", "2", "--nu", "2", "--mode", mode)
        assert code == 5 and out == ""
        assert err == f"error: oracle arithmetic failed: {reason} monomial coefficient for (2,),(2,),(2,)\n"


def test_point_queries_build_no_whole_table(capsys):
    # a k = 20 d and g and a k = 30 kron-tableaux read only their triple's rows;
    # character_table(20) alone takes about 4 s and 90 MB, character_table(30) minutes
    from bitableaux.symfunc import character_table, permutation_characters

    before = character_table.cache_info(), permutation_characters.cache_info()
    triple = ["--lam", "12,4,2,1,1", "--mu", "9,5,3,2,1", "--nu", "10,4,3,2,1"]
    assert run(capsys, "d", *triple, "--mode", "oracle") == (0, "5661345\n", "")
    assert run(capsys, "g", *triple) == (0, "54159\n", "")
    code, out, err = run(capsys, "kron-tableaux", "--lam", "30", "--p", "15", "--nu", "30")
    assert code == 0 and err == "" and out.splitlines()[-1] == "30,15,30,0,0,1"
    assert (character_table.cache_info(), permutation_characters.cache_info()) == before


def test_python_dash_m_runs_the_command_from_a_checkout():
    import os
    import subprocess
    import sys

    import bitableaux

    src = os.path.dirname(os.path.dirname(bitableaux.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "bitableaux", "d", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "2\n" and proc.stderr == ""
