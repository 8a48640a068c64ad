"""Command-line interface: every module behind one scriptable entry point.

Exit codes: 0 success, 1 usage error, 2 verification mismatch, 3 a --cap
refused the work, 4 an operator broke the crystal structure, 5 an oracle
value was not a nonnegative integer.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from typing import Iterable, Sequence

from .bitableau import Bitableau, enumerate_bitableaux, weights
from .completion import (
    enumerate_completions,
    highest_weight_census,
    shape21_candidate_crystal,
    skeleton,
)
from .crystal import (
    CapExceededError,
    CrystalStructureError,
    check_cap,
    count_d,
    full_crystal,
    monomial_expansion_rows,
)
from .graphs import CrystalGraph, export_crystal
from .insertion import Biword, brsk, jdt_product, rsk
from .kron_tableaux import kronecker_count_row
from .partitions import check_int, check_partition, count_partitions, enumerate_partitions
from .symfunc import kronecker_coefficient, kronecker_coefficient_point, monomial_coefficient_point
from .tableaux import SSYT, count_ssyt, enumerate_ssyt, reading_word
from .words import CONVENTIONS, READING_METHODS, bitableau_reading_word

USAGE_ERROR = 1
MISMATCH = 2
CAP_EXCEEDED = 3
STRUCTURE_ERROR = 4
ARITHMETIC_ERROR = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would print usage and exit 2
        raise ValueError(message)


def _partition(text: str) -> tuple[int, ...]:
    if not text or text == "-":
        return ()
    try:
        return check_partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_json(text: str | None, path: str | None):
    """The JSON of the file path, else of text (of its file when it starts with @), or None.

    JSON nested too deep to decode is a ValueError, as any other bad JSON.
    """
    if path is None and text is not None and text.startswith("@"):
        path = text[1:]
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return None if text is None else json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _tableau_data(args):
    data = _load_json(args.tableau, args.infile)
    if data is None:
        raise ValueError("need --tableau or --in")
    return data


def _bitableau_arg(args) -> Bitableau:
    data = _tableau_data(args)
    if isinstance(data, dict):
        return Bitableau.from_json(data)
    return Bitableau.from_rows(data, args.n, args.m)


def _ssyt(data) -> SSYT:
    return SSYT.from_json(data) if isinstance(data, dict) else SSYT.from_rows(data)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _print_word(word: Sequence[int]) -> None:
    if word and max(word) > 9:
        print(",".join(map(str, word)))
    else:
        print("".join(map(str, word)))


def _csv_out(header: list[str], rows: Iterable[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _fmt_partition(p: Sequence[int]) -> str:
    return ",".join(map(str, p)) if p else "-"


def _options() -> argparse.ArgumentParser:
    """A group of options that several subcommands share, declared once."""
    return argparse.ArgumentParser(add_help=False)


def build_parser() -> _Parser:
    """The command table: each subcommand once, with its help, options and handler."""
    conv = _options()
    conv.add_argument("--conv", default="w", choices=CONVENTIONS)
    cap = _options()
    cap.add_argument("--cap", type=int, default=10**6)
    sizes = _options()
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--m", type=int)
    tableau = _options()
    tableau.add_argument("--tableau")
    tableau.add_argument("--in", dest="infile")

    parser = _Parser(prog="bitableaux", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, *parents: argparse.ArgumentParser):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(run=run)
        return p

    p = command("enumerate", _cmd_enumerate, "partitions, SSYT, or bitableaux", sizes, cap)
    p.add_argument("--k", type=int, help="enumerate partitions of k")
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--shape", type=_partition)
    p.add_argument("--count-only", action="store_true")

    command("weights", _cmd_weights, "a- and b-weight of a bitableau", tableau, sizes)

    p = command("word", _cmd_word, "reading word of a tableau or bitableau", tableau, sizes)
    p.add_argument("--method", default="w", choices=READING_METHODS)
    p.add_argument("--shape", type=_partition, help="optional; checked against the rows")

    p = command("rsk", _cmd_rsk, "RSK of a biword")
    p.add_argument("--tops", required=True)
    p.add_argument("--bottoms", required=True)
    p.add_argument("--flavor", default="lexicographic", choices=["lexicographic", "burge"])

    command("brsk", _cmd_brsk, "Burge insertion of a column bitableau", tableau, sizes)

    p = command("jdt", _cmd_jdt, "jeu de taquin product of two tableaux")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    # --conv and --cap of their own, default None, so an explicit value under
    # --candidate-21 shows; the shared parents' actions keep their defaults
    p = command("crystal", _cmd_crystal, "crystal graph exports", sizes)
    p.add_argument("--conv", choices=CONVENTIONS)
    p.add_argument("--cap", type=int)
    p.add_argument("--shape", type=_partition)
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument(
        "--candidate-21",
        choices=["south", "east"],
        help="emit the fixed-reading-order gl_3 candidate on shape (2,1)",
    )

    p = command("g", _cmd_g, "Kronecker coefficient, or a CSV table of them")
    p.add_argument("--lam", type=_partition)
    p.add_argument("--mu", type=_partition)
    p.add_argument("--nu", type=_partition)
    p.add_argument("--sweep-k", type=int, help="emit (lam, mu, nu, g) for all triples of k")

    p = command("d", _cmd_d, "monomial-expansion coefficient", conv)
    p.add_argument("--lam", type=_partition, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.add_argument("--mode", default="both", choices=["both", "oracle", "crystal"])

    p = command(
        "verify-thm2", _cmd_verify_thm2, "crystal counts against the character oracle", conv
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--quiet", action="store_true", help="only print the summary line")

    p = command("kron-tableaux", _cmd_kron_tableaux, "Kronecker tableau count vs. coefficient")
    p.add_argument("--lam", type=_partition, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])

    shape = _options()
    shape.add_argument("--shape", type=_partition, required=True)
    search = (shape, conv, cap)
    p = command("skeleton", _cmd_skeleton, "forced part of the candidate top structure", *search)
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    command("completions", _cmd_completions, "all valid commuting totalizations", *search)
    p = command("census", _cmd_census, "highest-weight census of a completion", *search)
    p.add_argument("--completion", type=int, default=0)
    return parser


def _cmd_enumerate(args) -> int:
    check_int(args.cap, "cap")  # on every path, --count-only included
    if args.k is not None:
        size, noun = count_partitions(args.k, args.max_length), "partitions"
    elif args.shape is None or args.n is None:
        raise ValueError("need --k, or --shape with --n (and --m for bitableaux)")
    else:
        pairs = args.m is not None
        check_int(args.n, "n", 1)
        if pairs:
            check_int(args.m, "m", 1)
        size = count_ssyt(args.shape, args.n * args.m if pairs else args.n)  # |B_lam(n,m)| via [nm]
        noun = "bitableaux" if pairs else "tableaux"
    if args.count_only:
        print(size)
        return 0
    check_cap(size, args.cap, noun)
    if args.k is not None:
        rows = [list(p) for p in enumerate_partitions(args.k, args.max_length)]
    elif pairs:
        rows = [t.to_json() for t in enumerate_bitableaux(args.shape, args.n, args.m)]
    else:
        rows = [t.to_json() for t in enumerate_ssyt(args.shape, args.n)]
    print(_dump(rows))
    return 0


def _cmd_word(args) -> int:
    if args.method == "row":
        t = _ssyt(_tableau_data(args))
        word = reading_word(t)
    else:
        t = _bitableau_arg(args)
        word = bitableau_reading_word(t, args.method)
    if args.shape is not None and t.shape != args.shape:
        raise ValueError("--shape does not match the rows")
    _print_word(word)
    return 0


def _report_mismatch(lam, mu, nu, conv: str, crystal: int, oracle: int) -> None:
    """One stderr line: the triple, both counts and the command that replays it."""
    k = sum(lam)
    lam, mu, nu = (_fmt_partition(p) for p in (lam, mu, nu))
    print(
        f"MISMATCH k={k} lam={lam} mu={mu} nu={nu} conv={conv} crystal={crystal} "
        f"oracle={oracle} replay: bitableaux d --lam {lam} --mu {mu} --nu {nu} --conv {conv}",
        file=sys.stderr,
    )


def _cmd_d(args) -> int:
    oracle = crystal = None
    if args.mode in ("both", "oracle"):
        oracle = monomial_coefficient_point(args.lam, args.mu, args.nu)
    if args.mode in ("both", "crystal"):
        crystal = count_d(args.lam, args.mu, args.nu, args.conv)
    if args.mode == "oracle":
        print(oracle)
    elif args.mode == "crystal":
        print(crystal)
    else:
        print(crystal)
        if crystal != oracle:
            _report_mismatch(args.lam, args.mu, args.nu, args.conv, crystal, oracle)
            return MISMATCH
    return 0


def _cmd_verify_thm2(args) -> int:
    """The sweep streamed one lam at a time: rows are written as they come, and only the first mismatch is kept.

    The CSV header waits for the first lam's rows, so a refused argument or
    a failed oracle row there prints nothing to stdout.
    """
    writer = None if args.quiet else csv.writer(sys.stdout, lineterminator="\n")
    triples, mismatch = 0, None
    for rows in monomial_expansion_rows(args.k, args.conv):
        if writer is not None:
            if not triples:
                writer.writerow(["lam", "mu", "nu", "crystal", "oracle"])
            writer.writerows(
                [_fmt_partition(lam), _fmt_partition(mu), _fmt_partition(nu), c, o] for lam, mu, nu, c, o in rows
            )
        triples += len(rows)
        if mismatch is None:
            mismatch = next((r for r in rows if r[3] != r[4]), None)
    if mismatch is not None:
        lam, mu, nu, c, o = mismatch
        _report_mismatch(lam, mu, nu, args.conv, c, o)
        return MISMATCH
    print(f"OK k={args.k} triples={triples}")
    return 0


def _cmd_skeleton(args) -> int:
    result = skeleton(args.shape, conv=args.conv, cap=args.cap)
    if args.format == "dot":
        forced = {(s, 1): d for s, d in result.forced.images.items()}
        g = CrystalGraph(result.graph.vertices, forced)
        sys.stdout.write(export_crystal(g, name="skeleton", dashed=result.free_vertices))
        return 0
    payload = {
        "forced": sorted([s, d] for s, d in result.forced.images.items()),
        "free_vertices": list(result.free_vertices),
        "free_slots": {
            f"a={_fmt_partition(a)};b={_fmt_partition(b)}": list(ids)
            for (a, b), ids in result.free_slots.items()
        },
        "completions": result.completion_count,
        "forced_vertex_count": result.forced_vertex_count,
    }
    print(_dump(payload))
    return 0


def _cmd_weights(args) -> int:
    a, b = weights(_bitableau_arg(args))
    print(_dump({"a": list(a), "b": list(b)}))
    return 0


def _cmd_rsk(args) -> int:
    tops = tuple(int(x) for x in args.tops.split(","))
    bottoms = tuple(int(x) for x in args.bottoms.split(","))
    print(_dump(rsk(Biword(tops, bottoms, args.flavor)).to_json()))
    return 0


def _cmd_brsk(args) -> int:
    print(_dump(brsk(_bitableau_arg(args)).to_json()))
    return 0


def _cmd_jdt(args) -> int:
    left = _ssyt(_load_json(args.left, None))
    right = _ssyt(_load_json(args.right, None))
    print(_dump(jdt_product(left, right).to_json()))
    return 0


def _cmd_crystal(args) -> int:
    given = {name: value for name, value in (("conv", args.conv), ("cap", args.cap)) if value is not None}
    if args.candidate_21:
        if args.shape is not None or args.n is not None or args.m is not None:
            raise ValueError("--candidate-21 takes no --shape, --n or --m")
        if given:
            raise ValueError("--candidate-21 takes no --conv or --cap")
        g = shape21_candidate_crystal(args.candidate_21)
    else:
        if args.shape is None or args.n is None or args.m is None:
            raise ValueError("crystal needs --shape, --n and --m")
        g = full_crystal(args.shape, args.n, args.m, **given)  # full_crystal's defaults: w, 10**6
    sys.stdout.write(export_crystal(g, args.format))
    if args.format == "json":
        sys.stdout.write("\n")
    return 0


def _cmd_g(args) -> int:
    if args.sweep_k is not None:
        parts = enumerate_partitions(args.sweep_k)
        _csv_out(
            ["lam", "mu", "nu", "g"],
            (
                [
                    _fmt_partition(lam),
                    _fmt_partition(mu),
                    _fmt_partition(nu),
                    kronecker_coefficient(lam, mu, nu),
                ]
                for lam, mu, nu in itertools.product(parts, repeat=3)
            ),
        )
        return 0
    if args.lam is None or args.mu is None or args.nu is None:
        raise ValueError("need --lam, --mu and --nu (or --sweep-k)")
    print(kronecker_coefficient_point(args.lam, args.mu, args.nu))
    return 0


def _cmd_kron_tableaux(args) -> int:
    lam, p, nu, count, g, regime = kronecker_count_row(args.lam, args.p, args.nu)
    if args.format == "json":
        print(
            _dump(
                {"lam": list(lam), "p": p, "nu": list(nu), "count": count, "g": g, "regime": regime}
            )
        )
    else:
        _csv_out(
            ["lam", "p", "nu", "count", "g", "regime_flag"],
            [[_fmt_partition(lam), p, _fmt_partition(nu), count, g, int(regime)]],
        )
    return 0


def _cmd_completions(args) -> int:
    _, ops = enumerate_completions(args.shape, conv=args.conv, cap=args.cap)
    print(_dump([sorted([s, d] for s, d in op.images.items()) for op in ops]))
    return 0


def _cmd_census(args) -> int:
    g, ops = enumerate_completions(args.shape, conv=args.conv, cap=args.cap)
    if not 0 <= args.completion < len(ops):
        raise ValueError(f"completion index outside [0, {len(ops) - 1}]")
    census = highest_weight_census(ops[args.completion], g)
    _csv_out(
        ["mu", "nu", "count"],
        [
            [_fmt_partition(mu), _fmt_partition(nu), count]
            for (mu, nu), count in sorted(census.items())
        ],
    )
    return 0


_PARSER = build_parser()  # built once per process; every handler reads module globals when run


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; only --help exits, with 0."""
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:  # argparse errors and json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXCEEDED
    except CrystalStructureError as exc:
        print(f"error: crystal structure broken: {exc}", file=sys.stderr)
        return STRUCTURE_ERROR
    except ArithmeticError as exc:
        print(f"error: oracle arithmetic failed: {exc}", file=sys.stderr)
        return ARITHMETIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
