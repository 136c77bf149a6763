"""Command-line interface: find, crosscheck, and bench subcommands.

Exit codes: 0 on success, 1 when backends disagree under ``--algo all``,
2 on invalid input (bad flags, unreadable files, empty pattern).

The crosscheck and bench modules are imported by their subcommands, so a
``find`` process loads only the matchers it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import string
import sys
import time

from .core import MODES
from .matchers import ALGORITHMS, make_matcher

DEFAULT_VARIABLES = string.ascii_uppercase


def _checked(parse, accept, expected: str):
    """argparse type: ``parse(value)``, rejected unless ``accept`` holds."""

    def check(value: str):
        result = parse(value)
        if not accept(result):
            raise argparse.ArgumentTypeError(f"{value!r} is not {expected}")
        return result

    check.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return check


def _names(choices: tuple[str, ...]):
    return _checked(
        lambda value: tuple(v for v in value.split(",") if v),
        lambda names: bool(names) and set(names) <= set(choices),
        f"a comma-separated list of {','.join(choices)}",
    )


def int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v]


COUNT = _checked(int, lambda n: n >= 0, "a count (>= 0)")
POSITIVE = _checked(int, lambda n: n >= 1, "a positive int")
LETTERS = _checked(int, lambda n: 1 <= n <= 26, "in 1..26 (one letter each, A-Z or a-z)")
SIZES = _checked(
    int_list, lambda ns: bool(ns) and min(ns) >= 1, "a comma-separated list of positive ints"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcmatch",
        description=(
            "Find all windows of a text matched by a pattern whose variable "
            "symbols bind to text symbols (pvc mode: distinct variables must "
            "bind distinct symbols)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="search a text and print 1-based match positions")
    pat = find.add_mutually_exclusive_group(required=True)
    pat.add_argument("--pattern", help="pattern given inline")
    pat.add_argument("--pattern-file", help="read the pattern from a file (raw bytes)")
    txt = find.add_mutually_exclusive_group(required=True)
    txt.add_argument("--text-inline", help="text given inline")
    txt.add_argument("--text-file", help="read the text from a file, or '-' for stdin")
    find.add_argument("--mode", choices=("fvc", "pvc"), default="fvc")
    find.add_argument(
        "--algo",
        choices=ALGORITHMS + ("all",),
        default="kmp",
        help="backend to run; 'all' runs every backend and cross-checks them",
    )
    find.add_argument(
        "--variables",
        default=DEFAULT_VARIABLES,
        help="characters treated as pattern variables (default: A-Z)",
    )
    find.add_argument("--json", action="store_true", help="emit one JSON document")
    find.add_argument(
        "--witness", action="store_true", help="include a witness binding per position"
    )
    find.add_argument("--chunk-width", type=int, choices=(8, 16, 64), default=64)

    cross = sub.add_parser("crosscheck", help="run all backends on random instances")
    cross.add_argument("--seed", type=int, default=1)
    cross.add_argument("--cases", type=COUNT, default=1000)
    cross.add_argument("--max-m", type=POSITIVE, default=10)
    cross.add_argument("--max-n", type=POSITIVE, default=50)
    cross.add_argument("--num-variables", type=LETTERS, default=3)
    cross.add_argument("--num-constants", type=LETTERS, default=3)
    cross.add_argument(
        "--adversarial",
        action="store_true",
        help="bias patterns toward heavily repeated variables",
    )
    cross.add_argument("--chunk-width", type=int, choices=(8, 16, 64), default=64)

    bench = sub.add_parser("bench", help="print a CSV timing grid")
    bench.add_argument(
        "--n-grid",
        type=SIZES,
        default="16384,32768,65536",
        help="comma-separated text lengths",
    )
    bench.add_argument("--m", type=POSITIVE, default=64)
    bench.add_argument("--algos", type=_names(ALGORITHMS), default="naive,conv,kmp")
    bench.add_argument("--modes", type=_names(MODES), default="fvc,pvc")
    bench.add_argument("--num-variables", type=LETTERS, default=3)
    bench.add_argument("--num-constants", type=LETTERS, default=3)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--repeats", type=POSITIVE, default=3)
    return parser


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _cmd_find(args, freeze: bool) -> int:
    try:
        # Inline values are the user's bytes: argv decodes undecodable
        # bytes to surrogate escapes, which os.fsencode turns back.
        pattern = (
            os.fsencode(args.pattern) if args.pattern is not None else _read_bytes(args.pattern_file)
        )
        text = (
            os.fsencode(args.text_inline)
            if args.text_inline is not None
            else _read_bytes(args.text_file)
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    algos = list(ALGORITHMS) if args.algo == "all" else [args.algo]
    reports = {}
    timings = {}
    witnesses: dict | None = None
    try:
        for algo in algos:
            matcher = make_matcher(
                algo, mode=args.mode, variables=args.variables, chunk_width=args.chunk_width
            )
            if freeze:
                # Building a conv matcher imports numpy: freeze its objects
                # too, which also empties the young generation, so a
                # collection the import left due does not fall in the timings.
                gc.freeze()
            start = time.perf_counter_ns()
            matcher.fit(pattern)
            pre_ns = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            report = matcher.find(text, with_witnesses=args.witness)
            query_ns = time.perf_counter_ns() - start
            reports[algo] = report
            timings[algo] = {"preprocess_ns": pre_ns, "query_ns": query_ns}
            if args.witness and report.witnesses is not None:
                witnesses = {
                    str(pos): pi.as_char_map(matcher.symbol_table_)
                    for pos, pi in report.witnesses.items()
                }
    except ValueError as exc:  # covers InvalidInputError and bad parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2

    positions = reports[algos[0]].positions
    if args.algo == "all":
        for algo in algos[1:]:
            if reports[algo].positions != positions:
                print("error: backends disagree", file=sys.stderr)
                for name in algos:
                    print(f"  {name}: {reports[name].positions}", file=sys.stderr)
                return 1

    # Under --algo all the kmp timings are reported (the production backend).
    timed_algo = "kmp" if args.algo == "all" else args.algo
    if args.json:
        doc = {
            "positions": positions,
            "algo": args.algo,
            "mode": args.mode,
            "m": len(pattern),
            "n": len(text),
            "timings": timings[timed_algo],
        }
        if witnesses is not None:
            doc["witnesses"] = witnesses
        print(json.dumps(doc))
    else:
        # One write, formatted in C: a join would first hold one str per position.
        sys.stdout.write("%d\n" * len(positions) % tuple(positions))
    return 0


def _cmd_crosscheck(args) -> int:
    from .crosscheck import run_crosscheck

    agree, failure = run_crosscheck(
        cases=args.cases,
        seed=args.seed,
        max_m=args.max_m,
        max_n=args.max_n,
        num_variables=args.num_variables,
        num_constants=args.num_constants,
        adversarial=args.adversarial,
        chunk_width=args.chunk_width,
    )
    if failure is None:
        print(f"{agree}/{args.cases} agree")
        return 0
    print(f"{agree}/{args.cases} agree before first disagreement:")
    print(f"  case {failure.case_index}: pattern={failure.pattern!r} text={failure.text!r}")
    print(f"  mode={failure.mode}")
    for algo, positions in failure.reports.items():
        print(f"  {algo}: {positions}")
    for algo, positions in failure.bad_witnesses.items():
        print(f"  {algo} witnesses differ from window_match at: {positions}")
    return 1


def _cmd_bench(args) -> int:
    from .bench import CSV_HEADER, run_bench

    rows = run_bench(
        args.n_grid,
        m=args.m,
        algos=args.algos,
        modes=args.modes,
        num_variables=args.num_variables,
        num_constants=args.num_constants,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(CSV_HEADER)
    for row in rows:
        print(row.as_csv())
    return 0


def main(argv=None) -> int:
    program = argv is None
    if program:
        # Run as a program: what the imports built lives until exit, so keep
        # the garbage collector from walking it again on every collection
        # that a fit or a search sets off.
        gc.freeze()
    args = build_parser().parse_args(argv)
    if args.command == "find":
        return _cmd_find(args, freeze=program)
    if args.command == "crosscheck":
        return _cmd_crosscheck(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
