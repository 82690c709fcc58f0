"""Command line front end.

Exit codes: 0 success (for `check`: the relation holds), 1 a definite
negative (relation fails, verification failures, undefined limits) or a
reader that closed the output pipe early, 2 usage or parse problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groebner import (
    LimitDoesNotExist,
    NotZeroDimensional,
    format_ideal,
    parse_ideal_text,
    reduced_groebner_basis,
    torus_limit,
)
from .orders import build_poset, order_function, to_dot, _node_label
from .basinlab import SUITES
from .staircase import StandardSet, c4_sum, enumerate_staircases


def _cmd_enumerate(args) -> int:
    staircases = enumerate_staircases(args.n)
    if args.json:
        print(json.dumps([{"columns": list(s.cols())} for s in staircases]))
    elif args.ascii:
        blocks = [s.ascii_diagram() for s in staircases]
        print("\n\n".join(blocks))
    else:
        for s in staircases:
            print(_node_label(s))
    return 0


def _cmd_poset(args) -> int:
    poset = build_poset(args.n, args.order)
    if args.dot:
        sys.stdout.write(to_dot(poset, name=f"{args.order}_{args.n}"))
        return 0
    for i, j in sorted(poset.covers):
        print(f"{_node_label(poset.elements[i])} -> {_node_label(poset.elements[j])}")
    return 0


def _read_pair(args):
    # the two JSON staircase arguments, or None once the error is printed;
    # malformed JSON is a ValueError too
    try:
        return StandardSet.from_json(args.a), StandardSet.from_json(args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# et and punc run one block search, one level per part left after the
# shared parts cancel, and about 500 levels end in a RecursionError; the
# bound leaves stack to spare.  dominance (and the filter, which is
# dominance) is one loop
MAX_CHECK_BOXES = 200


def _cmd_check(args) -> int:
    # the incidence filter is dominance
    leq = order_function("dominance" if args.order == "filter" else args.order)
    pair = _read_pair(args)
    if pair is None:
        return 2
    big = [s.cardinality for s in pair if s.cardinality > MAX_CHECK_BOXES]
    if big and args.order in ("et", "punc"):
        print(
            f"error: staircase of {big[0]} boxes is above {MAX_CHECK_BOXES}",
            file=sys.stderr,
        )
        return 2
    held = leq(*pair)
    print("true" if held else "false")
    return 0 if held else 1


def _cmd_sum(args) -> int:
    pair = _read_pair(args)
    if pair is None:
        return 2
    print(c4_sum(*pair, args.direction).to_json())
    return 0


def _cmd_groebner(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ideal = parse_ideal_text(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.limit is not None:
        try:
            v1, v2 = (int(part) for part in args.limit.split(","))
        except ValueError:
            print("error: --limit expects two integers like -3,-1", file=sys.stderr)
            return 2
        try:
            limit = torus_limit(ideal, (v1, v2))
        except (NotZeroDimensional, LimitDoesNotExist) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(format_ideal(reduced_groebner_basis(limit).elements))
        return 0

    gb = reduced_groebner_basis(ideal)
    if args.staircase:
        if gb.staircase is None:
            print("error: the ideal is not zero-dimensional", file=sys.stderr)
            return 1
        print(gb.staircase.to_json())
        return 0
    sys.stdout.write(format_ideal(gb.elements))
    return 0


def _cmd_verify(args, parser) -> int:
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    names = args.suites or list(SUITES)
    for name in names:
        if name not in SUITES:
            parser.error(
                f"unknown suite {name!r} (choose from {', '.join(SUITES)})"
            )
        smallest = SUITES[name][2]
        if args.nmax is not None and args.nmax < smallest:
            parser.error(f"--nmax must be at least {smallest} for {name}")
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get("GROBASIN_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            parser.error(f"GROBASIN_SEED must be an integer, got {raw!r}")
    all_passed = True
    for name in names:
        runner, default, _ = SUITES[name]
        nmax = default if args.nmax is None else args.nmax
        report = runner(args.trials, seed, nmax)
        if args.json:
            print(report.to_json())
        else:
            sys.stdout.write(report.to_text())
        all_passed = all_passed and report.passed
    if not args.json:
        print("all suites passed" if all_passed else "some suites FAILED")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grobasin",
        description="staircases, their orders, and lex Groebner basins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all staircases of a size")
    p_enum.add_argument("n", type=int)
    style = p_enum.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true")
    style.add_argument("--ascii", action="store_true")

    p_poset = sub.add_parser("poset", help="cover edges of an order on staircases")
    p_poset.add_argument("n", type=int)
    p_poset.add_argument(
        "--order", choices=("et", "punc", "dominance"), default="et"
    )
    p_poset.add_argument("--dot", action="store_true", help="emit graphviz")

    p_check = sub.add_parser("check", help="compare two staircases under an order")
    p_check.add_argument("order", choices=("et", "punc", "dominance", "filter"))
    p_check.add_argument("a", help='JSON like {"columns": [4, 2]}')
    p_check.add_argument("b")

    p_sum = sub.add_parser("sum", help="combine two staircases")
    p_sum.add_argument(
        "direction",
        type=int,
        choices=(1, 2),
        help="1 merges column heights, 2 merges row widths",
    )
    p_sum.add_argument("a", help='JSON like {"columns": [4, 2]}')
    p_sum.add_argument("b")

    p_gb = sub.add_parser("groebner", help="reduced lex basis of an ideal file")
    p_gb.add_argument("file")
    what = p_gb.add_mutually_exclusive_group()
    what.add_argument("--staircase", action="store_true")
    what.add_argument("--basis", action="store_true")
    what.add_argument(
        "--limit",
        metavar="V1,V2",
        help="torus limit weight; write --limit=-3,-1 for negative entries",
    )

    p_verify = sub.add_parser("verify", help="run randomized experiment suites")
    p_verify.add_argument("suites", nargs="*", metavar="suite")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        # flush here, so a closed pipe raises below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`grobasin enumerate 30 | head`); point
        # stdout at devnull so the interpreter's final flush stays quiet,
        # as the recipe in the docs of Python's signal module does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate":
        if args.n < 0:
            parser.error("n must be nonnegative")
        return _cmd_enumerate(args)
    if args.command == "poset":
        if args.n < 1:
            parser.error("n must be positive")
        return _cmd_poset(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "sum":
        return _cmd_sum(args)
    if args.command == "groebner":
        return _cmd_groebner(args)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
