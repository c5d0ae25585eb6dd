"""Command-line driver.

Subcommands cover the full pipeline: generate an integer instance from
weights, audit a construction, decide the partition question with a
certified tree search, measure or bound the dilation of a given tree,
search for minimum-dilation structures, run the dynamic-programming
oracle, hunt for the five-point crossing witness, and draw SVG figures.

Exit codes: 0 success (or certified YES), 1 certified NO / failed audit,
2 usage or input errors, 3 precision exhausted or search undecided.
"""

import argparse
import functools
import json
import re
import sys

from . import fileio
from .dilation import Verdict, compare_to_threshold, tree_dilation
from .errors import (Infeasible, PrecisionExhausted, PrecisionInsufficient,
                     SizeTooLarge, SumTooLarge)
from .gadget import (IntegerInstance, LemmaCheck, LemmaReport,
                     PartitionInstance, decide_partition, partition_oracle,
                     reduction, verify_gadget)
from .solver import Mode, SolverOptions, mdst_exact, witness_search_five

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _alphas(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated integers, got {text!r}")


def _threshold(text: str) -> tuple[int, int]:
    # decimals are refused so nothing gets silently rounded
    m = re.fullmatch(r"(\d+)/(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"threshold must be a rational P/Q, got {text!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if p < 1 or q < 1:
        raise argparse.ArgumentTypeError("threshold parts must be positive")
    return p, q


def _load_points(path):
    return fileio.points_from_json(fileio.load_json(path))


def _load_instance_or_gadget(path):
    obj = fileio.load_json(path)
    if isinstance(obj, dict) and "k" in obj:
        return fileio.instance_from_json(obj)
    return fileio.gadget_from_json(obj)


def _pair_name(ps, pair):
    if pair is None:
        return "none"
    u, v = pair
    if ps.labels:
        return f"{ps.labels[u]},{ps.labels[v]}"
    return f"{u},{v}"


def _report_lines(report):
    value = report.value
    yield f"dilation in [{fileio.format_rational(value.lo)}," \
          f" {fileio.format_rational(value.hi)}]"
    yield f"dilation ~ {float((value.lo + value.hi) / 2):.12g}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    inst = PartitionInstance(args.alphas)
    g, ii = reduction(inst, args.k)
    fileio.dump_json(fileio.instance_to_json(ii), args.output)
    if args.gadget:
        fileio.dump_json(fileio.gadget_to_json(g), args.gadget)
    print(f"n={inst.n} weights={list(inst.alphas_dot)} k={ii.k} "
          f"threshold={ii.P}/{ii.Q} -> {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ii = _load_instance_or_gadget(args.input)
    g, rescale = ii, ()
    if isinstance(ii, IntegerInstance):
        g, rebuilt = reduction(ii, ii.k)
        same = rebuilt.points.numerators == ii.points.numerators
        detail = "stored points match a fresh rescale" if same \
            else "stored points deviate from the construction"
        rescale = (LemmaCheck("integer rescaling", same, detail),)
    report = LemmaReport(checks=verify_gadget(g).checks + rescale)
    for check in report.checks:
        print(f"[{'ok' if check.passed else 'FAIL'}] {check.name}:"
              f" {check.detail}")
    if args.json:
        fileio.dump_json({
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in report.checks],
        }, args.json)
    return EXIT_OK if report.passed else EXIT_NO


def _cmd_decide(args) -> int:
    result = decide_partition(_load_instance_or_gadget(args.input))
    if result is None:
        print("no partition: every candidate tree certifies dilation"
              " above the threshold")
        return EXIT_NO
    sol, tree = result
    print(f"partition found: A={sorted(sol.A)} A'={sorted(sol.A_prime)}")
    if args.output:
        fileio.dump_json({
            "A": sorted(sol.A),
            "A_prime": sorted(sol.A_prime),
            "edges": [[u, v] for u, v in tree.edges],
        }, args.output)
    return EXIT_OK


def _cmd_dilation(args) -> int:
    ps = _load_points(args.points)
    tree = fileio.tree_from_json(fileio.load_json(args.tree), len(ps))
    if args.threshold:
        p, q = args.threshold
        verdict = compare_to_threshold(ps, tree, p, q)
        print(f"dilation {'<=' if verdict is Verdict.AT_MOST else '>'} {p}/{q}")
        return EXIT_OK if verdict is Verdict.AT_MOST else EXIT_NO
    report = tree_dilation(ps, tree, args.bits)
    for line in _report_lines(report):
        print(line)
    print(f"witness pair: {_pair_name(ps, report.witness)}"
          + (" (tied)" if report.tied else ""))
    return EXIT_OK


def _cmd_mdst(args) -> int:
    ps = _load_points(args.points)
    opts = SolverOptions(
        mode=Mode[args.mode.upper()],
        crossing_free=args.crossing_free,
        required_edges=frozenset(tuple(e) for e in args.require or ()),
        max_points=args.max_points,
        bits=args.bits,
        enumeration_cap=args.cap,
    )
    result = mdst_exact(ps, opts)
    for line in _report_lines(result.report):
        print(line)
    print(f"witness pair: {_pair_name(ps, result.report.witness)}")
    print(f"examined {result.trees_examined} candidates,"
          f" pruned {result.pruned}")
    if args.output:
        edges = result.best.edges if hasattr(result.best, "edges") \
            else result.best
        fileio.dump_json({"edges": [[u, v] for u, v in edges]}, args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sol = partition_oracle(PartitionInstance(args.alphas))
    if sol is None:
        print("none")
        return EXIT_NO
    print(json.dumps({"A": sorted(sol.A), "A_prime": sorted(sol.A_prime)}))
    return EXIT_OK


def _cmd_witness5(args) -> int:
    found = witness_search_five(args.seed, args.budget)
    if found is None:
        print("none")
        return EXIT_UNDECIDED
    if args.output:
        fileio.dump_json(fileio.points_to_json(found), args.output)
    for p in found.points:
        print(f"{p.x} {p.y}")
    return EXIT_OK


def _cmd_svg(args) -> int:
    ps = _load_points(args.points)
    tree = None
    if args.tree:
        tree = fileio.tree_from_json(fileio.load_json(args.tree), len(ps))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(fileio.render_svg(ps, tree))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _edge(text: str):
    try:
        u, v = text.split(",")
        return int(u), int(v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"edge must be u,v, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared:
    parsing leaves no state in it, each call filling a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dilatree",
        description="Certified dilation tools for plane point sets")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="build an integer instance from weights")
    p.add_argument("--alphas", type=_alphas, required=True,
                   help="comma-separated positive integer weights")
    p.add_argument("--k", type=int, default=None,
                   help="fractional bits kept by the integer rescale")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--gadget", default=None,
                   help="also write the exact construction to this path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="audit a stored instance or gadget")
    p.add_argument("input")
    p.add_argument("--json", default=None,
                   help="also write the report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decide", help="decide the partition question")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None,
                   help="write the split and witness tree here")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("dilation", help="measure a tree's dilation")
    p.add_argument("--points", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--threshold", type=_threshold, default=None,
                   help="rational P/Q to compare against")
    p.add_argument("--bits", type=int, default=96)
    p.set_defaults(func=_cmd_dilation)

    p = sub.add_parser("mdst", help="search for a minimum-dilation structure")
    p.add_argument("--points", required=True)
    p.add_argument("--mode", choices=["tree", "path", "tour"], default="tree")
    p.add_argument("--crossing-free", action="store_true")
    p.add_argument("--require", type=_edge, action="append",
                   help="force this edge (repeatable), as u,v indices")
    p.add_argument("--max-points", type=int, default=9)
    p.add_argument("--bits", type=int, default=64)
    p.add_argument("--cap", type=int, default=None,
                   help="abort if the search would examine more trees "
                        "or orderings")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_mdst)

    p = sub.add_parser("oracle", help="dynamic-programming partition oracle")
    p.add_argument("--alphas", type=_alphas, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("witness5", help="hunt for the five-point witness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_witness5)

    p = sub.add_parser("svg", help="draw points (and a tree) as SVG")
    p.add_argument("--points", required=True)
    p.add_argument("--tree", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_svg)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NO
    except (SumTooLarge, SizeTooLarge, PrecisionInsufficient, OSError,
            json.JSONDecodeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
