"""Command-line surface.

Subcommands: count, enumerate, sigma, sigma-inv, fixed-points, series,
tables, verify, render.  Identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error, 141 when the reader closes the output pipe early.  ``main`` parses
with one parser per process, built on its first call.

Polynomials print either as canonical text (``--format text``) or as the
JSON term-record list (``--format json``).  ``render`` additionally
accepts ``--format svg``.  Note ``--eval=-3,4,16``: use the ``=`` form
when the first coordinate is negative.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence

from . import bijection, formulas, render, verify
from .enumeration import Constraints, generate, weight_sum
from .paths import PathError, parse_pattern, parse_word
from .polyring import Polynomial
from .series import KINDS, expand


def _poly_out(poly: Polynomial, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly.to_json_obj(), separators=(",", ":"))
    return str(poly)


def _parse_eval(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise PathError(f"--eval expects three integers, got {text!r}")
    try:
        va, vb, vc = (int(p) for p in parts)
    except ValueError:
        raise PathError(f"--eval expects integers, got {text!r}") from None
    return va, vb, vc


def _constraints(args: argparse.Namespace) -> Constraints:
    avoid: tuple[str, ...] = ()
    if args.avoid is not None:  # --avoid '' names one empty pattern
        avoid = tuple(parse_pattern(tok) for tok in args.avoid.split(","))
    return Constraints(avoid=avoid, forbid_h_on_axis=args.no_h_on_axis)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the command line."""
    parser = argparse.ArgumentParser(
        prog="gmotzkin",
        description="Exact computations on weighted G-Motzkin paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="path length (x extent)")
        p.add_argument("--avoid", help="comma-separated patterns over udhv")
        p.add_argument("--no-h-on-axis", action="store_true", dest="no_h_on_axis")

    p = sub.add_parser("count", help="weight-sum polynomial or its integer value")
    p.set_defaults(run=_cmd_count)
    add_class_flags(p)
    p.add_argument("--eval", dest="eval_point", help="a,b,c integers (use --eval=-3,4,16)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="list all paths of one length")
    p.set_defaults(run=_cmd_enumerate)
    add_class_flags(p)

    p = sub.add_parser("sigma", help="apply the bijection to one uvv-avoiding path")
    p.set_defaults(run=_cmd_sigma, inverse=False)
    p.add_argument("--path", required=True)

    p = sub.add_parser("sigma-inv", help="apply the inverse to one uvu-avoiding path")
    p.set_defaults(run=_cmd_sigma, inverse=True)
    p.add_argument("--path", required=True)

    p = sub.add_parser("fixed-points", help="count (and list) fixed points of sigma")
    p.set_defaults(run=_cmd_fixed_points)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", dest="list_paths")

    p = sub.add_parser("series", help="expand a generating function")
    p.set_defaults(run=_cmd_series)
    p.add_argument("--gf", required=True, choices=KINDS)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--eval", dest="eval_point", help="a,b,c integers")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tables", help="reproduce the specialization and fixed-point tables")
    p.set_defaults(run=_cmd_tables)
    p.add_argument("--max-n", type=int, default=10, dest="max_n")

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")

    p = sub.add_parser("render", help="draw one path as ASCII art or SVG")
    p.set_defaults(run=_cmd_render)
    p.add_argument("--path", required=True)
    p.add_argument("--format", choices=("text", "svg"), default="text")
    return parser


def _cmd_count(args: argparse.Namespace) -> int:
    poly = weight_sum(args.n, _constraints(args))
    if args.eval_point:
        print(poly.eval(*_parse_eval(args.eval_point)))
    else:
        print(_poly_out(poly, args.format))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for word in generate(args.n, _constraints(args)):
        print(word)
    return 0


def _cmd_sigma(args: argparse.Namespace) -> int:
    word = parse_word(args.path)
    print(bijection.sigma_inv(word) if args.inverse else bijection.sigma(word))
    return 0


def _cmd_fixed_points(args: argparse.Namespace) -> int:
    counts = bijection.fixed_points(args.n, include_paths=args.list_paths)
    print(f"F={counts.f} a={counts.a} b={counts.b} c={counts.c}")
    if args.list_paths:
        print("\n".join(counts.paths))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise PathError("--order must be nonnegative")
    point = _parse_eval(args.eval_point) if args.eval_point else None
    for poly in expand(args.gf, args.order).coeffs:
        print(poly.eval(*point) if point else _poly_out(poly, args.format))
    return 0


def _max_n(args: argparse.Namespace) -> int:
    """``--max-n`` of ``tables`` and ``verify``; PathError, before any work
    starts, if it is negative or past sys.maxsize."""
    nmax = args.max_n
    if nmax < 0:
        raise PathError("--max-n must be nonnegative")
    if nmax > sys.maxsize:
        raise PathError(f"--max-n must be at most sys.maxsize, not {nmax}")
    return nmax


def _cmd_tables(args: argparse.Namespace) -> int:
    nmax = _max_n(args)
    polys = [formulas.g_uvv_closed(n, 1) for n in range(nmax + 1)]
    print(f"uvv-avoiding weight specializations, n = 0..{nmax}")
    for label, point, oeis in formulas.SPECIALIZATION_POINTS:
        values = " ".join(str(p.eval(*point)) for p in polys)
        print(f"  {label:<10} {oeis}: {values}")
    checks = [formulas.specialization_checks(n, g) for n, g in enumerate(polys)]
    mismatch = False
    for label in checks[0]:  # "(a,0,b) Motzkin polynomial" prints as M_n(a,b)
        point, family = label.split(" ", 1)
        ok = all(row[label] for row in checks)
        mismatch = mismatch or not ok
        print(f"  {point:<10} {family} {family[0]}_n(a,b): {'ok' if ok else 'MISMATCH'}")
    f_seq, _, _, _ = formulas.fixed_point_sequences(nmax)
    print(f"fixed points of sigma, n = 0..{nmax}")
    print("  F_n: " + " ".join(str(v) for v in f_seq))
    return 1 if mismatch else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    harness = verify.Harness(max_n=_max_n(args))
    results = harness.run_all()
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_render(args: argparse.Namespace) -> int:
    word = parse_word(args.path)
    if args.format == "svg":
        print(render.render_svg(word))
    else:
        print(render.render_ascii(word))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first one.  Reuse
    carries no state between calls: each ``parse_args`` fills a fresh
    ``Namespace``, subparser defaults included."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        # what is still buffered goes nowhere, not into a second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer it stopped
    except ValueError as exc:  # PathError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
