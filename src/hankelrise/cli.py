"""Command-line front end.

Subcommands:

  seq     print terms (or rising powers) of a recurrence, one per line
          as "k<TAB>value"
  det     build one Hankel-type matrix and print its determinant; --stats
          adds a JSON operation report
  closed  evaluate one closed-form identity side at a point
  verify  sweep a grid and print the JSON report; exit 0 iff it passes
  bench   time the determinant algorithms over a grid and emit CSV with
          columns algorithm,domain,n,r,d,mul_count,div_count,fallback,wall_ns

Spec selection is shared: --preset or explicit --a/--b/--c1/--c2 (integers
or p/q rationals), with --domain choosing int, rat, or poly arithmetic.
The poly domain is the fully symbolic spec and rejects preset/constants.
Ranges are inclusive "lo..hi" (a bare integer means a single value).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import fields
from fractions import Fraction
from functools import partial
from itertools import product
from typing import List, Optional, Sequence, Tuple

from . import ring
from .determinant import check_cofactor_dim, det_bareiss, det_cofactor, det_condensation, det_hankel_minors
from .matgen import MODES, RISING, MatrixQuery, build
from .sequence import PRESETS, RecurrenceSpec, SequenceCache, check_index, preset, symbolic_spec
from .verify import IDENTITIES, IDENTITY_TABLE, ORACLES, GridSpec, Range, report_json, run_grid


_ALGORITHMS = {
    "cofactor": det_cofactor,
    "bareiss": det_bareiss,
    "condensation": det_condensation,
    "structured": det_hankel_minors,
}
_BENCH_ALGORITHMS = tuple(sorted((*_ALGORITHMS, "closed")))
# flags whose value may start with "-"; argparse takes "-5..5" or "-1/2"
# for an option unless it is joined to its flag
_SIGNED_FLAGS = {"--n", "--r", "--d", "--i", "--j", "--a", "--b", "--c1", "--c2"}
_POINT_FLAGS = ("r", "d", "i", "j")


def _parse_range(text: str) -> Tuple[int, int]:
    if ".." in text.lstrip("-"):
        head, _, tail = text.partition("..")
        if head == "" or tail == "":
            raise argparse.ArgumentTypeError(f"bad range {text!r}; use lo..hi")
        lo, hi = int(head), int(tail)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_literal(text: str, domain: str) -> ring.ExactScalar:
    if domain == ring.INTEGER:
        if "/" in text:
            raise ValueError(f"{text!r} is rational; pass --domain rat")
        return ring.integer(int(text))
    try:
        return ring.rational(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _given_spec_flags(args: argparse.Namespace) -> List[str]:
    return [f"--{name}" for name in ("preset", "a", "b", "c1", "c2") if getattr(args, name) is not None]


def _spec_from_args(args: argparse.Namespace) -> RecurrenceSpec:
    constants = [args.a, args.b, args.c1, args.c2]
    given = [value for value in constants if value is not None]
    if args.domain == ring.POLYNOMIAL:
        flags = _given_spec_flags(args)
        if flags:
            raise ValueError(f"--domain poly is the symbolic spec; it does not take {', '.join(flags)}")
        return symbolic_spec()
    if args.preset and given:
        raise ValueError("--preset conflicts with explicit --a/--b/--c1/--c2")
    if given and len(given) != 4:
        raise ValueError("provide all four of --a --b --c1 --c2")
    if given:
        a, b, c1, c2 = (_parse_literal(text, args.domain) for text in constants)
        return RecurrenceSpec(a, b, c1, c2)
    return preset(args.preset or "fibonacci", args.domain)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named spec")
    parser.add_argument("--a", help="seed W_0 (integer or p/q)")
    parser.add_argument("--b", help="seed W_1 (integer or p/q)")
    parser.add_argument("--c1", help="coefficient of W_{k-1} (integer or p/q)")
    parser.add_argument("--c2", help="coefficient of W_{k-2} (integer or p/q)")
    parser.add_argument(
        "--domain",
        choices=ring.DOMAINS,
        default=ring.INTEGER,
        help="scalar domain; poly is the symbolic spec and rejects preset/constants",
    )


def _merge_range_values(argv: Sequence[str]) -> List[str]:
    """Join ``--n -5..5`` into ``--n=-5..5``, and ``--a -1/2`` into
    ``--a=-1/2``, so argparse accepts them."""
    merged: List[str] = []
    for token in argv:
        if merged and merged[-1] in _SIGNED_FLAGS and token.startswith("-") and not token.startswith("--"):
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelrise",
        description="exact Hankel determinants of rising powers of recurrence terms",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    seq = commands.add_parser("seq", help="print recurrence terms or rising powers")
    _add_spec_flags(seq)
    seq.add_argument("--from", dest="start", type=int, required=True, help="first index")
    seq.add_argument("--to", dest="stop", type=int, required=True, help="last index (inclusive)")
    seq.add_argument("--rising", type=int, help="print rising powers of this length instead")
    seq.set_defaults(handler=_cmd_seq)

    det = commands.add_parser("det", help="determinant of one built matrix")
    _add_spec_flags(det)
    det.add_argument("--n", type=int, required=True, help="base index")
    det.add_argument("--r", type=int, required=True, help="power length")
    det.add_argument("--d", type=int, required=True, help="matrix dimension")
    det.add_argument("--mode", choices=MODES, default=RISING)
    det.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="bareiss")
    det.add_argument("--stats", action="store_true", help="also print the JSON operation report")
    det.set_defaults(handler=_cmd_det)

    closed = commands.add_parser("closed", help="evaluate one closed form at a point")
    _add_spec_flags(closed)
    closed.add_argument("--identity", choices=list(IDENTITY_TABLE), required=True)
    closed.add_argument("--n", type=int, required=True)
    closed.add_argument("--r", type=int)
    closed.add_argument("--d", type=int)
    closed.add_argument("--i", type=int)
    closed.add_argument("--j", type=int)
    closed.set_defaults(handler=_cmd_closed)

    verify = commands.add_parser("verify", help="sweep a grid, print the JSON report")
    _add_spec_flags(verify)
    verify.add_argument("--identity", choices=IDENTITIES, required=True)
    verify.add_argument("--n", type=_parse_range, help="inclusive range lo..hi")
    verify.add_argument("--r", type=_parse_range, help="inclusive range lo..hi")
    verify.add_argument("--d", type=_parse_range, help="inclusive range lo..hi")
    verify.add_argument("--i", type=_parse_range, help="inclusive range lo..hi")
    verify.add_argument("--j", type=_parse_range, help="inclusive range lo..hi")
    # no defaults: a grid flag left out keeps GridSpec's default
    verify.add_argument("--oracle", choices=ORACLES)
    verify.add_argument("--seed", type=int, help="random grids only")
    verify.add_argument("--count", type=int, help="random grids only")
    verify.add_argument("--dim", type=int, help="random grids only")
    verify.add_argument("--bound", type=int, help="random grids only")
    verify.set_defaults(handler=_cmd_verify)

    bench = commands.add_parser("bench", help="operation-count/time CSV over a grid")
    _add_spec_flags(bench)
    bench.add_argument("--n", type=_parse_range, default=(1, 1), help="inclusive range lo..hi")
    bench.add_argument("--r", type=_parse_range, required=True, help="inclusive range lo..hi")
    bench.add_argument("--d", type=_parse_range, required=True, help="inclusive range lo..hi")
    bench.add_argument(
        "--algorithms",
        default="bareiss,condensation,closed",
        help="comma-separated subset of " + ",".join(_BENCH_ALGORITHMS),
    )
    bench.add_argument("--out", default="-", help="CSV path, - for stdout")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    spec = _spec_from_args(args)
    check_index(spec, "k", args.start)
    cache = SequenceCache(spec)
    for k in range(args.start, args.stop + 1):
        value = cache.rising_power(k, args.rising) if args.rising is not None else cache.term(k)
        print(f"{k}\t{value}")
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    check_index(spec, "n", args.n)
    matrix = build(spec, MatrixQuery(args.n, args.r, args.d, args.mode))
    report = _ALGORITHMS[args.algorithm](matrix)
    print(report.value)
    if args.stats:
        print(
            json.dumps(
                {
                    "value": str(report.value),
                    "algorithm": report.algorithm,
                    "mul_count": report.mul_count,
                    "div_count": report.div_count,
                    "fallback": report.fallback_used,
                }
            )
        )
    return 0


def _require(args: argparse.Namespace, takes: Sequence[str]) -> None:
    """Exactly the flags of the fields the identity's row takes."""
    passed = {name: [f"--{name}"] for name in _POINT_FLAGS if getattr(args, name) is not None}
    passed["spec"] = _given_spec_flags(args)
    passed["domain"] = ["--domain"] if args.domain != ring.INTEGER else []
    missing = [f"--{name}" for name in _POINT_FLAGS if name in takes and name not in passed]
    ignored = [flag for name, flags in passed.items() if name not in takes for flag in flags]
    for flags, verb in ((missing, "needs"), (ignored, "does not take")):
        if flags:
            raise ValueError(f"identity {args.identity} {verb} {', '.join(flags)}")


def _cmd_closed(args: argparse.Namespace) -> int:
    identity = IDENTITY_TABLE[args.identity]
    _require(args, identity.takes)
    spec = _spec_from_args(args)
    for axis in ("n", "i", "j"):
        if getattr(args, axis) is not None:
            check_index(spec, axis, getattr(args, axis))
    print(identity.rhs(spec, args.n, *(getattr(args, axis) for axis in identity.axes)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # only the typed flags: the defaults are GridSpec's
    typed = {f.name: getattr(args, f.name, None) for f in fields(GridSpec)}
    typed["spec"] = _spec_from_args(args) if _given_spec_flags(args) else None
    report = run_grid(GridSpec(**{name: value for name, value in typed.items() if value is not None}))
    print(report_json(report))
    return 0 if report.passed else 1


_BENCH_COLUMNS = ("algorithm", "domain", "n", "r", "d", "mul_count", "div_count", "fallback", "wall_ns")


def _check_bench(spec: RecurrenceSpec, n: Range, r: Range, d: Range, algorithms: Sequence[str]) -> None:
    """ValueError for any bench input the sweep cannot honour, before any
    file is opened or row timed."""
    if not algorithms:
        raise ValueError(f"no bench algorithm given; choose from {', '.join(_BENCH_ALGORITHMS)}")
    for name in algorithms:
        if name not in _BENCH_ALGORITHMS:
            raise ValueError(f"unknown bench algorithm {name!r}")
    if "cofactor" in algorithms:
        check_cofactor_dim(d[1])
    check_index(spec, "n", n[0])
    # the sweep's smallest query: d < 1 or r < 0 fails as its build would
    MatrixQuery(n[0], r[0], d[0])


def bench_rows(
    spec: RecurrenceSpec,
    n_range: Tuple[int, int],
    r_range: Tuple[int, int],
    d_range: Tuple[int, int],
    algorithms: Sequence[str],
) -> List[dict]:
    """One row per (algorithm, n, r, d), rising-power mode, sorted."""
    _check_bench(spec, n_range, r_range, d_range, algorithms)
    spans = (range(lo, hi + 1) for lo, hi in (n_range, r_range, d_range))
    rows = []
    for algorithm, n, r, d in product(sorted(set(algorithms)), *spans):
        if algorithm == "closed":
            # the value verify compares: the product form, or the rank
            # bound beyond the square case
            timed = partial(IDENTITY_TABLE["rank-zero" if d > r + 1 else "theorem2"].rhs, spec, n, r, d)
        else:
            # built here, outside the timer
            timed = partial(_ALGORITHMS[algorithm], build(spec, MatrixQuery(n, r, d, RISING)))
        with ring.count_ops() as counter:
            started = time.perf_counter_ns()
            result = timed()
            wall = time.perf_counter_ns() - started
        fallback = algorithm != "closed" and result.fallback_used
        values = (algorithm, spec.domain, n, r, d, counter.muls, counter.divs, "true" if fallback else "false", wall)
        rows.append(dict(zip(_BENCH_COLUMNS, values)))
    return rows


def write_bench_csv(rows: Sequence[dict], stream: io.TextIOBase) -> None:
    writer = csv.DictWriter(stream, fieldnames=_BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _cmd_bench(args: argparse.Namespace) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    spec = _spec_from_args(args)
    _check_bench(spec, args.n, args.r, args.d, algorithms)
    # opened before the sweep, so a path that cannot be written fails first
    with contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", newline="") as stream:
        write_bench_csv(bench_rows(spec, args.n, args.r, args.d, algorithms), stream)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_range_values(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (``| head``): point stdout at devnull so
        # the flush at interpreter exit cannot fail again, and exit as a
        # shell reports a writer killed by SIGPIPE (128 + 13), a code no
        # subcommand uses
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError, ArithmeticError, ring.DomainMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
