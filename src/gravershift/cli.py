"""Command-line front end.

Subcommands: params, graver, hilbert, count, verify, scan-bounds, augment,
difftest.  Exit codes: 0 success, 1 invalid input, 2 internal-consistency
failure, 3 verification mismatch.  All behavior is controlled by flags; no
configuration files or environment variables are consulted, and identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import Callable, Iterator, TextIO

from . import formats
from .core import (
    InternalConsistencyError,
    InvalidInputError,
    OrthantLabel,
    SemigroupInstance,
    ShiftedFamily,
    TradeSet,
    from_generators,
)
from .oracle import graver_oracle, hilbert_oracle, iter_factorizations
from .shift import (
    auto_oracle_bound,
    base_decomposition,
    effective_base_bound,
    graver_shift,
    hilbert_shift,
)

# graver, hilbert and params never load the counting layer: analysis is
# imported inside the subcommands that use it, and fractions by _values

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise InvalidInputError(message)


def _values(n: int, kind: str, sep: str = ",") -> Callable[[str], tuple]:
    """The type of a flag whose value is n numbers of one kind, "integer" or
    "rational", split by sep; fractions loads only when a rational is parsed."""

    def parse(text: str) -> tuple:
        if kind == "rational":
            from fractions import Fraction as convert
        else:
            convert = int
        parts = text.split(sep)
        try:
            if len(parts) == n:
                return tuple(map(convert, parts))
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected {n} {kind}s separated by {sep!r}, got {text!r}")

    return parse


@contextlib.contextmanager
def _opened(output: str | None) -> Iterator[TextIO]:
    """stdout, or the --output file; opened before anything is written, so
    a path that cannot be written exits 1 with no output.  A write to
    either that fails exits 1 with one error line."""
    try:
        with contextlib.nullcontext(sys.stdout) if output is None else open(
            output, "w", encoding="utf-8", newline=""
        ) as fh:
            yield fh
            fh.flush()  # so a buffered write fails here, not at exit
    except OSError as exc:
        if output is None:  # what stays buffered goes nowhere, so the flush at exit succeeds
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        where = "stdout" if output is None else f"--output {output!r}"
        raise InvalidInputError(f"cannot write {where}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    with _opened(output) as fh:
        fh.write(text)


def _emit_json(doc: dict, output: str | None) -> None:
    with _opened(output) as fh:
        formats.dump_json(doc, fh)


def _resolve_method(inst: SemigroupInstance, method: str) -> str:
    if method == "auto":
        return "oracle" if inst.t <= auto_oracle_bound(inst.family) else "shift"
    return method


def cmd_params(args: argparse.Namespace) -> int:
    inst = from_generators(*args.gens)
    fam = inst.family
    base, k = base_decomposition(inst)
    h = fam.homogeneous_trade
    lines = [
        f"generators={inst.generators[0]},{inst.generators[1]},{inst.generators[2]}",
        f"t={inst.t}",
        f"a={fam.a}",
        f"b={fam.b}",
        f"d={fam.d}",
        f"rho={fam.rho}",
        f"b_plus={fam.b_plus}",
        f"b_plus_minus={fam.b_plus_minus}",
        f"b_minus={fam.b_minus}",
        f"b_max={fam.b_max}",
        f"effective_base_bound={effective_base_bound(fam)}",
        f"h={h[0]},{h[1]},{h[2]}",
        f"t0={base.t}",
        f"k={k}",
    ]
    if inst.t <= effective_base_bound(fam):
        lines.append("note=base case (t is at or below the transport threshold)")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _emit_trades(
    args: argparse.Namespace, inst: SemigroupInstance, method: str, trades: TradeSet, **extra
) -> None:
    trades.pieces  # noqa: B018 - ordered and checked before any output is opened
    if args.format == "json":
        _emit_json(formats.trades_document(inst, method, trades, **extra), args.output)
        return
    # looked up at call time, so a traced run sees the writing as serialization
    write = formats.format_4ti2 if args.format == "4ti2" else formats.format_trades_csv
    with _opened(args.output) as fh:
        write(trades, fh)


def cmd_graver(args: argparse.Namespace) -> int:
    inst = from_generators(*args.gens)
    method = _resolve_method(inst, args.method)
    trades = graver_shift(inst) if method == "shift" else graver_oracle(inst)
    if args.both_signs:
        trades = trades.with_negations()
    _emit_trades(args, inst, method, trades)
    return EXIT_OK


def cmd_hilbert(args: argparse.Namespace) -> int:
    inst = from_generators(*args.gens)
    orthant = OrthantLabel(args.orthant)
    method = _resolve_method(inst, args.method)
    basis = hilbert_shift(inst, orthant) if method == "shift" else hilbert_oracle(inst, orthant)
    _emit_trades(args, inst, method, basis, orthant=orthant.value)
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    from . import analysis

    fam = ShiftedFamily(*args.family)
    table = analysis.count_scan(fam, *args.t_range, args.method)
    if args.format == "json":
        doc = {
            "family": {"a": fam.a, "b": fam.b, "d": fam.d},
            "rows": [dataclasses.asdict(r) for r in table.rows],
        }
        _emit_json(doc, args.output)
    else:
        _emit(formats.format_count_csv(table), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import analysis

    fam = ShiftedFamily(*args.family)
    report = analysis.verify_period_law(fam, *args.t_range, method=args.method)
    table = formats.format_csv(
        "t,graver_increment,pnp_increment,ppn_increment,npp_increment,ok",
        map(dataclasses.astuple, report.rows),
    )
    note = (
        f"# expected graver increment {report.expected_increment} per period "
        f"{fam.rho}; leading coefficient {report.leading_coefficient}\n"
    )
    _emit(table + note, args.output)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_scan_bounds(args: argparse.Namespace) -> int:
    from . import analysis

    fam = ShiftedFamily(*args.family)
    report = analysis.empirical_bounds(fam, args.t_max)
    doc = {
        "family": {"a": fam.a, "b": fam.b, "d": fam.d},
        "t_max": args.t_max,
        "formula": {"plus": fam.b_plus, "plusMinus": fam.b_plus_minus, "minus": fam.b_minus},
        "empirical": {
            "last_without_ppn_trade": report.last_without_ppn_trade,
            "last_reducible_homogeneous": report.last_reducible_homogeneous,
            "last_without_npp_trade": report.last_without_npp_trade,
        },
        "homogeneous_reducible_at_dab": report.homogeneous_reducible_at_dab,
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def cmd_augment(args: argparse.Namespace) -> int:
    from . import analysis

    inst = from_generators(*args.gens)
    start, element, weights = args.start, args.element, args.objective
    if (element is None) == (start is None):
        raise InvalidInputError("provide exactly one of --element or --start")
    if start is None:
        start = next(iter_factorizations(inst, element), None)
        if start is None:
            raise InvalidInputError(f"{element} is not in the semigroup {inst.generators}")
    else:  # analysis.augment refuses a negative start
        element = inst.evaluate(start)
    result = analysis.augment(inst, start, weights, args.sense)
    value = analysis.objective_value(weights, result)
    doc = formats.instance_document(inst, "augment")
    doc.update(
        {
            "element": element,
            "start": list(start),
            "objective": [str(c) for c in weights],
            "sense": args.sense,
            "result": list(result),
            "value": str(value),
        }
    )
    _emit_json(doc, args.output)
    return EXIT_OK


def cmd_difftest(args: argparse.Namespace) -> int:
    from . import analysis

    if args.periods < 1:
        raise InvalidInputError(f"--periods must be at least 1, got {args.periods}")
    families = [ShiftedFamily(*abc) for abc in args.family]
    report = analysis.differential_test(families, args.periods)
    table = formats.format_csv(
        "a,b,d,t,fast,oracle,equal",
        (
            (r.family.a, r.family.b, r.family.d, r.t, r.fast_count, r.oracle_count, r.equal)
            for r in report.rows
        ),
    )
    _emit(table, args.output)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


# Flags that several subcommands share, each written once: (flag, add_argument keywords).
_TRIPLE = _values(3, "integer")
_GENS = ("--gens", dict(required=True, type=_TRIPLE, help="n1,n2,n3"))
_FAMILY = ("--family", dict(required=True, type=_TRIPLE, help="a,b,d"))
_T_RANGE = ("--t-range", dict(required=True, type=_values(2, "integer", ".."), help="lo..hi"))
_LISTING = (
    ("--method", dict(choices=["auto", "oracle", "shift"], default="auto")),
    ("--format", dict(choices=["4ti2", "json", "csv"], default="4ti2")),
)

# (subcommand, handler, help, flags); build_parser adds --output to each.
_COMMANDS = (
    ("params", cmd_params, "derived parameters and base decomposition", (_GENS,)),
    ("graver", cmd_graver, "Graver basis of one instance", (
        _GENS, *_LISTING, ("--both-signs", dict(
            action="store_true", help="list every trade and its negation instead of one per pair"
        )),
    )),
    ("hilbert", cmd_hilbert, "Hilbert basis of one orthant", (
        _GENS, ("--orthant", dict(choices=["pnp", "ppn", "npp"], required=True)), *_LISTING,
    )),
    ("count", cmd_count, "count table over a shift range", (
        _FAMILY, _T_RANGE, ("--method", dict(choices=["auto", "oracle", "fast"], default="oracle")),
        ("--format", dict(choices=["csv", "json"], default="csv")),
    )),
    ("verify", cmd_verify, "check the one-period count increments", (
        _FAMILY, _T_RANGE, ("--method", dict(
            choices=["oracle", "fast", "auto"], default="oracle",
            help="auto is the same as fast: verify checks only shifts above b_max,"
                 " where auto takes the fast route",
        )),
    )),
    ("scan-bounds", cmd_scan_bounds, "empirical sharpness of the thresholds", (
        _FAMILY, ("--t-max", dict(type=int, required=True)),
    )),
    ("augment", cmd_augment, "optimize a linear objective over factorizations", (
        _GENS,
        ("--element", dict(type=int, help="element whose factorizations to search")),
        ("--start", dict(type=_TRIPLE, help="starting factorization z0,z1,z2")),
        ("--objective", dict(
            required=True, type=_values(3, "rational"), help="c0,c1,c2 (exact rationals)"
        )),
        ("--sense", dict(choices=["min", "max"], default="min")),
    )),
    ("difftest", cmd_difftest, "transported vs oracle Graver bases", (
        ("--family", {**_FAMILY[1], "action": "append", "help": "a,b,d (repeatable)"}),
        ("--periods", dict(type=int, default=1, help="periods above b_max to compare; the"
                           " first is the base case, so transport is compared from 2 on")),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gravershift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.add_argument("--output", help="write to this path instead of stdout")
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
