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
import sys
from typing import TYPE_CHECKING, Iterator, TextIO

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

# graver, hilbert and params never load the counting layer: analysis and
# fractions are imported inside the subcommands that use them
if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VERIFICATION = 3


class CliError(InvalidInputError):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliError(message)


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"{flag} expects three comma-separated integers, got {text!r}")
    try:
        x, y, z = (int(p) for p in parts)
    except ValueError:
        raise CliError(f"{flag} expects integers, got {text!r}") from None
    return (x, y, z)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CliError(f"--t-range expects lo..hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CliError(f"--t-range expects integers, got {text!r}") from None


def _parse_weights(text: str) -> tuple[Fraction, Fraction, Fraction]:
    from fractions import Fraction

    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"--objective expects three comma-separated rationals, got {text!r}")
    try:
        w = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--objective expects rationals like 1, -2, 1/3; got {text!r}") from None
    return w  # type: ignore[return-value]


@contextlib.contextmanager
def _opened(output: str | None) -> Iterator[TextIO]:
    """stdout, or the --output file; opened before anything is written, so
    a path that cannot be written exits 1 with no output."""
    if output is None:
        yield sys.stdout
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write --output {output!r}: {exc.strerror or exc}") from None


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
    inst = from_generators(*_parse_triple(args.gens, "--gens"))
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
    if k == 0:
        lines.append("note=base case (t is at or below the transport threshold)")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _emit_trades(
    args: argparse.Namespace, inst: SemigroupInstance, method: str, trades: TradeSet, **extra
) -> None:
    if args.format == "json":
        _emit_json(formats.trades_document(inst, method, trades, **extra), args.output)
        return
    # looked up at call time, so a traced run sees the writing as serialization
    write = formats.format_4ti2 if args.format == "4ti2" else formats.format_trades_csv
    with _opened(args.output) as fh:
        write(trades, fh)


def cmd_graver(args: argparse.Namespace) -> int:
    inst = from_generators(*_parse_triple(args.gens, "--gens"))
    method = _resolve_method(inst, args.method)
    trades = graver_shift(inst) if method == "shift" else graver_oracle(inst)
    if args.both_signs:
        trades = trades.with_negations()
    _emit_trades(args, inst, method, trades)
    return EXIT_OK


def cmd_hilbert(args: argparse.Namespace) -> int:
    inst = from_generators(*_parse_triple(args.gens, "--gens"))
    orthant = OrthantLabel(args.orthant)
    method = _resolve_method(inst, args.method)
    if method == "shift":
        basis = hilbert_shift(inst, orthant).materialize()
    else:
        basis = hilbert_oracle(inst, orthant)
    _emit_trades(args, inst, method, basis, orthant=orthant.value)
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    from . import analysis

    fam = ShiftedFamily(*_parse_triple(args.family, "--family"))
    t_lo, t_hi = _parse_range(args.t_range)
    table = analysis.count_scan(fam, t_lo, t_hi, args.method)
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

    fam = ShiftedFamily(*_parse_triple(args.family, "--family"))
    t_lo, t_hi = _parse_range(args.t_range)
    report = analysis.verify_period_law(fam, t_lo, t_hi, method=args.method)
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

    fam = ShiftedFamily(*_parse_triple(args.family, "--family"))
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

    inst = from_generators(*_parse_triple(args.gens, "--gens"))
    weights = _parse_weights(args.objective)
    if (args.element is None) == (args.start is None):
        raise CliError("provide exactly one of --element or --start")
    if args.start is not None:
        start = _parse_triple(args.start, "--start")
        if any(z < 0 for z in start):
            raise CliError(f"--start must be non-negative, got {start}")
        element = inst.evaluate(start)
    else:
        element = args.element
        start = next(iter_factorizations(inst, element), None)
        if start is None:
            raise CliError(f"{element} is not in the semigroup {inst.generators}")
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

    families = [ShiftedFamily(*_parse_triple(text, "--family")) for text in args.family]
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gravershift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("params", help="derived parameters and base decomposition")
    p.add_argument("--gens", required=True, help="n1,n2,n3")
    add_output(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("graver", help="Graver basis of one instance")
    p.add_argument("--gens", required=True, help="n1,n2,n3")
    p.add_argument("--method", choices=["auto", "oracle", "shift"], default="auto")
    p.add_argument("--format", choices=["4ti2", "json", "csv"], default="4ti2")
    p.add_argument(
        "--both-signs",
        action="store_true",
        help="list every trade and its negation instead of one per pair",
    )
    add_output(p)
    p.set_defaults(func=cmd_graver)

    p = sub.add_parser("hilbert", help="Hilbert basis of one orthant")
    p.add_argument("--gens", required=True, help="n1,n2,n3")
    p.add_argument("--orthant", choices=["pnp", "ppn", "npp"], required=True)
    p.add_argument("--method", choices=["auto", "oracle", "shift"], default="auto")
    p.add_argument("--format", choices=["4ti2", "json", "csv"], default="4ti2")
    add_output(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("count", help="count table over a shift range")
    p.add_argument("--family", required=True, help="a,b,d")
    p.add_argument("--t-range", required=True, help="lo..hi")
    p.add_argument("--method", choices=["auto", "oracle", "fast"], default="oracle")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_output(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="check the one-period count increments")
    p.add_argument("--family", required=True, help="a,b,d")
    p.add_argument("--t-range", required=True, help="lo..hi")
    p.add_argument("--method", choices=["oracle", "fast", "auto"], default="oracle")
    add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-bounds", help="empirical sharpness of the thresholds")
    p.add_argument("--family", required=True, help="a,b,d")
    p.add_argument("--t-max", type=int, required=True)
    add_output(p)
    p.set_defaults(func=cmd_scan_bounds)

    p = sub.add_parser("augment", help="optimize a linear objective over factorizations")
    p.add_argument("--gens", required=True, help="n1,n2,n3")
    p.add_argument("--element", type=int, help="element whose factorizations to search")
    p.add_argument("--start", help="starting factorization z0,z1,z2")
    p.add_argument("--objective", required=True, help="c0,c1,c2 (exact rationals)")
    p.add_argument("--sense", choices=["min", "max"], default="min")
    add_output(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("difftest", help="transported vs oracle Graver bases")
    p.add_argument(
        "--family", action="append", required=True, help="a,b,d (repeatable)"
    )
    p.add_argument("--periods", type=int, default=1)
    add_output(p)
    p.set_defaults(func=cmd_difftest)

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
