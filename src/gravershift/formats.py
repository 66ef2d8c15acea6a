"""Serialization: 4ti2-style matrices, JSON documents, CSV tables.

Every writer is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
from itertools import chain, groupby
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from .core import Piece, SegmentEndpoints, SemigroupInstance, Trade, TradeSet

if TYPE_CHECKING:  # analysis loads only for the commands that count
    from .analysis import CountTable


# Rows per batched %-format: a block's text and its argument tuple stay a
# few MB whatever the listing's size.
BLOCK_ROWS = 2**16


def format_4ti2(trades: TradeSet, out: TextIO | None = None) -> str | None:
    """Header "N 3", then one trade per line, space-separated, trailing newline.

    Rows keep the TradeSet order (ascending lexicographic on (v2, v1, v0)).
    Returns the text, or writes it to `out` block by block and returns None.
    """
    return _write(_blocks(f"{len(trades)} 3", trades, " "), out)


def format_trades_csv(trades: TradeSet, out: TextIO | None = None) -> str | None:
    """Header "v0,v1,v2", then one comma-separated trade per line; the text,
    or None after writing it to `out` block by block."""
    return _write(_blocks("v0,v1,v2", trades, ","), out)


def _write(blocks: Iterator[str], out: TextIO | None) -> str | None:
    if out is None:
        return "".join(blocks)
    out.writelines(blocks)
    return None


def _blocks(header: str, trades: TradeSet, sep: str) -> Iterator[str]:
    """Header line, then one line per trade with its coordinates joined by
    sep, each block of rows written by one batched %-format."""
    row = f"%d{sep}%d{sep}%d\n"
    yield f"{header}\n"
    for n, members in _chunks(trades.pieces):
        yield (row * n) % tuple(chain.from_iterable(members))


def _chunks(pieces: Iterable[Piece]) -> Iterator[tuple[int, Iterable[Trade]]]:
    """The members in order, in blocks of at most BLOCK_ROWS, each with its
    size: a run's blocks zip slices of its three coordinate ranges, so no
    run is written out; consecutive single trades make blocks of their own."""
    for is_run, group in groupby(pieces, key=lambda p: isinstance(p, SegmentEndpoints)):
        if is_run:
            for run in group:
                ranges = run.ranges()
                for lo in range(0, run.count, BLOCK_ROWS):
                    n = min(BLOCK_ROWS, run.count - lo)
                    yield n, zip(*(r[lo:lo + n] for r in ranges))
        else:
            single = list(group)
            for lo in range(0, len(single), BLOCK_ROWS):
                block = single[lo:lo + BLOCK_ROWS]
                yield len(block), block


def instance_document(inst: SemigroupInstance, method: str) -> dict:
    """Common JSON envelope: parameters, period, thresholds, method used."""
    fam = inst.family
    return {
        "generators": list(inst.generators),
        "t": inst.t,
        "a": fam.a,
        "b": fam.b,
        "d": fam.d,
        "rho": fam.rho,
        "bounds": {
            "plus": fam.b_plus,
            "plusMinus": fam.b_plus_minus,
            "minus": fam.b_minus,
            "max": fam.b_max,
        },
        "method": method,
    }


def trades_document(inst: SemigroupInstance, method: str, trades: TradeSet, **extra) -> dict:
    doc = instance_document(inst, method)
    doc.update(extra)
    doc["trades"] = trades.trades  # tuples encode as arrays
    doc["count"] = len(trades)
    return doc


def dump_json(doc: dict, out: TextIO) -> None:
    """Write doc as indented JSON and a final newline, chunk by chunk as it
    is encoded, so the text is never held whole."""
    out.writelines(json.JSONEncoder(indent=2).iterencode(doc))
    out.write("\n")


def format_csv(header: str, rows: Iterable[Sequence]) -> str:
    """Header line, then one comma-joined line per row; booleans as true/false."""
    lines = [header]
    lines.extend(
        ",".join(str(x).lower() if isinstance(x, bool) else str(x) for x in row) for row in rows
    )
    return "\n".join(lines) + "\n"


def format_count_csv(table: CountTable) -> str:
    return format_csv(
        "t,graver,h_pnp,h_ppn,h_npp,method",
        ((r.t, r.graver, r.h_pnp, r.h_ppn, r.h_npp, r.method) for r in table.rows),
    )
