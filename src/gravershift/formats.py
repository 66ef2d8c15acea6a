"""Serialization: 4ti2-style matrices, JSON documents, CSV tables.

Every writer is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import math
from itertools import chain, groupby
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from .core import Piece, SegmentEndpoints, SemigroupInstance, Trade, TradeSet

if TYPE_CHECKING:  # analysis loads only for the commands that count
    from .analysis import CountTable


# Rows per block: a block's text and the pieces it is joined from stay a
# few MB whatever the listing's size.
BLOCK_ROWS = 2**16

# A run's numbers are written in two parts split at the last three digits
# (_M = 10^3): the head (sign and leading digits) holds still for about
# _M/|step| rows at a time, and the tail repeats with period at most _M.
_M = 1000

# Row layouts: the text after each of a row's three numbers.
_SEPS_4TI2 = (" ", " ", "\n")
_SEPS_CSV = (",", ",", "\n")
# json.dumps(indent=2) writes a top-level key's array of trades as
# "[\n    [\n      x,\n      y,\n      z\n    ],\n    [\n ...\n    ]\n  ]",
# so each row ends with the text that opens the next one.
_SEPS_JSON = (",\n      ", ",\n      ", "\n    ],\n    [\n      ")


def format_4ti2(trades: TradeSet, out: TextIO | None = None) -> str | None:
    """Header "N 3", then one trade per line, space-separated, trailing newline.

    Rows keep the TradeSet order (ascending lexicographic on (v2, v1, v0)).
    Returns the text, or writes it to `out` block by block and returns None.
    """
    return _write(f"{len(trades)} 3\n", _blocks(trades.pieces, _SEPS_4TI2), out)


def format_trades_csv(trades: TradeSet, out: TextIO | None = None) -> str | None:
    """Header "v0,v1,v2", then one comma-separated trade per line; the text,
    or None after writing it to `out` block by block."""
    return _write("v0,v1,v2\n", _blocks(trades.pieces, _SEPS_CSV), out)


def _write(header: str, blocks: Iterator[str], out: TextIO | None) -> str | None:
    if out is None:
        return "".join(chain((header,), blocks))
    out.write(header)
    out.writelines(blocks)
    return None


def _blocks(pieces: Iterable[Piece], seps: tuple[str, str, str]) -> Iterator[str]:
    """The rows "x seps[0] y seps[1] z seps[2]" of the members in order, in
    blocks of at most BLOCK_ROWS: a run's blocks from its arithmetic, so no
    run is written out; consecutive single trades by one batched %-format."""
    row = "%d{}%d{}%d{}".format(*seps)
    for is_run, group in groupby(pieces, key=lambda p: isinstance(p, SegmentEndpoints)):
        if is_run:
            for run in group:
                for lo in range(0, run.count, BLOCK_ROWS):
                    yield _run_text(run[lo], run.step, min(BLOCK_ROWS, run.count - lo), seps)
        else:
            single = list(group)
            for lo in range(0, len(single), BLOCK_ROWS):
                block = single[lo:lo + BLOCK_ROWS]
                yield (row * len(block)) % tuple(chain.from_iterable(block))


def _run_text(start: Trade, step: Trade, count: int, seps: tuple[str, str, str]) -> str:
    """The rows "x seps[0] y seps[1] z seps[2]" of start + k*step, k < count,
    byte for byte as the %-format writes them, with no int made per row:
    each column's heads and tails are interleaved and joined once."""
    pieces = [""] * (6 * count)
    for c in range(3):
        pieces[2 * c::6], pieces[2 * c + 1::6] = _column(start[c], step[c], count, seps[c])
    return "".join(pieces)


def _column(v: int, h: int, n: int, sep: str) -> tuple[list[str], list[str]]:
    """Heads and tails with head + tail == f"{x}{sep}" for x = v + k*h, k < n,
    and h != 0 (a run's step has no zero entry).

    The column is split where |x| crosses _M: a stretch of |x| >= _M is
    written by _digits with its sign, and the at most 2*_M/|h| rows between
    two such stretches are written whole as heads, with sep as their tails.
    """
    heads: list[str] = []
    tails: list[str] = []
    k = 0
    while k < n:
        x = v + k * h
        if x >= _M:  # rows until x falls below _M
            m = n - k if h > 0 else min(n - k, (x - _M) // -h + 1)
            _digits(heads, tails, "", x, h, m, sep)
        elif x <= -_M:  # rows until x rises above -_M
            m = n - k if h < 0 else min(n - k, (-_M - x) // h + 1)
            _digits(heads, tails, "-", -x, -h, m, sep)
        else:  # rows until |x| reaches _M
            m = min(n - k, (_M - x + h - 1) // h if h > 0 else (_M + x - h - 1) // -h)
            heads += map(str, range(x, x + m * h, h))
            tails += [sep] * m
        k += m
    return heads, tails


def _digits(heads: list[str], tails: list[str], sign: str, u: int, g: int, m: int,
            sep: str) -> None:
    """Append heads sign + str(y // _M) and tails f"{y % _M:03d}{sep}" for
    y = u + j*g, j < m, every y >= _M: the tails are one period of y % _M,
    repeated, and each stretch of rows with the same y // _M gets its head
    by one list repetition."""
    period = min(m, _M // math.gcd(g, _M))
    cycle = [f"{(u + j * g) % _M:03d}{sep}" for j in range(period)]
    tails += cycle * (m // period)
    tails += cycle[:m % period]
    j = 0
    while j < m:
        q = (u + j * g) // _M
        nxt = min(m, ((q + 1) * _M - u + g - 1) // g if g > 0 else (u - q * _M) // -g + 1)
        heads += [f"{sign}{q}"] * (nxt - j)
        j = nxt


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
    """The envelope, extra, the trades and their count; dump_json writes
    the TradeSet as an array of [v0, v1, v2] arrays, block by block."""
    doc = instance_document(inst, method)
    doc.update(extra)
    doc["trades"] = trades
    doc["count"] = len(trades)
    return doc


def dump_json(doc: dict, out: TextIO) -> None:
    """Write doc as json.dumps(doc, indent=2) writes it, and a final newline,
    chunk by chunk as it is encoded, so the text is never held whole.  A
    TradeSet value is written as the list of its trades would be."""
    encoder = json.JSONEncoder(indent=2)
    if any(isinstance(value, TradeSet) for value in doc.values()):
        out.writelines(_json_chunks(doc, encoder))
    else:  # one iterencode, without a Python step per chunk
        out.writelines(encoder.iterencode(doc))
    out.write("\n")


def _json_chunks(doc: dict, encoder: json.JSONEncoder) -> Iterator[str]:
    """The top-level object key by key, each TradeSet from its pieces;
    iterencode writes the other values one level less indented than they
    sit here, and JSON text has no newline but its indentation, so each
    newline gets two more spaces."""
    sep = "{"
    for key, value in doc.items():
        yield f"{sep}\n  {encoder.encode(key)}: "
        sep = ","
        if isinstance(value, TradeSet):
            yield from _json_trades(value)
        else:
            for chunk in encoder.iterencode(value):
                yield chunk.replace("\n", "\n  ")
    yield "\n}"


def _json_trades(trades: TradeSet) -> Iterator[str]:
    """The trades array, its rows in blocks; every row ends with the text
    that opens the next, so the last member is split off and closes it."""
    if not trades.pieces:
        yield "[]"
        return
    *pieces, last = trades.pieces
    if isinstance(last, SegmentEndpoints):
        if last.count > 1:
            pieces.append(last.part(0, last.count - 1))
        last = last.end
    yield "[\n    [\n      "
    yield from _blocks(pieces, _SEPS_JSON)
    yield "%d,\n      %d,\n      %d\n    ]\n  ]" % last


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
