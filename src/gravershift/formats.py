"""Serialization: 4ti2-style matrices, JSON documents, CSV tables.

Every writer is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import math
from itertools import chain, groupby
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from .core import Piece, SegmentEndpoints, SemigroupInstance, Trade, TradeSet

if TYPE_CHECKING:  # analysis loads only for the commands that count, json for JSON
    import json
    from .analysis import CountTable


# Rows per block: a block's text and the pieces it is joined from stay a
# few MB whatever the listing's size.
BLOCK_ROWS = 2**16

_PLANE_ROWS = 256  # a plane takes up to 10*max|step| steps: it pays from 256*max|step| rows

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
    byte for byte as the %-format writes them.  The run is cut where a
    monotone column's sign or digit count changes.  A stretch of at least
    _PLANE_ROWS*max|step| rows is its first row repeated, then one strided
    assignment per changing digit, from the last until one holds still (so
    do those before it); the %-format writes shorter stretches."""
    row = "%d{}%d{}%d{}".format(*seps).encode()
    limit = _PLANE_ROWS * max(map(abs, step))
    out = bytearray()
    k = 0
    while k < count:
        xs = [v + k * h for v, h in zip(start, step)]
        n = min(count - k, *map(_width_rows, xs, step)) if count - k >= limit else count - k
        if n < limit:
            columns = (range(x, x + n * h, h) for x, h in zip(xs, step))
            out += (row * n) % tuple(chain.from_iterable(zip(*columns)))
        else:
            texts = [str(x) for x in xs]
            at = len(out) - 1  # + len(text): a column's last digit in the first row
            out += "".join(chain.from_iterable(zip(texts, seps))).encode() * n
            width = (len(out) - at - 1) // n
            for x, h, text, sep in zip(xs, step, texts, seps):
                u, g, unit, pos = abs(x), h if x >= 0 else -h, 1, at + len(text)
                while (u + (n - 1) * g) // unit != u // unit:
                    out[pos::width] = _plane(u, g, unit, n)
                    unit, pos = unit * 10, pos - 1
                at += len(text) + len(sep)
        k += n
    return out.decode("ascii")


def _width_rows(x: int, h: int) -> int:
    """Rows of x, x + h, ... before the printed width changes: |x| leaves
    [lo, hi] upwards when x moves away from 0, downwards when towards it."""
    d = len(str(abs(x)))
    lo, hi = 10 ** (d - 1) if d > 1 else int(x < 0), 10**d - 1
    return ((hi - abs(x)) if (x >= 0) == (h > 0) else (abs(x) - lo)) // abs(h) + 1


def _plane(u: int, g: int, unit: int, n: int) -> bytes:
    """The digits (y // unit) % 10 of y = u + j*g >= 0, j < n: one period of
    10*unit/gcd(g, 10*unit) rows, repeated, built one stretch of equal
    digits (about unit/|g| rows) at a time."""
    size = min(n, 10 * unit // math.gcd(g, 10 * unit))
    parts, j = [], 0
    while j < size:
        q = (u + j * g) // unit
        nxt = min(size, ((q + 1) * unit - u + g - 1) // g if g > 0 else (u - q * unit) // -g + 1)
        parts.append("0123456789"[q % 10] * (nxt - j))
        j = nxt
    period = "".join(parts).encode()
    return period * (n // size) + period[:n % size]


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
    import json  # only JSON output pays for its import

    encoder = json.JSONEncoder(indent=2)
    # each listing is ordered and checked before the first byte is written
    if [value.pieces for value in doc.values() if isinstance(value, TradeSet)]:
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
