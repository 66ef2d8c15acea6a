"""Serialization: 4ti2-style matrices, JSON documents, CSV tables.

Every writer is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

from .core import SemigroupInstance, TradeSet

if TYPE_CHECKING:  # analysis loads only for the commands that count
    from .analysis import CountTable


def format_4ti2(trades: TradeSet) -> str:
    """Header "N 3", then one trade per line, space-separated, trailing newline.

    Rows keep the TradeSet order (ascending lexicographic on (v2, v1, v0)).
    """
    return _rows(f"{len(trades)} 3", trades, " ")


def format_trades_csv(trades: TradeSet) -> str:
    return _rows("v0,v1,v2", trades, ",")


def _rows(header: str, trades: TradeSet, sep: str) -> str:
    """Header line, then one line per trade with its coordinates joined by
    sep, all rows written by one batched %-format."""
    row = f"%d{sep}%d{sep}%d\n"
    return f"{header}\n" + (row * len(trades)) % tuple(chain.from_iterable(trades))


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
