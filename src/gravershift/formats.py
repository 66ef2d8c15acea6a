"""Serialization: 4ti2-style matrices, JSON documents, CSV tables.

Every writer is byte-deterministic for identical inputs; the 4ti2 matrix
format round-trips exactly.
"""

from __future__ import annotations

import json

from .analysis import CountTable
from .core import InvalidInputError, SemigroupInstance, Trade, TradeSet


def format_4ti2(trades: TradeSet) -> str:
    """Header "N 3", then one trade per line, space-separated, trailing newline.

    Rows keep the TradeSet order (ascending lexicographic on (v2, v1, v0)).
    """
    lines = [f"{len(trades)} 3"]
    lines.extend(f"{x} {y} {z}" for x, y, z in trades)
    return "\n".join(lines) + "\n"


def parse_4ti2(text: str) -> list[Trade]:
    """Inverse of format_4ti2; validates the header against the row count."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InvalidInputError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or header[1] != "3":
        raise InvalidInputError(f"expected header 'N 3', got {lines[0]!r}")
    (n,) = _integers(header[:1], lines[0])
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise InvalidInputError(f"expected 3 integers per row, got {line!r}")
        rows.append(_integers(parts, line))
    if len(rows) != n:
        raise InvalidInputError(f"header says {n} rows, found {len(rows)}")
    return rows


def _integers(parts: list[str], line: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidInputError(f"expected integers, got {line!r}") from None


def format_trades_csv(trades: TradeSet) -> str:
    lines = ["v0,v1,v2"]
    lines.extend(f"{x},{y},{z}" for x, y, z in trades)
    return "\n".join(lines) + "\n"


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
    doc["trades"] = [list(v) for v in trades]
    doc["count"] = len(trades)
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def format_count_csv(table: CountTable) -> str:
    lines = ["t,graver,h_pnp,h_ppn,h_npp,method"]
    lines.extend(
        f"{r.t},{r.graver},{r.h_pnp},{r.h_ppn},{r.h_npp},{r.method}" for r in table.rows
    )
    return "\n".join(lines) + "\n"
