"""Outside-in tracing: span wrappers rebound over the program's module-level
names, and their aggregation into per-layer metrics.

Nothing in the program changes.  The wrappers replace names in the modules
that call them (`gravershift.shift.hilbert_oracle`, ...), so a call from one
layer into another is recorded with the span that caused it.  Spans are kept
in memory and written out once, after the batch.
"""

from __future__ import annotations

import importlib
import json
import tracemalloc
from pathlib import Path
from time import perf_counter

# module -> names it calls into other layers (or into itself, for the shift
# engine's own stages).  Rebinding a name only affects callers that look it
# up in that module, which is every internal call here.
REBIND = {
    "gravershift.shift": (
        "hilbert_oracle", "graver_oracle", "positive_segment", "negative_segment",
        "assemble_graver", "hilbert_shift",
    ),
    "gravershift.analysis": ("hilbert_shift", "graver_shift", "hilbert_oracle", "graver_oracle"),
    "gravershift.cli": ("graver_oracle", "hilbert_oracle", "graver_shift", "hilbert_shift"),
    "gravershift.formats": (
        "format_4ti2", "format_trades_csv", "format_count_csv", "dump_json",
        "trades_document", "instance_document",
    ),
}

# Public entry points the benchmark itself calls; the span names are
# "<layer>.<function>".
ENTRY = {
    "cli.main": ("gravershift.cli", "main"),
    "shift.graver_shift": ("gravershift.shift", "graver_shift"),
    "oracle.graver_oracle": ("gravershift.oracle", "graver_oracle"),
    "formats.format_4ti2": ("gravershift.formats", "format_4ti2"),
    "analysis.verify_period_law": ("gravershift.analysis", "verify_period_law"),
}

ORACLE = ("oracle.graver_oracle", "oracle.hilbert_oracle")
SHIFT_ENTRY = ("shift.graver_shift", "shift.hilbert_shift")


def plain_api() -> dict:
    return {name: getattr(importlib.import_module(mod), fn) for name, (mod, fn) in ENTRY.items()}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records [name, parent, start, end, size, instance] per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def wrap(self, fn, name: str | None = None):
        name = name or _span_name(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            inst = args[0] if name in ORACLE else None
            key = (inst.family.a, inst.family.b, inst.family.d, inst.t) if inst else None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, key]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = start
                stack.pop()
            span[4] = _size(out)
            return out

        return traced

    def install(self) -> dict:
        """Rebind every REBIND name and return the wrapped entry points."""
        entry = plain_api()
        for mod_name, names in REBIND.items():
            mod = importlib.import_module(mod_name)
            for attr in names:
                setattr(mod, attr, self.wrap(getattr(mod, attr)))
        return {name: self.wrap(fn, name) for name, fn in entry.items()}

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def layers(self) -> dict:
        """Per-layer metrics of one traced batch (times in seconds)."""
        own = self.self_times()
        spans = self.spans

        def total(pred) -> float:
            return sum(t for s, t in zip(spans, own) if pred(s))

        def parent_name(s) -> str:
            return spans[s[1]][0] if s[1] >= 0 else ""

        shift_calls = sum(1 for s in spans if s[0] == "shift.hilbert_shift")
        rows = sum(s[4] or 0 for s in spans if s[0] == "analysis.verify_period_law")
        return {
            "formats.serialize_s": total(lambda s: s[0].startswith("formats.")),
            "formats.bytes": sum(
                s[4] or 0 for s in spans
                if s[0] in ("formats.format_4ti2", "formats.format_trades_csv",
                            "formats.format_count_csv", "formats.dump_json")
            ),
            "shift.transport_s": total(lambda s: s[0] == "shift.hilbert_shift"),
            "shift.segment_s": total(lambda s: s[0] in ("shift.positive_segment", "shift.negative_segment")),
            "shift.assemble_s": total(lambda s: s[0] == "shift.assemble_graver"),
            "shift.base_oracle_s": total(
                lambda s: s[0] in ORACLE and parent_name(s).startswith("shift.")
            ),
            "shift.trades": sum(
                s[4] or 0 for s in spans
                if s[0] in SHIFT_ENTRY and not parent_name(s).startswith("shift.")
            ),
            "analysis.rows": rows,
            "analysis.shift_calls_per_row": shift_calls / rows if rows else 0.0,
            "oracle.graver_s": total(lambda s: s[0] == "oracle.graver_oracle"),
            "oracle.hilbert_s": total(lambda s: s[0] == "oracle.hilbert_oracle"),
            "oracle.calls": sum(1 for s in spans if s[0] in ORACLE),
        }

    def oracle_instances(self) -> list:
        return sorted({tuple(s[5]) for s in self.spans if s[5] is not None})

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def _size(out) -> int | None:
    """Trades in a TradeSet, bytes in a text, rows in a report."""
    if isinstance(out, str):
        return len(out.encode())
    rows = getattr(out, "rows", None)
    if rows is not None:
        return len(rows)
    try:
        return len(out)
    except TypeError:
        return None


class AllocMeter:
    """Peak tracemalloc allocation inside each outermost shift-layer call."""

    def __init__(self) -> None:
        self.peak = 0
        self._depth = 0
        self.active = True

    def wrap(self, fn):
        def metered(*args, **kwargs):
            if self._depth or not self.active:
                return fn(*args, **kwargs)
            self._depth += 1
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)
                self._depth -= 1

        return metered

    def install(self) -> dict:
        api = plain_api()
        for mod_name in ("gravershift.analysis", "gravershift.cli"):
            mod = importlib.import_module(mod_name)
            for attr in ("graver_shift", "hilbert_shift"):
                setattr(mod, attr, self.wrap(getattr(mod, attr)))
        api["shift.graver_shift"] = self.wrap(api["shift.graver_shift"])
        tracemalloc.start()
        return api
