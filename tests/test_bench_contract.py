"""What the benchmark reads of the program must stay where it reads it.

perfbench/spans.py lists, per module, the names its tracer replaces with
timing wrappers (REBIND) and the entry points it calls (ENTRY).  A name
that leaves its module would break `perfbench/run.py --trace 1` without
failing any other test.  perfbench/workloads.py also checks and corrupts
the results it gets: it rebuilds a TradeSet from its trades and mode,
reads a count row's four counts, and reads a period-law report's rows,
verdict and leading coefficient.  A change there would make every run of
the benchmark fail its checks.
"""

import dataclasses
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from gravershift import count_scan, graver_oracle, graver_shift, verify_period_law

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    spans = _spans()
    rebound = [(mod, name) for mod, names in spans.REBIND.items() for name in names]
    return rebound + list(spans.ENTRY.values())


@pytest.mark.parametrize("module,name", _names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("route", [graver_shift, graver_oracle], ids=lambda f: f.__name__)
def test_tradeset_rebuilt_from_trades_and_mode(inst79, route):
    ts = route(inst79)
    assert type(ts)(ts.trades, ts.mode) == ts


def test_count_scan_row_counts(fam231):
    row = count_scan(fam231, 79, 79, method="fast").rows[0]
    assert (row.graver, row.h_pnp, row.h_ppn, row.h_npp) == (46, 5, 11, 10)


def test_period_law_report_fields(fam231):
    report = verify_period_law(fam231, 79, 81, method="fast")
    assert report.ok and report.leading_coefficient == Fraction(2, 6)
    assert [r.t for r in report.rows] == [79, 80, 81]
    assert {"graver_increment", "pnp_increment", "ppn_increment", "npp_increment"} <= {
        f.name for f in dataclasses.fields(report.rows[0])
    }
    assert dataclasses.replace(report, rows=report.rows[1:]).rows == report.rows[1:]
