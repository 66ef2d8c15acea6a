"""The benchmark's tracer rebinds program names by string; each must exist.

perfbench/spans.py lists, per module, the names its tracer replaces with
timing wrappers (REBIND) and the entry points it calls (ENTRY).  A name
that leaves its module would break `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
