"""Graver bases of shifted 3-generated numerical semigroups.

Two independent routes to the same answer: a brute-force oracle (bounded
kernel enumeration, keeping each orthant's staircase of Pareto minima) and
a period transport that carries orthant Hilbert bases, computed at a small
base shift by their continued fractions, to an arbitrarily large shift.

Each export is loaded from the module that defines it on first access
(PEP 562), so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BoundsReport CountRow CountTable DifferentialReport PeriodLawReport augment "
        "count_scan differential_test empirical_bounds exhaustive_optimum verify_period_law"
    ),
    "core": (
        "InternalConsistencyError InvalidInputError NoLengthTradeError OrthantLabel "
        "OutsideScopeError SemigroupInstance ShiftedFamily Trade TradeSet canonical_rep "
        "from_generators in_orthant length"
    ),
    "oracle": "enumerate_trades factorizations graver_oracle hilbert_oracle",
    "shift": (
        "SegmentEndpoints assemble_graver base_decomposition effective_base_bound graver_shift "
        "hilbert_shift negative_segment period_map period_map_inverse period_multiplier "
        "positive_segment transport"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
