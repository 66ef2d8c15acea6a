"""Graver bases of shifted 3-generated numerical semigroups.

Two independent routes to the same answer: a brute-force oracle (bounded
kernel enumeration, keeping each orthant's staircase of Pareto minima) and
a period transport that carries orthant Hilbert bases from a small base
shift to an arbitrarily large one.
"""

from .analysis import (
    BoundsReport,
    CountRow,
    CountTable,
    DifferentialReport,
    PeriodLawReport,
    augment,
    count_scan,
    differential_test,
    empirical_bounds,
    exhaustive_optimum,
    verify_period_law,
)
from .core import (
    InternalConsistencyError,
    InvalidInputError,
    NoLengthTradeError,
    OrthantLabel,
    OutsideScopeError,
    SemigroupInstance,
    ShiftedFamily,
    Trade,
    TradeSet,
    canonical_rep,
    from_generators,
    in_orthant,
    length,
)
from .oracle import (
    enumerate_trades,
    factorizations,
    graver_oracle,
    hilbert_oracle,
    is_conformal,
)
from .shift import (
    SegmentEndpoints,
    assemble_graver,
    base_decomposition,
    effective_base_bound,
    graver_shift,
    hilbert_shift,
    negative_segment,
    period_map,
    period_map_inverse,
    period_multiplier,
    positive_segment,
    transport,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CountRow",
    "CountTable",
    "DifferentialReport",
    "InternalConsistencyError",
    "InvalidInputError",
    "NoLengthTradeError",
    "OrthantLabel",
    "OutsideScopeError",
    "PeriodLawReport",
    "SegmentEndpoints",
    "SemigroupInstance",
    "ShiftedFamily",
    "Trade",
    "TradeSet",
    "assemble_graver",
    "augment",
    "base_decomposition",
    "canonical_rep",
    "count_scan",
    "differential_test",
    "effective_base_bound",
    "empirical_bounds",
    "enumerate_trades",
    "exhaustive_optimum",
    "factorizations",
    "from_generators",
    "graver_oracle",
    "graver_shift",
    "hilbert_oracle",
    "hilbert_shift",
    "in_orthant",
    "is_conformal",
    "length",
    "negative_segment",
    "period_map",
    "period_map_inverse",
    "period_multiplier",
    "positive_segment",
    "transport",
    "verify_period_law",
]
