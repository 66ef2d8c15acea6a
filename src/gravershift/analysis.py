"""Quantitative verification: count tables, period-law checks, bound scans,
differential testing, and Graver-augmented optimization over factorizations.

Every scan takes its shifts from one gate, `valid_shifts`.  It skips shifts
the family does not cover (t <= d*a or gcd(t, d) != 1) rather than
erroring, since ranges are swept wholesale, and it refuses a range it
cannot serve before any row is computed.  Everything is exact integer or
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .core import (
    MAX_SHIFT,
    InvalidInputError,
    OrthantLabel,
    SemigroupInstance,
    ShiftedFamily,
    add,
    length,
    negate,
)
from .oracle import factorizations, graver_oracle, hilbert_oracle
from .shift import (
    auto_oracle_bound,
    effective_base_bound,
    graver_count,
    graver_shift,
    hilbert_shift,
)


# The most shifts one scan may list: its shifts and rows are held in memory.
MAX_ROWS = 10**6


def valid_shifts(
    fam: ShiftedFamily,
    t_lo: int,
    t_hi: int,
    *,
    reach: int = 0,
    method: str = "fast",
    name: str | None = None,
) -> list[int]:
    """The shifts in [t_lo, t_hi] the family covers: the one gate of every scan.

    A row at t also counts at t + `reach`, by `method` as in `count_row`.
    Before any row, the range is refused if (1) a covered t has
    t + reach > MAX_SHIFT or (2) it spans more than MAX_ROWS shifts, both
    checked before it is listed; if (3) it covers no shift (`name` names the
    range then); or if (4) the method is "oracle" and the oracle refuses
    the largest box the rows walk, which is asked for first and cached for
    the scan.  An "auto" row walks its box only up to `auto_oracle_bound`,
    where the oracle cannot refuse it, and a fast row walks none.
    """
    lo = max(t_lo, fam.d * fam.a + 1)
    past = max(lo, MAX_SHIFT - reach + 1)  # the first covered shift from here on
    while math.gcd(past, fam.d) != 1:
        past += 1
    if past <= t_hi:
        if reach:
            raise InvalidInputError(
                f"shift t={past} is too large to verify: verify also counts at "
                f"t + rho = {past + reach} and needs t + rho <= {MAX_SHIFT}"
            )
        raise InvalidInputError(f"shift t={past} exceeds the supported bound {MAX_SHIFT}")
    if t_hi - lo >= MAX_ROWS:
        raise InvalidInputError(
            f"range {lo}..{t_hi} spans {t_hi - lo + 1} shifts; a scan lists at most {MAX_ROWS}"
        )
    shifts = [t for t in range(lo, t_hi + 1) if math.gcd(t, fam.d) == 1]
    if not shifts:
        name = name or f"{t_lo}..{t_hi}"
        raise InvalidInputError(f"empty range {name}: the family covers no shift in it")
    if method == "oracle":
        hilbert_oracle(fam.instance(shifts[-1] + reach), OrthantLabel.PNP)
    return shifts


@dataclass(frozen=True)
class CountRow:
    t: int
    graver: int  # full count, both signs
    h_pnp: int
    h_ppn: int
    h_npp: int
    method: str


@dataclass(frozen=True)
class CountTable:
    rows: tuple[CountRow, ...]


def count_row(inst: SemigroupInstance, method: str = "auto") -> CountRow:
    """Graver and per-orthant Hilbert cardinalities at one shift."""
    if method == "auto":
        method = "oracle" if inst.t <= auto_oracle_bound(inst.family) else "fast"
    if method not in ("oracle", "fast"):
        raise InvalidInputError(f"unknown count method {method!r}")
    # fast: segment lengths, not members: O(1) in t, so any supported t
    basis = hilbert_oracle if method == "oracle" else hilbert_shift
    bases = [basis(inst, orthant) for orthant in OrthantLabel]
    graver = len(graver_oracle(inst)) if method == "oracle" else graver_count(*bases)
    return CountRow(inst.t, 2 * graver, *map(len, bases), method)


def count_scan(fam: ShiftedFamily, t_lo: int, t_hi: int, method: str = "auto") -> CountTable:
    shifts = valid_shifts(fam, t_lo, t_hi, method=method)
    return CountTable(tuple(count_row(fam.instance(t), method) for t in shifts))


@dataclass(frozen=True)
class PeriodLawRow:
    t: int
    graver_increment: int
    pnp_increment: int
    ppn_increment: int
    npp_increment: int
    ok: bool


@dataclass(frozen=True)
class PeriodLawReport:
    """Per-shift increments over one period, against the expected law.

    Expected: the full Graver count grows by 2*d*(a+b) and the orthant
    Hilbert counts by (0, d*a, d*b) whenever both shifts are above the
    transport threshold.
    """

    family: ShiftedFamily
    expected_increment: int
    rows: tuple[PeriodLawRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def leading_coefficient(self) -> Fraction:
        """Increment per period over the period length, as an exact rational."""
        return Fraction(self.expected_increment, self.family.rho)


def verify_period_law(fam: ShiftedFamily, t_lo: int, t_hi: int, method: str = "oracle") -> PeriodLawReport:
    """Check the one-period count increments for every covered shift in range
    above the transport threshold; each row also counts at t + rho, even
    beyond t_hi."""
    a, b, d = fam.a, fam.b, fam.d
    bound = effective_base_bound(fam)
    shifts = valid_shifts(
        fam, max(t_lo, bound + 1), t_hi, reach=fam.rho, method=method,
        name=f"{t_lo}..{t_hi} above the transport threshold {bound}",
    )
    expected = 2 * d * (a + b)

    @cache
    def row_at(t: int) -> CountRow:
        return count_row(fam.instance(t), method)

    rows = []
    for t in shifts:
        now, later = row_at(t), row_at(t + fam.rho)
        increments = tuple(
            getattr(later, f) - getattr(now, f) for f in ("graver", "h_pnp", "h_ppn", "h_npp")
        )
        ok = increments == (expected, 0, d * a, d * b)
        rows.append(PeriodLawRow(t, *increments, ok))
    return PeriodLawReport(fam, expected, tuple(rows))


@dataclass(frozen=True)
class BoundsReport:
    """Empirical sharpness scan for the per-orthant thresholds.

    Each `last_*` field is the largest covered shift (up to t_max) at which
    the property still fails: homogeneous-trade irreducibility in the PNP
    orthant, existence of a coordinate-sum d trade in the PPN orthant,
    existence of a coordinate-sum -d trade in the NPP orthant.  None means
    the property never failed in the scanned range.
    """

    family: ShiftedFamily
    last_without_ppn_trade: int | None
    last_reducible_homogeneous: int | None
    last_without_npp_trade: int | None
    homogeneous_reducible_at_dab: bool | None


def empirical_bounds(fam: ShiftedFamily, t_max: int) -> BoundsReport:
    """Scan every covered shift up to t_max for the three threshold properties.

    A PPN trade of coordinate sum d exists exactly when the PPN Hilbert
    basis has one.  In PPN, t*length(v) = d*(a*v0 - b*v2) >= 0 and
    gcd(t, d) = 1, so every nonzero trade there has a coordinate sum that
    is a positive multiple of d (a sum of 0 would force v0 = v2 = 0, hence
    v = 0).  A trade of sum d therefore cannot split into two nonzero PPN
    trades, so it is in the Hilbert basis.  NPP is the mirror case, with
    -d.
    """
    a, b, d = fam.a, fam.b, fam.d
    shifts = valid_shifts(fam, 1, t_max, method="oracle", name=f"up to t_max={t_max}")
    h = fam.homogeneous_trade
    last_red = last_no_ppn = last_no_npp = None
    reducible_at_dab = None
    for t in shifts:
        inst = fam.instance(t)
        h_irreducible = h in hilbert_oracle(inst, OrthantLabel.PNP)
        if not h_irreducible:
            last_red = t
        if t == d * a * b:
            reducible_at_dab = not h_irreducible
        if not any(length(v) == d for v in hilbert_oracle(inst, OrthantLabel.PPN)):
            last_no_ppn = t
        if not any(length(v) == -d for v in hilbert_oracle(inst, OrthantLabel.NPP)):
            last_no_npp = t
    return BoundsReport(
        family=fam,
        last_without_ppn_trade=last_no_ppn,
        last_reducible_homogeneous=last_red,
        last_without_npp_trade=last_no_npp,
        homogeneous_reducible_at_dab=reducible_at_dab,
    )


@dataclass(frozen=True)
class DifferentialRow:
    family: ShiftedFamily
    t: int
    fast_count: int
    oracle_count: int
    equal: bool


@dataclass(frozen=True)
class DifferentialReport:
    rows: tuple[DifferentialRow, ...]

    @property
    def mismatches(self) -> tuple[DifferentialRow, ...]:
        return tuple(row for row in self.rows if not row.equal)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def differential_test(families: Sequence[ShiftedFamily], periods: int) -> DifferentialReport:
    """Compare the transported Graver basis against the oracle, set-exactly,
    for every covered shift in (bound, bound + periods*rho] of each family.
    Every window is admitted before any row is computed."""
    windows = []
    for fam in families:
        bound = effective_base_bound(fam)
        shifts = valid_shifts(
            fam, bound + 1, bound + periods * fam.rho, method="oracle",
            name=f"of {periods} periods above the transport threshold {bound}",
        )
        windows.append((fam, shifts))
    rows = []
    for fam, shifts in windows:
        for t in shifts:
            inst = fam.instance(t)
            fast = graver_shift(inst)
            oracle = graver_oracle(inst)
            rows.append(DifferentialRow(fam, t, len(fast), len(oracle), fast == oracle))
    return DifferentialReport(tuple(rows))


def objective_value(weights: Sequence[Fraction | int], z: tuple[int, int, int]) -> Fraction:
    return Fraction(weights[0]) * z[0] + Fraction(weights[1]) * z[1] + Fraction(weights[2]) * z[2]


def augment(
    inst: SemigroupInstance,
    start: tuple[int, int, int],
    weights: Sequence[Fraction | int],
    sense: str = "min",
) -> tuple[int, int, int]:
    """Optimize a linear objective over the factorizations of one element.

    Greedy first-improving-move search over the canonical Graver list in
    sorted order, each trade followed by its negation.  A move g changes the
    objective by w.g wherever it is taken, so the improving moves are kept
    once; each step takes the first that keeps all coordinates non-negative.
    For linear objectives the terminal point is a global optimum regardless
    of pivot order, so the fixed order is only for determinism.
    """
    if len(start) != 3 or any(z < 0 for z in start):
        raise InvalidInputError(f"start must be a non-negative 3-vector, got {start}")
    if sense not in ("min", "max"):
        raise InvalidInputError(f"sense must be 'min' or 'max', got {sense!r}")
    w = tuple(Fraction(c) for c in weights)
    if len(w) != 3:
        raise InvalidInputError("objective must have 3 components")
    gain = 1 if sense == "max" else -1
    moves = [
        m for g in graver_shift(inst) for m in (g, negate(g)) if gain * objective_value(w, m) > 0
    ]
    current = (int(start[0]), int(start[1]), int(start[2]))
    while True:
        for g in moves:
            candidate = add(current, g)
            if candidate[0] >= 0 and candidate[1] >= 0 and candidate[2] >= 0:
                current = candidate
                break
        else:
            return current


def exhaustive_optimum(
    inst: SemigroupInstance, n: int, weights: Sequence[Fraction | int], sense: str = "min"
) -> Fraction:
    """Best objective value over all factorizations of n, by full enumeration."""
    values = [objective_value(weights, z) for z in factorizations(inst, n)]
    if not values:
        raise InvalidInputError(f"{n} has no factorization in {inst.generators}")
    return min(values) if sense == "min" else max(values)
