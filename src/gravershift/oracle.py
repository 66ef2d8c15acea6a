"""Brute-force ground truth for Graver and orthant Hilbert bases.

Everything here works by enumerating the trade lattice inside the box of
radius n3 (the largest generator) and keeping its conformally minimal
elements; `_stable_minima` proves that this radius is exact.  It is
deliberately free of the period-transport machinery so the two routes stay
independent.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import (
    InternalConsistencyError,
    InvalidInputError,
    OrthantLabel,
    SemigroupInstance,
    Trade,
    TradeSet,
    TradeSetMode,
    in_orthant,
    sort_key,
)

# Hard cap on the box's (v0, v2) square, (2C+1)^2 cells; beyond it the
# oracle is out of its intended desk scale, and refusing up front keeps
# the work of every accepted box bounded.
_MAX_GRID_CELLS = 2**31


def enumerate_trades(inst: SemigroupInstance, box: int) -> TradeSet:
    """All nonzero trades with every coordinate in [-box, box], both signs.

    For each v2 the kernel condition is a congruence in v0; its solutions
    are stepped through the box and v1 is kept when it lands inside.
    """
    if box < 1:
        raise InvalidInputError(f"enumeration box must be >= 1, got {box}")
    # the cached tuple is already deduplicated and sorted
    return TradeSet(_enumerate_cached(inst, box), TradeSetMode.FULL)


@lru_cache(maxsize=128)
def _enumerate_cached(inst: SemigroupInstance, box: int) -> tuple[Trade, ...]:
    side = 2 * box + 1
    if side * side > _MAX_GRID_CELLS:
        raise InvalidInputError(
            f"enumeration box {box} needs {side * side} grid cells; beyond oracle scale"
        )
    n1, t, n3 = inst.generators
    # n1*v0 + t*v1 + n3*v2 = 0 needs n1*v0 = -n3*v2 (mod t): solvable iff g
    # divides n3*v2, and then v0 is fixed modulo t/g
    g = math.gcd(n1, t)
    step = t // g
    inverse = pow(n1 // g, -1, step)
    found: list[Trade] = []
    for v2 in range(-box, box + 1):
        if (n3 * v2) % g:
            continue
        residue = (-(n3 * v2) // g) * inverse % step
        # v1 falls as v0 rises, so descending v0 emits in sort_key order
        for v0 in range(box - (box - residue) % step, -box - 1, -step):
            v1 = -(n1 * v0 + n3 * v2) // t
            if -box <= v1 <= box and (v0, v2) != (0, 0):
                found.append((v0, v1, v2))
    return tuple(found)


def is_conformal(u: Trade, v: Trade) -> bool:
    """True iff u lies below v in the conformal order: same signs, no larger magnitudes."""
    return all(ui * vi >= 0 and abs(ui) <= abs(vi) for ui, vi in zip(u, v))


def _conformal_minima(candidates: list[Trade]) -> frozenset[Trade]:
    """Elements of `candidates` with no other candidate conformally below them.

    Candidates are scanned in ascending 1-norm order; any conformal reducer
    of v has strictly smaller 1-norm and is itself dominated by an already
    kept minimum, so checking against kept minima alone is exact.  u is
    conformally below v iff each u_i lies between 0 and v_i.
    """
    ordered = sorted(candidates, key=lambda v: (abs(v[0]) + abs(v[1]) + abs(v[2]),) + sort_key(v))
    kept: list[Trade] = []
    for v in ordered:
        (l0, h0), (l1, h1), (l2, h2) = ((x, 0) if x < 0 else (0, x) for x in v)
        if not any(
            l0 <= u0 <= h0 and l1 <= u1 <= h1 and l2 <= u2 <= h2 for u0, u1, u2 in kept
        ):
            kept.append(v)
    return frozenset(kept)


@lru_cache(maxsize=512)
def _stable_minima(inst: SemigroupInstance, orthant: OrthantLabel | None) -> frozenset[Trade]:
    """Conformal minima of the trades in the box of radius n3 (of one orthant, if given).

    The radius n3 is exact, in two steps.

    (i) Every Graver element v fits in the box.  Up to sign, v lies in a
    closed orthant O: two coordinates >= 0, the third then <= 0 because
    the generators are positive.  A split v = u + w with u, w nonzero
    trades in O would be conformal, which a Graver element has not, so v
    is in the Hilbert basis of the monoid of trades in O.  Those trades
    are the lattice points of a pointed 2-D cone whose primitive rays
    r1, r2 are plane circuits such as (n2, -n1, 0)/gcd(n1, n2), with
    entries <= n3.  The cone's Hilbert basis lies on the bounded boundary
    of the convex hull of its nonzero lattice points, hence in
    conv(0, r1, r2) (Oda 1988, ch. 1), so |v_i| <= max(|r1_i|, |r2_i|)
    <= n3.  The same holds for each orthant's Hilbert basis.

    (ii) Filtering inside the box is exact: every conformal reducer u of a
    vector v in the box has |u_i| <= |v_i|, so it is in the box too.
    Within one orthant the conformal order is the monoid's divisibility
    order, so the restricted filter gives its Hilbert basis.
    """
    box = inst.generators[2]
    minima = _conformal_minima(
        [v for v in _enumerate_cached(inst, box) if orthant is None or in_orthant(v, orthant)]
    )
    if not minima:
        raise InternalConsistencyError(
            f"no minimal trades found in box {box} for {inst.generators}"
        )
    return minima


def graver_oracle(inst: SemigroupInstance) -> TradeSet:
    """Graver basis by exhaustive conformal filtering, one canonical rep per pair."""
    return TradeSet.canonical(_stable_minima(inst, None))


def hilbert_oracle(inst: SemigroupInstance, orthant: OrthantLabel) -> TradeSet:
    """Hilbert basis of one orthant, as full vectors in its positive orientation.

    Within a single orthant the conformal order is plain componentwise
    magnitude order, so the same filter applies to the restricted candidates.
    """
    return TradeSet.full(_stable_minima(inst, orthant))


def factorizations(inst: SemigroupInstance, n: int) -> list[tuple[int, int, int]]:
    """All non-negative (z0, z1, z2) with z . generators == n, by triple enumeration."""
    if n < 0:
        raise InvalidInputError(f"element must be non-negative, got {n}")
    n1, n2, n3 = inst.generators
    out = []
    for z0 in range(n // n1 + 1):
        rest0 = n - z0 * n1
        for z1 in range(rest0 // n2 + 1):
            rest1 = rest0 - z1 * n2
            if rest1 % n3 == 0:
                out.append((z0, z1, rest1 // n3))
    return out
