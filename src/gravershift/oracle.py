"""Brute-force ground truth for Graver and orthant Hilbert bases.

Everything here works from the trade lattice inside the box of radius n3
(the largest generator).  Each orthant's Hilbert basis is the staircase
of Pareto minima of its trades, and the Graver basis is the union of the
three; `_staircases` proves the radius and the filter exact.  It finds
each staircase by one sweep of the orthant's columns that keeps only
column minima, O(n3/g) steps for g the gcd of the two generators off the
column's axis, and never lists the box; `enumerate_trades` lists it for
callers that want every trade.  It is deliberately free of the
period-transport machinery so the two routes stay independent.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator

from .core import (
    InvalidInputError,
    OrthantLabel,
    SemigroupInstance,
    Trade,
    TradeSet,
    TradeSetMode,
)

# Cap on the box's (v0, v2) square, (2C+1)^2 cells.  The sweep's work
# grows only linearly in the radius, so this is a scope limit: it keeps
# the oracle at desk scale and `enumerate_trades`, which does walk the
# square, bounded.
_MAX_GRID_CELLS = 2**31
# The largest radius C within the cap.
MAX_BOX = (math.isqrt(_MAX_GRID_CELLS) - 1) // 2


def check_box(box: int) -> None:
    """Refuse a box radius the oracle does not serve: below 1, or past
    MAX_BOX.  Arithmetic only; no box is walked."""
    if box < 1:
        raise InvalidInputError(f"enumeration box must be >= 1, got {box}")
    if box > MAX_BOX:
        raise InvalidInputError(
            f"enumeration box {box} needs {(2 * box + 1) ** 2} grid cells; beyond oracle scale"
        )


def enumerate_trades(inst: SemigroupInstance, box: int) -> TradeSet:
    """All nonzero trades with every coordinate in [-box, box], both signs.

    For each v2 the kernel condition is a congruence in v0; its solutions
    are stepped through the box and v1 is kept when it lands inside.
    """
    check_box(box)
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
    # each trade is emitted once, in sort_key order
    return TradeSet(tuple(found), TradeSetMode.FULL)


# Every caller asks for one instance's staircases only within one row (its
# three Hilbert bases and its Graver basis), so a few entries suffice and
# a long scan holds no more than these.
@lru_cache(maxsize=16)
def _staircases(inst: SemigroupInstance) -> MappingProxyType[OrthantLabel, tuple[Trade, ...]]:
    """Hilbert basis of each orthant: the Pareto minima of its box-n3 trades.

    Each orthant is one sweep of its columns, and only the staircases are
    kept, each in sweep order (TradeSet.pieces orders a listing).  With
    (i, j) an orthant's non-negative coordinates, its columns v_i = 0, 1,
    ... are swept in ascending order, and a column's least v_j is kept
    when it is below every earlier one.

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

    The sweep is the conformal filter, in four steps.

    (a) In O, with k the third coordinate, n_k*v_k = -(n_i*v_i + n_j*v_j),
    so (v_i, v_j) fixes the trade, and u in O is conformally below v
    exactly when u_i <= v_i and u_j <= v_j (then |u_k| <= |v_k| follows).

    (b) If so and u != v, then v - u is a nonzero trade in O, so v is
    reducible in the monoid.  The Pareto minima of (v_i, v_j) are
    therefore exactly the monoid's irreducibles, its Hilbert basis.

    (c) Step (i) shows that every Graver element is, up to sign, such an
    irreducible.  Conversely, any conformal reducer of a member of O lies
    in O, so an irreducible of O is a Graver element; the Graver basis is
    the union of the three orthants' minima, up to sign.

    (d) In a column only its least v_j in the box can be a Pareto minimum.
    Membership in the box is monotone in v_j: v_k falls as v_j grows, and
    every column minimum the sweep meets has v_i, v_j <= n_k <= n3.  So if
    a column's least v_j >= 0 fails v_k >= -n3, the column has no box
    trade, and the record minima of the column minima are the staircase of
    (a)-(c).  With g = gcd(n_j, n_k), which is prime to n_i since the
    generators are coprime, a column holds trades only at v_i = x a
    multiple of g, and its least v_j is then x/g times c modulo n_k/g, for
    c = -n_i*(n_j/g)^-1: one addition per column.  Column 0 takes
    v_j = n_k/g, since v_j = 0 there is the zero vector.  The first later
    v_j = 0, at x = n_k/gcd(n_i, n_k) <= n3 with |v_k| <= n_i, is always
    kept and ends the sweep, because no later trade in O has a lower v_j.
    By (i) no record fails the box; checking it anyway makes the answer
    the box's staircase by construction rather than by (i).
    """
    gens = inst.generators
    box = gens[2]
    check_box(box)
    staircases = {}
    for orthant in OrthantLabel:
        i, j = orthant.nonneg_coords
        k = 3 - i - j
        n_i, n_j, n_k = gens[i], gens[j], gens[k]
        g = math.gcd(n_j, n_k)
        step = n_k // g
        c = -n_i * pow(n_j // g, -1, step) % step
        reach = box * n_k
        minima = []
        x, y, least = 0, step, step + 1
        while True:
            if y < least:
                # v_k >= -box, with n_k*v_k = -(n_i*x + n_j*y)
                weight = n_i * x + n_j * y
                if weight <= reach:
                    least = y
                    minima.append((x, y, -weight // n_k))
                if not y:
                    break
            x += g
            y += c
            if y >= step:
                y -= step
        # (v_i, v_j, v_k) back to coordinate order
        place = [0, 0, 0]
        place[i], place[j], place[k] = 0, 1, 2
        staircases[orthant] = tuple(map(itemgetter(*place), minima))
    return MappingProxyType(staircases)


def graver_oracle(inst: SemigroupInstance) -> TradeSet:
    """Graver basis as the union of the three orthant Hilbert bases, one rep per pair."""
    return TradeSet.canonical(chain.from_iterable(_staircases(inst).values()))


def hilbert_oracle(inst: SemigroupInstance, orthant: OrthantLabel) -> TradeSet:
    """Hilbert basis of one orthant, as full vectors in its positive orientation."""
    return TradeSet(_staircases(inst)[orthant], TradeSetMode.FULL)


def factorizations(inst: SemigroupInstance, n: int) -> list[tuple[int, int, int]]:
    """All non-negative (z0, z1, z2) with z . generators == n, ascending."""
    return list(iter_factorizations(inst, n))


def iter_factorizations(inst: SemigroupInstance, n: int) -> Iterator[tuple[int, int, int]]:
    """The factorizations of n in ascending (z0, z1) order.  For each z0,
    n2*z1 = n - n1*z0 (mod n3) is solvable iff g = gcd(n2, n3) divides the
    right side, and then z1 is fixed modulo n3/g, so only its solutions are
    stepped through."""
    if n < 0:
        raise InvalidInputError(f"element must be non-negative, got {n}")
    n1, n2, n3 = inst.generators
    g = math.gcd(n2, n3)
    step = n3 // g
    inverse = pow(n2 // g, -1, step)
    for z0 in range(n // n1 + 1):
        rest = n - z0 * n1
        if rest % g == 0:
            for z1 in range(rest // g * inverse % step, rest // n2 + 1, step):
                yield (z0, z1, (rest - z1 * n2) // n3)
