"""Period transport: the fast route to Graver bases at large shifts.

The trade lattices at shifts t and t + rho are linked by length-weighted
linear maps that fix one coordinate and move the other two.  Each orthant's
Hilbert basis is carried along by the map that fixes its strip's bounded
coordinate; the trades of extremal coordinate sum (+d in the PPN orthant,
-d in the NPP orthant) instead form a line segment, stepped by the
homogeneous trade, that is re-solved directly at the target shift and grows
by d*a (resp. d*b) elements per period.  The three orthants differ only in
data (strips, maps, extremal sum, growth, segment equation, threshold),
which one table holds and one transport reads.  The base case is each
orthant's Hirzebruch-Jung continued fraction at a shift at most one period
above the transport threshold, so the route never enumerates a lattice:
it yields the Graver basis at any shift, as a few single trades and the
two segments' runs, and counting it reads the segments' lengths.  No
segment member is written out here.  Nothing here calls the brute-force
oracle, which stays an independent check; only its scale limit is read,
for the `auto` method's rule.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable

from .core import (
    InternalConsistencyError,
    InvalidInputError,
    NoLengthTradeError,
    OrthantLabel,
    Piece,
    SegmentEndpoints,
    SemigroupInstance,
    ShiftedFamily,
    Trade,
    TradeSet,
    TradeSetMode,
    canonical_rep,
    in_orthant,
    length,
    sort_key,
)
from .oracle import MAX_BOX
# unused here; the benchmark's tracer rebinds these names in this module
from .oracle import graver_oracle, hilbert_oracle  # noqa: F401


def period_multiplier(fam: ShiftedFamily, i: int, j: int) -> int:
    """Signed coefficient m such that one period adds m * length(v) * (e_i - e_j).

    Concretely m = rho / (d * (r_j - r_i)) for offsets r = (-a, 0, b):
    b*(a+b) for (0,1), a*b for (0,2), a*(a+b) for (1,2); negated when the
    indices are swapped.
    """
    if i == j or not {i, j} <= {0, 1, 2}:
        raise InvalidInputError(f"indices must be distinct and in {{0,1,2}}, got ({i}, {j})")
    r = fam.offsets
    den = fam.d * (r[j] - r[i])
    m, rem = divmod(fam.rho, den)
    if rem:
        raise InternalConsistencyError(f"period {fam.rho} not divisible by {den}")
    return m


def period_map(fam: ShiftedFamily, i: int, j: int, v: Trade, periods: int = 1) -> Trade:
    """Transport v from the lattice at shift t to the one at t + periods*rho.

    Length-preserving and bijective; trades of length 0 are fixed.
    """
    delta = periods * period_multiplier(fam, i, j) * length(v)
    w = list(v)
    w[i] += delta
    w[j] -= delta
    return (w[0], w[1], w[2])


def period_map_inverse(fam: ShiftedFamily, i: int, j: int, v: Trade, periods: int = 1) -> Trade:
    """Exact inverse of period_map (transport back by periods*rho)."""
    return period_map(fam, i, j, v, -periods)


def positive_segment(inst: SemigroupInstance) -> SegmentEndpoints:
    """Endpoints of the line of coordinate-sum-d trades in the PPN orthant.

    Both endpoints solve b*v1 + (a+b)*v0 = t + d*b over non-negative
    integers: the start minimizes v0 (so v0 < b), the end minimizes v1
    (so v1 < a+b).  Raises NoLengthTradeError when the equation has no
    non-negative solution, which is guaranteed not to happen above the
    b_plus threshold and guaranteed to happen at it.
    """
    return _solve_segment(inst, OrthantLabel.PPN)


def negative_segment(inst: SemigroupInstance) -> SegmentEndpoints:
    """Endpoints of the line of coordinate-sum-(-d) trades in the NPP orthant.

    Mirror of positive_segment: solve a*v1 + (a+b)*v2 = t - d*a, the start
    minimizing v2 (so v2 < a), the end minimizing v1 (so v1 < a+b); the
    trade is (-(v1+v2+d), v1, v2).
    """
    return _solve_segment(inst, OrthantLabel.NPP)


def _solve_segment(inst: SemigroupInstance, orthant: OrthantLabel) -> SegmentEndpoints:
    """Solve the orthant's segment equation cx*v[x] + cy*v[y] = t + rhs.

    x and y are the bounded coordinates of the orthant's two strips; the
    start is the solution with least v[x] (so v[x] < cy, in the first
    strip), the end the one with least v[y] (so v[y] < cx, in the second).
    The remaining coordinate makes the coordinate sum extremal.
    """
    row = _orthant_table(inst.family)[orthant]
    cx, cy, rhs = row.segment
    (x, _, _), (y, _, _) = row.strips
    target = inst.t + rhs
    endpoints = []
    for (u, cu), (w, cw) in (((x, cx), (y, cy)), ((y, cy), (x, cx))):
        v = [0, 0, 0]
        v[u] = target * pow(cu, -1, cw) % cw
        v[w] = (target - cu * v[u]) // cw
        if v[w] < 0:
            raise NoLengthTradeError(
                f"no trade of coordinate sum {row.extremal_sum} in the "
                f"{orthant.value} orthant at t={inst.t}"
            )
        v[3 - u - w] = row.extremal_sum - v[u] - v[w]
        endpoint = (v[0], v[1], v[2])
        if inst.evaluate(endpoint) != 0:
            raise InternalConsistencyError(f"segment endpoint {endpoint} invalid at t={inst.t}")
        endpoints.append(endpoint)
    start, end = endpoints
    h = inst.family.homogeneous_trade
    # h[2] = a >= 1; SegmentEndpoints rejects a reversed or off-step pair
    q = (end[2] - start[2]) // h[2]
    return SegmentEndpoints(start=start, end=end, step=h, count=q + 1)


@dataclass(frozen=True)
class _Orthant:
    """One orthant's row of the transport table.

    Each strip is a triple (coord, limit, maps): the orthant members v with
    v[coord] < limit, carried by period_map with indices `maps`, which fixes
    v[coord] and so maps the strip at shift t onto the strip at t + rho.
    A Hilbert basis member outside both strips has coordinate sum
    extremal_sum; those members form the segment, whose equation
    cx*v[x] + cy*v[y] = t + rhs is `segment` = (cx, cy, rhs) with x, y the
    strips' bounded coordinates.  PNP has no segment: its only basis
    member of sum 0 is the homogeneous trade, which lies in both strips.
    One period adds `growth` members.  Transport from shift t needs
    t > threshold.
    """

    strips: tuple[tuple[int, int, tuple[int, int]], ...]
    extremal_sum: int
    growth: int
    threshold: int
    segment: tuple[int, int, int] | None


# built once per family and shared read-only, since every transport and
# segment solve reads it
@lru_cache(maxsize=64)
def _orthant_table(fam: ShiftedFamily) -> MappingProxyType[OrthantLabel, _Orthant]:
    a, b, d = fam.a, fam.b, fam.d
    return MappingProxyType({
        OrthantLabel.PNP: _Orthant(
            strips=((0, b + 1, (1, 2)), (2, a + 1, (0, 1))),
            extremal_sum=0,
            growth=0,
            threshold=fam.b_plus_minus,
            segment=None,
        ),
        OrthantLabel.PPN: _Orthant(
            strips=((0, b, (1, 2)), (1, a + b, (0, 2))),
            extremal_sum=d,
            growth=d * a,
            threshold=fam.b_plus,
            segment=(a + b, b, d * b),
        ),
        OrthantLabel.NPP: _Orthant(
            strips=((2, a, (0, 1)), (1, a + b, (0, 2))),
            extremal_sum=-d,
            growth=d * b,
            threshold=fam.b_minus,
            segment=(a + b, a, -d * a),
        ),
    })


@dataclass(frozen=True)
class CompactBasis:
    """An orthant Hilbert basis as its listed members plus one segment.

    `rest` is sorted by sort_key and holds every member off `segment`;
    `segment` is None for a PNP basis and for a base-case basis, which
    lists every member.  len() reads the two sizes, so a basis of 10^9
    members is counted in O(1); materialize() lists it in order.
    """

    rest: tuple[Trade, ...]
    segment: SegmentEndpoints | None = None

    def __len__(self) -> int:
        return len(self.rest) + (self.segment.count if self.segment is not None else 0)

    def boundary(self) -> set[Trade]:
        """The members that may lie on a coordinate plane: rest and the segment ends."""
        ends = (self.segment.start, self.segment.end) if self.segment is not None else ()
        return {*self.rest, *ends}

    def materialize(self) -> TradeSet:
        """Every member in sort_key order, as pieces: the segment's run
        with the few rest members inserted by bisect, none written out."""
        runs = [] if self.segment is None else [self.segment]
        return TradeSet(tuple(_ordered_pieces(runs, self.rest)), TradeSetMode.FULL)


def _ascending(trades: list[Trade]) -> bool:
    keys = list(map(sort_key, trades))
    return all(map(operator.lt, keys, keys[1:]))


def _last(piece: Piece) -> Trade:
    return piece.end if isinstance(piece, SegmentEndpoints) else piece


def _ordered_pieces(runs: list[SegmentEndpoints], members: Iterable[Trade]) -> list[Piece]:
    """The runs laid end to end with `members` inserted in sort_key order,
    as ordered pieces (parts of runs and single members): nothing is
    written out.

    The runs' ends, in order, must ascend strictly, which covers each
    run's direction and every seam between runs.  Each member goes in by
    bisect over the run's arithmetic members and must land strictly
    between its neighbours, so a member already in a run, or given twice,
    raises InternalConsistencyError.  Linear in the number of runs plus a
    sort of the members, which are few, and logarithmic in the run lengths.
    """
    # a one-member run has one end
    ends = [v for run in runs for v in dict.fromkeys((run.start, run.end))]
    if not _ascending(ends):
        raise InternalConsistencyError(f"runs out of order: ends {ends}")
    pieces: list[Piece] = []
    i = lo = 0  # runs[i] from its member lo on is not laid yet
    for v in sorted(members, key=sort_key):
        key = sort_key(v)
        while i < len(runs) and sort_key(runs[i].end) < key:
            pieces.append(runs[i].part(lo, runs[i].count))
            i, lo = i + 1, 0
        after = []
        if i < len(runs):
            hi = bisect_left(runs[i], key, lo, key=sort_key)
            if hi > lo:
                pieces.append(runs[i].part(lo, hi))
                lo = hi
            after.append(runs[i][hi])
        before = [_last(pieces[-1])] if pieces else []
        if not _ascending([*before, v, *after]):
            raise InternalConsistencyError(f"{v} is not strictly between its neighbours")
        pieces.append(v)
    if i < len(runs):
        pieces.append(runs[i].part(lo, runs[i].count))
        pieces += runs[i + 1:]
    return pieces


def transport(
    base: SemigroupInstance, orthant: OrthantLabel, basis: Collection[Trade], periods: int
) -> CompactBasis:
    """Carry the orthant's Hilbert basis at base.t to base.t + periods*rho,
    as the few images off the target segment plus the segment itself.

    Every member rides the period map of each strip it lies in (the maps
    fix the strip's bounded coordinate, so `periods` steps are one map with
    a `periods`-fold correction); the members outside both strips have the
    extremal coordinate sum and form the segment, which is re-solved at the
    target shift.  `basis` is a listing (a tuple of trades or a TradeSet),
    and every member must be a trade at base.t in the orthant.  The result
    must have periods*growth more members than `basis`, and the target
    segment's endpoints must be the period-map images of the base
    segment's.  Only the base members and the segment ends are touched, so
    the cost does not grow with `periods`.

    A PNP member may lie in both strips and then rides both maps.  That is
    safe: for t > d*a*b such a trade v has t*length(v) = d*(a*v0 - b*v2)
    with 0 <= v0 <= b and 0 <= v2 <= a, so |t*length(v)| <= d*a*b < t, its
    length is 0 and both maps fix it.  A PPN or NPP member in both strips
    is a single-point segment; its two images are the two ends of the new
    segment.
    """
    fam = base.family
    row = _orthant_table(fam)[orthant]
    if periods < 1:
        raise InvalidInputError(f"transport needs periods >= 1, got {periods}")
    if base.t <= row.threshold:
        raise InvalidInputError(
            f"{orthant.value} transport needs t > {row.threshold}, got t={base.t}"
        )
    images: set[Trade] = set()
    for v in basis:
        if not in_orthant(v, orthant):
            raise InvalidInputError(f"{v} is not in the {orthant.value} orthant")
        if not base.is_trade(v):
            raise InvalidInputError(f"{v} is not a trade at t={base.t}")
        mapped = [
            period_map(fam, *maps, v, periods)
            for coord, limit, maps in row.strips
            if v[coord] < limit
        ]
        if not mapped and length(v) != row.extremal_sum:
            raise InternalConsistencyError(
                f"{orthant.value} element {v} outside both strips has coordinate sum "
                f"!= {row.extremal_sum} at t={base.t}"
            )
        images.update(mapped)
    after = None
    if row.segment is not None:
        # looked up by module-global name, so a traced run can rebind them
        solve = positive_segment if row.extremal_sum > 0 else negative_segment
        target = base.shifted(periods)
        before, after = solve(base), solve(target)
        (_, _, first), (_, _, second) = row.strips
        expected = (
            period_map(fam, *first, before.start, periods),
            period_map(fam, *second, before.end, periods),
        )
        if (after.start, after.end) != expected:
            raise InternalConsistencyError(
                f"{orthant.value} segment at t={target.t} "
                f"is {after.start}..{after.end}, expected {expected[0]}..{expected[1]}"
            )
        # the segment supplies its own ends; any other image of extremal sum
        # would be a trade the segment does not contain
        images.difference_update(expected)
        for w in images:
            if length(w) == row.extremal_sum:
                raise InternalConsistencyError(
                    f"{orthant.value} image {w} has coordinate sum {row.extremal_sum} "
                    f"but is not an end of the segment at t={target.t}"
                )
    result = CompactBasis(tuple(sorted(images, key=sort_key)), after)
    if len(result) != len(basis) + periods * row.growth:
        raise InternalConsistencyError(
            f"{orthant.value} transport at t={base.t} over {periods} periods: expected "
            f"{len(basis) + periods * row.growth} elements, got {len(result)}"
        )
    return result


def effective_base_bound(fam: ShiftedFamily) -> int:
    """Largest shift that is its own base case rather than a transport target."""
    return fam.b_max


def auto_oracle_bound(fam: ShiftedFamily) -> int:
    """Largest shift the `auto` method sends to the oracle: one at or below
    the transport threshold whose box, of radius n3 = t + d*b, the oracle
    walks rather than refuses.  Every other shift takes the shift route."""
    return min(effective_base_bound(fam), MAX_BOX - fam.d * fam.b)


def base_decomposition(inst: SemigroupInstance) -> tuple[SemigroupInstance, int]:
    """Write t = t0 + k*rho with k maximal such that t0 = t - k*rho stays above
    the transport threshold, so t0 lies in (bound, bound + rho]; at or below
    the threshold t0 = t and k = 0.  Returns (base instance, k)."""
    bound = effective_base_bound(inst.family)
    if inst.t <= bound:
        return inst, 0
    k = (inst.t - bound - 1) // inst.family.rho
    base = SemigroupInstance(inst.family, inst.t - k * inst.family.rho)
    return base, k


def _cf_hilbert(inst: SemigroupInstance, orthant: OrthantLabel) -> tuple[Trade, ...]:
    """Hilbert basis of one orthant by its Hirzebruch-Jung continued
    fraction, as full vectors in sort_key order, with no lattice enumerated.

    Let (i, j) be the orthant's non-negative coordinates, k the third,
    g = gcd(n_i, n_k) and m = n_k/g.  A trade v has n_j*v_j = 0 (mod g), and
    gcd(g, n_j) divides gcd(n1, n2, n3) = gcd(t, d) = 1, so g divides v_j.
    Dividing the trade equation by g leaves (n_i/g)*v_i + n_j*(v_j/g) = 0
    (mod m), and v_k = -(n_i*v_i + n_j*v_j)/n_k is then an integer, <= 0 in
    the orthant.  So v -> (x, y) = (v_i, v_j/g) is an additive bijection
    from the orthant's trades onto the points x, y >= 0 of the lattice
    x = c*y (mod m), c = -n_j*(n_i/g)^-1 mod m, and it carries Hilbert basis
    to Hilbert basis.  That cone's basis is u_0 = (m, 0), u_1 = (c, 1),
    u_(s+1) = ceil(x_(s-1)/x_s)*u_s - u_(s-1) until x = 0 (Oda 1988, ch. 1;
    Fulton 1993, section 2.6).
    """
    n = inst.generators
    i, j = orthant.nonneg_coords
    k = 3 - i - j
    g = math.gcd(n[i], n[k])
    m = n[k] // g
    prev, cur = (m, 0), (-n[j] * pow(n[i] // g, -1, m) % m, 1)
    members = [prev, cur]
    while cur[0]:
        q = -(-prev[0] // cur[0])
        prev, cur = cur, (q * cur[0] - prev[0], q * cur[1] - prev[1])
        members.append(cur)
    out = []
    for x, y in members:
        v = [0, 0, 0]
        v[i], v[j], v[k] = x, g * y, -(n[i] * x + n[j] * g * y) // n[k]
        out.append((v[0], v[1], v[2]))
    return tuple(sorted(out, key=sort_key))


def hilbert_shift(inst: SemigroupInstance, orthant: OrthantLabel) -> CompactBasis:
    """Hilbert basis of one orthant, in compact form: the continued fraction
    at the base shift, transported k periods when k > 0.  O(1) in t to
    build and to count."""
    base, k = base_decomposition(inst)
    members = _cf_hilbert(base, orthant)
    if not k:
        return CompactBasis(members)
    return transport(base, orthant, members, k)


def graver_count(h_pnp: CompactBasis, h_ppn: CompactBasis, h_npp: CompactBasis) -> int:
    """Size of the canonical Graver basis that assemble_graver writes out,
    read from the three compact bases.

    The size is sum(len) - 3, and the overlap of 3 is measured, not
    assumed, on the boundary members only: each basis's rest and its
    segment's two ends, canonicalized.

    The bases share exactly three trades, one per coordinate plane.  A
    trade with no zero coordinate has exactly two coordinates of one sign,
    so it lies in exactly one orthant up to sign and cannot be shared.  A
    trade with a zero coordinate lies on the ray where its orthant meets
    that coordinate plane, and the only Hilbert basis member on a ray is
    the primitive trade of that plane, which both orthants bounded by the
    plane contain.

    An interior segment member is never shared.  In PPN it is
    v = start + s*h with 0 < s < count-1 and h = (b, -(a+b), a):
    v0 = start0 + s*b > 0, v1 = end1 + (count-1-s)*(a+b) > 0, and v2 < 0
    because the generators are positive.  NPP mirrors this with v2 > 0,
    v1 > 0 and v0 < 0.  So no coordinate of v is zero, and v is neither a
    segment end nor in rest, which transport keeps free of extremal-sum
    members.  The overlap of the full bases is therefore the overlap of
    their boundaries.  Any other value than 3 means a basis is wrong, so
    it raises InternalConsistencyError.
    """
    return _canonical_boundary(h_pnp, h_ppn, h_npp)[1]


def _canonical_boundary(*parts: CompactBasis) -> tuple[set[Trade], int]:
    """graver_count's measurement: the canonical boundary members of the
    three bases, and the Graver size they give."""
    if any(len(p) == 0 for p in parts):
        raise InvalidInputError("orthant Hilbert bases are never empty for a valid instance")
    boundaries = [p.boundary() for p in parts]
    union = {canonical_rep(v) for v in chain.from_iterable(boundaries)}
    overlap = sum(map(len, boundaries)) - len(union)
    if overlap != 3:
        raise InternalConsistencyError(
            f"expected 3 shared boundary trades, measured {overlap}"
        )
    return union, sum(map(len, parts)) - overlap


def _canonical_interior(segment: SegmentEndpoints | None) -> SegmentEndpoints | None:
    """The segment's members strictly between its ends, canonicalized, as
    an ascending run; None when there are none.

    They share one sign pattern (graver_count), so canonicalizing keeps
    them all or negates them all, and negation keeps the step and reverses
    the run: start+h .. end-h, or -end+h .. -start-h.
    """
    if segment is None or segment.count < 3:
        return None
    interior = segment.part(1, segment.count - 1)
    return interior if canonical_rep(interior.start) == interior.start else interior.negated()


def assemble_graver(h_pnp: CompactBasis, h_ppn: CompactBasis, h_npp: CompactBasis) -> TradeSet:
    """Union of the three Hilbert bases and their negations, canonicalized,
    in sort_key order without a sort, as ordered pieces: no member of a
    segment interior is written out.

    Almost every member lies inside the PPN or the NPP segment, and each
    canonical interior is one arithmetic run of step h = (b, -(a+b), a);
    h2 = a > 0, so each run ascends strictly.  The runs do not interleave.
    An NPP interior member v has coordinate sum -d and pairs to 0 with the
    generators, so v2 = (t - d*a - a*v1)/(a+b) < (t - d*a)/(a+b), because
    v1 > 0 (graver_count).  A PPN interior member u has sum d, and its
    canonical rep -u has v2 = (t - d*a + a*u1)/(a+b) > (t - d*a)/(a+b),
    because u1 > 0.  sort_key compares v2 first, so the NPP run lies wholly
    below the PPN run, and their concatenation ascends.  The boundary
    members (canonical reps of every rest and segment end, graver_count's
    set) are few above the threshold, and all members when there is no
    segment; each goes in by bisect.

    Strict order is checked where pieces meet: the ends of both runs, in
    order, cover each run's direction and the seam; each inserted member
    must lie strictly between its neighbours.  Inside a run the order
    holds by construction, so the whole listing ascends strictly.  Its
    size must be graver_count's, which measures the overlap; any other
    size or order raises InternalConsistencyError.
    """
    boundary, expected = _canonical_boundary(h_pnp, h_ppn, h_npp)
    interiors = map(_canonical_interior, (h_npp.segment, h_ppn.segment))
    runs = [run for run in interiors if run is not None]
    merged = TradeSet(tuple(_ordered_pieces(runs, boundary)), TradeSetMode.CANONICAL)
    if len(merged) != expected:
        raise InternalConsistencyError(
            f"merged {len(merged)} canonical trades, expected {expected}"
        )
    return merged


def graver_shift(inst: SemigroupInstance) -> TradeSet:
    """Graver basis of inst, canonical mode, assembled from the three
    orthant Hilbert bases of hilbert_shift at every shift: listed whole at
    or below the transport threshold and within the first period above
    it, transported beyond.
    """
    return assemble_graver(
        hilbert_shift(inst, OrthantLabel.PNP),
        hilbert_shift(inst, OrthantLabel.PPN),
        hilbert_shift(inst, OrthantLabel.NPP),
    )
