"""Period transport: the fast route to Graver bases at large shifts.

The trade lattices at shifts t and t + rho are linked by length-weighted
linear maps that fix one coordinate and move the other two.  Each orthant's
Hilbert basis is carried along by the map that fixes its strip's bounded
coordinate; the trades of extremal coordinate sum (+d in the PPN orthant,
-d in the NPP orthant) instead form a line segment, stepped by the
homogeneous trade, that is re-solved directly at the target shift and grows
by d*a (resp. d*b) elements per period.  The segment is the non-negative
solutions of one two-variable congruence whose coefficients are the
strips' limits, since each end lies in its own strip; it is solved once,
for the start, and the end is whole steps of h on.  The three orthants
differ only in data (strips with their displacements per period, extremal
sum, growth, the segment equation's right-hand side and inverse,
threshold), which one table holds and one transport reads.  Transport is
affine in the number of periods k, so it is two steps: a plan, which
depends only on the base basis and holds every check on it (the base
segment solved, every member checked once, each extremal member in a
strip matched to the segment end that strip carries, each displacement
per period recorded), and a carry, which is arithmetic (v + k*delta per
member, the target segment solved on its own, then the endpoint and size
checks).  The base case is each orthant's Hirzebruch-Jung continued
fraction at a shift at most one period above the transport threshold, so
the route never enumerates a lattice.

One function, _bases, turns a shift into orthant bases: it decomposes t
once and gives, for each orthant asked for, the basis as its single
trades, its runs (the segment, or none) and its size.  At k = 0 that is
the continued fraction's walk, in the walk's order and uncached, for the
orthants asked for only; at k > 0 it is each orthant's plan carried k
periods, from an LRU cache of 341 base shifts that holds each one's three
plans, built together.  hilbert_shift, graver_shift and count_shift are
each a line or two over it.  Counting reads only the sizes and the
boundaries (singles and run ends); only a listing orders the members,
and no segment member is written out here.  Nothing here calls the
brute-force oracle, which stays an independent check; only its scale
limit is read, for the `auto` method's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Collection, NamedTuple, Sequence

from .core import (
    InternalConsistencyError,
    InvalidInputError,
    NoLengthTradeError,
    OrthantLabel,
    SegmentEndpoints,
    SemigroupInstance,
    ShiftedFamily,
    Trade,
    TradeSet,
    TradeSetMode,
    canonical_rep,
    length,
    scale,
    sub,
)
from .oracle import MAX_BOX
# unused here; the benchmark's tracer rebinds these names in this module
from .oracle import graver_oracle, hilbert_oracle  # noqa: F401


def period_map(fam: ShiftedFamily, i: int, j: int, v: Trade, periods: int = 1) -> Trade:
    """Transport v from the lattice at shift t to the one at t + periods*rho.

    One period adds m * length(v) * (e_i - e_j), where
    m = rho / (d * (r_j - r_i)) for offsets r = (-a, 0, b); rho = d*a*b*(a+b)
    is a multiple of d*a, d*b and d*(a+b), so the division is exact:

        (i, j)   m
        (0, 1)   b*(a+b)
        (0, 2)   a*b
        (1, 2)   a*(a+b)

    Swapping the indices negates m and swaps the coordinates it moves, so
    the (j, i) map is the (i, j) map.  Length-preserving and bijective;
    trades of length 0 are fixed.
    """
    if i == j or not {i, j} <= {0, 1, 2}:
        raise InvalidInputError(f"indices must be distinct and in {{0,1,2}}, got ({i}, {j})")
    r = (-fam.a, 0, fam.b)
    delta = periods * (fam.rho // (fam.d * (r[j] - r[i]))) * length(v)
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
    (so v1 < a+b).  Only the start is solved for; the end is the start
    plus v1 // (a+b) steps of h = (b, -(a+b), a).  Raises
    NoLengthTradeError when the equation has no non-negative solution,
    which is guaranteed not to happen above the b_plus threshold and
    guaranteed to happen at it.
    """
    return _solve_segment(inst, OrthantLabel.PPN)


def negative_segment(inst: SemigroupInstance) -> SegmentEndpoints:
    """Endpoints of the line of coordinate-sum-(-d) trades in the NPP orthant.

    Mirror of positive_segment: solve a*v1 + (a+b)*v2 = t - d*a, the start
    minimizing v2 (so v2 < a), the end minimizing v1 (so v1 < a+b) and
    v1 // (a+b) steps of h past the start; the trade is
    (-(v1+v2+d), v1, v2).
    """
    return _solve_segment(inst, OrthantLabel.NPP)


def _solve_segment(inst: SemigroupInstance, orthant: OrthantLabel) -> SegmentEndpoints:
    """Solve the orthant's segment equation cx*v[x] + cy*v[y] = t + rhs.

    x and y are the bounded coordinates of the orthant's two strips, and
    each end lies in its own strip, so cy is the first strip's limit and
    cx the second's.  The start is the solution with least v[x] (so
    v[x] < cy, in the first strip), and the only congruence solved.  Each
    step of h adds cy to v[x] and takes cx from v[y], so the end, the
    solution with least v[y] (v[y] < cx, in the second strip), is
    v[y] // cx steps on.  The remaining coordinate makes the coordinate
    sum extremal.  The start is checked to be a trade; h is one at every
    shift, so the end is too.
    """
    row = _orthant_table(inst.family)[orthant]
    (x, cy, _), (y, cx, _) = row.strips
    target = inst.t + row.rhs
    v = [row.extremal_sum] * 3
    v[x] = target * row.inverse % cy
    v[y] = (target - cx * v[x]) // cy
    if v[y] < 0:
        raise NoLengthTradeError(
            f"no trade of coordinate sum {row.extremal_sum} in the "
            f"{orthant.value} orthant at t={inst.t}"
        )
    v[3 - x - y] -= v[x] + v[y]
    v0, v1, v2 = start = tuple(v)
    n0, n1, n2 = inst.generators
    if n0 * v0 + n1 * v1 + n2 * v2:  # inst.evaluate(start), inlined
        raise InternalConsistencyError(f"segment endpoint {start} invalid at t={inst.t}")
    return SegmentEndpoints(start, inst.family.homogeneous_trade, v[y] // cx + 1)


@dataclass(frozen=True)
class _Orthant:
    """One orthant's row of the transport table.

    Each strip is a triple (coord, limit, unit): the orthant members v with
    v[coord] < limit, carried by the period map that fixes v[coord] and so
    maps the strip at shift t onto the strip at t + rho.  `unit` is that
    map's displacement of one period per unit of coordinate sum,
    m*(e_i - e_j) for the other two coordinates i, j.
    A Hilbert basis member outside both strips has coordinate sum
    extremal_sum; those members form the segment, whose equation is
    cx*v[x] + cy*v[y] = t + rhs with x, y the strips' bounded coordinates
    and cy, cx their limits; `inverse` is cx^-1 mod cy, all the start's
    solve needs.  PNP has no segment, so its extremal_sum is 0 (and rhs
    and inverse unused): its only basis member of sum 0 is the homogeneous
    trade, which lies in both strips.  One period adds `growth` members.
    Transport from shift t needs t > threshold.
    """

    strips: tuple[tuple[int, int, Trade], ...]
    extremal_sum: int
    growth: int
    threshold: int
    rhs: int = 0
    inverse: int = 0


# built once per family and shared read-only, since every transport and
# segment solve reads it
@lru_cache(maxsize=64)
def _orthant_table(fam: ShiftedFamily) -> MappingProxyType[OrthantLabel, _Orthant]:
    a, b, d = fam.a, fam.b, fam.d

    def strip(coord: int, limit: int) -> tuple[int, int, Trade]:
        # what one period adds to a trade of coordinate sum 1 on the map
        # that moves the other two coordinates
        i, j = (c for c in range(3) if c != coord)
        return coord, limit, sub(period_map(fam, i, j, (1, 0, 0)), (1, 0, 0))

    def segment(strips, extremal_sum, growth, threshold, rhs) -> _Orthant:
        # cx^-1 mod cy, for cy the first strip's limit and cx the second's
        (_, cy, _), (_, cx, _) = strips
        return _Orthant(strips, extremal_sum, growth, threshold, rhs, pow(cx, -1, cy))

    return MappingProxyType({
        OrthantLabel.PNP: _Orthant(
            strips=(strip(0, b + 1), strip(2, a + 1)),
            extremal_sum=0,
            growth=0,
            threshold=fam.b_plus_minus,
        ),
        OrthantLabel.PPN: segment(
            strips=(strip(0, b), strip(1, a + b)),
            extremal_sum=d,
            growth=d * a,
            threshold=fam.b_plus,
            rhs=d * b,
        ),
        OrthantLabel.NPP: segment(
            strips=(strip(2, a), strip(1, a + b)),
            extremal_sum=-d,
            growth=d * b,
            threshold=fam.b_minus,
            rhs=-d * a,
        ),
    })


def _segment(inst: SemigroupInstance, row: _Orthant) -> SegmentEndpoints | None:
    """The orthant's segment at inst, or None for PNP, which has none."""
    # looked up by module-global name, so a traced run can rebind them
    solve = positive_segment if row.extremal_sum > 0 else negative_segment
    return solve(inst) if row.extremal_sum else None


class _Plan(NamedTuple):
    """A base basis checked and classified for transport, for any number
    of periods.

    Each pair (v, delta) is a base trade and its displacement per period,
    length(v) times its strip's unit, so k periods carry v to v + k*delta.
    `moves` are the strip images listed off the target segment, and
    `segment` the base segment's start and end on their strips' maps,
    empty for PNP.  The base members of extremal sum are not kept: each
    is one of those ends, which the target segment supplies.
    """

    base: SemigroupInstance
    orthant: OrthantLabel
    row: _Orthant
    size: int
    moves: tuple[tuple[Trade, Trade], ...]
    segment: tuple[tuple[Trade, Trade], ...]


def _plan(base: SemigroupInstance, orthant: OrthantLabel, basis: Collection[Trade]) -> _Plan:
    """Solve the base segment, then check each member of `basis` once (in
    the orthant, a trade at base.t, in a strip or on the segment, and if
    both, the segment end that its strip carries) and pair it with its
    displacements.

    Every member rides the period map of each strip it lies in (the maps
    fix the strip's bounded coordinate, so k periods are one map with a
    k-fold correction); the members outside both strips have the extremal
    coordinate sum and form the segment, which is re-solved at the target
    shift.  A member of extremal sum in a strip must be the base segment's
    end that the strip's map carries (its start for the first strip, its
    end for the second); _carry requires the target segment's ends to be
    the images of the base segment's, so such a member's image is a
    target end for every number of periods.  Only the base members and
    the segment ends are touched, so no step grows with k.

    A PNP member may lie in both strips and then rides both maps.  That is
    safe: for t > d*a*b such a trade v has t*length(v) = d*(a*v0 - b*v2)
    with 0 <= v0 <= b and 0 <= v2 <= a, so |t*length(v)| <= d*a*b < t, its
    length is 0 and both maps fix it.  A PPN or NPP member in both strips
    is a single-point segment; its two images are the two ends of the new
    segment.
    """
    row = _orthant_table(base.family)[orthant]
    if base.t <= row.threshold:
        raise InvalidInputError(
            f"{orthant.value} transport needs t > {row.threshold}, got t={base.t}"
        )
    before = _segment(base, row)
    ends = (before.start, before.end) if before else ()
    n0, n1, n2 = base.generators
    i, j = orthant.nonneg_coords
    on_line = row.extremal_sum if ends else None  # the segment's coordinate sum
    (c0, limit0, (p0, p1, p2)), (c1, limit1, (q0, q1, q2)) = row.strips
    moves: dict[tuple[Trade, Trade], None] = {}
    for v in basis:
        v0, v1, v2 = v
        if v[i] < 0 or v[j] < 0:
            raise InvalidInputError(f"{v} is not in the {orthant.value} orthant")
        if n0 * v0 + n1 * v1 + n2 * v2:
            raise InvalidInputError(f"{v} is not a trade at t={base.t}")
        s = v0 + v1 + v2
        first, second = v[c0] < limit0, v[c1] < limit1
        if s == on_line:
            if (first and v != ends[0]) or (second and v != ends[1]):
                raise InternalConsistencyError(
                    f"{orthant.value} element {v} has coordinate sum {s} "
                    f"but is not an end of the segment at t={base.t}"
                )
        elif not (first or second):
            raise InternalConsistencyError(
                f"{orthant.value} element {v} lies outside both strips and off the "
                f"segment at t={base.t}"
            )
        else:
            # displaced per period by s times the unit of each strip it lies in
            if first:
                moves[v, (s * p0, s * p1, s * p2)] = None
            if second:
                moves[v, (s * q0, s * q1, s * q2)] = None
    segment = tuple(
        (end, scale(row.extremal_sum, unit)) for end, (_, _, unit) in zip(ends, row.strips)
    )
    return _Plan(base, orthant, row, len(basis), tuple(moves), segment)


# an orthant basis as _bases gives it: its single trades in any order (a
# tuple, or the set a carry builds), its runs (the segment, or none) and its
# size
_Basis = tuple[Collection[Trade], tuple[SegmentEndpoints, ...], int]


def _carry(plan: _Plan, periods: int, target: SemigroupInstance) -> _Basis:
    """The planned basis `periods` periods on, at `target`, checked: the
    images off the segment by arithmetic, the target segment solved on its
    own and its ends checked against the images of the base ends, and the
    size law, periods*growth members more than the base basis.  Returns
    the set of images as the singles, the segment as the runs (none for
    PNP) and the size."""
    if periods < 1:
        raise InvalidInputError(f"transport needs periods >= 1, got {periods}")
    orthant, row = plan.orthant, plan.row
    run = _segment(target, row)
    if run is not None:
        expected = [
            (v0 + periods * d0, v1 + periods * d1, v2 + periods * d2)
            for (v0, v1, v2), (d0, d1, d2) in plan.segment
        ]
        if [run.start, run.end] != expected:
            raise InternalConsistencyError(
                f"{orthant.value} segment at t={target.t} "
                f"is {run.start}..{run.end}, expected {expected[0]}..{expected[1]}"
            )
    # a set, so two strips carrying members to one image fail the size law
    images = {
        (v0 + periods * d0, v1 + periods * d1, v2 + periods * d2)
        for (v0, v1, v2), (d0, d1, d2) in plan.moves
    }
    size = len(images) + (0 if run is None else run.count)
    if size != plan.size + periods * row.growth:
        raise InternalConsistencyError(
            f"{orthant.value} transport at t={plan.base.t} over {periods} periods: expected "
            f"{plan.size + periods * row.growth} elements, got {size}"
        )
    return images, () if run is None else (run,), size


def auto_oracle_bound(fam: ShiftedFamily) -> int:
    """Largest shift the `auto` method sends to the oracle: one at or below
    the transport threshold whose box, of radius n3 = t + d*b, the oracle
    walks rather than refuses.  Every other shift takes the shift route."""
    return min(fam.b_max, MAX_BOX - fam.d * fam.b)


def base_decomposition(inst: SemigroupInstance) -> tuple[SemigroupInstance, int]:
    """Write t = t0 + k*rho with k maximal such that t0 = t - k*rho stays above
    the transport threshold, so t0 lies in (bound, bound + rho]; at or below
    the threshold t0 = t and k = 0.  Returns (base instance, k)."""
    bound = inst.family.b_max
    if inst.t <= bound:
        return inst, 0
    k = (inst.t - bound - 1) // inst.family.rho
    base = SemigroupInstance(inst.family, inst.t - k * inst.family.rho)
    return base, k


def _cf_hilbert(inst: SemigroupInstance, orthant: OrthantLabel) -> tuple[Trade, ...]:
    """Hilbert basis of one orthant by its Hirzebruch-Jung continued
    fraction, as full vectors in the walk's order (a listing orders them),
    with no lattice enumerated.

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
    return tuple(out)


# each base shift's three plans, kept while a scan revisits the base (verify
# counts at t and at t + rho, both from one base).  A plan keeps the base
# basis's strip members, at most one per value of a strip's bounded
# coordinate, and its segment's two ends, never the segment's interior, so
# it holds at most 2*(a+b) + 2 trades, whatever t.  341 base shifts are
# 1,023 plans; a scan over consecutive t, each of its own base, fills it.
@lru_cache(maxsize=341)
def _plans(base: SemigroupInstance) -> dict[OrthantLabel, _Plan]:
    """The checked plans of the three continued-fraction bases at a base
    shift above the transport threshold, keyed in OrthantLabel order."""
    return {orthant: _plan(base, orthant, _cf_hilbert(base, orthant)) for orthant in OrthantLabel}


def _bases(
    inst: SemigroupInstance, orthants: Sequence[OrthantLabel] = tuple(OrthantLabel)
) -> list[_Basis]:
    """The Hilbert basis of each orthant in `orthants` at inst, as
    (singles, runs, size), from one decomposition of t: at k = 0 the
    continued fraction of just those orthants, walked afresh; at k > 0 the
    base's cached plans, read once, each carried k periods by _carry with
    every check (the target segment against the carried base ends, the
    size law).  The base's three plans are built together, so a base basis
    that fails its plan's checks in any orthant fails every orthant's
    transport from that base."""
    base, k = base_decomposition(inst)
    if not k:
        walks = [_cf_hilbert(base, orthant) for orthant in orthants]
        return [(walk, (), len(walk)) for walk in walks]
    plans = _plans(base)
    return [_carry(plans[orthant], k, inst) for orthant in orthants]


def hilbert_shift(inst: SemigroupInstance, orthant: OrthantLabel) -> TradeSet:
    """Hilbert basis of one orthant, FULL mode, from _bases: at k = 0 the
    continued fraction's walk as singles, beyond it a few singles and at
    most one run, so O(1) in t to build and to count; ordered only when
    listed."""
    [(singles, runs, _)] = _bases(inst, (orthant,))
    return TradeSet(tuple(singles), TradeSetMode.FULL, runs)


def count_shift(inst: SemigroupInstance) -> tuple[int, int, int, int]:
    """The canonical Graver count and the PNP, PPN and NPP Hilbert counts
    at inst: len(graver_shift(inst)) and len(hilbert_shift(inst, o)), read
    off _bases with no basis built or ordered; the overlap of 3 is
    measured on the boundaries, as assemble_graver measures it."""
    bases = _bases(inst)
    return (_canonical_boundary(bases)[1], *[size for _, _, size in bases])


def _canonical_boundary(bases: Sequence[_Basis]) -> tuple[set[Trade], int]:
    """The canonical boundary members of three orthant Hilbert bases,
    given as (singles, runs, size), and the size of the canonical Graver
    basis they give, read without ordering them.

    The size is the sum of the sizes less 3, and the overlap of 3 is
    measured, not assumed, on the boundary members only: each basis's
    singles and its runs' two ends, canonicalized.  A basis's runs are its
    segment, of extremal coordinate sum, or none.

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
    segment end nor a single, which transport keeps free of extremal-sum
    members.  The overlap of the full bases is therefore the overlap of
    their boundaries.  Any other value than 3 means a basis is wrong, so
    it raises InternalConsistencyError.
    """
    sizes = [size for _, _, size in bases]
    if 0 in sizes:
        raise InvalidInputError("orthant Hilbert bases are never empty for a valid instance")
    boundaries = [
        {*singles, *[v for run in runs for v in (run.start, run.end)]} for singles, runs, _ in bases
    ]
    union = set(map(canonical_rep, chain.from_iterable(boundaries)))
    overlap = sum(map(len, boundaries)) - len(union)
    if overlap != 3:
        raise InternalConsistencyError(
            f"expected 3 shared boundary trades, measured {overlap}"
        )
    return union, sum(sizes) - overlap


def _canonical_interior(segment: SegmentEndpoints) -> SegmentEndpoints | None:
    """The segment's members strictly between its ends, canonicalized, as
    an ascending run; None when there are none.

    They share one sign pattern (_canonical_boundary), so canonicalizing
    keeps them all or negates them all, and negation keeps the step and
    reverses the run: start+h .. end-h, or -end+h .. -start-h.
    """
    if segment.count < 3:
        return None
    interior = segment.part(1, segment.count - 1)
    return interior if canonical_rep(interior.start) == interior.start else interior.negated()


def assemble_graver(h_pnp: TradeSet, h_ppn: TradeSet, h_npp: TradeSet) -> TradeSet:
    """Union of the three Hilbert bases and their negations, canonicalized,
    ordered and checked here, without a sort or a write-out of the
    segment interiors.

    Almost every member lies inside the PPN or the NPP segment, and each
    canonical interior is one arithmetic run of step h = (b, -(a+b), a);
    h2 = a > 0, so each run ascends strictly.  The runs do not interleave.
    An NPP interior member v has coordinate sum -d and pairs to 0 with the
    generators, so v2 = (t - d*a - a*v1)/(a+b) < (t - d*a)/(a+b), because
    v1 > 0 (_canonical_boundary).  A PPN interior member u has sum d, and its
    canonical rep -u has v2 = (t - d*a + a*u1)/(a+b) > (t - d*a)/(a+b),
    because u1 > 0.  sort_key compares v2 first, so the NPP run lies wholly
    below the PPN run, and their concatenation ascends.  The boundary
    members (canonical reps of every single and run end,
    _canonical_boundary's set) are few above the threshold, and all
    members when there is no segment; they are the result's singles.

    Strict order is checked where pieces meet: the ends of both runs, in
    order, cover each run's direction and the seam; each single inside a
    run's span must lie strictly between two of its members.  Inside a run
    the order holds by construction, so the whole listing ascends
    strictly.  Its size must be _canonical_boundary's, which measures the
    overlap; any other size or order raises InternalConsistencyError.
    """
    parts = (h_pnp, h_ppn, h_npp)
    boundary, expected = _canonical_boundary([(p.singles, p.runs, len(p)) for p in parts])
    interiors = map(_canonical_interior, (*h_npp.runs, *h_ppn.runs))
    runs = tuple(run for run in interiors if run is not None)
    merged = TradeSet(tuple(boundary), TradeSetMode.CANONICAL, runs)
    merged.pieces  # noqa: B018 - ordered and checked now, not when first listed
    if len(merged) != expected:
        raise InternalConsistencyError(
            f"merged {len(merged)} canonical trades, expected {expected}"
        )
    return merged


def graver_shift(inst: SemigroupInstance) -> TradeSet:
    """Graver basis of inst, canonical mode, assembled from the three
    orthant Hilbert bases that _bases gives: listed whole at or below the
    transport threshold and within the first period above it, transported
    beyond.
    """
    parts = [TradeSet(tuple(singles), TradeSetMode.FULL, runs) for singles, runs, _ in _bases(inst)]
    return assemble_graver(*parts)
