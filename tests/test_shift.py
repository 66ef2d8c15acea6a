import functools
import math
import time
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    DIFF_FAMILIES,
    GOLDEN_M79,
    H19_NPP,
    H19_PNP,
    H19_PPN,
    H79_PNP,
    H94159_PNP,
    SEGMENT79_NPP,
    SEGMENT79_PPN,
)
from gravershift import (
    InternalConsistencyError,
    InvalidInputError,
    NoLengthTradeError,
    OrthantLabel,
    SegmentEndpoints,
    ShiftedFamily,
    TradeSet,
    assemble_graver,
    base_decomposition,
    effective_base_bound,
    enumerate_trades,
    from_generators,
    graver_oracle,
    graver_shift,
    hilbert_oracle,
    hilbert_shift,
    in_orthant,
    length,
    negative_segment,
    period_map,
    period_map_inverse,
    period_multiplier,
    positive_segment,
    transport,
)
from gravershift import oracle, shift
from gravershift.core import TradeSetMode, add, canonical_rep, negate, sort_key, sub
from gravershift.analysis import count_row
from gravershift.shift import (
    CompactBasis,
    _canonical_interior,
    _cf_hilbert,
    _ordered_pieces,
    _orthant_table,
    auto_oracle_bound,
    graver_count,
)


def _valid_shift_above(fam, t):
    """The least shift above t (and above d*a) coprime to d."""
    t = max(t, fam.d * fam.a) + 1
    while math.gcd(t, fam.d) != 1:
        t += 1
    return fam.instance(t)


def _full(trades):
    """A FULL-mode TradeSet of `trades`, deduplicated, in sort_key order."""
    return TradeSet(tuple(sorted(set(trades), key=sort_key)), TradeSetMode.FULL)


def _listed(trades):
    """A compact basis that lists every member, as an oracle basis does."""
    return CompactBasis(_full(trades).trades)


def _strictly_increasing(trades):
    keys = [sort_key(v) for v in trades]
    return all(u < w for u, w in zip(keys, keys[1:]))


@pytest.fixture
def fresh_plans():
    """An empty plan cache on entry and on exit, so a plan built under a
    monkeypatch neither comes from nor leaks into another test."""
    shift._cf_plan.cache_clear()
    yield
    shift._cf_plan.cache_clear()


def _within_oracle_scale(inst):
    side = 2 * inst.generators[2] + 1
    return side * side <= oracle._MAX_GRID_CELLS


class TestContinuedFractionReference:
    """The shift route's base case against the oracle's staircases."""

    @pytest.mark.parametrize(
        "a,b,d",
        [(a, b, d) for a in range(1, 5) for b in range(1, 5) for d in (1, 2) if math.gcd(a, b) == 1],
    )
    def test_matches_oracle(self, a, b, d):
        fam = ShiftedFamily(a, b, d)
        for t in range(d * a + 1, 90):
            if math.gcd(t, d) == 1:
                inst = fam.instance(t)
                for orthant in OrthantLabel:
                    assert _cf_hilbert(inst, orthant) == hilbert_oracle(inst, orthant).trades


class TestPeriodMultiplier:
    def test_concrete_values(self, fam231):
        assert period_multiplier(fam231, 0, 1) == 15  # b(a+b)
        assert period_multiplier(fam231, 1, 2) == 10  # a(a+b)
        assert period_multiplier(fam231, 0, 2) == 6  # ab

    def test_swapped_indices_negate(self, fam231):
        assert period_multiplier(fam231, 1, 0) == -15

    def test_equal_indices_rejected(self, fam231):
        with pytest.raises(InvalidInputError):
            period_multiplier(fam231, 1, 1)


class TestPeriodMap:
    def test_pnp_strip_example(self, fam231):
        assert period_map(fam231, 1, 2, (0, -22, 19), 2) == (0, -82, 79)

    def test_pnp_other_strip_example(self, fam231):
        assert period_map(fam231, 0, 1, (11, -11, 1), 2) == (41, -41, 1)

    def test_homogeneous_fixed(self, fam231):
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert period_map(fam231, i, j, (3, -5, 2), 7) == (3, -5, 2)

    @pytest.mark.parametrize("a,b,d,t", [(2, 3, 1, 19), (3, 4, 2, 25), (1, 1, 1, 2)])
    def test_length_lattice_and_inverse(self, a, b, d, t):
        fam = ShiftedFamily(a, b, d)
        inst = fam.instance(t)
        shifted = inst.shifted()
        for v in enumerate_trades(inst, inst.generators[2]):
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    w = period_map(fam, i, j, v)
                    assert length(w) == length(v)
                    assert shifted.evaluate(w) == 0
                    assert period_map_inverse(fam, i, j, w) == v


class TestFrobenius:
    def test_threshold_identity(self):
        # the ppn existence bound is the Frobenius number m*n - m - n of
        # <b, a+b> shifted by d*b
        for a, b, d in DIFF_FAMILIES:
            m, n = b, a + b
            assert ShiftedFamily(a, b, d).b_plus == m * n - m - n - d * b


class TestPositiveSegment:
    def test_t19_single_point(self, inst19):
        seg = positive_segment(inst19)
        assert (seg.start, seg.end, seg.count) == ((2, 4, -5), (2, 4, -5), 1)
        assert seg.step == (3, -5, 2)

    def test_t79(self, inst79):
        seg = positive_segment(inst79)
        assert (seg.start, seg.end, seg.count) == ((2, 24, -25), (14, 4, -17), 5)
        assert list(seg) == SEGMENT79_PPN

    def test_large_shift(self, fam231):
        seg = positive_segment(fam231.instance(94159))
        assert (seg.start, seg.end, seg.count) == (
            (2, 31384, -31385),
            (18830, 4, -18833),
            6277,
        )

    def test_at_threshold_fails(self, fam231):
        # b_plus = 4 for this family; exactly there no coordinate-sum-d trade exists
        with pytest.raises(NoLengthTradeError):
            positive_segment(fam231.instance(4))

    def test_members_all_valid(self, inst79):
        for v in positive_segment(inst79):
            assert inst79.evaluate(v) == 0
            assert length(v) == 1
            assert in_orthant(v, OrthantLabel.PPN)

    @pytest.mark.parametrize("t", [7, 11, 19, 36, 49, 79])
    def test_endpoints_extremal(self, fam231, t):
        inst = fam231.instance(t)
        seg = positive_segment(inst)
        candidates = [
            v
            for v in enumerate_trades(inst, inst.generators[2])
            if in_orthant(v, OrthantLabel.PPN) and length(v) == 1
        ]
        assert candidates
        assert seg.start[0] == min(v[0] for v in candidates)
        assert seg.end[1] == min(v[1] for v in candidates)
        assert set(seg) == set(candidates)


class TestSegmentEndpoints:
    # h = (3, -5, 2) for (2,3,1); _solve_segment relies on these two checks

    @pytest.mark.parametrize(
        "start,end,count",
        [((2, 4, -5), (2, 4, -5), 0), ((8, -6, -1), (2, 4, -5), -1)],  # empty; reversed
    )
    def test_count_below_one_rejected(self, start, end, count):
        with pytest.raises(InternalConsistencyError, match="count"):
            SegmentEndpoints(start, end, (3, -5, 2), count)

    @pytest.mark.parametrize(
        "end,count",
        [((5, -1, -3), 3), ((5, 0, -5), 2)],  # one step, not two; no multiple of h
    )
    def test_ends_not_whole_steps_apart_rejected(self, end, count):
        with pytest.raises(InternalConsistencyError, match="steps"):
            SegmentEndpoints((2, 4, -5), end, (3, -5, 2), count)

    @pytest.mark.parametrize(
        "step", [(0, -5, 2), (3, 0, 2), (3, -5, 0), (3, -5, -2), (-3, 5, -2)]
    )
    @pytest.mark.parametrize("count", [1, 2])
    def test_step_with_a_zero_entry_or_nonpositive_last_entry_rejected(self, step, count):
        # a zero entry makes a coordinate no range, and step[2] <= 0 breaks
        # the ascending order; the ends are whole steps apart
        end = tuple(s + (count - 1) * h for s, h in zip((2, 4, -5), step))
        with pytest.raises(InternalConsistencyError, match=r"step \("):
            SegmentEndpoints((2, 4, -5), end, step, count)

    def test_members_by_index_part_and_negation(self, inst79):
        seg = negative_segment(inst79)
        assert len(seg) == 8
        assert [seg[k] for k in range(len(seg))] == list(seg) == SEGMENT79_NPP
        with pytest.raises(IndexError):
            seg[8]
        assert list(seg.part(2, 5)) == SEGMENT79_NPP[2:5]
        assert list(seg.negated()) == [negate(v) for v in reversed(SEGMENT79_NPP)]


class TestNegativeSegment:
    def test_t19(self, inst19):
        seg = negative_segment(inst19)
        assert (seg.start, seg.end, seg.count) == ((-8, 6, 1), (-5, 1, 3), 2)

    def test_t79(self, inst79):
        seg = negative_segment(inst79)
        assert (seg.start, seg.end, seg.count) == ((-38, 36, 1), (-17, 1, 15), 8)
        assert list(seg) == SEGMENT79_NPP

    def test_large_shift(self, fam231):
        seg = negative_segment(fam231.instance(94159))
        assert (seg.start, seg.end, seg.count) == (
            (-47078, 47076, 1),
            (-18833, 1, 18831),
            9416,
        )

    def test_at_threshold_fails(self, fam231):
        # b_minus = 5 for this family
        with pytest.raises(NoLengthTradeError):
            negative_segment(fam231.instance(5))

    def test_members_all_valid(self, inst79):
        for v in negative_segment(inst79):
            assert inst79.evaluate(v) == 0
            assert length(v) == -1
            assert in_orthant(v, OrthantLabel.NPP)


class TestAdvance:
    """One-period steps of transport, checked against known bases."""

    def test_pnp_two_steps_reach_t79(self, fam231, inst19):
        basis = _full(H19_PNP)
        step1 = transport(inst19, OrthantLabel.PNP, basis, 1)
        step2 = transport(fam231.instance(49), OrthantLabel.PNP, step1.materialize(), 1)
        assert step2.materialize().as_set() == H79_PNP
        assert len(step1) == len(step2) == 5

    def test_ppn_growth(self, fam231, inst19):
        basis = _full(H19_PPN)
        step1 = transport(inst19, OrthantLabel.PPN, basis, 1)
        step2 = transport(fam231.instance(49), OrthantLabel.PPN, step1.materialize(), 1)
        assert (len(basis), len(step1), len(step2)) == (7, 9, 11)
        assert (
            step2.materialize().as_set()
            == hilbert_oracle(fam231.instance(79), OrthantLabel.PPN).as_set()
        )

    def test_single_point_segment_triples(self, fam231, inst19):
        # alpha = beta at t=19 seeds a 3-trade segment one period later
        step1 = transport(inst19, OrthantLabel.PPN, _full(H19_PPN), 1)
        assert {(2, 14, -15), (5, 9, -13), (8, 4, -11)} <= step1.materialize().as_set()

    def test_npp_growth(self, fam231, inst19):
        basis = _full(H19_NPP)
        step1 = transport(inst19, OrthantLabel.NPP, basis, 1)
        step2 = transport(fam231.instance(49), OrthantLabel.NPP, step1.materialize(), 1)
        assert (len(basis), len(step1), len(step2)) == (4, 7, 10)
        assert (
            step2.materialize().as_set()
            == hilbert_oracle(fam231.instance(79), OrthantLabel.NPP).as_set()
        )

    def test_below_threshold_rejected(self, fam231):
        inst6 = fam231.instance(6)
        with pytest.raises(InvalidInputError):
            transport(inst6, OrthantLabel.PNP, _full(H19_PNP), 1)

    def test_nonpositive_periods_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            transport(inst19, OrthantLabel.PNP, _full(H19_PNP), 0)

    def test_foreign_basis_detected(self, inst19):
        # a genuine trade, (2,4,-5) + (7,3,-8), outside both strips with
        # coordinate sum != d: the accounting must fail
        wrong = _full([(9, 7, -13)])
        with pytest.raises(InternalConsistencyError):
            transport(inst19, OrthantLabel.PPN, wrong, 1)

    def test_non_trade_member_rejected(self, fam231):
        # (0, 5, -4) has coordinate sum d and lies in the first strip, so the
        # cardinality check alone would balance
        base = fam231.instance(7)
        basis = hilbert_oracle(base, OrthantLabel.PPN).as_set() | {(0, 5, -4)}
        with pytest.raises(InvalidInputError, match="not a trade"):
            transport(base, OrthantLabel.PPN, _full(basis), 1)

    def test_segment_endpoint_mismatch_detected(self, inst19, monkeypatch):
        real = shift.positive_segment

        def shortened_later(inst):
            seg = real(inst)
            if inst == inst19:
                return seg
            return SegmentEndpoints(add(seg.start, seg.step), seg.end, seg.step, seg.count - 1)

        monkeypatch.setattr(shift, "positive_segment", shortened_later)
        with pytest.raises(InternalConsistencyError):
            transport(inst19, OrthantLabel.PPN, _full(H19_PPN), 1)

    def test_extremal_image_off_segment_detected(self, fam231, monkeypatch):
        # a solver that drops the first member at every shift still passes
        # the endpoint check (the map commutes with adding h), but the
        # image of the dropped base member is then off the target segment
        real = shift.positive_segment

        def without_first(inst):
            seg = real(inst)
            return SegmentEndpoints(add(seg.start, seg.step), seg.end, seg.step, seg.count - 1)

        base = fam231.instance(49)
        basis = hilbert_oracle(base, OrthantLabel.PPN)
        monkeypatch.setattr(shift, "positive_segment", without_first)
        with pytest.raises(InternalConsistencyError, match="not an end of the segment"):
            transport(base, OrthantLabel.PPN, basis, 1)

    @pytest.mark.parametrize("t", [13, 15, 17])
    def test_npp_threshold_is_existence_bound(self, t):
        # b_minus = 17 for (3,4,2), and t = 17 has no NPP trade of sum -d
        fam = ShiftedFamily(3, 4, 2)
        inst = fam.instance(t)
        basis = hilbert_oracle(inst, OrthantLabel.NPP)
        with pytest.raises(InvalidInputError):
            transport(inst, OrthantLabel.NPP, basis, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(1, 12),
        b=st.integers(1, 12),
        d=st.integers(1, 4),
        orthant=st.sampled_from(list(OrthantLabel)),
        data=st.data(),
    )
    def test_matches_oracle(self, a, b, d, orthant, data):
        # any base above the orthant's own threshold, one period up to a
        # target at most bound + 2*rho
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        lo = max(_orthant_table(fam)[orthant].threshold, d * a) + 1
        hi = effective_base_bound(fam) + fam.rho
        t = data.draw(st.sampled_from(range(lo, hi + 1)), label="t")
        assume(math.gcd(t, d) == 1)
        self._check_one_period(fam.instance(t), orthant)

    @pytest.mark.parametrize("orthant", list(OrthantLabel), ids=lambda o: o.value)
    def test_matches_reference_beyond_oracle_scale(self, orthant):
        # the target t + rho = 23123 needs box 23171, past the oracle's
        base = ShiftedFamily(11, 12, 4).instance(10979)
        assert not _within_oracle_scale(base.shifted())
        self._check_one_period(base, orthant)

    @staticmethod
    def _check_one_period(base, orthant):
        """transport one period from the oracle's base against the continued
        fraction at the target, and against the oracle within its scale."""
        got = transport(base, orthant, hilbert_oracle(base, orthant), 1).materialize().trades
        target = base.shifted()
        assert got == _cf_hilbert(target, orthant)
        if _within_oracle_scale(target):
            assert got == hilbert_oracle(target, orthant).trades

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(1, 6),
        b=st.integers(1, 6),
        d=st.integers(1, 3),
        periods=st.integers(1, 3),
        offset=st.integers(0, 200),
    )
    def test_sorted_by_construction(self, a, b, d, periods, offset):
        # transport and assembly build their order without a set-then-sort;
        # the result must be what the set-then-sort would have given
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        offset %= fam.rho
        for orthant in OrthantLabel:
            base = _valid_shift_above(fam, _orthant_table(fam)[orthant].threshold + offset)
            got = transport(base, orthant, hilbert_oracle(base, orthant), periods).materialize()
            assert got == _full(set(got.trades))
            assert _strictly_increasing(got)
        base = _valid_shift_above(fam, effective_base_bound(fam) + offset)
        parts = [transport(base, o, hilbert_oracle(base, o), periods) for o in OrthantLabel]
        written = [p.materialize() for p in parts]
        assert assemble_graver(*parts) == TradeSet.canonical(chain.from_iterable(written))


class TestSegmentGrowthIdentity:
    @pytest.mark.parametrize("t", [19, 29, 49, 79])
    def test_ppn_segment_grows_by_da(self, fam231, t):
        inst = fam231.instance(t)
        before = positive_segment(inst)
        after = positive_segment(inst.shifted())
        assert after.count == before.count + fam231.d * fam231.a
        assert after.start == period_map(fam231, 1, 2, before.start)
        assert after.end == period_map(fam231, 0, 2, before.end)

    @pytest.mark.parametrize("t", [19, 29, 49, 79])
    def test_npp_segment_grows_by_db(self, fam231, t):
        inst = fam231.instance(t)
        before = negative_segment(inst)
        after = negative_segment(inst.shifted())
        assert after.count == before.count + fam231.d * fam231.b
        assert after.start == period_map(fam231, 0, 1, before.start)
        assert after.end == period_map(fam231, 0, 2, before.end)


class TestBaseDecomposition:
    def test_worked_example(self):
        base, k = base_decomposition(from_generators(77, 79, 82))
        assert (base.t, k) == (19, 2)

    def test_large_shift(self):
        base, k = base_decomposition(from_generators(94157, 94159, 94162))
        assert (base.t, k) == (19, 3138)

    def test_base_case(self, fam231):
        inst = fam231.instance(6)
        assert base_decomposition(inst) == (inst, 0)

    def test_bounds(self):
        fam = ShiftedFamily(2, 3, 1)
        assert effective_base_bound(fam) == 6
        # the a(d-1) term of b_minus only matters for d >= 2
        assert ShiftedFamily(5, 1, 2).b_minus == 29
        assert effective_base_bound(ShiftedFamily(5, 1, 2)) == 29

    @pytest.mark.parametrize(
        "a,b,d,bound",
        [(2, 3, 1, 6), (3, 4, 2, 24), (2, 5, 3, 30), (150, 151, 1, 23018), (120, 151, 2, 22867)],
    )
    def test_auto_oracle_bound_is_the_last_box_the_oracle_walks(self, a, b, d, bound):
        # the last covered shift at the bound is walked; the next is past
        # b_max (the first three) or its box is refused (the last two)
        fam = ShiftedFamily(a, b, d)
        assert auto_oracle_bound(fam) == bound
        covered = [t for t in range(bound - d, bound + 2 * d + 1) if math.gcd(t, d) == 1]
        last = max(t for t in covered if t <= bound)
        after = min(t for t in covered if t > bound)
        assert len(hilbert_oracle(fam.instance(last), OrthantLabel.PNP)) > 0
        if after <= fam.b_max:
            with pytest.raises(InvalidInputError, match="beyond oracle scale"):
                hilbert_oracle(fam.instance(after), OrthantLabel.PNP)
            assert bound < fam.b_max
        else:
            assert bound == fam.b_max

    def test_base_always_valid(self):
        for a, b, d in DIFF_FAMILIES:
            fam = ShiftedFamily(a, b, d)
            for t in range(fam.d * fam.a + 1, fam.d * fam.a + 3 * fam.rho):
                if math.gcd(t, d) != 1:
                    continue
                base, k = base_decomposition(fam.instance(t))
                assert base.t + k * fam.rho == t
                assert base.t <= effective_base_bound(fam) + fam.rho


class TestHilbertShift:
    def test_large_pnp(self, fam231):
        got = hilbert_shift(fam231.instance(94159), OrthantLabel.PNP)
        assert got.materialize().as_set() == H94159_PNP

    @pytest.mark.parametrize("a,b,d", DIFF_FAMILIES)
    def test_closed_equals_iterative(self, a, b, d):
        # one jump of k periods equals k single-period steps
        fam = ShiftedFamily(a, b, d)
        bound = effective_base_bound(fam)
        for t in range(bound + 1, bound + fam.rho + 1):
            if t <= fam.d * fam.a or math.gcd(t, fam.d) != 1:
                continue
            base = fam.instance(t)
            for orthant in OrthantLabel:
                basis = hilbert_oracle(base, orthant)
                closed = transport(base, orthant, basis, 3).materialize()
                for k in range(3):
                    basis = transport(base.shifted(k), orthant, basis, 1).materialize()
                assert closed.trades == basis.trades, (a, b, d, t, orthant)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(1, 8),
        b=st.integers(1, 8),
        d=st.integers(1, 3),
        data=st.data(),
    )
    def test_cached_plan_equals_fresh_transport(self, a, b, d, data):
        # several k per base, called in shuffled order from one cached plan,
        # then again from a rebuilt one: a plan mutated by a call, or a
        # result that depends on the order of calls, differs somewhere
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        t0 = effective_base_bound(fam) + data.draw(st.integers(1, fam.rho), label="offset")
        assume(math.gcd(t0, d) == 1)
        base = fam.instance(t0)
        ks = data.draw(st.lists(st.integers(1, 300), min_size=2, max_size=4, unique=True), label="ks")
        calls = [(o, k) for o in OrthantLabel for k in ks]
        calls = data.draw(st.permutations(calls), label="order")
        shift._cf_plan.cache_clear()
        got = {}
        for orthant, k in calls:
            got[orthant, k] = hilbert_shift(base.shifted(k), orthant)
            assert got[orthant, k] == transport(base, orthant, _cf_hilbert(base, orthant), k)
        assert shift._cf_plan.cache_info().misses == len(OrthantLabel)
        shift._cf_plan.cache_clear()
        for orthant, k in reversed(calls):
            assert hilbert_shift(base.shifted(k), orthant) == got[orthant, k]

    def test_one_plan_per_base_and_orthant(self, fam231, fresh_plans):
        # 49, 79 and 169 all transport from the base shift 19
        for t in (49, 79, 169):
            for orthant in OrthantLabel:
                hilbert_shift(fam231.instance(t), orthant)
        info = shift._cf_plan.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    @pytest.mark.parametrize(
        "orthant,extra,error",
        [
            (OrthantLabel.PPN, (1, 0, 0), "is not a trade at t=19"),
            (OrthantLabel.NPP, (1, 0, 0), "is not a trade at t=19"),
            (OrthantLabel.PNP, (-1, 0, 1), "is not in the pnp orthant"),
            (OrthantLabel.PPN, (3, -5, 2), "is not in the ppn orthant"),
        ],
        ids=["ppn-non-trade", "npp-non-trade", "pnp-outside", "ppn-outside"],
    )
    def test_cached_path_checks_the_basis(
        self, fam231, monkeypatch, fresh_plans, orthant, extra, error
    ):
        # the plan runs transport's checks, so hilbert_shift raises what
        # transport raises on the same basis
        real = shift._cf_hilbert
        monkeypatch.setattr(shift, "_cf_hilbert", lambda inst, o: (*real(inst, o), extra))
        inst = fam231.instance(79)
        base, k = base_decomposition(inst)
        with pytest.raises(InvalidInputError, match=error) as direct:
            transport(base, orthant, shift._cf_hilbert(base, orthant), k)
        with pytest.raises(InvalidInputError) as cached:
            hilbert_shift(inst, orthant)
        assert (type(cached.value), str(cached.value)) == (type(direct.value), str(direct.value))


class TestAssemble:
    def test_t19_counts(self, inst19):
        merged = assemble_graver(_listed(H19_PNP), _listed(H19_PPN), _listed(H19_NPP))
        assert len(merged) == 13
        assert len(merged.with_negations()) == 26

    def test_overlap_is_three_boundary_trades(self, inst79):
        parts = [CompactBasis(hilbert_oracle(inst79, o).trades) for o in OrthantLabel]
        merged = assemble_graver(*parts)
        assert sum(len(p) for p in parts) - len(merged) == 3

    def test_missing_plane_trade_raises(self):
        npp = _listed(H19_NPP - {(-19, 17, 0)})
        with pytest.raises(InternalConsistencyError):
            assemble_graver(_listed(H19_PNP), _listed(H19_PPN), npp)

    def test_zero_vector_rejected(self):
        pnp = _listed(H19_PNP | {(0, 0, 0)})
        with pytest.raises(InvalidInputError, match="zero vector"):
            assemble_graver(pnp, _listed(H19_PPN), _listed(H19_NPP))

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            assemble_graver(_listed([]), _listed(H19_PPN), _listed(H19_NPP))

    def test_written_out_size_mismatch_raises(self, inst79, monkeypatch):
        # the merge must have graver_count's size: segments written out one
        # member short pass the boundary check but not this one
        parts = [hilbert_shift(inst79, o) for o in OrthantLabel]
        def without_first(segment):
            run = _canonical_interior(segment)
            return run.part(1, run.count)

        monkeypatch.setattr(shift, "_canonical_interior", without_first)
        with pytest.raises(InternalConsistencyError, match="merged 21 canonical trades, expected 23"):
            assemble_graver(*parts)


def _split(inst, orthant):
    """The oracle basis at inst as a compact one: its segment solved at
    inst, every other member listed.  Near the threshold the segments have
    one or two members, which transported bases never have."""
    basis = hilbert_oracle(inst, orthant)
    if orthant is OrthantLabel.PNP:
        return CompactBasis(basis.trades)
    segment = (positive_segment if orthant is OrthantLabel.PPN else negative_segment)(inst)
    on_segment = set(segment)
    compact = CompactBasis(tuple(v for v in basis if v not in on_segment), segment)
    assert len(compact) == len(basis)
    return compact


def _swapped_interiors(inst):
    """A stand-in for _canonical_interior at inst that gives each segment
    the other's canonical interior: two valid runs, laid with the PPN run,
    which lies wholly above the NPP run, first."""
    npp, ppn = (hilbert_shift(inst, o).segment for o in (OrthantLabel.NPP, OrthantLabel.PPN))
    swapped = {npp: _canonical_interior(ppn), ppn: _canonical_interior(npp)}
    return swapped.__getitem__


def _coprime_families():
    return [
        ShiftedFamily(a, b, d)
        for a in range(1, 7) for b in range(1, 7) for d in range(1, 4)
        if math.gcd(a, b) == 1
    ]


@functools.lru_cache(maxsize=1)
def _assembly_sweep():
    """(instance, compact bases) over coprime a, b <= 6 and d <= 3: bases
    listed whole (no segment), split from the oracle at the first three
    covered shifts above b_max and half a period on, and transported
    over one or two periods."""
    cases = []
    for fam in _coprime_families():
        near = _valid_shift_above(fam, fam.b_max)
        for inst in (near, _valid_shift_above(fam, near.t), _valid_shift_above(fam, near.t + 1),
                     _valid_shift_above(fam, fam.b_max + fam.rho // 2)):
            cases.append((inst, [_split(inst, o) for o in OrthantLabel]))
        cases.append((near, [hilbert_shift(near, o) for o in OrthantLabel]))
        for periods in (1, 2):
            inst = _valid_shift_above(fam, fam.b_max + periods * fam.rho + fam.rho // 3)
            cases.append((inst, [hilbert_shift(inst, o) for o in OrthantLabel]))
    return cases


class TestAssembleFromRuns:
    """assemble_graver lays the two canonical segment interiors end to end
    and inserts the boundary members; the listing must be the sorted
    canonical union of the written-out bases."""

    def test_equals_sorted_canonical_union(self):
        seen = set()
        for inst, parts in _assembly_sweep():
            written = [p.materialize() for p in parts]
            got = assemble_graver(*parts)
            assert got == TradeSet.canonical(chain.from_iterable(written)), inst
            assert _strictly_increasing(got)
            for p in parts[1:]:
                seen.add(min(p.segment.count, 3) if p.segment else None)
            seen.add(base_decomposition(inst)[1] >= 1)
        # no segment; segments of one and two members (no interior); longer
        # ones; and transported bases (k >= 1)
        assert seen == {None, 1, 2, 3, False, True}

    def test_split_assembly_is_the_oracle_basis(self):
        for inst, parts in _assembly_sweep():
            if base_decomposition(inst)[1] == 0:
                assert assemble_graver(*parts) == graver_oracle(inst), inst

    def test_interiors_separated_by_v2(self):
        # every NPP interior member has v2 < (t - d*a)/(a+b), every
        # canonical PPN interior member v2 > (t - d*a)/(a+b)
        both = 0
        for inst, (_, ppn, npp) in _assembly_sweep():
            fam = inst.family
            cut = inst.t - fam.d * fam.a
            npp_v2 = [v[2] for v in list(npp.segment)[1:-1]] if npp.segment else []
            ppn_v2 = [canonical_rep(v)[2] for v in list(ppn.segment)[1:-1]] if ppn.segment else []
            assert all(v2 * (fam.a + fam.b) < cut for v2 in npp_v2), inst
            assert all(v2 * (fam.a + fam.b) > cut for v2 in ppn_v2), inst
            both += bool(npp_v2 and ppn_v2)
        assert both > 100

    def test_reversed_interior_raises(self, monkeypatch):
        inst = from_generators(94157, 94159, 94162)
        parts = [hilbert_shift(inst, o) for o in OrthantLabel]
        monkeypatch.setattr(shift, "_canonical_interior", _swapped_interiors(inst))
        with pytest.raises(InternalConsistencyError, match="out of order"):
            assemble_graver(*parts)

    def test_members_before_and_after_the_runs(self):
        # runs laid end to end whole when every member lies before them, and
        # after the last member when every member lies past them
        h = (3, -5, 2)
        low = SegmentEndpoints((-8, 6, 1), (-2, -4, 5), h, 3)
        high = SegmentEndpoints((1, -9, 7), (7, -19, 11), h, 3)
        first, last = (11, -11, 1), (0, -22, 19)
        assert _ordered_pieces([low, high], [first]) == [first, low, high]
        assert _ordered_pieces([low, high], [last]) == [low, high, last]
        pieces = _ordered_pieces([low, high], [last, (-5, 2, 3), first])
        assert pieces == [first, low.part(0, 2), (-5, 2, 3), low.part(2, 3), high, last]

    def test_swapped_segments_fail_at_the_seam(self, inst79):
        # the PPN interior listed first lies wholly above the NPP one
        pnp, ppn, npp = (hilbert_shift(inst79, o) for o in OrthantLabel)
        swapped_ppn = CompactBasis(ppn.rest, npp.segment)
        swapped_npp = CompactBasis(npp.rest, ppn.segment)
        with pytest.raises(InternalConsistencyError, match="out of order"):
            assemble_graver(pnp, swapped_ppn, swapped_npp)

    def test_duplicated_boundary_member_raises(self, inst79):
        # an interior member also listed in rest passes the overlap check
        # (it is not shared between bases) but not the order check
        pnp, ppn, npp = (hilbert_shift(inst79, o) for o in OrthantLabel)
        inner = npp.segment[1]
        npp = CompactBasis(tuple(sorted((*npp.rest, inner), key=sort_key)), npp.segment)
        assert graver_count(pnp, ppn, npp) == 24
        with pytest.raises(InternalConsistencyError, match="strictly between"):
            assemble_graver(pnp, ppn, npp)
        with pytest.raises(InternalConsistencyError, match="strictly between"):
            npp.materialize()


class TestCompact:
    """The compact bases fast counts read, against their written-out form."""

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(1, 8), b=st.integers(1, 8), d=st.integers(1, 3), data=st.data())
    def test_lengths_match_materialized(self, a, b, d, data):
        # any covered shift in (b_max, b_max + 3*rho], drawn evenly, and the
        # first covered shift from 10^5
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        window = range(fam.b_max + 1, fam.b_max + 3 * fam.rho + 1)
        t = data.draw(st.sampled_from(window), label="t")
        assume(math.gcd(t, d) == 1)
        for inst in (fam.instance(t), _valid_shift_above(fam, 99_999)):
            compact = [hilbert_shift(inst, o) for o in OrthantLabel]
            full = [c.materialize() for c in compact]
            assert [len(c) for c in compact] == [len(f) for f in full]
            assert all(_strictly_increasing(f) for f in full)
            assert graver_count(*compact) == len(assemble_graver(*compact))

    def test_plane_trade_at_segment_end(self, fam231):
        # b = 3 divides t = 81, so the PPN segment starts at the v0 = 0 plane
        # trade (0, (t + d*b)/b, -t/b), which the PNP basis shares
        inst = fam231.instance(81)
        parts = [hilbert_shift(inst, o) for o in OrthantLabel]
        assert parts[1].segment.start == (0, 28, -27)
        assert (0, -28, 27) in parts[0].rest
        assert graver_count(*parts) == len(assemble_graver(*parts))

    def test_missing_plane_trade_raises(self, inst79):
        # the count-path twin of TestAssemble's: the boundary check sees it
        pnp, ppn, npp = (hilbert_shift(inst79, o) for o in OrthantLabel)
        assert (-79, 77, 0) in npp.rest
        npp = CompactBasis(tuple(v for v in npp.rest if v != (-79, 77, 0)), npp.segment)
        with pytest.raises(InternalConsistencyError, match="measured 2"):
            graver_count(pnp, ppn, npp)

    def test_empty_input_rejected(self, inst79):
        pnp, ppn, _ = (hilbert_shift(inst79, o) for o in OrthantLabel)
        with pytest.raises(InvalidInputError):
            graver_count(pnp, ppn, CompactBasis(()))

    def test_orthant_table_built_once_read_only(self, fam231):
        table = _orthant_table(fam231)
        assert _orthant_table(ShiftedFamily(2, 3, 1)) is table
        with pytest.raises(TypeError):
            table[OrthantLabel.PNP] = table[OrthantLabel.PPN]


class TestSegmentIsTheLongestStepStretch:
    """ROADMAP item 1's structural link, which the run form rests on.

    Listed along the cone's boundary (the continued fraction's order: the
    orthant's first non-negative coordinate descending), a PPN or NPP
    Hilbert basis above its threshold has exactly one longest stretch of
    consecutive members that differ by +-h, and it is the segment that
    transport carries: the segment is one edge of the boundary, and no
    other edge of a convex boundary has direction +-h.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(1, 8),
        b=st.integers(1, 8),
        d=st.integers(1, 3),
        orthant=st.sampled_from([OrthantLabel.PPN, OrthantLabel.NPP]),
        data=st.data(),
    )
    def test_longest_step_stretch_is_the_segment(self, a, b, d, orthant, data):
        # any covered shift from the orthant's threshold to b_max + 3*rho,
        # or one near 10^5
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        lo = max(_orthant_table(fam)[orthant].threshold, d * a) + 1
        t = data.draw(st.one_of(
            st.sampled_from(range(lo, fam.b_max + 3 * fam.rho + 1)),
            st.sampled_from([100_003, 100_019]),
        ), label="t")
        assume(math.gcd(t, d) == 1)
        inst = fam.instance(t)
        segment = (positive_segment if orthant is OrthantLabel.PPN else negative_segment)(inst)
        # a one-member segment ties with every lone member
        assume(segment.count >= 2)
        i = orthant.nonneg_coords[0]
        members = sorted(_cf_hilbert(inst, orthant), key=lambda v: -v[i])
        h = fam.homogeneous_trade
        stretches = [[members[0]]]
        for u, v in zip(members, members[1:]):
            if sub(v, u) in (h, negate(h)):
                stretches[-1].append(v)
            else:
                stretches.append([v])
        longest = max(map(len, stretches))
        found = [sorted(s, key=sort_key) for s in stretches if len(s) == longest]
        assert found == [list(segment)], (a, b, d, t, orthant)
        transported = hilbert_shift(inst, orthant).segment
        assert transported in (None, segment)

    def test_sort_order_splits_the_segment(self):
        # in sort_key order the plane trade (5, 0, -3) falls between the
        # PPN segment's first and second members at (1,1,1), t = 4, so the
        # listing holds the run in two parts around it
        inst = ShiftedFamily(1, 1, 1).instance(4)
        basis = hilbert_shift(inst, OrthantLabel.PPN)
        assert list(positive_segment(inst)) == [(0, 5, -4), (1, 3, -3), (2, 1, -2)]
        assert basis.materialize().pieces == (
            SegmentEndpoints((0, 5, -4), (0, 5, -4), (1, -2, 1), 1),
            (5, 0, -3),
            SegmentEndpoints((1, 3, -3), (2, 1, -2), (1, -2, 1), 2),
        )


class TestGraverShift:
    def test_worked_example(self):
        got = graver_shift(from_generators(77, 79, 82))
        assert list(got) == GOLDEN_M79

    # (1,1,1) has no base case: its b_max is d*a
    @pytest.mark.parametrize("a,b,d", DIFF_FAMILIES[1:])
    def test_assembles_below_threshold(self, a, b, d):
        # base cases are assembled from three listed bases, no segment
        fam = ShiftedFamily(a, b, d)
        for t in range(d * a + 1, effective_base_bound(fam) + 1):
            if math.gcd(t, d) == 1:
                inst = fam.instance(t)
                assert graver_shift(inst).trades == graver_oracle(inst).trades, t

    @pytest.mark.parametrize("t", [7, 19, 36, 49, 67, 96])
    def test_matches_oracle(self, fam231, t):
        inst = fam231.instance(t)
        assert graver_shift(inst).trades == graver_oracle(inst).trades

    def test_cardinality_law(self, fam231):
        # one period adds 2*d*(a+b) trades (counting both signs)
        for t in (7, 19, 31, 49):
            now = len(graver_shift(fam231.instance(t)))
            later = len(graver_shift(fam231.instance(t + 30)))
            assert 2 * (later - now) == 2 * fam231.d * (fam231.a + fam231.b)

    def test_large_shift_sorted_canonical_counted(self, fam231):
        # about 10^5 trades: ascending, canonical, and the period law from
        # the oracle's count at the base shift
        inst = fam231.instance(600_001)
        base, k = base_decomposition(inst)
        got = graver_shift(inst)
        assert got.mode is TradeSetMode.CANONICAL
        assert _strictly_increasing(got)
        assert all(canonical_rep(v) == v for v in got)
        assert len(got) == len(graver_oracle(base)) + k * fam231.d * (fam231.a + fam231.b)

    def test_membership_at_a_million_without_listing(self):
        # (1,1,1) at t = 10^6 has 1,000,003 members, nearly all in two runs;
        # writing them out to test one took about 4 s
        got = graver_shift(ShiftedFamily(1, 1, 1).instance(10**6))
        run = max((p for p in got.pieces if isinstance(p, SegmentEndpoints)), key=len)
        inside = run[run.count // 2]
        probes = (run.start, inside, run.end, sub(run.start, run.step), add(run.end, run.step),
                  add(inside, (0, 0, 1)), negate(inside))
        fastest = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            answers = [v in got for v in probes]
            fastest = min(fastest, time.perf_counter() - started)
        assert "trades" not in vars(got)
        assert fastest < 1e-3
        # the reference: one pass over the members, keeping the probes met
        met = {v for v in got if v in probes}
        assert answers == [v in met for v in probes]
        assert answers[:3] == [True] * 3 and answers[5:] == [False] * 2

    @pytest.mark.parametrize("a,b,d", [(1, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 2)])
    def test_matches_oracle_three_periods(self, a, b, d):
        # the heavier families get two-period coverage in the acceptance suite
        fam = ShiftedFamily(a, b, d)
        bound = effective_base_bound(fam)
        for t in range(bound + 1, bound + 3 * fam.rho + 1):
            if t <= fam.d * fam.a or math.gcd(t, fam.d) != 1:
                continue
            inst = fam.instance(t)
            assert graver_shift(inst).trades == graver_oracle(inst).trades, (a, b, d, t)


class TestShiftRouteWalksNoBox:
    @pytest.mark.parametrize("a,b,d", DIFF_FAMILIES)
    def test_oracle_never_called(self, a, b, d, monkeypatch):
        def refuse(inst):
            raise AssertionError(f"the oracle walked the box at t={inst.t}")

        monkeypatch.setattr(oracle, "_staircases", refuse)
        fam = ShiftedFamily(a, b, d)
        bound = effective_base_bound(fam)
        # the last base case (none for (1,1,1), where b_max = d*a), a shift
        # within the first period above it, and one near 10^6
        base_cases = [t for t in range(d * a + 1, bound + 1) if math.gcd(t, d) == 1]
        for inst in (*map(fam.instance, base_cases[-1:]),
                     _valid_shift_above(fam, bound + fam.rho // 2), _valid_shift_above(fam, 10**6)):
            assert inst.t <= bound + fam.rho or inst.t > 10**6
            graver = graver_shift(inst)
            for orthant in OrthantLabel:
                hilbert_shift(inst, orthant)
            assert count_row(inst, "fast").graver == 2 * len(graver)


class TestBeyondOracleScale:
    """Families whose boxes are past the oracle's grid cap even at the base
    shift; the continued fraction at t is the reference."""

    def test_base_case_listing(self):
        # k = 0 at t = 40,001: above b_max = 19,899, within the first period
        inst = ShiftedFamily(100, 101, 1).instance(40_001)
        assert not _within_oracle_scale(inst)
        assert base_decomposition(inst) == (inst, 0)
        got = graver_shift(inst)
        assert len(got) == 174
        assert all(canonical_rep(v) == v for v in got)
        assert _strictly_increasing(got)

    @pytest.mark.parametrize(
        "a,b,d,t,graver",
        [(100, 101, 1, 5_000_001, 1280), (150, 151, 1, 9_999_999, 982), (37, 64, 2, 3_000_001, 2600)],
    )
    def test_transported_rows(self, a, b, d, t, graver):
        fam = ShiftedFamily(a, b, d)
        inst = fam.instance(t)
        base, k = base_decomposition(inst)
        assert k >= 1 and not _within_oracle_scale(base)
        for orthant in OrthantLabel:
            assert hilbert_shift(inst, orthant).materialize().trades == _cf_hilbert(inst, orthant)
        row, at_base = count_row(inst, "fast"), count_row(base, "fast")
        assert row.graver == graver == at_base.graver + k * 2 * d * (a + b)
        assert (row.h_pnp, row.h_ppn, row.h_npp) == (
            at_base.h_pnp, at_base.h_ppn + k * d * a, at_base.h_npp + k * d * b
        )
