import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DIFF_FAMILIES, in_orthant
from gravershift import (
    InvalidInputError,
    OrthantLabel,
    ShiftedFamily,
    TradeSet,
    augment,
    base_decomposition,
    count_scan,
    differential_test,
    empirical_bounds,
    enumerate_trades,
    exhaustive_optimum,
    factorizations,
    from_generators,
    graver_shift,
    hilbert_oracle,
    length,
    verify_period_law,
)
from gravershift import analysis, shift
from gravershift.analysis import count_row, objective_value, valid_shifts
from gravershift.core import TradeSetMode, add, negate


class TestValidShifts:
    def test_skips_uncovered(self):
        fam = ShiftedFamily(3, 4, 2)
        shifts = valid_shifts(fam, 1, 12)
        assert shifts == [7, 9, 11]  # t > d*a = 6 and t odd

    def test_all_covered_for_d1(self, fam231):
        assert valid_shifts(fam231, 1, 6) == [3, 4, 5, 6]

    def test_row_cap(self, monkeypatch):
        # the span is counted from d*a + 1 = 7 and includes uncovered shifts
        monkeypatch.setattr(analysis, "MAX_ROWS", 5)
        fam = ShiftedFamily(3, 4, 2)
        assert valid_shifts(fam, -100, 11) == [7, 9, 11]
        with pytest.raises(InvalidInputError, match="7..12 spans 6 shifts"):
            valid_shifts(fam, -100, 12)
        with pytest.raises(InvalidInputError, match="at most 5"):
            count_scan(fam, 7, 12, "fast")

    @pytest.mark.parametrize(
        "family,lo,hi,first",
        [
            ((1, 1, 1), 999_999_999, 10**12, 1_000_000_001),
            # 10^9 + 1 = 7 * 142,857,143 is not covered when d = 7
            ((1, 1, 7), 999_999_990, 10**9 + 10, 1_000_000_002),
        ],
    )
    def test_refuses_the_first_covered_shift_past_max_shift(self, family, lo, hi, first):
        # a scan without `reach` names the first covered shift past
        # MAX_SHIFT, before any row is listed or counted
        message = rf"^shift t={first} exceeds the supported bound 1000000000$"
        with pytest.raises(InvalidInputError, match=message):
            count_scan(ShiftedFamily(*family), lo, hi)

    @pytest.mark.parametrize("a,b,d", [(1, 1, 1), (2, 3, 1), (3, 4, 2), (1, 3, 2), (2, 5, 3), (1, 1, 3)])
    def test_probes_the_largest_box_the_rows_walk(self, a, b, d, monkeypatch):
        # only a scan of method "oracle" is probed, at its largest box: its
        # last shift's, counted at t + reach, of radius n3 = t + reach + d*b,
        # checked by arithmetic.  An auto row walks a box only where the
        # oracle cannot refuse it, and a fast row walks none
        fam = ShiftedFamily(a, b, d)
        probed = []
        monkeypatch.setattr(analysis, "check_box", probed.append)
        bound, rho = fam.b_max, fam.rho
        edges = sorted({1, d * a + 2, bound - 1, bound, bound + 1, bound + rho // 3,
                        bound + rho - 1, bound + rho, bound + rho + 1, bound + 2 * rho + 5})
        for lo in edges:
            for hi in (*edges, bound + 3 * rho + 2):
                for reach in (0, rho):
                    for method in ("oracle", "fast", "auto"):
                        try:
                            shifts = valid_shifts(fam, lo, hi, reach=reach, method=method)
                        except InvalidInputError:
                            continue
                        expected = [shifts[-1] + reach + d * b] if method == "oracle" else []
                        assert probed == expected, (lo, hi, reach, method)
                        probed.clear()

    @pytest.mark.parametrize(
        "lo,hi,probe", [(22990, 23030, 23018), (23019, 23100, None), (44000, 44849, None)]
    )
    def test_auto_probe_stops_at_oracle_scale(self, lo, hi, probe, monkeypatch):
        # every shift here is a base case of (150,151,1) (b_max = 44,849),
        # but the box n3 = t + 151 passes the grid cap from t = 23,019 on:
        # an auto scan asks the oracle for each row up to `probe` once per
        # basis, and for none past it.  A box here takes about 0.15 s to
        # walk, so the oracle only records what it is asked
        asked = []
        monkeypatch.setattr(analysis, "hilbert_oracle", lambda inst, orthant: asked.append(inst.t) or ())
        monkeypatch.setattr(analysis, "graver_oracle", lambda inst: asked.append(inst.t) or ())
        count_scan(ShiftedFamily(150, 151, 1), lo, hi, "auto")
        oracle_rows = range(lo, probe + 1) if probe else []
        assert asked == [t for t in oracle_rows for _ in range(4)]


class TestCountScan:
    def test_oracle_row_t19(self, fam231):
        (row,) = count_scan(fam231, 19, 19, "oracle").rows
        assert (row.t, row.graver, row.h_pnp, row.h_ppn, row.h_npp) == (19, 26, 5, 7, 4)
        assert row.method == "oracle"

    def test_fast_row_t79(self, fam231, no_materialize):
        (row,) = count_scan(fam231, 79, 79, "fast").rows
        assert (row.t, row.graver, row.h_pnp, row.h_ppn, row.h_npp) == (79, 46, 5, 11, 10)

    def test_one_period_after_base(self, fam231):
        # 26 trades at t=19 plus one period increment of 2*d*(a+b) = 10
        assert count_row(fam231.instance(49), "oracle").graver == 36

    def test_auto_resolution(self, fam231):
        assert count_row(fam231.instance(5), "auto").method == "oracle"
        assert count_row(fam231.instance(79), "auto").method == "fast"

    def test_auto_takes_the_fast_route_beyond_oracle_scale(self):
        # both shifts are base cases of (150,151,1) (b_max = 44,849); the
        # box n3 = t + 151 is within the grid cap up to t = 23,018 only
        fam = ShiftedFamily(150, 151, 1)
        last, first = count_row(fam.instance(23018), "auto"), count_row(fam.instance(23019), "auto")
        assert (last.method, first.method) == ("oracle", "fast")
        assert last == dataclasses.replace(count_row(fam.instance(23018), "fast"), method="oracle")

    def test_oracle_vs_fast_agree(self, fam231):
        oracle_rows = count_scan(fam231, 7, 21, "oracle").rows
        fast_rows = count_scan(fam231, 7, 21, "fast").rows
        assert oracle_rows == tuple(
            type(r)(r.t, r.graver, r.h_pnp, r.h_ppn, r.h_npp, "oracle") for r in fast_rows
        )

    def test_bad_range(self, fam231):
        with pytest.raises(InvalidInputError):
            count_scan(fam231, 10, 5)

    def test_bad_method(self, fam231):
        with pytest.raises(InvalidInputError):
            count_row(fam231.instance(19), "guess")

    @pytest.mark.parametrize("method", ["oracle", "fast"])
    def test_assemble_identity_on_rows(self, fam231, method):
        # three boundary trades are shared pairwise between the orthant bases
        for row in count_scan(fam231, 7, 40, method).rows:
            assert row.graver == 2 * (row.h_pnp + row.h_ppn + row.h_npp - 3)


class TestCountsWithoutTrades:
    """Fast counts read segment lengths and never write a basis out."""

    def test_verify_answers(self, fam231, no_materialize):
        report = verify_period_law(fam231, 7, 96, method="fast")
        assert report.ok and len(report.rows) == 90

    def test_fast_row_reads_three_hilbert_shifts(self, fam231, monkeypatch, no_materialize):
        # the count path decomposes t once and reads the base's plans once,
        # then carries its three plans, one per orthant, without hilbert_shift
        shift._plans.cache_clear()
        decomposed, carried = [], []
        real_decomposition, real_carry = shift.base_decomposition, shift._carry

        def decomposition(inst):
            decomposed.append(inst.t)
            return real_decomposition(inst)

        def carry(plan, periods, target):
            carried.append((plan.base.t, plan.orthant, periods))
            return real_carry(plan, periods, target)

        def refuse(inst, orthant):
            raise AssertionError("the count path listed a basis")

        monkeypatch.setattr(shift, "base_decomposition", decomposition)
        monkeypatch.setattr(shift, "_carry", carry)
        monkeypatch.setattr(shift, "hilbert_shift", refuse)
        monkeypatch.setattr(analysis, "hilbert_shift", refuse)
        row = count_row(fam231.instance(79), "fast")
        assert decomposed == [79]
        assert carried == [(19, orthant, 2) for orthant in OrthantLabel]
        assert shift._plans.cache_info().misses == 1
        assert (row.graver, row.h_pnp, row.h_ppn, row.h_npp) == (46, 5, 11, 10)
        shift._plans.cache_clear()

    def test_near_max_shift_follows_period_law(self, no_materialize):
        # (1,1,1) has about 10^9 canonical trades here
        fam = ShiftedFamily(1, 1, 1)
        inst = fam.instance(999_999_999)
        base, k = base_decomposition(inst)
        row = count_row(inst, "fast")
        at_base = count_row(base, "oracle")
        d, a, b = fam.d, fam.a, fam.b
        assert (row.h_pnp, row.h_ppn, row.h_npp) == (
            at_base.h_pnp,
            at_base.h_ppn + k * d * a,
            at_base.h_npp + k * d * b,
        )
        assert row.graver == 2 * (row.h_pnp + row.h_ppn + row.h_npp - 3)
        assert row.graver == at_base.graver + k * 2 * d * (a + b)


class TestPeriodLaw:
    def test_clean_window(self, fam231):
        report = verify_period_law(fam231, 7, 36)
        assert report.ok
        assert len(report.rows) == 30
        for row in report.rows:
            assert (row.graver_increment, row.pnp_increment, row.ppn_increment, row.npp_increment) == (10, 0, 2, 3)

    def test_leading_coefficient(self, fam231):
        report = verify_period_law(fam231, 7, 8)
        assert report.leading_coefficient == Fraction(2, fam231.a * fam231.b)
        assert report.leading_coefficient == Fraction(1, 3)

    def test_small_family(self):
        fam = ShiftedFamily(1, 1, 1)
        report = verify_period_law(fam, 2, 8)
        assert report.ok
        assert report.expected_increment == 4

    def test_shifts_at_or_below_bound_excluded(self, fam231):
        report = verify_period_law(fam231, 3, 8)
        assert [row.t for row in report.rows] == [7, 8]

    def test_shift_plus_period_above_max_shift_rejected(self, no_materialize):
        # rho = 4158: 999,995,842 is the last shift with t + rho <= MAX_SHIFT,
        # and 999,995,843 the first covered one after it
        fam = ShiftedFamily(7, 11, 3)
        assert fam.rho == 4158
        with pytest.raises(InvalidInputError, match=r"t=999995843 .*t \+ rho = 1000000001"):
            verify_period_law(fam, 999_995_840, 999_995_846, method="fast")
        assert len(verify_period_law(fam, 999_995_840, 999_995_842, method="fast").rows) == 2


class TestEmpiricalBounds:
    def test_family_231(self, fam231):
        report = empirical_bounds(fam231, 40)
        assert report.family == fam231
        assert report.last_without_ppn_trade == 4
        assert report.last_reducible_homogeneous == 6
        assert report.last_without_npp_trade == 5
        assert report.homogeneous_reducible_at_dab is True

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(1, 6), b=st.integers(1, 6), d=st.integers(1, 3), data=st.data())
    def test_extremal_trade_found_in_hilbert_basis(self, a, b, d, data):
        # empirical_bounds asks the Hilbert basis whether a PPN trade of sum d
        # (an NPP trade of sum -d) exists; a scan of the whole box must agree
        assume(math.gcd(a, b) == 1)
        t = data.draw(st.sampled_from(range(d * a + 1, 201)), label="t")
        assume(math.gcd(t, d) == 1)
        inst = ShiftedFamily(a, b, d).instance(t)
        box = enumerate_trades(inst, inst.generators[2])
        for orthant, target in ((OrthantLabel.PPN, d), (OrthantLabel.NPP, -d)):
            in_box = any(in_orthant(v, orthant) and length(v) == target for v in box)
            in_basis = any(length(v) == target for v in hilbert_oracle(inst, orthant))
            assert in_basis == in_box

    def test_witness_decomposition(self, fam231):
        # the splitting of the homogeneous trade at t = d*a*b
        inst = fam231.instance(6)
        u, w = (3, -2, 0), (0, -3, 2)
        assert inst.evaluate(u) == 0 and inst.evaluate(w) == 0
        assert tuple(x + y for x, y in zip(u, w)) == fam231.homogeneous_trade

    def test_d2_family_reports_minus_mismatch(self):
        # b_minus carries +a(d-1), so it matches the observed threshold for d >= 2
        report = empirical_bounds(ShiftedFamily(3, 4, 2), 40)
        assert report.family.b_minus == 17 == report.last_without_npp_trade
        # t = d*a*b is even here, hence never scanned
        assert report.homogeneous_reducible_at_dab is None


class TestDifferential:
    def test_small_families(self):
        report = differential_test([ShiftedFamily(1, 1, 1), ShiftedFamily(1, 2, 1)], 1)
        assert report.ok
        assert len(report.rows) == 8
        assert all(row.fast_count == row.oracle_count for row in report.rows)

    def test_only_a_second_period_is_transported(self):
        # the window (b_max, b_max + periods*rho] starts with the first
        # period above the threshold, where every shift is its own base case
        # (k = 0): over the criterion-5 families one period compares no
        # transported basis, and two periods transport half the rows
        families = [ShiftedFamily(a, b, d) for a, b, d in DIFF_FAMILIES]
        for periods, rows, transported in ((1, 274, 0), (2, 548, 274)):
            report = differential_test(families, periods)
            ks = [base_decomposition(row.family.instance(row.t))[1] for row in report.rows]
            assert (len(ks), sum(k > 0 for k in ks)) == (rows, transported)
            assert report.ok

    def test_a_changed_member_is_a_mismatch(self, monkeypatch):
        # the routes are compared member by member, not by their counts
        def one_member_negated(inst):
            listed = tuple(graver_shift(inst))
            return TradeSet((*listed[:-1], negate(listed[-1])), TradeSetMode.CANONICAL)

        monkeypatch.setattr(analysis, "graver_shift", one_member_negated)
        report = differential_test([ShiftedFamily(1, 2, 1)], 1)
        assert report.rows and not report.ok
        assert all(r.fast_count == r.oracle_count and not r.equal for r in report.rows)

    def test_a_wrong_base_is_a_mismatch(self, monkeypatch):
        # a base PNP basis one member short meets every check of the shift
        # route (transport's size law counts the basis it is given), so only
        # the oracle can see it: each row whose base had such a member
        # differs, by that one canonical trade
        real = shift._cf_hilbert
        h = ShiftedFamily(2, 3, 1).homogeneous_trade

        def one_pnp_member_dropped(inst, orthant):
            basis = real(inst, orthant)
            inner = [v for v in basis if all(v) and v != h]
            if orthant is not OrthantLabel.PNP or not inner:
                return basis
            return tuple(v for v in basis if v != inner[0])

        monkeypatch.setattr(shift, "_cf_hilbert", one_pnp_member_dropped)
        shift._plans.cache_clear()
        try:
            report = differential_test([ShiftedFamily(2, 3, 1)], 1)
        finally:
            shift._plans.cache_clear()
        assert len(report.rows) == 30 and report.mismatches
        for row in report.rows:
            assert row.fast_count == row.oracle_count - (not row.equal)

    def test_empty_family_list(self):
        report = differential_test([], 2)
        assert report.ok
        assert report.rows == ()


class TestObjectiveValue:
    def test_exact_rationals(self):
        assert objective_value((Fraction(1, 2), 0, 1), (3, 9, 2)) == Fraction(7, 2)

    def test_integer_weights(self):
        assert objective_value((1, 1, 1), (2, 0, 5)) == 7


class TestAugment:
    def test_zero_is_fixed(self, inst19):
        assert augment(inst19, (0, 0, 0), (1, 1, 1), "min") == (0, 0, 0)

    def test_reaches_exhaustive_optimum(self, inst19):
        # 209 = 11*19 = 11*17 + 1*22 has several factorizations
        n = 209
        starts = factorizations(inst19, n)
        assert len(starts) >= 2
        for sense in ("min", "max"):
            for weights in ((1, 1, 1), (1, 0, -1)):
                best = exhaustive_optimum(inst19, n, weights, sense)
                for start in starts:
                    final = augment(inst19, start, weights, sense)
                    assert objective_value(weights, final) == best

    def test_terminal_value_start_invariant(self, inst19):
        n = 110  # 2*17 + 4*19 = 5*22
        values = {
            objective_value((1, 2, 3), augment(inst19, start, (1, 2, 3), "min"))
            for start in factorizations(inst19, n)
        }
        assert len(values) == 1

    def test_result_is_same_element(self, inst19):
        start = (3, 0, 2)
        final = augment(inst19, start, (0, 1, 0), "max")
        assert inst19.evaluate(final) == inst19.evaluate(start)
        assert min(final) >= 0

    def test_fractional_weights(self, inst19):
        final = augment(inst19, (3, 0, 2), (Fraction(1, 2), Fraction(1, 3), 1), "min")
        assert inst19.evaluate(final) == 95

    def test_negative_start_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            augment(inst19, (1, -1, 0), (1, 1, 1))

    def test_bad_sense_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            augment(inst19, (0, 0, 0), (1, 1, 1), "maximize")

    @pytest.mark.parametrize("weights", [(1, 1), (1, 1, 1, 1)])
    def test_objective_without_three_components_rejected(self, inst19, weights):
        with pytest.raises(InvalidInputError, match="objective must have 3 components"):
            augment(inst19, (3, 0, 2), weights)

    def test_exhaustive_on_gap_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            exhaustive_optimum(inst19, 1, (1, 1, 1))

    @pytest.mark.parametrize("gens", [(17, 19, 22), (77, 79, 82), (4, 6, 9), (5, 7, 9)], ids=str)
    def test_same_point_as_candidate_loop(self, gens):
        # (1,1,1) ties every move along the homogeneous trade, (0,0,0) and
        # the generators themselves tie every move
        inst = from_generators(*gens)
        objectives = [
            (1, 1, 1), (0, 0, 0), gens, (1, 0, -1), (3, -2, 1),
            (Fraction(1, 2), Fraction(1, 3), 1), (0, 1, 0),
        ]
        for n in (*range(0, 400, 19), 640):
            starts = factorizations(inst, n)
            for start in starts[:: max(1, len(starts) // 2)]:
                for weights in objectives:
                    for sense in ("min", "max"):
                        assert augment(inst, start, weights, sense) == _candidate_loop(
                            inst, start, weights, sense
                        ), (n, start, weights, sense)


def _candidate_loop(inst, start, weights, sense):
    """The walk as first written: every step evaluates the objective at each
    candidate and restarts after the first strict improvement."""
    w = tuple(Fraction(c) for c in weights)
    moves = []
    for g in graver_shift(inst):
        moves.append(g)
        moves.append(negate(g))
    better = (lambda x, y: x < y) if sense == "min" else (lambda x, y: x > y)
    current = tuple(start)
    value = objective_value(w, current)
    improved = True
    while improved:
        improved = False
        for g in moves:
            candidate = add(current, g)
            if min(candidate) < 0:
                continue
            candidate_value = objective_value(w, candidate)
            if better(candidate_value, value):
                current, value = candidate, candidate_value
                improved = True
                break
    return current
