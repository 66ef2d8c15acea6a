import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import in_orthant
from gravershift import (
    InternalConsistencyError,
    InvalidInputError,
    OrthantLabel,
    OutsideScopeError,
    SegmentEndpoints,
    ShiftedFamily,
    TradeSet,
    canonical_rep,
    from_generators,
    length,
)
from gravershift.core import MAX_SHIFT, TradeSetMode, negate, sort_key
from gravershift.oracle import enumerate_trades
from gravershift.shift import _orthant_table, _plan


class TestShiftedFamily:
    def test_valid(self):
        fam = ShiftedFamily(2, 3, 1)
        assert fam.rho == 30
        assert fam.homogeneous_trade == (3, -5, 2)

    @pytest.mark.parametrize("a,b,d", [(2, 4, 1), (3, 6, 2), (2, 2, 1)])
    def test_non_coprime_rejected(self, a, b, d):
        with pytest.raises(InvalidInputError):
            ShiftedFamily(a, b, d)

    @pytest.mark.parametrize("a,b,d", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 1)])
    def test_non_positive_rejected(self, a, b, d):
        with pytest.raises(InvalidInputError):
            ShiftedFamily(a, b, d)

    def test_constants_231(self, fam231):
        fam = fam231
        assert (fam.rho, fam.b_plus, fam.b_plus_minus, fam.b_minus, fam.b_max) == (30, 4, 6, 5, 6)
        assert fam.homogeneous_trade == (3, -5, 2)

    def test_constants_111(self):
        fam = ShiftedFamily(1, 1, 1)
        assert (fam.rho, fam.b_plus, fam.b_plus_minus, fam.b_minus, fam.b_max) == (2, -2, 1, 0, 1)
        assert fam.homogeneous_trade == (1, -2, 1)

    def test_homogeneous_has_length_zero(self):
        for a, b, d in [(1, 1, 1), (2, 3, 1), (3, 4, 2), (2, 5, 3)]:
            assert length(ShiftedFamily(a, b, d).homogeneous_trade) == 0


class TestSemigroupInstance:
    def test_generators(self, inst19):
        assert inst19.generators == (17, 19, 22)

    def test_shift_too_small(self, fam231):
        with pytest.raises(InvalidInputError):
            fam231.instance(2)

    def test_shift_too_large(self, fam231):
        with pytest.raises(InvalidInputError):
            fam231.instance(MAX_SHIFT + 1)

    @pytest.mark.parametrize("t", [19.0, "19", Fraction(19)])
    def test_non_integer_shift_rejected(self, fam231, t):
        with pytest.raises(InvalidInputError, match="shift must be an integer"):
            fam231.instance(t)

    def test_gcd_t_d_rejected(self):
        with pytest.raises(OutsideScopeError):
            ShiftedFamily(1, 1, 2).instance(4)

    def test_evaluate(self, inst19):
        assert inst19.evaluate((3, -5, 2)) == 0
        assert inst19.evaluate((0, 0, 0)) == 0
        assert inst19.evaluate((1, 0, 0)) == 17

    def test_shifted(self, inst19):
        assert inst19.shifted().t == 49
        assert inst19.shifted(2).generators == (77, 79, 82)


class TestFromGenerators:
    def test_worked_example(self):
        inst = from_generators(77, 79, 82)
        fam = inst.family
        assert (inst.t, fam.a, fam.b, fam.d) == (79, 2, 3, 1)

    def test_figure_instance(self):
        inst = from_generators(47, 49, 52)
        assert (inst.t, inst.family.a, inst.family.b, inst.family.d) == (49, 2, 3, 1)

    def test_gcd_violation(self):
        # resolves to t=4, d=2: gcd(t, d) = 2 is outside the covered family
        with pytest.raises(OutsideScopeError):
            from_generators(2, 4, 6)

    @pytest.mark.parametrize("gens", [(5, 5, 7), (7, 5, 9), (0, 1, 2), (-3, 1, 2)])
    def test_bad_generators(self, gens):
        with pytest.raises(InvalidInputError):
            from_generators(*gens)

    @given(
        a=st.integers(1, 6),
        b=st.integers(1, 6),
        d=st.integers(1, 4),
        offset=st.integers(1, 200),
    )
    def test_round_trip(self, a, b, d, offset):
        if math.gcd(a, b) != 1:
            return
        t = d * a + offset
        if math.gcd(t, d) != 1:
            return
        inst = ShiftedFamily(a, b, d).instance(t)
        assert from_generators(*inst.generators) == inst


class TestEvaluateRewrites:
    """The generator pairing agrees with its three length-based rewrites."""

    @given(st.tuples(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500)))
    def test_forms_agree(self, v):
        inst = ShiftedFamily(2, 3, 1).instance(19)
        a, b, d, t = 2, 3, 1, 19
        ell = length(v)
        base = inst.evaluate(v)
        assert base == (t - d * a) * ell + d * a * v[1] + d * (a + b) * v[2]
        assert base == -d * a * v[0] + t * ell + d * b * v[2]
        assert base == -d * (a + b) * v[0] - d * b * v[1] + (t + d * b) * ell


class TestLatticeLengthFacts:
    """Coordinate sums of trades are multiples of d; sum-zero trades are
    multiples of the homogeneous trade."""

    @pytest.mark.parametrize("a,b,d,t", [(2, 3, 1, 19), (3, 4, 2, 25), (2, 5, 3, 31), (1, 3, 2, 7)])
    def test_enumerated_lattice(self, a, b, d, t):
        fam = ShiftedFamily(a, b, d)
        inst = fam.instance(t)
        h = fam.homogeneous_trade
        for v in enumerate_trades(inst, inst.generators[2]):
            assert length(v) % d == 0
            if length(v) == 0:
                k = v[0] // h[0] if h[0] else v[2] // h[2]
                assert (k * h[0], k * h[1], k * h[2]) == v


class TestCanonicalRep:
    def test_examples(self):
        assert canonical_rep((0, 22, -19)) == (0, -22, 19)
        assert canonical_rep((-19, 17, 0)) == (-19, 17, 0)
        assert canonical_rep((3, -5, 2)) == (3, -5, 2)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_rep((0, 0, 0))

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)))
    def test_pair_partition(self, v):
        if v == (0, 0, 0):
            return
        rep = canonical_rep(v)
        assert rep in (v, negate(v))
        assert canonical_rep(negate(v)) == rep
        assert canonical_rep(rep) == rep


class TestOrthants:
    def test_every_lattice_element_labelled(self, inst19):
        # assemble_graver's overlap proof: up to sign, every trade lies in
        # some orthant
        for v in enumerate_trades(inst19, 22):
            assert any(in_orthant(w, label) for w in (v, negate(v)) for label in OrthantLabel)


class TestStrips:
    """Strip membership as the transport table defines it, for (2,3,1)."""

    @staticmethod
    def strips(inst, orthant):
        return _orthant_table(inst.family)[orthant].strips

    @staticmethod
    def inside(v, strip):
        coord, limit, _ = strip
        return v[coord] < limit

    def test_pnp_strip(self, inst19):
        v0, v2 = self.strips(inst19, OrthantLabel.PNP)
        assert self.inside((0, -22, 19), v0)
        assert not self.inside((0, -22, 19), v2)

    def test_ppn_strips(self, inst19):
        v0, v1 = self.strips(inst19, OrthantLabel.PPN)
        assert self.inside((2, 4, -5), v0)  # 2 < b = 3
        assert not self.inside((22, 0, -17), v0)
        assert self.inside((22, 0, -17), v1)

    def test_npp_strips(self, inst19):
        v2, v1 = self.strips(inst19, OrthantLabel.NPP)
        assert self.inside((-8, 6, 1), v2)  # 1 < a = 2
        assert not self.inside((-8, 6, 1), v1)
        assert self.inside((-5, 1, 3), v1)

    def test_boundary_closed_vs_open(self, inst19):
        # PNP strips include the boundary, PPN/NPP strips exclude it
        pnp_v0, pnp_v2 = self.strips(inst19, OrthantLabel.PNP)
        assert self.inside((3, -5, 2), pnp_v0)
        assert self.inside((3, -5, 2), pnp_v2)
        assert not self.inside((3, 4, -6), self.strips(inst19, OrthantLabel.PPN)[0])

    def test_wrong_orthant_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            _plan(inst19, OrthantLabel.PNP, [(2, 4, -5)])

    def test_strip_orthants(self, inst19):
        # each strip bounds a coordinate that is non-negative in its orthant,
        # and its period map fixes that coordinate and moves the other two
        for orthant in OrthantLabel:
            strips = self.strips(inst19, orthant)
            assert {coord for coord, _, _ in strips} == set(orthant.nonneg_coords)
            for coord, _, unit in strips:
                assert [c for c in range(3) if unit[c] == 0] == [coord]


class TestTradeSet:
    def test_canonical_mode(self):
        ts = TradeSet.canonical([(0, 22, -19), (0, -22, 19), (3, -5, 2)])
        assert ts.mode is TradeSetMode.CANONICAL
        assert ts.trades == ((3, -5, 2), (0, -22, 19))
        assert all(canonical_rep(v) == v for v in ts)

    def test_with_negations(self):
        ts = TradeSet.canonical([(0, -22, 19), (3, -5, 2)]).with_negations()
        assert ts.mode is TradeSetMode.FULL
        # the negations, reversed, sort below every canonical member
        assert ts.trades == ((0, 22, -19), (-3, 5, -2), (3, -5, 2), (0, -22, 19))
        assert ts.trades == tuple(sorted(ts.trades, key=sort_key))

    def test_with_negations_needs_canonical(self):
        ts = TradeSet.canonical([(3, -5, 2)]).with_negations()
        with pytest.raises(InvalidInputError, match="canonical"):
            ts.with_negations()

    def test_single_given_twice_rejected(self):
        ts = TradeSet(((3, -5, 2), (3, -5, 2)), TradeSetMode.FULL)
        with pytest.raises(InternalConsistencyError, match="a single trade is given twice"):
            ts.pieces  # noqa: B018 - ordered and checked on first read

    def test_membership_and_iteration(self):
        ts = TradeSet(((1, 0, 0),), TradeSetMode.FULL)
        assert (1, 0, 0) in ts
        assert list(ts) == [(1, 0, 0)]

    # (-8, 6, 1), (-5, 1, 3), (-2, -4, 5) as a run of step h = (3, -5, 2)
    RUN = SegmentEndpoints((-8, 6, 1), (3, -5, 2), 3)
    LISTED = ((11, -11, 1), (-8, 6, 1), (-5, 1, 3), (-2, -4, 5), (0, -22, 19))

    def test_runs_count_and_compare_member_wise(self):
        ts = TradeSet(((11, -11, 1), (0, -22, 19)), TradeSetMode.CANONICAL, (self.RUN,))
        assert len(ts) == 5 and tuple(ts) == self.LISTED
        # equality ignores how the members are split into pieces
        assert ts == TradeSet(self.LISTED, TradeSetMode.CANONICAL)
        assert ts != TradeSet(self.LISTED, TradeSetMode.FULL)
        assert ts != TradeSet(self.LISTED[:-1], TradeSetMode.CANONICAL)
        assert (-5, 1, 3) in ts and (5, -1, -3) not in ts

    def test_membership_by_arithmetic(self):
        # every vector near the run answers as the listing does, and
        # none of them writes the listing out
        ts = TradeSet(((11, -11, 1), (0, -22, 19)), TradeSetMode.CANONICAL, (self.RUN,))
        near = [(x, y, z) for x in range(-12, 13) for y in range(-24, 13) for z in range(-1, 21)]
        assert [v in ts for v in near] == [v in self.LISTED for v in near]
        assert "trades" not in vars(ts)
        # one step before the start and after the end, off in v0 only, and
        # a list or a pair instead of a trade
        assert (-11, 11, -1) not in self.RUN and (1, -9, 7) not in self.RUN
        assert (-4, 1, 3) not in self.RUN
        assert [-5, 1, 3] not in ts and (-5, 1) not in ts

    def test_trades_written_out_on_first_read_only(self):
        ts = TradeSet(((11, -11, 1), (0, -22, 19)), TradeSetMode.CANONICAL, (self.RUN,))
        len(ts), list(ts), ts.with_negations()
        assert "trades" not in vars(ts)
        assert ts.trades == self.LISTED and "trades" in vars(ts)
        # without runs the ordered singles are the listing
        listed = TradeSet(self.LISTED[::-1], TradeSetMode.CANONICAL)
        assert listed.trades == listed.pieces == self.LISTED

    def test_with_negations_reverses_runs(self):
        ts = TradeSet(((11, -11, 1), (0, -22, 19)), TradeSetMode.CANONICAL, (self.RUN,))
        both = ts.with_negations()
        assert both.pieces == (
            (0, 22, -19),
            SegmentEndpoints((2, 4, -5), (3, -5, 2), 3),
            (-11, 11, -1),
            *ts.pieces,
        )
        assert both.trades == (*map(negate, reversed(self.LISTED)), *self.LISTED)
        assert both.trades == tuple(sorted(both.trades, key=sort_key))


def test_in_orthant_boundaries():
    assert in_orthant((0, 0, 1), OrthantLabel.PNP)
    assert in_orthant((0, 0, 1), OrthantLabel.NPP)
    assert not in_orthant((-1, 2, 3), OrthantLabel.PNP)
