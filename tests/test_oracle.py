import ast
import math
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_M19, GOLDEN_M79, H19_NPP, H19_PNP, H19_PPN, in_orthant
from gravershift import (
    InvalidInputError,
    OrthantLabel,
    ShiftedFamily,
    enumerate_trades,
    factorizations,
    from_generators,
    graver_oracle,
    hilbert_oracle,
    length,
)
from gravershift import oracle
from gravershift.core import TradeSetMode, negate, sort_key, sub
from gravershift.oracle import MAX_BOX, iter_factorizations
from gravershift.shift import graver_shift


def is_conformal(u, v):
    """True iff u lies below v in the conformal order: same signs, no larger magnitudes."""
    return all(ui * vi >= 0 and abs(ui) <= abs(vi) for ui, vi in zip(u, v))


def _minima_by_scan(pool):
    """Conformal minima of `pool`: each vector checked against the kept
    minima of smaller 1-norm."""
    kept = []
    for v in sorted(pool, key=lambda v: sum(map(abs, v))):
        if not any(is_conformal(u, v) for u in kept):
            kept.append(v)
    return set(kept)


def _threshold_shifts(a, b, d):
    """The largest shift at or below the transport threshold and the
    smallest above it (gcd(t, d) = 1 and t > d*a for both)."""
    fam = ShiftedFamily(a, b, d)
    bound = fam.b_max
    valid = [t for t in range(d * a + 1, bound + d + 2) if math.gcd(t, d) == 1]
    below = [t for t in valid if t <= bound]
    above = [t for t in valid if t > bound]
    return ([below[-1]] if below else []) + above[:1]


CERTIFICATE_CASES = [
    (a, b, d, t)
    for a in range(1, 7)
    for b in range(1, 7)
    if math.gcd(a, b) == 1
    for d in range(1, 4)
    for t in _threshold_shifts(a, b, d)
]


class TestEnumerate:
    def test_contains_homogeneous_both_signs(self, inst19):
        ts = enumerate_trades(inst19, 5)
        assert (3, -5, 2) in ts
        assert (-3, 5, -2) in ts

    def test_small_box_empty(self, inst19):
        assert len(enumerate_trades(inst19, 2)) == 0

    def test_never_contains_zero(self, inst19):
        for box in (1, 3, 10):
            assert (0, 0, 0) not in enumerate_trades(inst19, box)

    # gcd(n1, t) = 1, 2, 3, 2, 3; a box above t steps several v0 per v2
    @pytest.mark.parametrize(
        "a,b,d,t,box",
        [(1, 2, 1, 5, 8), (2, 3, 1, 20, 9), (3, 4, 2, 27, 12), (2, 3, 1, 20, 25), (3, 4, 2, 27, 30)],
    )
    def test_matches_naive_triple_scan(self, a, b, d, t, box):
        inst = ShiftedFamily(a, b, d).instance(t)
        naive = [
            (x, y, z)
            for x in range(-box, box + 1)
            for y in range(-box, box + 1)
            for z in range(-box, box + 1)
            if (x, y, z) != (0, 0, 0) and inst.evaluate((x, y, z)) == 0
        ]
        assert enumerate_trades(inst, box).trades == tuple(sorted(naive, key=sort_key))

    def test_bad_box(self, inst19):
        with pytest.raises(InvalidInputError):
            enumerate_trades(inst19, 0)

    def test_oversized_box_refused(self, inst19):
        with pytest.raises(InvalidInputError):
            enumerate_trades(inst19, 10**6)

    def test_full_mode(self, inst19):
        assert enumerate_trades(inst19, 5).mode is TradeSetMode.FULL


class TestConformal:
    def test_scalar_multiple(self):
        assert is_conformal((3, -5, 2), (6, -10, 4))

    def test_sign_mismatch(self):
        assert not is_conformal((3, -5, 2), (3, 5, 2))

    def test_zero_below_everything(self):
        assert is_conformal((0, 0, 0), (7, -1, 4))

    def test_reflexive(self):
        assert is_conformal((1, -2, 3), (1, -2, 3))

    def test_magnitude(self):
        assert not is_conformal((4, 0, 0), (3, 0, 0))


class TestGraverOracle:
    def test_m19_golden(self, inst19):
        assert list(graver_oracle(inst19)) == GOLDEN_M19

    def test_m79_golden(self, inst79):
        assert list(graver_oracle(inst79)) == GOLDEN_M79

    def test_sharpness_instance(self, fam231):
        # at t = d*a*b the homogeneous trade splits and leaves the basis
        full = graver_oracle(fam231.instance(6)).with_negations()
        assert (3, -5, 2) not in full
        assert (3, -2, 0) in full
        assert (0, -3, 2) in full

    def test_negation_closure(self, inst19):
        full = frozenset(graver_oracle(inst19).with_negations())
        assert full == {negate(v) for v in full}

    def test_members_are_minimal_trades(self, inst19):
        basis = graver_oracle(inst19).with_negations()
        pool = frozenset(enumerate_trades(inst19, 2 * inst19.generators[2]))
        for v in basis:
            assert inst19.evaluate(v) == 0
            reducers = [u for u in pool if u not in ((0, 0, 0), v) and is_conformal(u, v)]
            assert not reducers, f"{v} reducible via {reducers[:3]}"


class TestRadius:
    @pytest.mark.parametrize("a,b,d,t", CERTIFICATE_CASES)
    def test_twice_the_radius_changes_nothing(self, a, b, d, t):
        # the doubling certificate: minima in the box of radius 2*n3 equal
        # the oracle's, and all of them fit in half that box
        inst = ShiftedFamily(a, b, d).instance(t)
        n3 = inst.generators[2]
        pool = enumerate_trades(inst, 2 * n3).trades
        graver = frozenset(graver_oracle(inst).with_negations())
        assert _minima_by_scan(pool) == graver
        for orthant in OrthantLabel:
            inside = [v for v in pool if in_orthant(v, orthant)]
            assert _minima_by_scan(inside) == frozenset(hilbert_oracle(inst, orthant))
        assert max(abs(x) for v in graver for x in v) <= n3


class TestStaircase:
    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(1, 8), b=st.integers(1, 8), d=st.integers(1, 3), data=st.data())
    def test_matches_conformal_definition(self, a, b, d, data):
        # any covered shift t <= 200, drawn evenly rather than biased to small
        # ones: each orthant's staircase and their union are the conformal
        # minima of the box trades
        assume(math.gcd(a, b) == 1)
        t = data.draw(st.sampled_from(range(d * a + 1, 201)), label="t")
        assume(math.gcd(t, d) == 1)
        inst = ShiftedFamily(a, b, d).instance(t)
        pool = enumerate_trades(inst, inst.generators[2]).trades
        assert frozenset(graver_oracle(inst).with_negations()) == _minima_by_scan(pool)
        for orthant in OrthantLabel:
            inside = [v for v in pool if in_orthant(v, orthant)]
            assert frozenset(hilbert_oracle(inst, orthant)) == _minima_by_scan(inside)


def _box_staircase(pool, orthant):
    """Pareto minima of (v_i, v_j) over the pool's trades in the orthant,
    by sorting them all: each is kept when its v_j is below every earlier."""
    i, j = orthant.nonneg_coords
    kept, least = [], math.inf
    for v in sorted((v for v in pool if in_orthant(v, orthant)), key=itemgetter(i, j)):
        if v[j] < least:
            least = v[j]
            kept.append(v)
    return set(kept)


def _assert_box_minima(inst):
    # both oracle answers equal the staircases of the listed box-n3 trades
    pool = enumerate_trades(inst, inst.generators[2]).trades
    union = set()
    for orthant in OrthantLabel:
        staircase = _box_staircase(pool, orthant)
        assert frozenset(hilbert_oracle(inst, orthant)) == staircase, (inst.generators, orthant)
        union |= staircase | {negate(v) for v in staircase}
    assert frozenset(graver_oracle(inst).with_negations()) == union, inst.generators


class TestSweepAgainstBox:
    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 9), b=st.integers(1, 9), d=st.integers(1, 4), data=st.data())
    def test_matches_box_minima(self, a, b, d, data):
        # any covered shift up to 2,500, drawn evenly, far past TestStaircase
        assume(math.gcd(a, b) == 1)
        t = data.draw(st.sampled_from(range(d * a + 1, 2501)), label="t")
        assume(math.gcd(t, d) == 1)
        _assert_box_minima(ShiftedFamily(a, b, d).instance(t))

    # every orthant's column step g = gcd(n_j, n_k) exceeds 1, (PNP, PPN,
    # NPP) = (2, 2, 3), (5, 5, 3), (6, 6, 7); then <2,3,4>, where n_k = 2
    # divides n_j = 4 in NPP, and <4,6,9>, whose PNP column minimum is 0
    # right after column 0
    @pytest.mark.parametrize(
        "a,b,d,t", [(1, 2, 1, 2302), (1, 5, 4, 2305), (1, 6, 1, 2304), (1, 1, 1, 3), (2, 3, 1, 6)]
    )
    def test_shared_factors(self, a, b, d, t):
        _assert_box_minima(ShiftedFamily(a, b, d).instance(t))

    def test_largest_box_answered(self):
        # n3 = t + 1 = MAX_BOX; the shift route is the independent check
        inst = ShiftedFamily(1, 1, 1).instance(MAX_BOX - 1)
        assert graver_oracle(inst).trades == graver_shift(inst).trades

    def test_box_past_the_cap_refused(self):
        box = MAX_BOX + 1
        inst = ShiftedFamily(1, 1, 1).instance(box - 1)
        message = f"enumeration box {box} needs {(2 * box + 1) ** 2} grid cells; beyond oracle scale"
        for ask in (lambda: graver_oracle(inst), lambda: hilbert_oracle(inst, OrthantLabel.PNP)):
            with pytest.raises(InvalidInputError) as refused:
                ask()
            assert str(refused.value) == message


def test_oracle_imports_only_core_and_stdlib():
    # the oracle stays independent of the shift route: within the package
    # it reads only the domain types
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "core"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)


class TestHilbertOracle:
    @pytest.mark.parametrize(
        "orthant,expected",
        [
            (OrthantLabel.PNP, H19_PNP),
            (OrthantLabel.PPN, H19_PPN),
            (OrthantLabel.NPP, H19_NPP),
        ],
    )
    def test_m19_tables(self, inst19, orthant, expected):
        assert frozenset(hilbert_oracle(inst19, orthant)) == expected

    def test_positive_orientation(self, inst19):
        for orthant in OrthantLabel:
            for v in hilbert_oracle(inst19, orthant):
                assert in_orthant(v, orthant)

    @pytest.mark.parametrize("a,b,d,t", [(2, 3, 1, 19), (1, 2, 1, 7), (3, 4, 2, 25), (2, 3, 1, 49)])
    def test_union_equals_graver(self, a, b, d, t):
        inst = ShiftedFamily(a, b, d).instance(t)
        union = set()
        for orthant in OrthantLabel:
            basis = hilbert_oracle(inst, orthant)
            union |= frozenset(basis)
            union |= {negate(v) for v in basis}
        assert union == frozenset(graver_oracle(inst).with_negations())

    def test_generation_by_greedy_subtraction(self, inst19):
        # every orthant lattice point in the base box is a sum of basis elements
        box = inst19.generators[2]
        for orthant in OrthantLabel:
            basis = hilbert_oracle(inst19, orthant).trades
            points = [v for v in enumerate_trades(inst19, box) if in_orthant(v, orthant)]
            for v in points:
                residual = v
                while residual != (0, 0, 0):
                    for g in basis:
                        if is_conformal(g, residual):
                            residual = sub(residual, g)
                            break
                    else:
                        pytest.fail(f"{v} not generated in {orthant.value}")

    @pytest.mark.parametrize("a,b,d,t", [(2, 3, 1, 19), (2, 3, 1, 7), (3, 4, 2, 25), (1, 3, 2, 9)])
    def test_length_sign_laws(self, a, b, d, t):
        fam = ShiftedFamily(a, b, d)
        inst = fam.instance(t)
        for v in enumerate_trades(inst, inst.generators[2]):
            if in_orthant(v, OrthantLabel.PPN):
                assert length(v) > 0
            if in_orthant(v, OrthantLabel.NPP):
                assert length(v) < 0
            if in_orthant(v, OrthantLabel.PNP):
                if v[0] <= fam.b:
                    assert length(v) <= 0
                if v[2] <= fam.a:
                    assert length(v) >= 0


class TestFactorizations:
    def test_zero(self, inst19):
        assert factorizations(inst19, 0) == [(0, 0, 0)]

    def test_single_generator(self, inst19):
        assert factorizations(inst19, 17) == [(1, 0, 0)]

    def test_gap(self, inst19):
        assert factorizations(inst19, 1) == []

    def test_multiple(self, inst19):
        # 95 = 5*19 = 3*17 + 2*22
        result = factorizations(inst19, 95)
        assert (0, 5, 0) in result and (3, 0, 2) in result
        for z in result:
            assert z[0] * 17 + z[1] * 19 + z[2] * 22 == 95

    def test_negative_rejected(self, inst19):
        with pytest.raises(InvalidInputError):
            factorizations(inst19, -1)

    @pytest.mark.parametrize(
        "gens,step", [((17, 19, 22), 3), ((77, 79, 82), 1), ((4, 6, 9), 29), ((5, 7, 9), 23)]
    )
    def test_same_list_as_triple_loop(self, gens, step):
        # every n below 200, then a stride through n < 2500 that meets every
        # residue of the generators
        inst = from_generators(*gens)
        for n in sorted({*range(200), *range(0, 2500, step)}):
            assert factorizations(inst, n) == _triple_loop(inst, n), n

    def test_first_at_large_element_without_listing(self):
        # about 10^15 factorizations; the first has z0 = 0 and the least z1
        inst = from_generators(17, 19, 22)
        z = next(iter_factorizations(inst, 10**9))
        assert z[0] == 0 and z[1] < 22 and inst.evaluate(z) == 10**9


def _triple_loop(inst, n):
    """Factorizations of n as first written: every (z0, z1) is tried."""
    n1, n2, n3 = inst.generators
    out = []
    for z0 in range(n // n1 + 1):
        rest0 = n - z0 * n1
        for z1 in range(rest0 // n2 + 1):
            rest1 = rest0 - z1 * n2
            if rest1 % n3 == 0:
                out.append((z0, z1, rest1 // n3))
    return out
