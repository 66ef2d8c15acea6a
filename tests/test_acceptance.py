"""Acceptance suite: one test per release criterion, exact tolerances.

Each criterion prints a single PASS/FAIL line (outside pytest capture so
the lines always appear in the run log) and enforces its wall-clock budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    DIFF_FAMILIES,
    GOLDEN_M19,
    GOLDEN_M79,
    H94159_PNP,
)
from gravershift import (
    OrthantLabel,
    ShiftedFamily,
    augment,
    differential_test,
    enumerate_trades,
    exhaustive_optimum,
    factorizations,
    graver_oracle,
    graver_shift,
    hilbert_oracle,
    hilbert_shift,
    length,
    negative_segment,
    period_map,
    period_map_inverse,
    positive_segment,
    verify_period_law,
)
from gravershift.analysis import objective_value, valid_shifts
from gravershift.shift import base_decomposition


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number: int, description: str, budget_seconds: float):
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number}: FAIL - {description}")
            raise
        elapsed = time.perf_counter() - started
        verdict = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
        with capsys.disabled():
            print(
                f"criterion {number}: {verdict} in {elapsed:.2f}s "
                f"(budget {budget_seconds:g}s) - {description}"
            )
        assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"

    return _criterion


def test_criterion_1_golden_m19(criterion):
    with criterion(1, "Graver basis of <17,19,22>, both methods", 1.0):
        inst = ShiftedFamily(2, 3, 1).instance(19)
        via_oracle = graver_oracle(inst)
        via_shift = graver_shift(inst)
        assert list(via_oracle) == GOLDEN_M19
        assert list(via_shift) == GOLDEN_M19
        assert len(via_oracle.with_negations()) == 26
        for needle in ((-19, 17, 0), (3, -5, 2), (0, -22, 19)):
            assert needle in via_oracle


def test_criterion_2_golden_m79(criterion):
    with criterion(2, "Graver basis of <77,79,82> via two transported periods", 1.0):
        inst = ShiftedFamily(2, 3, 1).instance(79)
        base, periods = base_decomposition(inst)
        assert (base.t, periods) == (19, 2)
        via_shift = graver_shift(inst)
        assert list(via_shift) == GOLDEN_M79
        assert via_shift.trades == graver_oracle(inst).trades


def test_criterion_3_large_shift_m94159(criterion):
    with criterion(3, "segments and central basis at t=94159", 5.0):
        inst = ShiftedFamily(2, 3, 1).instance(94159)
        ppn = positive_segment(inst)
        assert (ppn.start, ppn.end, ppn.count) == (
            (2, 31384, -31385),
            (18830, 4, -18833),
            6277,
        )
        npp = negative_segment(inst)
        assert (npp.start, npp.end, npp.count) == (
            (-47078, 47076, 1),
            (-18833, 1, 18831),
            9416,
        )
        central = hilbert_shift(inst, OrthantLabel.PNP)
        assert frozenset(central) == H94159_PNP
        assert (3, -5, 2) in central
        assert (47081, -47081, 1) in central


def test_criterion_4_period_law(criterion):
    with criterion(4, "oracle count increments over (6, 96] for (2,3,1)", 120.0):
        fam = ShiftedFamily(2, 3, 1)
        report = verify_period_law(fam, 7, 6 + 3 * fam.rho, method="oracle")
        assert [row.t for row in report.rows] == list(range(7, 97))
        for row in report.rows:
            assert row.graver_increment == 10, row
            assert (row.pnp_increment, row.ppn_increment, row.npp_increment) == (0, 2, 3), row
        assert report.ok


def test_criterion_5_differential_suite(criterion):
    with criterion(5, "transported equals oracle for 6 families over 2 periods", 600.0):
        families = [ShiftedFamily(a, b, d) for a, b, d in DIFF_FAMILIES]
        report = differential_test(families, 2)
        assert len(report.rows) == 548
        assert report.ok, report.mismatches[:5]


def test_criterion_6_sharpness_of_central_bound(criterion):
    with criterion(6, "homogeneous trade reducible exactly at t=6 for (2,3,1)", 60.0):
        fam = ShiftedFamily(2, 3, 1)
        h = fam.homogeneous_trade
        witness = ((3, -2, 0), (0, -3, 2))
        at_bound = fam.instance(6)
        assert tuple(x + y for x, y in zip(*witness)) == h
        for part in witness:
            assert at_bound.evaluate(part) == 0
            assert part[0] >= 0 and part[2] >= 0
        assert h not in hilbert_oracle(at_bound, OrthantLabel.PNP)
        for t in valid_shifts(fam, 7, 6 + 2 * fam.rho):
            assert h in hilbert_oracle(fam.instance(t), OrthantLabel.PNP), t


def test_criterion_7_period_map_properties(criterion):
    with criterion(7, "1000+ transported trades: lattice, length, inverse", 10.0):
        instances = [
            ShiftedFamily(2, 3, 1).instance(19),
            ShiftedFamily(1, 1, 1).instance(2),
            ShiftedFamily(1, 2, 1).instance(5),
            ShiftedFamily(3, 4, 2).instance(25),
            ShiftedFamily(2, 5, 3).instance(31),
        ]
        checked = 0
        for inst in instances:
            shifted = inst.shifted()
            for v in enumerate_trades(inst, 3 * inst.generators[2]):
                for i in range(3):
                    for j in range(3):
                        if i == j:
                            continue
                        image = period_map(inst.family, i, j, v)
                        assert shifted.evaluate(image) == 0
                        assert length(image) == length(v)
                        assert period_map_inverse(inst.family, i, j, image) == v
                checked += 1
        assert checked >= 1000


def test_criterion_8_augmentation_optimality(criterion):
    with criterion(8, "greedy augmentation reaches exhaustive optimum", 30.0):
        inst = ShiftedFamily(2, 3, 1).instance(19)
        elements = []
        n = 0
        while len(elements) < 50:
            if len(factorizations(inst, n)) >= 2:
                elements.append(n)
            n += 1
        objectives = ((1, 1, 1), (1, 0, -1))
        for n in elements:
            starts = factorizations(inst, n)
            for weights in objectives:
                for sense in ("min", "max"):
                    best = exhaustive_optimum(inst, n, weights, sense)
                    for start in starts:
                        reached = augment(inst, start, weights, sense)
                        assert objective_value(weights, reached) == best, (n, weights, sense)


def test_criterion_9_leading_coefficient(criterion):
    with criterion(9, "count increment over period is exactly 2/(a*b)", 300.0):
        for a, b, d in DIFF_FAMILIES:
            fam = ShiftedFamily(a, b, d)
            bound = fam.b_max
            for t in valid_shifts(fam, bound + 1, bound + fam.rho):
                now = 2 * len(graver_shift(fam.instance(t)))
                later = 2 * len(graver_shift(fam.instance(t + fam.rho)))
                assert Fraction(later - now, fam.rho) == Fraction(2, a * b), (fam, t)
