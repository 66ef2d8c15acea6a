"""Shared fixtures: the worked-example family (a=2, b=3, d=1) and its
externally verified Graver/Hilbert data at t = 19, 79, and 94159."""

import pytest

from gravershift import ShiftedFamily, from_generators

# Canonical Graver basis of <17, 19, 22>, already in (v2, v1, v0) order.
GOLDEN_M19 = [
    (-19, 17, 0),
    (11, -11, 1),
    (-8, 6, 1),
    (3, -5, 2),
    (-5, 1, 3),
    (-2, -4, 5),
    (1, -9, 7),
    (-7, -3, 8),
    (-12, -2, 11),
    (-1, -13, 12),
    (-17, -1, 14),
    (-22, 0, 17),
    (0, -22, 19),
]

# Canonical Graver basis of <77, 79, 82>.
GOLDEN_M79 = [
    (-79, 77, 0),
    (41, -41, 1),
    (-38, 36, 1),
    (3, -5, 2),
    (-35, 31, 3),
    (-32, 26, 5),
    (-29, 21, 7),
    (-26, 16, 9),
    (-23, 11, 11),
    (-20, 6, 13),
    (-17, 1, 15),
    (-14, -4, 17),
    (-11, -9, 19),
    (-8, -14, 21),
    (-5, -19, 23),
    (-2, -24, 25),
    (1, -29, 27),
    (-31, -3, 32),
    (-48, -2, 47),
    (-1, -53, 52),
    (-65, -1, 62),
    (-82, 0, 77),
    (0, -82, 79),
]

H19_PNP = {(0, -22, 19), (1, -9, 7), (3, -5, 2), (11, -11, 1), (19, -17, 0)}
H19_PPN = {(0, 22, -19), (1, 13, -12), (2, 4, -5), (7, 3, -8), (12, 2, -11), (17, 1, -14), (22, 0, -17)}
H19_NPP = {(-22, 0, 17), (-5, 1, 3), (-8, 6, 1), (-19, 17, 0)}

H79_PNP = {(0, -82, 79), (1, -29, 27), (3, -5, 2), (41, -41, 1), (79, -77, 0)}

SEGMENT79_PPN = [
    (2, 24, -25),
    (5, 19, -23),
    (8, 14, -21),
    (11, 9, -19),
    (14, 4, -17),
]
SEGMENT79_NPP = [
    (-38, 36, 1),
    (-35, 31, 3),
    (-32, 26, 5),
    (-29, 21, 7),
    (-26, 16, 9),
    (-23, 11, 11),
    (-20, 6, 13),
    (-17, 1, 15),
]

H94159_PNP = {
    (0, -94162, 94159),
    (1, -31389, 31387),
    (3, -5, 2),
    (47081, -47081, 1),
    (94159, -94157, 0),
}

# Families exercised by the differential acceptance suite.
DIFF_FAMILIES = [(1, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 2), (2, 5, 3), (1, 3, 2)]


def in_orthant(v, label):
    """Whether v lies in the closed orthant: its two coordinates that
    share a sign in `label` are non-negative."""
    i, j = label.nonneg_coords
    return v[i] >= 0 and v[j] >= 0


@pytest.fixture(scope="session")
def fam231():
    return ShiftedFamily(2, 3, 1)


@pytest.fixture(scope="session")
def inst19(fam231):
    return fam231.instance(19)


@pytest.fixture(scope="session")
def inst79(fam231):
    return fam231.instance(79)


@pytest.fixture(scope="session")
def inst19_from_gens():
    return from_generators(17, 19, 22)


@pytest.fixture
def no_materialize(monkeypatch):
    """Make ordering a basis, iterating a segment, or assembling a Graver
    basis raise, so a count near MAX_SHIFT that tries to list trades fails
    at once instead of exhausting memory."""
    from gravershift import core, shift

    def refuse(*args, **kwargs):
        raise AssertionError("a count path materialized trades")

    monkeypatch.setattr(core, "_ordered_pieces", refuse)
    monkeypatch.setattr(shift.SegmentEndpoints, "__iter__", refuse)
    monkeypatch.setattr(shift, "assemble_graver", refuse)
