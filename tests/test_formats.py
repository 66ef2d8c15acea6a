import io
import json
import math
from itertools import chain
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from gravershift import (
    InternalConsistencyError,
    OrthantLabel,
    SegmentEndpoints,
    ShiftedFamily,
    TradeSet,
    count_scan,
    graver_oracle,
    graver_shift,
    hilbert_shift,
    negative_segment,
    positive_segment,
)
from gravershift import formats
from gravershift.core import TradeSetMode
from gravershift.formats import (
    dump_json,
    format_4ti2,
    format_count_csv,
    format_csv,
    format_trades_csv,
    trades_document,
)

GOLDEN_4TI2_M19 = (
    "13 3\n"
    "-19 17 0\n"
    "11 -11 1\n"
    "-8 6 1\n"
    "3 -5 2\n"
    "-5 1 3\n"
    "-2 -4 5\n"
    "1 -9 7\n"
    "-7 -3 8\n"
    "-12 -2 11\n"
    "-1 -13 12\n"
    "-17 -1 14\n"
    "-22 0 17\n"
    "0 -22 19\n"
)


def _dumped(doc):
    out = io.StringIO()
    dump_json(doc, out)
    return out.getvalue()


class TestMatrixFormat:
    def test_golden_bytes(self, inst19):
        assert format_4ti2(graver_oracle(inst19)) == GOLDEN_4TI2_M19

    def test_round_trip(self, inst19):
        # each row after the "N 3" header reads back as its trade, in order
        basis = graver_oracle(inst19)
        header, *rows = format_4ti2(basis).splitlines()
        assert header == f"{len(basis)} 3"
        assert [tuple(map(int, row.split())) for row in rows] == list(basis.trades)


def _reference_4ti2(trades):
    """The 4ti2 text written row by row from the listed members."""
    rows = trades.trades
    return f"{len(rows)} 3\n" + "".join(f"{x} {y} {z}\n" for x, y, z in rows)


def _reference_csv(trades):
    return "v0,v1,v2\n" + "".join(f"{x},{y},{z}\n" for x, y, z in trades.trades)


def _listings(inst):
    """Every listing the CLI writes for inst: the Graver basis, with both
    signs, and each orthant's Hilbert basis."""
    graver = graver_shift(inst)
    return [graver, graver.with_negations(),
            *(hilbert_shift(inst, o) for o in OrthantLabel)]


# Hypothesis without its explain phase, which reruns a failing example
# under a tracer only to annotate the report: over listings of megabytes
# it took most of a minute; the examples drawn and shrunk are the same.
REPORT_FAST = [phase for phase in Phase if phase is not Phase.explain]


def _assert_same_text(got, expected):
    """got == expected, or a failure naming the line counts and the first
    differing line, its index and both texts.  Listings run to megabytes,
    and pytest's own diff of two such texts takes minutes to report."""
    if got == expected:
        return
    lines, want = got.split("\n"), expected.split("\n")
    n, m = len(lines), len(want)
    i = next((i for i, (x, y) in enumerate(zip(lines, want)) if x != y), min(n, m))
    first = f"first differing line {i}: {lines[i:i + 1]} vs {want[i:i + 1]}"
    assert n == m, f"{n} lines, expected {m}; {first}"
    raise AssertionError(first)


def _assert_written_as_reference(inst):
    for trades in _listings(inst):
        _assert_same_text(format_4ti2(trades), _reference_4ti2(trades))
        _assert_same_text(format_trades_csv(trades), _reference_csv(trades))
        out = io.StringIO()
        assert format_4ti2(trades, out) is None
        _assert_same_text(out.getvalue(), _reference_4ti2(trades))


class TestRunWriter:
    """The writers format runs straight from their coordinate ranges, in
    blocks; the text must be what row-by-row formatting of the written-out
    members gives."""

    @settings(max_examples=30, deadline=None, phases=REPORT_FAST)
    @given(
        a=st.integers(1, 8),
        b=st.integers(1, 8),
        d=st.integers(1, 3),
        block=st.sampled_from([2, 3, 7, formats.BLOCK_ROWS]),
        data=st.data(),
    )
    def test_byte_identical_to_row_by_row(self, a, b, d, block, data):
        # base cases, the first period above b_max, and shifts near 10^5 to
        # 10^6 where the listing (about t/(a*b) rows) stays near 2*10^4 rows
        # so an example takes well under a second; small blocks put block
        # edges inside every run and every stretch of single trades
        assume(math.gcd(a, b) == 1)
        fam = ShiftedFamily(a, b, d)
        base_cases = range(d * a + 1, fam.b_max + 1)
        near_large = [t for t in (100_003, 300_007, 1_000_003) if t <= 20_000 * a * b]
        t = data.draw(st.one_of(
            st.sampled_from(base_cases) if base_cases else st.nothing(),
            st.sampled_from(range(fam.b_max + 1, fam.b_max + fam.rho + 1)),
            st.sampled_from(near_large) if near_large else st.nothing(),
        ), label="t")
        assume(math.gcd(t, d) == 1)
        with mock.patch.object(formats, "BLOCK_ROWS", block):
            _assert_written_as_reference(fam.instance(t))

    @pytest.mark.parametrize(
        "t,counts",
        [
            (19, (1, 2)),  # segments with no interior
            (49, (3, 5)),  # a one-member interior run
            (81, (6, 8)),  # a boundary member next to a run's end
        ],
    )
    def test_short_segments_and_boundary_at_run_end(self, fam231, t, counts):
        # at t = 81 the PPN segment starts at the plane trade (0, 28, -27),
        # whose canonical rep follows the negated interior's last member
        inst = fam231.instance(t)
        assert (positive_segment(inst).count, negative_segment(inst).count) == counts
        _assert_written_as_reference(inst)

    @pytest.mark.parametrize("plane_rows", [0, formats._PLANE_ROWS])
    @pytest.mark.parametrize("gens,t,size,step", [
        ((500, 501, 1), 251_250_006, 1220, (501, -1001, 500)),
        ((150, 151, 1), 6_862_506, 385, (151, -301, 150)),
    ])
    def test_runs_with_large_steps(self, gens, t, size, step, plane_rows):
        # run steps of 1000 and more, and steps sharing no factor with 1000,
        # over numbers of up to ten digits; these runs are too short for
        # digit planes unless _PLANE_ROWS is patched to 0
        inst = ShiftedFamily(*gens).instance(t)
        graver = graver_shift(inst)
        assert len(graver) == size
        assert {p.step for p in graver.pieces if isinstance(p, SegmentEndpoints)} == {step}
        with mock.patch.object(formats, "_PLANE_ROWS", plane_rows):
            _assert_written_as_reference(inst)

    def test_runs_longer_than_a_block(self):
        # (1,1,1) at t = 132,001: both interiors are runs of about 66,000
        # members, each written in two blocks
        inst = ShiftedFamily(1, 1, 1).instance(132_001)
        runs = [p for p in graver_shift(inst).pieces if isinstance(p, SegmentEndpoints)]
        assert len(runs) == 2 and all(r.count > formats.BLOCK_ROWS for r in runs)
        _assert_written_as_reference(inst)


def _members(start, step, count):
    return [tuple(s + k * h for s, h in zip(start, step)) for k in range(count)]


# values at and around 0 and every digit-count edge up to 13 digits, where
# the writer starts a new stretch of rows
EDGES = (-1001, -1000, -999, -998, -1, 0, 1, 998, 999, 1000, 1001) + tuple(
    s * v for k in range(1, 13) for v in (10**k - 1, 10**k) for s in (-1, 1))
# the text after each number of a row: 4ti2, CSV, and a JSON trades array
SEPS = ((" ", " ", "\n"), (",", ",", "\n"), (",\n      ", ",\n      ", "\n    ],\n    [\n      "))
# a run's step: no zero entry, so each coordinate is a range, and a
# positive last entry, so the members ascend (SegmentEndpoints refuses others)
# magnitudes up to 12, and some that share factors with 1000 or exceed it
MAGNITUDES = [*range(1, 13), 125, 250, 1000, 1001, 12_345]
NONZERO = st.sampled_from([*(-m for m in MAGNITUDES), *MAGNITUDES])
STEPS = st.tuples(NONZERO, NONZERO, st.sampled_from(MAGNITUDES))


class TestRunText:
    """A run's rows are written in stretches of one byte layout, each digit
    position from its periodic plane, or by the %-format where a stretch is
    short for its step; the text must be the batched %-format of its
    members, for any start, step and length.  _PLANE_ROWS is patched to 0
    (planes for every stretch) and 1 (planes from |step| rows on) too."""

    PLANE_ROWS = st.sampled_from([0, 1, formats._PLANE_ROWS])

    @settings(max_examples=400, deadline=None, phases=REPORT_FAST)
    @given(
        step=STEPS,
        count=st.sampled_from([1, 2, 3, 5, 8, 63, 64, 65, 250, 999, 1000, 1001, 2600]),
        middle=st.tuples(*[st.one_of(
            st.sampled_from(EDGES),
            st.sampled_from(range(-3000, 3001)),
            st.sampled_from(range(-10**12, 10**12 + 1)),
        )] * 3),
        seps=st.sampled_from(SEPS),
        plane_rows=PLANE_ROWS,
        data=st.data(),
    )
    def test_byte_identical_to_percent_format(self, step, count, middle, seps, plane_rows, data):
        # the run passes through `middle` at a drawn row, so a middle value
        # from EDGES puts a sign change or a digit-count edge inside it
        k = data.draw(st.sampled_from(range(count)), label="row of middle")
        start = tuple(m - k * h for m, h in zip(middle, step))
        row = "%d{}%d{}%d{}".format(*seps)
        expected = (row * count) % tuple(chain.from_iterable(_members(start, step, count)))
        with mock.patch.object(formats, "_PLANE_ROWS", plane_rows):
            _assert_same_text(formats._run_text(start, step, count, seps), expected)

    @settings(max_examples=100, deadline=None, phases=REPORT_FAST)
    @given(
        start=st.tuples(*[st.sampled_from(EDGES + (-5000, 5000))] * 3),
        step=STEPS,
        count=st.sampled_from([1, 2, 6, 7, 8, 13, 14, 15, 64, 65, 300]),
        block=st.sampled_from([1, 7, 64, formats.BLOCK_ROWS]),
        singles=st.sampled_from([0, 1, 2, 9]),
        plane_rows=PLANE_ROWS,
    )
    def test_blocks_around_a_patched_block_size(self, start, step, count, block, singles,
                                                plane_rows):
        # a run between stretches of single trades, in blocks of a patched
        # size that falls inside the run, at its end or beyond it; the
        # singles' v2 lies below and above the run's, so they sort around it
        members = _members(start, step, count)
        end = members[-1]
        run = SegmentEndpoints(start, end, step, count)
        before = [(-7, k, start[2] - 1) for k in range(singles)]
        after = [(k, 5, end[2] + 1) for k in range(singles)]
        ts = TradeSet((*before, *after), TradeSetMode.FULL, (run,))
        rows = [*before, *members, *after]
        with mock.patch.multiple(formats, BLOCK_ROWS=block, _PLANE_ROWS=plane_rows):
            _assert_same_text(
                format_4ti2(ts), f"{len(rows)} 3\n" + "".join("%d %d %d\n" % v for v in rows))
            _assert_same_text(
                format_trades_csv(ts), "v0,v1,v2\n" + "".join("%d,%d,%d\n" % v for v in rows))
            doc = {"method": "shift", "trades": ts, "count": len(ts)}
            _assert_same_text(
                _dumped(doc), json.dumps({**doc, "trades": rows}, indent=2) + "\n")


def _json_reference(doc):
    """json.dumps of the document with each TradeSet listed as arrays."""
    listed = {k: [list(v) for v in x] if isinstance(x, TradeSet) else x for k, x in doc.items()}
    return json.dumps(listed, indent=2) + "\n"


class TestJsonListing:
    """dump_json writes a TradeSet value from its pieces in blocks; the
    bytes must be json.dumps of the document with the trades listed."""

    @pytest.mark.parametrize("t", [7, 19, 49, 81, 3001])
    @pytest.mark.parametrize("block", [1, 2, 3, formats.BLOCK_ROWS])
    def test_listings_byte_identical(self, fam231, t, block):
        inst = fam231.instance(t)
        with mock.patch.object(formats, "BLOCK_ROWS", block):
            for trades in _listings(inst):
                doc = trades_document(inst, "shift", trades)
                _assert_same_text(_dumped(doc), _json_reference(doc))
            hilbert = hilbert_shift(inst, OrthantLabel.NPP)
            doc = trades_document(inst, "shift", hilbert, orthant="npp")
            _assert_same_text(_dumped(doc), _json_reference(doc))

    @pytest.mark.parametrize("singles,runs", [
        ((), ()),
        (((3, -5, 2),), ()),
        ((), (SegmentEndpoints((-8, 6, 1), (-8, 6, 1), (3, -5, 2), 1),)),
        ((), (SegmentEndpoints((-8, 6, 1), (-5, 1, 3), (3, -5, 2), 2),)),
        (((11, -11, 1),), (SegmentEndpoints((-8, 6, 1), (-2, -4, 5), (3, -5, 2), 3),)),
    ], ids=["empty", "one-trade", "one-member-run", "two-member-run", "ending-in-a-run"])
    def test_short_listings(self, inst19, singles, runs):
        # the last member closes the array, so it is split off its run
        doc = trades_document(inst19, "shift", TradeSet(singles, TradeSetMode.CANONICAL, runs))
        _assert_same_text(_dumped(doc), _json_reference(doc))

    def test_inconsistent_listing_writes_nothing(self, inst19):
        # a single that is also a member of the run fails the order check
        run = SegmentEndpoints((-8, 6, 1), (-2, -4, 5), (3, -5, 2), 3)
        broken = TradeSet(((-5, 1, 3),), TradeSetMode.FULL, (run,))
        out = io.StringIO()
        with pytest.raises(InternalConsistencyError, match="strictly between"):
            dump_json(trades_document(inst19, "shift", broken), out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("doc", [
        {},
        {"rows": []},
        {"family": {"a": 1}, "rows": [{"t": 2, "ok": True}, {"t": 3, "x": None}], "s": "a\nb"},
    ], ids=["empty", "empty-list", "nested"])
    def test_documents_without_trades(self, doc):
        _assert_same_text(_dumped(doc), json.dumps(doc, indent=2) + "\n")


class TestCsv:
    def test_trades_csv(self):
        ts = TradeSet.canonical([(3, -5, 2), (0, -22, 19)])
        assert format_trades_csv(ts) == "v0,v1,v2\n3,-5,2\n0,-22,19\n"

    def test_count_csv(self, fam231):
        table = count_scan(fam231, 19, 19, "oracle")
        assert format_count_csv(table) == (
            "t,graver,h_pnp,h_ppn,h_npp,method\n19,26,5,7,4,oracle\n"
        )

    def test_booleans_lowercase(self):
        assert format_csv("t,ok", [(7, True), (8, False)]) == "t,ok\n7,true\n8,false\n"
        assert format_csv("t", []) == "t\n"


class TestJsonDocument:
    def test_schema_fields(self, inst19):
        basis = graver_oracle(inst19)
        doc = trades_document(inst19, "oracle", basis)
        assert set(doc) == {
            "generators", "t", "a", "b", "d", "rho", "bounds", "method", "trades", "count",
        }
        assert doc["generators"] == [17, 19, 22]
        assert doc["rho"] == 30
        assert doc["bounds"] == {"plus": 4, "plusMinus": 6, "minus": 5, "max": 6}
        assert doc["count"] == 13
        # the TradeSet itself, which dump_json writes as an array of arrays
        assert doc["trades"] is basis
        assert next(iter(doc["trades"])) == (-19, 17, 0)

    def test_dump_deterministic_and_parseable(self, inst19):
        doc = trades_document(inst19, "oracle", graver_oracle(inst19))
        text = _dumped(doc)
        assert text == _dumped(doc)
        assert text.endswith("\n")
        # the document holds the trade tuples, which parse back as arrays
        assert json.loads(text) == {**doc, "trades": [list(v) for v in doc["trades"]]}
