import io
import json

from gravershift import TradeSet, count_scan, graver_oracle
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
        doc = trades_document(inst19, "oracle", graver_oracle(inst19))
        assert set(doc) == {
            "generators", "t", "a", "b", "d", "rho", "bounds", "method", "trades", "count",
        }
        assert doc["generators"] == [17, 19, 22]
        assert doc["rho"] == 30
        assert doc["bounds"] == {"plus": 4, "plusMinus": 6, "minus": 5, "max": 6}
        assert doc["count"] == 13
        assert doc["trades"][0] == (-19, 17, 0)

    def test_dump_deterministic_and_parseable(self, inst19):
        doc = trades_document(inst19, "oracle", graver_oracle(inst19))
        text = _dumped(doc)
        assert text == _dumped(doc)
        assert text.endswith("\n")
        # the document holds the trade tuples, which parse back as arrays
        assert json.loads(text) == {**doc, "trades": [list(v) for v in doc["trades"]]}
