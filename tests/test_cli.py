import argparse
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gravershift import (
    OrthantLabel,
    SegmentEndpoints,
    ShiftedFamily,
    TradeSet,
    analysis,
    cli,
    from_generators,
    oracle,
    shift,
)
from gravershift.analysis import DifferentialReport, DifferentialRow
from gravershift.cli import build_parser, main
from test_formats import GOLDEN_4TI2_M19
from test_shift import _swapped_interiors, _with_inner_single


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("module", ["numpy", "gravershift.analysis", "fractions", "json"])
def test_cli_import_needs_no(module):
    # graver, hilbert and params in 4ti2 load neither the counting layer,
    # numpy nor json
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import contextlib, io, sys\n"
        "from gravershift.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for cmd in ('graver', 'hilbert --orthant ppn', 'params'):\n"
        "        assert main([*cmd.split(), '--gens', '77,79,82']) == 0\n"
        f"print({module!r} in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "False\n"


EXPORTS = {
    "analysis": [
        "BoundsReport", "CountRow", "CountTable", "DifferentialReport", "PeriodLawReport",
        "augment", "count_scan", "differential_test", "empirical_bounds", "exhaustive_optimum",
        "verify_period_law",
    ],
    "core": [
        "InternalConsistencyError", "InvalidInputError", "NoLengthTradeError", "OrthantLabel",
        "OutsideScopeError", "SegmentEndpoints", "SemigroupInstance", "ShiftedFamily", "Trade",
        "TradeSet", "canonical_rep", "from_generators", "length",
    ],
    "oracle": ["enumerate_trades", "factorizations", "graver_oracle", "hilbert_oracle"],
    "shift": [
        "assemble_graver", "base_decomposition", "graver_shift", "hilbert_shift",
        "negative_segment", "period_map", "period_map_inverse", "positive_segment",
    ],
}


def test_package_exports_resolve_to_their_defining_module(monkeypatch):
    # the same name imported, or rebound by a tracer, in another module
    # must not be what the package exports
    import gravershift

    assert gravershift.__all__ == sorted(name for names in EXPORTS.values() for name in names)
    modules = {
        m: importlib.import_module(f"gravershift.{m}")
        for m in ("analysis", "cli", "core", "formats", "oracle", "shift")
    }
    for home, names in EXPORTS.items():
        for name in names:
            for other, module in modules.items():
                if other != home and hasattr(module, name):
                    monkeypatch.setattr(module, name, object())
            monkeypatch.delitem(vars(gravershift), name, raising=False)
            value = getattr(gravershift, name)
            assert value is getattr(modules[home], name)
            assert getattr(value, "__module__", "builtins") in (modules[home].__name__, "builtins")
    with pytest.raises(AttributeError):
        gravershift.is_conformal


class TestParams:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "params", "--gens", "77,79,82")
        assert code == 0
        for line in ("t=79", "a=2", "b=3", "d=1", "rho=30", "t0=19", "k=2"):
            assert line in out.splitlines()

    def test_large_shift(self, capsys):
        code, out, _ = run(capsys, "params", "--gens", "94157,94159,94162")
        assert code == 0
        assert "t0=19" in out.splitlines()
        assert "k=3138" in out.splitlines()

    def test_base_case_note(self, capsys):
        code, out, _ = run(capsys, "params", "--gens", "4,6,9")
        assert code == 0
        assert "t=6" in out.splitlines()
        assert "k=0" in out.splitlines()
        assert any(line.startswith("note=") for line in out.splitlines())

    def test_first_period_above_threshold_has_no_note(self, capsys):
        # t = 20 is past b_max = 6 but within one period of it, so k = 0
        # and t is its own base without being a base case
        code, out, _ = run(capsys, "params", "--gens", "18,20,23")
        assert code == 0
        lines = out.splitlines()
        assert {"t=20", "b_max=6", "effective_base_bound=6", "t0=20", "k=0"} <= set(lines)
        assert not any(line.startswith("note=") for line in lines)


class TestGraver:
    def test_golden_4ti2(self, capsys):
        code, out, _ = run(capsys, "graver", "--gens", "17,19,22", "--format", "4ti2")
        assert code == 0
        assert out == GOLDEN_4TI2_M19

    def test_methods_identical_bytes(self, capsys):
        _, via_shift, _ = run(capsys, "graver", "--gens", "77,79,82", "--method", "shift")
        _, via_oracle, _ = run(capsys, "graver", "--gens", "77,79,82", "--method", "oracle")
        assert via_shift == via_oracle

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "graver", "--gens", "17,19,22", "--format", "json")
        _, second, _ = run(capsys, "graver", "--gens", "17,19,22", "--format", "json")
        assert first == second

    def test_both_signs(self, capsys):
        _, out, _ = run(capsys, "graver", "--gens", "17,19,22", "--both-signs")
        header, *rows = out.splitlines()
        assert header == "26 3" and len(rows) == 26
        assert "3 -5 2" in rows and "-3 5 -2" in rows

    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "graver", "--gens", "17,19,22", "--format", "json")
        doc = json.loads(out)
        assert set(doc) == {
            "generators", "t", "a", "b", "d", "rho", "bounds", "method", "trades", "count",
        }
        assert doc["method"] == "shift"  # auto resolves to shift for t=19 > 6
        assert doc["count"] == 13

    def test_csv_format(self, capsys):
        _, out, _ = run(capsys, "graver", "--gens", "17,19,22", "--format", "csv")
        assert out.startswith("v0,v1,v2\n-19,17,0\n")

    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "basis.mat"
        code, out, _ = run(capsys, "graver", "--gens", "77,79,82", "--output", str(path))
        assert code == 0 and out == ""
        _, stdout, _ = run(capsys, "graver", "--gens", "77,79,82")
        assert path.read_text() == stdout
        assert stdout.startswith("23 3\n") and len(stdout.splitlines()) == 24

    @pytest.mark.parametrize("target", ["missing/dir/basis.mat", "."])
    def test_unwritable_output_exit_1(self, capsys, tmp_path, target):
        # a path under a missing directory, and a path that is a directory
        path = tmp_path / target
        code, out, err = run(capsys, "graver", "--gens", "17,19,22", "--output", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(path) in err

    def test_out_of_order_interior_exit_2(self, capsys, monkeypatch):
        inst = from_generators(94157, 94159, 94162)
        monkeypatch.setattr(shift, "_canonical_interior", _swapped_interiors(inst))
        code, out, err = run(capsys, "graver", "--gens", "94157,94159,94162", "--method", "shift")
        assert (code, out) == (2, "")
        assert "out of order" in err

    def test_auto_beyond_oracle_scale_takes_shift(self, capsys):
        # (150,151,1) at t = 23,100 is a base case (b_max = 44,849) whose
        # box, n3 = 23,251, the oracle refuses; auto answers by the shift route
        code, out, err = run(capsys, "graver", "--gens", "22950,23100,23251")
        assert (code, err) == (0, "") and out.startswith("90 3\n")
        assert out == run(capsys, "graver", "--gens", "22950,23100,23251", "--method", "shift")[1]
        _, doc, _ = run(capsys, "graver", "--gens", "22950,23100,23251", "--format", "json")
        assert json.loads(doc)["method"] == "shift"

    def test_wrong_arity_exit_1(self, capsys):
        code, _, err = run(capsys, "graver", "--gens", "2,3")
        assert code == 1
        assert "error" in err

    def test_outside_scope_exit_1(self, capsys):
        code, _, _ = run(capsys, "graver", "--gens", "2,4,6")
        assert code == 1


class TestHilbert:
    def test_pnp_table(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--gens", "17,19,22", "--orthant", "pnp")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "5 3"
        assert set(rows) == {"0 -22 19", "1 -9 7", "3 -5 2", "11 -11 1", "19 -17 0"}

    def test_npp_contains_segment_endpoints(self, capsys):
        _, out, _ = run(capsys, "hilbert", "--gens", "17,19,22", "--orthant", "npp")
        header, *rows = out.splitlines()
        assert header == "4 3" and len(rows) == 4
        assert "-8 6 1" in rows and "-5 1 3" in rows

    def test_ppn_at_t79(self, capsys):
        _, out, _ = run(capsys, "hilbert", "--gens", "77,79,82", "--orthant", "ppn")
        header, *rows = out.splitlines()
        assert header == "11 3" and len(rows) == 11
        assert {"2 24 -25", "14 4 -17"} <= set(rows)

    def test_json_has_orthant(self, capsys):
        _, out, _ = run(capsys, "hilbert", "--gens", "17,19,22", "--orthant", "ppn",
                        "--format", "json")
        assert json.loads(out)["orthant"] == "ppn"

    def test_shift_equals_oracle(self, capsys):
        _, fast, _ = run(capsys, "hilbert", "--gens", "77,79,82", "--orthant", "npp",
                         "--method", "shift")
        _, slow, _ = run(capsys, "hilbert", "--gens", "77,79,82", "--orthant", "npp",
                         "--method", "oracle")
        assert fast == slow


class TestCount:
    def test_spec_row(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "2,3,1", "--t-range", "19..19")
        assert code == 0
        assert out == "t,graver,h_pnp,h_ppn,h_npp,method\n19,26,5,7,4,oracle\n"

    def test_fast_row(self, capsys):
        _, out, _ = run(capsys, "count", "--family", "2,3,1", "--t-range", "79..79",
                        "--method", "fast")
        assert "79,46,5,11,10,fast" in out

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "count", "--family", "2,3,1", "--t-range", "19..20",
                        "--format", "json")
        doc = json.loads(out)
        assert doc["family"] == {"a": 2, "b": 3, "d": 1}
        assert [row["t"] for row in doc["rows"]] == [19, 20]

    def test_json_streamed_as_one_shot_text(self, capsys, tmp_path):
        # the document is written chunk by chunk; the bytes are json.dumps'
        argv = ["count", "--family", "2,3,1", "--t-range", "19..40", "--format", "json"]
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        path = tmp_path / "count.json"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_text() == out

    def test_json_unwritable_output_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "count.json"
        code, out, err = run(capsys, "count", "--family", "2,3,1", "--t-range", "19..40",
                             "--format", "json", "--output", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and not path.parent.exists()

    def test_bad_range_exit_1(self, capsys):
        code, _, _ = run(capsys, "count", "--family", "2,3,1", "--t-range", "19")
        assert code == 1

    @pytest.mark.parametrize("family,t_range", [("2,3,1", "1..2"), ("3,4,2", "4..4")])
    def test_no_covered_shift_exit_1(self, capsys, family, t_range):
        # d*a = 2 for (2,3,1) and 6 for (3,4,2): no shift in range is in the family
        code, out, err = run(capsys, "count", "--family", family, "--t-range", t_range)
        assert (code, out) == (1, "")
        assert "empty range" in err


class TestCountsNearMaxShift:
    def test_count_answers(self, capsys, no_materialize):
        code, out, _ = run(
            capsys, "count", "--family", "1,1,1", "--t-range", "999999998..999999999",
            "--method", "fast",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "999999998,2000000002,3,500000001,500000000,fast",
            "999999999,2000000002,3,500000001,500000000,fast",
        ]

    def test_verify_names_requested_shift(self, capsys, no_materialize):
        # rho = 4158, so t = 999999001 would need counts at 1000003159
        code, out, err = run(
            capsys, "verify", "--family", "7,11,3", "--t-range", "999999000..999999010",
            "--method", "fast",
        )
        assert (code, out) == (1, "")
        assert "t=999999001" in err
        assert "t + rho = 1000003159" in err
        assert "t + rho <= 1000000000" in err

    def test_missing_plane_trade_exit_2(self, capsys, monkeypatch):
        # the base NPP basis at t = 19 without its v2-plane trade, which
        # every check of the base's plans passes, so the count at
        # t = 79 = 19 + 2*rho meets it only in the overlap
        real = shift._cf_hilbert

        def without_v2_plane_trade(inst, orthant):
            basis = real(inst, orthant)
            if orthant is not OrthantLabel.NPP:
                return basis
            return tuple(v for v in basis if v[2] != 0)

        monkeypatch.setattr(shift, "_cf_hilbert", without_v2_plane_trade)
        shift._plans.cache_clear()
        try:
            code, out, err = run(
                capsys, "count", "--family", "2,3,1", "--t-range", "79..79", "--method", "fast"
            )
        finally:
            shift._plans.cache_clear()
        assert (code, out) == (2, "")
        assert "measured 2" in err


class TestCountPathChecks:
    """Each check of a transported fast count fails on its own mutant: the
    run exits 2, names what failed and prints no row.  t = 79 is k = 2
    periods above its base shift 19 for (2,3,1)."""

    @staticmethod
    def _count_at_79(capsys):
        shift._plans.cache_clear()
        try:
            return run(capsys, "count", "--family", "2,3,1", "--t-range", "79..79",
                       "--method", "fast")
        finally:
            shift._plans.cache_clear()

    def _with_base_basis(self, monkeypatch, orthant, change):
        real = shift._cf_hilbert

        def changed(inst, o):
            basis = real(inst, o)
            return change(basis) if o is orthant else basis

        monkeypatch.setattr(shift, "_cf_hilbert", changed)

    def test_segment_end(self, capsys, monkeypatch):
        # the PPN segment solved one member short above the base
        real = shift.positive_segment

        def shortened_after_base(inst):
            seg = real(inst)
            if inst.t == 19:
                return seg
            return SegmentEndpoints(seg.start, seg.step, seg.count - 1)

        monkeypatch.setattr(shift, "positive_segment", shortened_after_base)
        code, out, err = self._count_at_79(capsys)
        assert (code, out) == (2, "")
        assert "ppn segment at t=79 is (2, 24, -25)..(11, 9, -19)" in err

    def test_size_law(self, capsys, monkeypatch):
        # the base PPN basis lists its v0-plane trade twice: the plan counts
        # 8 members but carries 7
        self._with_base_basis(monkeypatch, OrthantLabel.PPN, lambda basis: (*basis, (0, 22, -19)))
        code, out, err = self._count_at_79(capsys)
        assert (code, out) == (2, "")
        assert "ppn transport at t=19 over 2 periods: expected 12 elements, got 11" in err

    def test_overlap(self, capsys, monkeypatch):
        # the base PNP basis without its v0-plane trade, which PPN shares
        self._with_base_basis(
            monkeypatch, OrthantLabel.PNP, lambda basis: tuple(v for v in basis if v[0])
        )
        code, out, err = self._count_at_79(capsys)
        assert (code, out) == (2, "")
        assert "expected 3 shared boundary trades, measured 2" in err


class TestInconsistentListingWritesNothing:
    """A listing whose order check fails exits 2 before its first byte:
    the NPP basis at t = 79 with a segment member also among its singles."""

    @pytest.mark.parametrize("fmt", ["4ti2", "csv", "json"])
    def test_hilbert(self, capsys, monkeypatch, tmp_path, fmt):
        real = cli.hilbert_shift
        monkeypatch.setattr(cli, "hilbert_shift", lambda inst, o: _with_inner_single(real(inst, o)))
        argv = ["hilbert", "--gens", "77,79,82", "--orthant", "npp", "--method", "shift",
                "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "strictly between" in err
        # nor is the --output file created
        path = tmp_path / "basis"
        assert run(capsys, *argv, "--output", str(path))[0] == 2
        assert not path.exists()

    def test_graver_json(self, capsys, monkeypatch):
        # graver_shift carries each orthant's basis from the base's plans
        # and hands the three to assemble_graver, whose NPP input is spoiled
        real = shift.assemble_graver

        def with_inner_npp_single(h_pnp, h_ppn, h_npp):
            return real(h_pnp, h_ppn, _with_inner_single(h_npp))

        monkeypatch.setattr(shift, "assemble_graver", with_inner_npp_single)
        code, out, err = run(capsys, "graver", "--gens", "77,79,82", "--method", "shift",
                             "--format", "json")
        assert (code, out) == (2, "")
        assert "strictly between" in err


class TestRangePastMaxShift:
    """A range reaching past MAX_SHIFT, or spanning more than MAX_ROWS
    shifts, is refused before it is listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "1,1,1", "--t-range", "999999999..1000000000000",
             "--method", "fast"],
            ["verify", "--family", "1,1,1", "--t-range", "999999990..1000000000000",
             "--method", "fast"],
            ["difftest", "--family", "1,1,1", "--periods", "1000000000000"],
            ["count", "--family", "1,1,1", "--t-range", "2..1000000000", "--method", "fast"],
            ["verify", "--family", "1,1,1", "--t-range", "2..999999000", "--method", "fast"],
        ],
        ids=["count", "verify", "difftest", "count-rows", "verify-rows"],
    )
    def test_exit_1_within_memory_limit(self, argv):
        # the child alone runs under a 1 GB address-space limit, which the
        # listed range would exceed many times over
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "gravershift.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


def _oracle_walks(monkeypatch, limit):
    """Record the shift of each box the oracle walks, failing past `limit`.
    The walk behind the staircase cache is counted under a fresh cache of
    the same size, so every box is walked and each is walked as often as
    the oracle's own cache would let it be."""
    real = oracle._staircases
    walks = []

    def counted(inst):
        walks.append(inst.t)
        if len(walks) > limit:
            raise AssertionError(f"oracle walked boxes at t={walks}")
        return real.__wrapped__(inst)

    cached = functools.lru_cache(maxsize=real.cache_info().maxsize)(counted)
    monkeypatch.setattr(oracle, "_staircases", cached)
    return walks


@pytest.mark.parametrize(
    "argv,walked",
    [
        (["count", "--family", "2,3,1", "--t-range", "23100..23200"], 23200),
        (["verify", "--family", "2,3,1", "--t-range", "23100..23200"], 23230),
    ],
    ids=["count", "verify"],
)
def test_oracle_scan_beyond_scale_refused_at_once(capsys, monkeypatch, argv, walked):
    # the default oracle rows would walk every box from t = 23,100 up before
    # the grid cap refuses t >= 23,167; the largest box (at t + rho = 23,230
    # for verify), n3 = t + d*b = t + 3, is checked first by arithmetic,
    # so no box is walked
    walks = _oracle_walks(monkeypatch, 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"enumeration box {walked + 3} " in err and "beyond oracle scale" in err
    assert walks == []


def test_fast_count_beyond_oracle_scale_answers(capsys, monkeypatch):
    # every shift is at or below b_max = 44,849, so each row is a base case,
    # whose box would be past the oracle's grid cap; no box is walked
    walks = _oracle_walks(monkeypatch, 0)
    code, out, _ = run(capsys, "count", "--family", "150,151,1", "--t-range", "22990..23030",
                       "--method", "fast")
    assert code == 0 and walks == []
    rows = [list(map(int, line.split(",")[:5])) for line in out.splitlines()[1:]]
    assert [t for t, *_ in rows] == list(range(22990, 23031))
    for _, graver, *hilbert in rows:
        assert graver == 2 * (sum(hilbert) - 3)


def test_fast_verify_beyond_oracle_scale_answers(capsys, monkeypatch):
    # above b_max = 19,899 for (100,101,1): both t and t + rho are
    # transported from base shifts whose boxes are past the grid cap
    walks = _oracle_walks(monkeypatch, 0)
    code, out, _ = run(capsys, "verify", "--family", "100,101,1", "--t-range", "23040..23080",
                       "--method", "fast")
    assert code == 0 and walks == []
    rows = out.splitlines()[1:-1]
    assert [int(row.split(",")[0]) for row in rows] == list(range(23040, 23081))
    assert all(row.endswith(",402,0,100,101,true") for row in rows)


def test_auto_count_probes_only_oracle_rows(capsys, monkeypatch):
    # only the auto rows at or below auto_oracle_bound = b_max = 6 are
    # oracle rows: each walks its own box once, and no box past 6 is walked
    walks = _oracle_walks(monkeypatch, 100)
    code, _, _ = run(capsys, "count", "--family", "2,3,1", "--t-range", "3..200",
                     "--method", "auto")
    assert code == 0
    assert walks == [3, 4, 5, 6]


class TestVerify:
    def test_clean_window_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "2,3,1", "--t-range", "7..12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,graver_increment,pnp_increment,ppn_increment,npp_increment,ok"
        assert "7,10,0,2,3,true" in lines

    def test_violation_exit_3(self, capsys, monkeypatch):
        from gravershift.analysis import PeriodLawReport, PeriodLawRow

        fam = ShiftedFamily(2, 3, 1)
        fake = PeriodLawReport(fam, 10, (PeriodLawRow(7, 9, 0, 2, 3, False),))
        monkeypatch.setattr(analysis, "verify_period_law", lambda *a, **k: fake)
        code, _, _ = run(capsys, "verify", "--family", "2,3,1", "--t-range", "7..7")
        assert code == 3

    @pytest.mark.parametrize("family,t_range", [("2,3,1", "7..96"), ("150,151,1", "44850..44870")])
    def test_auto_is_fast(self, capsys, family, t_range):
        # verify checks only shifts above b_max, where auto takes the fast route
        auto, fast = (run(capsys, "verify", "--family", family, "--t-range", t_range,
                          "--method", method) for method in ("auto", "fast"))
        assert auto[:2] == fast[:2] and fast[0] == 0

    @pytest.mark.parametrize(
        "family,t_range", [("2,3,1", "10..5"), ("2,3,1", "1..6"), ("3,4,2", "20..20")]
    )
    def test_no_shift_above_threshold_exit_1(self, capsys, family, t_range):
        # the threshold is 6 for (2,3,1) and 24 for (3,4,2), and 20 is even
        # with d = 2: no row would be checked, so no PASS may be printed
        code, out, err = run(capsys, "verify", "--family", family, "--t-range", t_range)
        assert (code, out) == (1, "")
        assert "threshold" in err


class TestScanBounds:
    def test_family_231(self, capsys):
        code, out, _ = run(capsys, "scan-bounds", "--family", "2,3,1", "--t-max", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["formula"] == {"plus": 4, "plusMinus": 6, "minus": 5}
        assert doc["empirical"] == {
            "last_without_ppn_trade": 4,
            "last_reducible_homogeneous": 6,
            "last_without_npp_trade": 5,
        }
        assert doc["homogeneous_reducible_at_dab"] is True

    def test_beyond_oracle_scale_refused_at_once(self, capsys, monkeypatch):
        # boxes of t >= 23,167 exceed the oracle's grid cap for (2,3,1);
        # the largest, at t = 30,000, is refused before any box is walked
        walks = _oracle_walks(monkeypatch, 1)
        code, out, err = run(capsys, "scan-bounds", "--family", "2,3,1", "--t-max", "30000")
        assert (code, out) == (1, "")
        assert "beyond oracle scale" in err
        assert walks == []

    @pytest.mark.parametrize("t_max", ["6", "-5"])
    def test_no_covered_shift_exit_1(self, capsys, t_max):
        # d*a = 6 for (3,4,2): no shift t <= 6 is in the family
        code, out, err = run(capsys, "scan-bounds", "--family", "3,4,2", "--t-max", t_max)
        assert (code, out) == (1, "")
        assert "t_max" in err


class TestAugment:
    def test_with_element(self, capsys):
        code, out, _ = run(capsys, "augment", "--gens", "17,19,22", "--element", "209",
                           "--objective", "1,1,1", "--sense", "min")
        assert code == 0
        doc = json.loads(out)
        assert doc["element"] == 209
        result = doc["result"]
        assert result[0] * 17 + result[1] * 19 + result[2] * 22 == 209
        assert doc["value"] == "10"  # (1,2,7) beats the 11-generator factorizations

    def test_with_start(self, capsys):
        code, out, _ = run(capsys, "augment", "--gens", "17,19,22", "--start", "3,0,2",
                           "--objective", "1,0,-1", "--sense", "max")
        assert code == 0
        doc = json.loads(out)
        assert doc["element"] == 95

    def test_gap_element_exit_1(self, capsys):
        code, _, _ = run(capsys, "augment", "--gens", "17,19,22", "--element", "1",
                         "--objective", "1,1,1")
        assert code == 1

    def test_both_start_and_element_exit_1(self, capsys):
        code, _, _ = run(capsys, "augment", "--gens", "17,19,22", "--element", "95",
                         "--start", "3,0,2", "--objective", "1,1,1")
        assert code == 1

    def test_large_element_within_memory_limit(self):
        # 10^7 has about 7*10^9 factorizations; the walk starts at the first
        # one without listing the rest, in a child limited to 1 GB of
        # address space
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "gravershift.cli", "augment", "--gens", "17,19,22",
             "--element", "10000000", "--objective", "1,1,1", "--sense", "max"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert doc["start"] == [0, 4, 454542]
        # 588236 generators would weigh at least 17*588236 > 10^7
        assert (doc["result"], doc["value"]) == ([588234, 0, 1], "588235")


def _cli_in_child(argv, stdout, limit=None):
    """Run the CLI in a child process, optionally under an address-space
    limit set on the child alone; returns (exit code, stderr, peak RSS in
    MB), the child reporting its own peak on its last stderr line."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        if limit is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    probe = (
        "import resource, sys\n"
        "from gravershift.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
    )
    err = done.stderr.splitlines()
    peak = int(err.pop()) / 1024 if err and err[-1].isdigit() else None
    return done.returncode, "\n".join(err), peak


class TestFlatMemoryListing:
    """graver writes its rows in blocks as it formats them, so its memory
    does not grow with the listing."""

    @pytest.mark.parametrize("both_signs", [False, True], ids=["canonical", "both-signs"])
    @pytest.mark.parametrize("fmt", ["4ti2", "csv", "json"])
    def test_two_million_trades_under_256_mb(self, tmp_path, fmt, both_signs):
        # (1,1,1) at t = 2*10^6 has 2,000,001 canonical trades; listing them
        # whole took about 470 MB.  JSON spends five lines on each trade and
        # 21 more on the envelope after its opening brace, and ends with
        # the count
        t = 2_000_000
        rows = analysis.count_row(ShiftedFamily(1, 1, 1).instance(t), "fast").graver
        rows = rows if both_signs else rows // 2
        argv = ["graver", "--gens", f"{t - 1},{t},{t + 1}", "--method", "shift", "--format", fmt]
        path = tmp_path / "listing.txt"
        with open(path, "w") as fh:
            code, err, _ = _cli_in_child(argv + ["--both-signs"] * both_signs, fh, 2**28)
        assert (code, err) == (0, "")
        with open(path, "rb") as fh:
            header = fh.readline().decode()
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(2**20), b""))
            fh.seek(-64, os.SEEK_END)
            tail = fh.read().decode()
        path.unlink()
        if fmt == "json":
            assert header == "{\n"
            assert tail.endswith(f'\n    ]\n  ],\n  "count": {rows}\n}}\n')
            assert lines == 5 * rows + 21
        else:
            assert header == (f"{rows} 3\n" if fmt == "4ti2" else "v0,v1,v2\n")
            assert lines == rows

    def test_peak_rss_flat_from_1e5_to_1e6_trades(self):
        peaks = []
        for t in (100_000, 1_000_000):
            argv = ["graver", "--gens", f"{t - 1},{t},{t + 1}", "--method", "shift",
                    "--output", os.devnull]
            code, err, peak = _cli_in_child(argv, subprocess.DEVNULL)
            assert (code, err) == (0, "")
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 8, peaks


class TestFailedStdoutWrite:
    """A write to stdout that fails exits 1 with one error line, like a
    failed --output, whether or not stdout is buffered."""

    @staticmethod
    def _child(argv, stdout, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "gravershift.cli", *argv],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        )

    @staticmethod
    def _assert_one_error_line(child, reason):
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1
        assert err.splitlines() == [f"error: cannot write stdout: {reason}"], err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_pipe_closed_after_first_line(self, unbuffered):
        # 200,001 trades, far more than a pipe holds, so the writer is still
        # writing when the reader goes
        argv = ["graver", "--gens", "199999,200000,200001", "--method", "shift"]
        child = self._child(argv, subprocess.PIPE, unbuffered)
        assert child.stdout.readline().endswith(" 3\n")
        child.stdout.close()
        self._assert_one_error_line(child, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_full_device(self, unbuffered):
        # a few short lines: when buffered, only the flush can fail
        with open("/dev/full", "w") as full:
            child = self._child(["verify", "--family", "2,3,1", "--t-range", "7..12"], full, unbuffered)
            self._assert_one_error_line(child, "No space left on device")


class TestDifftest:
    def test_tiny_families_exit_0(self, capsys):
        code, out, _ = run(capsys, "difftest", "--family", "1,1,1", "--family", "1,2,1",
                           "--periods", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,d,t,fast,oracle,equal"
        assert len(lines) == 9
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("periods", ["0", "-1"])
    def test_nonpositive_periods_exit_1(self, capsys, periods):
        # refused before any family is read, with one line naming the flag
        code, out, err = run(capsys, "difftest", "--family", "2,4,1", "--periods", periods)
        assert (code, out) == (1, "")
        assert err == f"error: --periods must be at least 1, got {periods}\n"

    def test_beyond_oracle_scale_refused_at_once(self, capsys, monkeypatch):
        # each window's largest box is checked by arithmetic before any row:
        # (1,1,1)'s at t = 2,001 fits, and (2,3,1)'s at t = 30,006 is
        # refused, so no box is walked
        walks = _oracle_walks(monkeypatch, 2)
        code, out, err = run(capsys, "difftest", "--family", "1,1,1", "--family", "2,3,1",
                             "--periods", "1000")
        assert (code, out) == (1, "")
        assert "beyond oracle scale" in err
        assert walks == []

    def test_mismatch_exit_3(self, capsys, monkeypatch):
        fam = ShiftedFamily(1, 1, 1)
        fake = DifferentialReport((DifferentialRow(fam, 2, 5, 6, False),))
        monkeypatch.setattr(analysis, "differential_test", lambda *a, **k: fake)
        code, _, _ = run(capsys, "difftest", "--family", "1,1,1")
        assert code == 3


AUGMENT = ["augment", "--gens", "17,19,22", "--element", "209", "--objective", "1,1,1"]


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--gens", ["graver", "--gens", "17,19"]),
        ("--gens", ["params", "--gens", "17,x,22"]),
        ("--gens", ["hilbert", "--orthant", "ppn", "--gens", "1/0,19,22"]),
        ("--family", ["count", "--family", "2,3,1,1", "--t-range", "19..40"]),
        ("--family", ["scan-bounds", "--family", "2,three,1", "--t-max", "40"]),
        ("--family", ["difftest", "--family", "1,1,1", "--family", "2,3"]),
        ("--t-range", ["count", "--family", "2,3,1", "--t-range", "19"]),
        ("--t-range", ["verify", "--family", "2,3,1", "--t-range", "7-12"]),
        ("--t-range", ["verify", "--family", "2,3,1", "--t-range", "7..x"]),
        ("--t-range", ["count", "--family", "2,3,1", "--t-range", "1..2..3"]),
        ("--objective", [*AUGMENT, "--objective=1,1"]),
        ("--objective", [*AUGMENT, "--objective=1/0,1,1"]),
        ("--objective", [*AUGMENT, "--objective=a,1,1"]),
        ("--start", [*AUGMENT[:3], "--start=3,0", "--objective", "1,1,1"]),
        ("--start", [*AUGMENT[:3], "--start=x,0,2", "--objective", "1,1,1"]),
        ("--start", [*AUGMENT[:3], "--start=-1,0,2", "--objective", "1,1,1"]),
    ],
    ids=["gens-arity", "gens-word", "gens-1/0", "family-arity", "family-word",
         "family-repeated", "t-range-no-dots", "t-range-dash", "t-range-word", "t-range-arity",
         "objective-arity", "objective-1/0", "objective-word", "start-arity", "start-word",
         "start-negative"],
)
def test_malformed_value_exit_1_naming_the_flag(capsys, flag, argv):
    # wrong arity, a non-number, a range without "..", 1/0 and a negative
    # start: one error line that names the flag (augment's own check names
    # the start without dashes), no output and no traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag.lstrip("-") in err and "Traceback" not in err


def _surface(parser):
    """{subcommand: [(flag, choices, default, required), ...]} in the order
    build_parser adds them, help flags left out."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (a.option_strings[-1], a.choices, a.default, a.required)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }


def test_cli_surface():
    gens, family = ("--gens", None, None, True), ("--family", None, None, True)
    t_range, output = ("--t-range", None, None, True), ("--output", None, None, False)
    listing = [("--method", ["auto", "oracle", "shift"], "auto", False),
               ("--format", ["4ti2", "json", "csv"], "4ti2", False)]
    assert _surface(build_parser()) == {
        "params": [gens, output],
        "graver": [gens, *listing, ("--both-signs", None, False, False), output],
        "hilbert": [gens, ("--orthant", ["pnp", "ppn", "npp"], None, True), *listing, output],
        "count": [family, t_range, ("--method", ["auto", "oracle", "fast"], "oracle", False),
                  ("--format", ["csv", "json"], "csv", False), output],
        "verify": [family, t_range, ("--method", ["oracle", "fast", "auto"], "oracle", False),
                   output],
        "scan-bounds": [family, ("--t-max", None, None, True), output],
        "augment": [gens, ("--element", None, None, False), ("--start", None, None, False),
                    ("--objective", None, None, True),
                    ("--sense", ["min", "max"], "min", False), output],
        "difftest": [family, ("--periods", None, 1, False), output],
    }


def test_unknown_command_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_required_flag_exit_1(capsys):
    assert run(capsys, "graver")[0] == 1
