"""Seeded inputs, timed items and output checks for the four workloads.

Input generation is pure Python and depends only on (workload, seed, tiny):
it never asks the program for thresholds, so a change to the program cannot
move the inputs.  Checks use the benchmark's own arithmetic (kernel
membership, sign patterns, the period law) plus untimed calls to the other
route, never the route under test alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

WORKLOADS = ("cli-mix", "oracle-sweep", "shift-large", "count-scan")
METHODS = ("auto", "oracle", "shift")
FORMATS = ("4ti2", "json", "csv")
ORTHANTS = ("pnp", "ppn", "npp")

# Families of the differential acceptance suite (criterion 5).
SWEEP_FAMILIES = ((1, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 2), (3, 4, 2), (2, 5, 3))

# The canonical Graver count grows like t/(a*b), so these shifts give every
# shift-large item about 100k trades.  The seed picks the exact shift within
# a window that spans several periods (so the base case varies) but moves the
# size by under 1%.
LARGE_TARGETS = (
    ((1, 3, 2), 300_000),
    ((2, 3, 1), 600_000),
    ((2, 5, 3), 1_000_000),
    ((3, 4, 2), 1_200_000),
    ((3, 5, 1), 1_500_000),
)
LARGE_JITTER = 2_000
# count-scan: about 2.5k trades per count row.  Each item holds one window
# per family, so items cost the same and the latency quantiles do not fall
# between families.  Small periods keep the oracle base cases, and with them
# the numpy grids, negligible next to the transported bases.
SCAN_TARGETS = (
    ((1, 4, 1), 10_000),
    ((1, 5, 1), 12_500),
    ((2, 3, 1), 15_000),
    ((2, 5, 1), 25_000),
    ((3, 4, 1), 30_000),
    ((1, 3, 2), 12_000),
)
SCAN_JITTER = 500
SCAN_WINDOW = 2
SCAN_ITEMS = 7

# Canonical Graver bases of <17,19,22> and <77,79,82>, in (v2, v1, v0) order.
GOLDEN = {
    (17, 19, 22): [
        (-19, 17, 0), (11, -11, 1), (-8, 6, 1), (3, -5, 2), (-5, 1, 3), (-2, -4, 5),
        (1, -9, 7), (-7, -3, 8), (-12, -2, 11), (-1, -13, 12), (-17, -1, 14),
        (-22, 0, 17), (0, -22, 19),
    ],
    (77, 79, 82): [
        (-79, 77, 0), (41, -41, 1), (-38, 36, 1), (3, -5, 2), (-35, 31, 3), (-32, 26, 5),
        (-29, 21, 7), (-26, 16, 9), (-23, 11, 11), (-20, 6, 13), (-17, 1, 15),
        (-14, -4, 17), (-11, -9, 19), (-8, -14, 21), (-5, -19, 23), (-2, -24, 25),
        (1, -29, 27), (-31, -3, 32), (-48, -2, 47), (-1, -53, 52), (-65, -1, 62),
        (-82, 0, 77), (0, -82, 79),
    ],
}


class CheckFailed(Exception):
    """An output disagrees with its reference."""


# ---------------------------------------------------------------- arithmetic


def base_bound(a: int, b: int, d: int) -> int:
    """Transport threshold of the seed code, frozen here so inputs never move."""
    return max(
        (b - 1) * (a + b) - b * (d + 1),
        d * a * b,
        (a - 1) * (a + b) - a * (d - 1),
        (a - 1) * (a + b) + a * (d - 1),
    )


def rho(a: int, b: int, d: int) -> int:
    return d * a * b * (a + b)


def gens_of(fam: tuple[int, int, int], t: int) -> tuple[int, int, int]:
    a, b, d = fam
    return (t - d * a, t, t + d * b)


def family_of(gens: tuple[int, int, int]) -> tuple[tuple[int, int, int], int]:
    n1, n2, n3 = gens
    d = math.gcd(n2 - n1, n3 - n2)
    return ((n2 - n1) // d, (n3 - n2) // d, d), n2


def _valid_t(rng: random.Random, fam: tuple[int, int, int], lo: int, hi: int) -> int:
    a, _, d = fam
    lo = max(lo, d * a + 1)
    while True:
        t = rng.randint(lo, hi)
        if math.gcd(t, d) == 1:
            return t


def _t_for_n3(rng: random.Random, fam: tuple[int, int, int], lo: int, hi: int) -> int:
    """A valid shift whose largest generator lies in [lo, hi].

    The oracle's grid, hence its time and memory, is set by the largest
    generator, so a narrow band keeps oracle-bound batches the same size
    from seed to seed.
    """
    _, b, d = fam
    return _valid_t(rng, fam, lo - d * b, hi - d * b)


def _random_family(rng: random.Random) -> tuple[int, int, int]:
    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(a, b) == 1:
            return (a, b, rng.randint(1, 3))


# ------------------------------------------------------------------ inputs


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's fixed batch for this seed, as plain tuples and lists."""
    rng = random.Random(f"{workload}:{seed}:{int(tiny)}")
    if workload == "cli-mix":
        return _gen_cli(rng, tiny)
    if workload == "oracle-sweep":
        fams = SWEEP_FAMILIES[1:3] if tiny else SWEEP_FAMILIES
        lo, hi = (76, 80) if tiny else (596, 600)
        return [(fam, _t_for_n3(rng, fam, lo, hi)) for fam in fams]
    if workload == "shift-large":
        targets = ((fam, t // 100) for fam, t in LARGE_TARGETS[:2]) if tiny else LARGE_TARGETS
        return [(fam, _valid_t(rng, fam, t, t + LARGE_JITTER)) for fam, t in targets]
    if workload == "count-scan":
        targets = [(fam, t // 20) for fam, t in SCAN_TARGETS[:2]] if tiny else SCAN_TARGETS
        windows = []
        for _ in range(2 if tiny else SCAN_ITEMS):
            item = []
            for fam, target in targets:
                lo = rng.randint(target, target + SCAN_JITTER)
                item.append((fam, lo, lo + SCAN_WINDOW - 1))
            windows.append(item)
        return windows
    raise ValueError(f"unknown workload {workload!r}")


def _gen_cli(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Two golden requests, then graver and hilbert requests that cover every
    format and method once each, then params."""
    requests = [
        ["graver", "--gens", "17,19,22", "--format", "4ti2", "--method", rng.choice(METHODS)],
        # two transported periods, so the segment solve always runs
        ["graver", "--gens", "77,79,82", "--format", "4ti2", "--method", "shift"],
    ]
    lo, hi = (56, 60) if tiny else (116, 120)
    kinds = ("graver",) if tiny else ("graver", "hilbert")
    for kind in kinds:
        fmts, methods = list(FORMATS), list(METHODS)
        rng.shuffle(fmts)
        rng.shuffle(methods)
        for fmt, method in zip(fmts, methods):
            fam = _random_family(rng)
            gens = gens_of(fam, _t_for_n3(rng, fam, lo, hi))
            req = [kind, "--gens", ",".join(map(str, gens)), "--format", fmt, "--method", method]
            if kind == "hilbert":
                req += ["--orthant", rng.choice(ORTHANTS)]
            requests.append(req)
    for _ in range(1 if tiny else 2):
        fam = _random_family(rng)
        gens = gens_of(fam, _valid_t(rng, fam, 2, 300))
        requests.append(["params", "--gens", ",".join(map(str, gens))])
    rng.shuffle(requests)
    return requests


def input_sizes(workload: str, batch: list) -> dict:
    if workload == "cli-mix":
        return {"requests": len(batch), "max_t": max(family_of(_gens_arg(r))[1] for r in batch)}
    if workload == "count-scan":
        return {"windows": sum(map(len, batch)),
                "shifts": sum(hi - lo + 1 for item in batch for _, lo, hi in item),
                "t": [[lo for _, lo, _ in item] for item in batch]}
    return {"instances": len(batch), "t": [t for _, t in batch]}


def _gens_arg(req: list[str]) -> tuple[int, int, int]:
    n1, n2, n3 = (int(x) for x in req[req.index("--gens") + 1].split(","))
    return (n1, n2, n3)


# ------------------------------------------------------------------- items


class Runner:
    """Binds a batch to the program: `api` maps the public entry points the
    items call (plain functions, or span wrappers in a traced run)."""

    def __init__(self, workload: str, batch: list, gs, api: dict, cli_argv0: list[str] | None):
        self.workload = workload
        self.gs = gs
        self.api = api
        self.cli_argv0 = cli_argv0  # None runs cli.main in process
        self._absolute_checked: set = set()
        if workload in ("oracle-sweep", "shift-large"):
            self.args = [gs.ShiftedFamily(*fam).instance(t) for fam, t in batch]
        elif workload == "count-scan":
            self.args = [[(gs.ShiftedFamily(*fam), lo, hi) for fam, lo, hi in item] for item in batch]
        else:
            self.args = list(batch)

    def run_item(self, arg):
        api = self.api
        if self.workload == "cli-mix":
            if self.cli_argv0 is None:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = api["cli.main"](list(arg))
                return code, buf.getvalue()
            proc = subprocess.run(self.cli_argv0 + list(arg), capture_output=True, text=True,
                                  timeout=120)
            return proc.returncode, proc.stdout
        if self.workload == "oracle-sweep":
            fast = api["shift.graver_shift"](arg)
            return fast, api["oracle.graver_oracle"](arg)
        if self.workload == "shift-large":
            return api["formats.format_4ti2"](api["shift.graver_shift"](arg))
        return [api["analysis.verify_period_law"](fam, lo, hi, method="fast") for fam, lo, hi in arg]

    def check(self, spec, output) -> None:
        """Raise CheckFailed unless `output` (of the item built from `spec`) is right."""
        getattr(self, "_check_" + self.workload.replace("-", "_"))(spec, output)

    # -- checks

    def _check_cli_mix(self, req, output):
        code, text = output
        if code != 0:
            raise CheckFailed(f"exit {code} for {' '.join(req)}")
        kind = req[0]
        gens = _gens_arg(req)
        (a, b, d), t = family_of(gens)
        if kind == "params":
            return _check_params(text, gens, a, b, d, t)
        fmt = req[req.index("--format") + 1]
        rows = _parse_rows(text, fmt, gens)
        inst = self.gs.from_generators(*gens)
        if kind == "graver":
            _check_trades(rows, gens, canonical=True)
            if gens in GOLDEN and fmt == "4ti2" and text != _golden_4ti2(gens):
                raise CheckFailed(f"golden bytes differ for {gens}")
            reference = self.gs.graver_oracle(inst).trades
        else:
            orthant = req[req.index("--orthant") + 1]
            _check_trades(rows, gens, canonical=False)
            _check_orthant(rows, orthant)
            reference = self.gs.hilbert_oracle(inst, self.gs.OrthantLabel(orthant)).trades
        if len(rows) != len(reference) or set(rows) != set(reference):
            raise CheckFailed(f"{kind} {gens}: {len(rows)} rows, oracle has {len(reference)}")

    def _check_oracle_sweep(self, inst, output):
        fast, oracle = output
        _check_trades(list(oracle.trades), inst.generators, canonical=True)
        if set(fast.trades) != set(oracle.trades) or len(fast) != len(oracle):
            raise CheckFailed(f"routes differ at {inst.generators}: {len(fast)} vs {len(oracle)}")

    def _check_shift_large(self, inst, text):
        gens = inst.generators
        rows = _parse_rows(text, "4ti2", gens)
        _check_trades(rows, gens, canonical=True)
        expected = self._period_law_count(inst.family, inst.t)
        if len(rows) != expected:
            raise CheckFailed(f"period law at {gens}: {len(rows)} trades, expected {expected}")

    def _check_count_scan(self, windows, reports):
        if len(reports) != len(windows):
            raise CheckFailed(f"{len(reports)} reports for {len(windows)} windows")
        for window, report in zip(windows, reports):
            self._check_window(window, report)

    def _check_window(self, window, report):
        fam, lo, hi = window
        a, b, d = fam.a, fam.b, fam.d
        expected_t = [t for t in range(lo, hi + 1) if math.gcd(t, d) == 1]
        if [r.t for r in report.rows] != expected_t or not report.ok:
            raise CheckFailed(f"period-law rows for {fam} {lo}..{hi}")
        law = (2 * d * (a + b), 0, d * a, d * b)
        for r in report.rows:
            inc = (r.graver_increment, r.pnp_increment, r.ppn_increment, r.npp_increment)
            if inc != law:
                raise CheckFailed(f"increments {inc} at t={r.t}, expected {law}")
        if report.leading_coefficient != Fraction(2, a * b):
            raise CheckFailed(f"leading coefficient {report.leading_coefficient}")
        # once per family, the absolute count at the first shift: Graver =
        # 2(sum |H| - 3), and the period law from an oracle base case
        if fam in self._absolute_checked:
            return
        self._absolute_checked.add(fam)
        t = expected_t[0]
        row = self.gs.count_scan(fam, t, t, method="fast").rows[0]
        if row.graver != 2 * (row.h_pnp + row.h_ppn + row.h_npp - 3):
            raise CheckFailed(f"graver != 2(sum H - 3) at t={t}")
        if row.graver != 2 * self._period_law_count(fam, t):
            raise CheckFailed(f"absolute count at t={t} breaks the period law")

    def _period_law_count(self, fam, t: int) -> int:
        """|G(t0 + k*rho)| = |G_oracle(t0)| + k*d*(a+b), canonical count, with
        t0 the shift congruent to t in the first period above the threshold."""
        a, b, d = fam.a, fam.b, fam.d
        period = rho(a, b, d)
        k = (t - base_bound(a, b, d) - 1) // period
        return len(self.gs.graver_oracle(fam.instance(t - k * period))) + k * d * (a + b)


def corrupt(workload: str, specs: list, outputs: list) -> list:
    """Copy of `outputs` with one trade altered (v0 += 1) in the first item
    that has one, or one period-law increment altered; for the self-test."""
    outputs = list(outputs)
    for i, (spec, out) in enumerate(zip(specs, outputs)):
        if workload == "cli-mix":
            if spec[0] == "params":
                continue
            code, text = out
            if "--format" in spec and spec[spec.index("--format") + 1] == "json":
                doc = json.loads(text)
                doc["trades"][0][0] += 1
                text = json.dumps(doc)
            else:
                head, first, rest = text.split("\n", 2)
                x, sep, tail = re.split(r"([ ,])", first, maxsplit=1)
                text = f"{head}\n{int(x) + 1}{sep}{tail}\n{rest}"
            outputs[i] = (code, text)
        elif workload == "oracle-sweep":
            fast, oracle = out
            v = fast.trades[0]
            outputs[i] = (type(fast)(((v[0] + 1, v[1], v[2]),) + fast.trades[1:], fast.mode), oracle)
        elif workload == "shift-large":
            head, first, rest = out.split("\n", 2)
            x, y, z = first.split()
            outputs[i] = f"{head}\n{int(x) + 1} {y} {z}\n{rest}"
        else:
            row = out[0].rows[0]
            bad = dataclasses.replace(row, graver_increment=row.graver_increment + 1)
            outputs[i] = [dataclasses.replace(out[0], rows=(bad,) + out[0].rows[1:])] + out[1:]
        return outputs
    raise ValueError("nothing to corrupt")


# ---------------------------------------------------------- check helpers


def _golden_4ti2(gens) -> str:
    rows = GOLDEN[gens]
    return f"{len(rows)} 3\n" + "".join(f"{x} {y} {z}\n" for x, y, z in rows)


def _parse_rows(text: str, fmt: str, gens) -> list[tuple[int, int, int]]:
    try:
        if fmt == "json":
            doc = json.loads(text)
            rows = [tuple(v) for v in doc["trades"]]
            if doc["count"] != len(rows) or tuple(doc["generators"]) != tuple(gens):
                raise CheckFailed(f"json envelope wrong for {gens}")
        elif fmt == "csv":
            lines = text.splitlines()
            if lines[0] != "v0,v1,v2":
                raise CheckFailed(f"csv header {lines[0]!r}")
            rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        else:
            rows = _parse_4ti2(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"unparsable {fmt} output: {exc}") from None
    if any(len(v) != 3 for v in rows):
        raise CheckFailed(f"{fmt} output has a row without three entries")
    return rows


def _parse_4ti2(text: str) -> list[tuple[int, int, int]]:
    lines = text.splitlines()
    n, cols = lines[0].split()
    nums = list(map(int, text[len(lines[0]):].split()))
    rows = list(zip(nums[0::3], nums[1::3], nums[2::3]))
    if cols != "3" or int(n) != len(rows) or len(lines) - 1 != len(rows) or 3 * len(rows) != len(nums):
        raise CheckFailed(f"4ti2 header {lines[0]!r} for {len(rows)} rows")
    if not text.endswith("\n"):
        raise CheckFailed("4ti2 output lacks its final newline")
    return rows


def _check_trades(rows, gens, canonical: bool) -> None:
    """Kernel membership, shape, and strict (v2, v1, v0) order."""
    n1, n2, n3 = gens
    if not rows:
        raise CheckFailed(f"empty basis for {gens}")
    if any(n1 * x + n2 * y + n3 * z for x, y, z in rows):
        raise CheckFailed(f"a row is not a trade of {gens}")
    if canonical:
        # last nonzero coordinate positive (which also excludes zero)
        if not all(z > 0 or z == 0 and (y > 0 or y == 0 and x > 0) for x, y, z in rows):
            raise CheckFailed(f"a row of {gens} is not canonical")
    elif (0, 0, 0) in rows:
        raise CheckFailed("zero vector listed")
    keys = [(z, y, x) for x, y, z in rows]
    if any(p >= q for p, q in zip(keys, keys[1:])):
        raise CheckFailed(f"rows of {gens} are not in strict (v2, v1, v0) order")


def _check_orthant(rows, orthant: str) -> None:
    nonneg = {"pnp": (0, 2), "ppn": (0, 1), "npp": (1, 2)}[orthant]
    for v in rows:
        if any(v[i] < 0 for i in nonneg):
            raise CheckFailed(f"{v} not in the {orthant} orthant")


def _check_params(text, gens, a, b, d, t) -> None:
    kv = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    want = {
        "generators": ",".join(map(str, gens)),
        "t": str(t), "a": str(a), "b": str(b), "d": str(d), "rho": str(rho(a, b, d)),
    }
    for key, value in want.items():
        if kv.get(key) != value:
            raise CheckFailed(f"params {key}={kv.get(key)!r}, expected {value}")
    try:
        t0, k = int(kv["t0"]), int(kv["k"])
    except (KeyError, ValueError):
        raise CheckFailed("params lacks t0/k") from None
    if k < 0 or t0 < 1 or t0 + k * rho(a, b, d) != t:
        raise CheckFailed(f"params t0={t0}, k={k} do not decompose t={t}")


def cli_command() -> list[str]:
    return [sys.executable, "-m", "gravershift.cli"]
