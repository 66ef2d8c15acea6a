"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

Checks that a tiny run of every workload, traced and untraced, prints every
metric named in BENCHMARK.json with its unit and no failure; that one
corrupted trade per repetition is counted as a failure; and that the
benchmark refuses to run without the program's sources.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, root: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "7", "--seconds", "0.5",
         "--tiny", *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run("--workload", workload, "--trace", str(trace))
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(code == 0 and got == wanted[trace], f"{workload} trace {trace}: every metric, by unit")
            expect(
                code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace {trace}: outputs correct",
            )
            expect(
                code == 0 and all(isinstance(v["value"], float) for v in result["metrics"].values()),
                f"{workload} trace {trace}: values are measured floats",
            )
        code, result = run("--workload", workload, "--trace", "0", "--corrupt")
        expect(
            code == 0 and not result["correct"] and result["failed"] >= 1,
            f"{workload}: a corrupted trade counts as a failure",
        )

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("--workload", "cli-mix", "--trace", "0", root=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without src/ the benchmark exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
