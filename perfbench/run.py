"""gravershift benchmark: one seeded workload, checked, with metrics by name.

    python3 perfbench/run.py --workload shift-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from src/).
Each repetition of the workload's fixed batch runs in a fresh Python process,
so the oracle's caches start empty as they do for a CLI user; repetitions
continue until --seconds have passed.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones from a separate traced run.  The last
line of stdout is the result object; the line before it holds machine
information, input sizes and sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
PROBES = 5

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "formats.serialize_s": "s", "formats.bytes": "B",
    "shift.transport_s": "s", "shift.segment_s": "s", "shift.assemble_s": "s",
    "shift.base_oracle_s": "s", "shift.trades": "count", "shift.peak_alloc_mb": "MB",
    "analysis.rows": "count", "analysis.shift_calls_per_row": "calls/row",
    "oracle.graver_s": "s", "oracle.hilbert_s": "s", "oracle.calls": "count",
    "oracle.enumerate_s": "s", "trace.overhead_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's OpenBLAS would otherwise start idle threads in every process
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(opts: dict, env: dict) -> dict:
    """Run worker.py once; its result with setup_s measured from before spawn."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(opts)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {opts['mode']} timed out") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker {opts['mode']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["gravershift"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"imported gravershift from {result['gravershift']}, not from src/")
    if "setup_end" in result:
        result["setup_s"] = result["setup_end"] - started
    return result


def process_ms(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    return (time.perf_counter() - start) * 1e3


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    idx = len(xs) - 11
    return 100.0 * (idx + 1) / len(xs), xs[idx]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def repeat(opts: dict, env: dict, seconds: float, modes: tuple[str, ...],
           min_reps: int) -> dict[str, list[dict]]:
    """Run the given worker modes in turn until `seconds` have passed."""
    deadline = time.monotonic() + seconds
    reps: dict[str, list[dict]] = {m: [] for m in modes}
    while len(reps[modes[0]]) < min_reps or time.monotonic() < deadline:
        for m in modes:
            reps[m].append(spawn({**opts, "mode": m}, env))
    return reps


def end_to_end(opts: dict, env: dict, seconds: float, info: dict) -> tuple[dict, list[dict]]:
    reps = repeat(opts, env, seconds, ("plain",), MIN_REPS)["plain"]
    items = [x for r in reps for x in r["items_ms"]]
    pct, tail_ms = tail(items)
    info.update(reps=len(reps), item_samples=len(items), tail_percentile=round(pct, 2),
                rep_wall_s=[round(r["wall_s"], 4) for r in reps])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "item_p50_ms": statistics.median(items),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    return metrics, reps


def per_layer(opts: dict, env: dict, seconds: float, info: dict) -> tuple[dict, list[dict]]:
    cli = opts["workload"] == "cli-mix"
    base_mode = "inproc" if cli else "plain"
    out = HERE / "out" / f"spans-{opts['workload']}-{opts['seed']}.json"
    reps = repeat({**opts, "out": str(out)}, env, seconds, (base_mode, "traced"), 1)
    untraced, traced = reps[base_mode], reps["traced"]
    alloc = spawn({**opts, "mode": "alloc"}, env)
    enum = spawn({"mode": "enumerate", "instances": traced[0]["oracle_instances"]}, env)
    cli_reps = untraced if cli else [spawn({**opts, "workload": "cli-mix", "mode": "inproc"}, env)]
    interp = statistics.median(process_ms([sys.executable, "-c", "pass"], env) for _ in range(PROBES))
    imported = statistics.median(
        process_ms([sys.executable, "-c", "import gravershift.cli"], env) for _ in range(PROBES)
    )
    for r in traced:
        if r["self_sum_s"] > r["wall_s"]:
            raise HarnessError(f"span self times {r['self_sum_s']} exceed traced wall {r['wall_s']}")
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics.update({
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.main_ms": statistics.median(x for r in cli_reps for x in r["items_ms"]),
        "shift.peak_alloc_mb": alloc["peak_alloc_mb"],
        "oracle.enumerate_s": enum["enumerate_s"],
        "trace.overhead_ratio": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced),
    })
    info.update(
        traced_reps=len(traced), spans=traced[0]["spans"], span_file=str(out.relative_to(ROOT)),
        traced_wall_s=[r["wall_s"] for r in traced], self_sum_s=[r["self_sum_s"] for r in traced],
        enumerated_instances=len(traced[0]["oracle_instances"]),
    )
    return metrics, untraced + traced + [alloc] + (cli_reps if not cli else [])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="alter one output before checking, for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gravershift" / "__init__.py").is_file():
        print(f"error: no gravershift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    opts = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny, "corrupt": args.corrupt}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "machine": machine()}
    try:
        # compile the package once so no measured process pays for bytecode
        subprocess.run([sys.executable, "-c", "import gravershift.cli"], env=env, check=True,
                       timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        measure = per_layer if args.trace else end_to_end
        metrics, reps = measure(opts, env, args.seconds, info)
    except (HarnessError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    info.update(numpy=reps[0]["numpy"], inputs=reps[0]["sizes"],
                fail_ratio=failed / attempted, errors=errors[:5])
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
