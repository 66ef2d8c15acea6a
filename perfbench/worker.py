"""One repetition of a workload in a fresh process.

Usage: worker.py '<json options>'.  Options: workload, seed, mode, tiny,
corrupt, out (span file), instances (enumerate mode).  Modes:

  plain      the workload as users run it (cli-mix through CLI processes)
  inproc     cli-mix through cli.main in this process
  traced     like plain (inproc for cli-mix), with span wrappers installed
  alloc      like traced, measuring tracemalloc peaks instead of spans
  enumerate  time oracle.enumerate_trades at radius n3 on given instances

Prints one JSON object on stdout.  Timing covers the items only; checks
run afterwards.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path


def main() -> int:
    opts = json.loads(sys.argv[1])
    import gravershift as gs
    import gravershift.cli  # noqa: F401 - loaded by every mode that runs requests
    import numpy

    if opts["mode"] == "enumerate":
        return _enumerate(gs, opts["instances"])

    import spans
    import workloads

    workload, mode = opts["workload"], opts["mode"]
    batch = workloads.generate(workload, opts["seed"], opts.get("tiny", False))
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        api = tracer.install()
    elif mode == "alloc":
        meter = spans.AllocMeter()
        api = meter.install()
    else:
        api = spans.plain_api()
    in_process = mode != "plain" or workload != "cli-mix"
    runner = workloads.Runner(
        workload, batch, gs, api, cli_argv0=None if in_process else workloads.cli_command()
    )

    items_ms, outputs, errors = [], [], []
    setup_end = time.monotonic()
    wall_start = time.perf_counter()
    for arg in runner.args:
        start = time.perf_counter()
        try:
            outputs.append(runner.run_item(arg))
        except Exception as exc:  # a program failure counts against the item
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        items_ms.append((time.perf_counter() - start) * 1e3)
    wall = time.perf_counter() - wall_start
    # the checks below call the program too, unmeasured
    if tracer is not None:
        tracer.active = False
    if mode == "alloc":
        meter.active = False
        tracemalloc.stop()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024

    if opts.get("corrupt"):
        outputs = workloads.corrupt(workload, runner.args, outputs)
    failed = 0
    for arg, out in zip(runner.args, outputs):
        if out is None:
            failed += 1
            continue
        try:
            runner.check(arg, out)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "items_ms": items_ms,
        "attempted": len(runner.args),
        "failed": failed,
        "errors": errors[:5],
        "rss_mb": rss_mb,
        "sizes": workloads.input_sizes(workload, batch),
        "numpy": numpy.__version__,
        "gravershift": os.path.dirname(gs.__file__),
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["self_sum_s"] = sum(tracer.self_times())
        result["oracle_instances"] = tracer.oracle_instances()
        result["spans"] = len(tracer.spans)
        tracer.dump(Path(opts["out"]))
    if mode == "alloc":
        result["peak_alloc_mb"] = meter.peak / 2**20
    print(json.dumps(result))
    return 0


def _enumerate(gs, instances) -> int:
    insts = [gs.ShiftedFamily(a, b, d).instance(t) for a, b, d, t in instances]
    start = time.perf_counter()
    trades = sum(len(gs.enumerate_trades(inst, inst.generators[2])) for inst in insts)
    print(json.dumps({"enumerate_s": time.perf_counter() - start, "trades": trades,
                      "gravershift": os.path.dirname(gs.__file__)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
