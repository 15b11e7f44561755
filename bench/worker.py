"""One workload in one process: set up, run whole rounds, check, report.

Started by ``run.py`` with the thread-pinning environment already in place,
and with ``BENCH_T_SPAWN`` holding the launcher's ``time.monotonic()`` just
before the spawn, so ``setup_s`` counts interpreter start and imports too.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyscore  # noqa: E402

if Path(polyscore.__file__).resolve().parent != ROOT / "src" / "polyscore":
    sys.exit(f"polyscore imported from {polyscore.__file__}, not from this checkout's src/")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    t_spawn = float(os.environ["BENCH_T_SPAWN"])
    setup, run, check = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        inputs = setup(args.seed, Path(work))
        setup_s = time.monotonic() - t_spawn
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        at_setup = tracer.snapshot() if tracer else None
        rounds, walls, cpus = [], [], []
        start = time.perf_counter()
        while True:
            t0, c0 = time.perf_counter(), time.process_time()
            rounds.append(run(inputs))
            t1, c1 = time.perf_counter(), time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            if t1 - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer = tracer.layer_metrics(at_setup, len(rounds)) if tracer else None
        functions = tracer.table() if tracer else None
        if tracer:
            tracer.uninstall()
        problems = check(inputs, rounds[0]) + checks.check_rounds_identical(rounds)
    ops = [op for r in rounds for op in r]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "failed_ops": sorted({f"{op['name']} {' '.join(op['out'].get('argv', []))} -> "
                              f"exit {op['out'].get('exit')}" for op in ops if not op["ok"]}),
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
        "functions": functions,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
