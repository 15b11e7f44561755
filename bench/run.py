"""Benchmark of polyscore: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cnf-hardness --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each workload runs in its own Python process (``worker.py``) with BLAS and
OpenMP pinned to one thread and ``POLYSCORE_THREADS`` unset.  Before it,
``SETUP_PROBES`` processes run the set-up alone, and ``setup_s`` is the median
over them and the workload process.  With ``--trace 0`` the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics; with ``--trace 1`` the metrics are the per-layer
ones.  The line before it carries the machine block, and the full result
is written under ``.bench_out/``.  Exits non-zero, printing no result, when
a process fails or this is not a polyscore checkout.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cnf-hardness", "sm-study", "mle-audit")
SETUP_PROBES = 2
RUN_BUDGET_S = 175.0

PINNED_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# (name, unit) of the end-to-end metrics
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLYSCORE_THREADS"}
    env.update(PINNED_THREADS)
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line is its JSON result."""
    env = _child_env()
    env["BENCH_T_SPAWN"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
        "polyscore_threads": None,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    load_start = os.getloadavg()
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _spawn([*common, "--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    res["setup_s"] = statistics.median(setups)
    res["machine"] = {**_machine(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, v, u in _layer_rows(res)}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    res["summary"] = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return res


def _layer_rows(res: dict):
    from tracer import LAYER_METRICS

    for name, unit in LAYER_METRICS:
        yield name, res["layer"][name], unit


def _print_result(res: dict) -> None:
    s = res["summary"]
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} rounds={res['rounds']} "
          f"attempted={s['attempted']} failed={s['failed']} correct={str(s['correct']).lower()}")
    for op in res["failed_ops"]:
        print(f"#   failed: {op}")
    for p in res["problems"]:
        print(f"#   problem: {p}")
    if res["trace"]:
        print(f"#   traced wall_s {res['wall_s']:.4f} s (tracing on)")
    for k, m in s["metrics"].items():
        print(f"#   {k:40s} {m['value']:.6g} {m['unit']}")
    print("# machine " + json.dumps(res["machine"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polyscore" / "__init__.py").is_file():
        print(f"error: no src/polyscore under {ROOT}; run from a polyscore checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    out_dir = ROOT / ".bench_out"
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
            _print_result(res)
            results.append(res)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]["summary"]))
    else:
        print(json.dumps({r["workload"]: r["summary"] for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
