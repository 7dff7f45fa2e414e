"""Benchmark entry point for koszul-perturb.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each call starts the workload in a
fresh, single-threaded Python process (perfbench/worker.py) with the package
source from ``src/`` on its path, records the machine it ran on, writes the
full record to ``.perfbench/``, prints the record as one JSON line and then
the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Exits non-zero, without a result
line, when the package source is missing or the workload process fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "koszul_perturb" / "__init__.py"
WORKLOADS = ("qsigma_sweep", "transfer_random", "verify_all", "connection_recursion")
THREADS_VAR = "KOSZUL_PERTURB_THREADS"
WORKER_TIMEOUT_S = 170


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(load_start) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        THREADS_VAR: os.environ.get(THREADS_VAR),
    }


def _expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE.relative_to(ROOT)} not found; run from a source checkout",
              file=sys.stderr)
        return 2

    load_start = list(os.getloadavg())
    env = dict(os.environ)
    env.pop(THREADS_VAR, None)  # the program's default: checks run on one thread
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        print(f"error: workload process exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    expected = _expected_metrics(args.trace)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        print(f"error: metrics {sorted(set(got) ^ set(expected))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    record = result.pop("record")
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": _machine(load_start)})
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
