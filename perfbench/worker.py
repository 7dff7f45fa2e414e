"""One workload run in a fresh process: import, set-up, then a timed or a traced measurement.

Started by run.py with the package source on PYTHONPATH; prints one JSON
object (the result plus its record) as its last line of standard output.

Timed run (--trace 0): the set-up runs SETUPS times and the median counts.
Then identical rounds repeat until --seconds have passed and at least the
workload's min_rounds are done.  Every round is checked by the oracle and
must give the same output digest.  Round times are medians over the rounds;
op latencies pool every op of every round.

Traced run (--trace 1): after one untraced warm-up round, traced and
untraced rounds alternate (at least two of each, until --seconds have
passed); the tracing overhead is the median traced round minus the median
untraced round.  The traced rounds must give exactly the same per-layer
counts as each other and the same output digest as the untraced rounds, and
the workload's zero-call layers must see no call.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys

import tracer
from workloads import WORKLOADS, perf

SETUPS = 3
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def tail_percentile(n: int) -> float:
    """Highest listed percentile that leaves at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p):
    """(value at percentile p, number of samples beyond it)."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _round(kp, workload, inputs, seed, trace=None):
    """One round, checked by the workload's oracle; traced when a tracer is given."""
    if trace is not None:
        trace.install()
    try:
        cpu0, start = cpu_s(), perf()
        latencies, outputs = workload.run(kp, inputs)
        wall, cpu = perf() - start, cpu_s() - cpu0
    finally:
        if trace is not None:
            trace.uninstall()
    verdict = workload.check(kp, inputs, outputs, seed)
    digest = hashlib.sha256("\n".join(verdict.parts).encode()).hexdigest()[:16]
    out = {"wall": wall, "cpu": cpu, "latencies": latencies, "verdict": verdict, "digest": digest}
    if trace is not None:
        out.update(metrics=trace.metrics(), edges=trace.edge_table())
    return out


def _outcome(rounds, ops):
    """Correctness bookkeeping shared by both kinds of run."""
    problems = [p for r in rounds for p in r["verdict"].problems]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("output digest differs between rounds on the same inputs")
    if any(len(r["latencies"]) != ops for r in rounds):
        problems.append(f"a round did not time exactly {ops} ops")
    failed = sum(len(r["verdict"].failed) for r in rounds)
    record = {
        "digest": rounds[0]["digest"],
        "rounds": len(rounds),
        "ops_per_round": ops,
        "failed_examples": [f for r in rounds for f in r["verdict"].failed][:5],
        "problems": problems,
        "data": rounds[0]["verdict"].data,
    }
    result = {"correct": failed == 0 and not problems, "attempted": ops * len(rounds), "failed": failed}
    return result, record


def _setup(workload, seed):
    """Fresh import of the package plus the workload's inputs, timed."""
    for name in [n for n in sys.modules if n == "koszul_perturb" or n.startswith("koszul_perturb.")]:
        del sys.modules[name]
    start = perf()
    kp = importlib.import_module("koszul_perturb")
    imported = perf()
    inputs = workload.setup(kp, seed)
    return kp, inputs, imported - start, perf() - start


def timed_run(workload, seed, seconds):
    setups = [_setup(workload, seed) for _ in range(SETUPS)]
    kp, inputs = setups[-1][:2]
    ops = workload.ops_per_round(inputs)
    rounds = []
    deadline = perf() + seconds
    while len(rounds) < workload.min_rounds or perf() < deadline:
        rounds.append(_round(kp, workload, inputs, seed))
    result, record = _outcome(rounds, ops)

    wall = statistics.median(r["wall"] for r in rounds)
    latencies = sorted(x for r in rounds for x in r["latencies"])
    pct = tail_percentile(ops * workload.min_rounds)  # fixed per workload, whatever the host speed
    tail, beyond = nearest_rank(latencies, pct)
    values = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "setup_s": (statistics.median(total for *_, total in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record.update(
        {
            "setup_import_s": [imp for _, _, imp, _ in setups],
            "setup_runs_s": [total for *_, total in setups],
            "round_wall_s": [r["wall"] for r in rounds],
            "round_cpu_s": [r["cpu"] for r in rounds],
            "op_samples": len(latencies),
            "op_tail_percentile": pct,
            "op_tail_samples_beyond": beyond,
            "failed_ops": result["failed"],
        }
    )
    return result, record


def traced_run(workload, seed, seconds):
    kp, inputs, import_s, setup_s = _setup(workload, seed)
    ops = workload.ops_per_round(inputs)
    trace = tracer.Tracer(kp)
    warmup = _round(kp, workload, inputs, seed)  # fills the package's caches before the pairs
    untraced, rounds = [], []
    deadline = perf() + seconds
    while len(rounds) < 2 or perf() < deadline:
        rounds.append(_round(kp, workload, inputs, seed, trace))
        untraced.append(_round(kp, workload, inputs, seed))
    result, record = _outcome([warmup] + untraced + rounds, ops)
    problems = record["problems"]
    counts = [{k: v for k, v in r["metrics"].items() if not k.endswith("_s")} for r in rounds]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced rounds of one seed")
    first = rounds[0]["metrics"]
    for layer in workload.zero_layers:
        called = [k for k, v in first.items() if k.startswith(layer + ".") and k.endswith(".calls") and v]
        if called:
            problems.append(f"zero-call prediction broken for layer {layer}: {called}")
    result["correct"] = result["failed"] == 0 and not problems

    metrics = {}
    for name in tracer.metric_names():
        values = [r["metrics"][name] for r in rounds]
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        elif name.endswith("_frac"):
            metrics[name] = {"value": values[0], "unit": "ratio"}
        else:
            metrics[name] = {"value": values[0], "unit": "count"}
    overhead = statistics.median(r["wall"] for r in rounds) - statistics.median(r["wall"] for r in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    result["metrics"] = metrics
    record.update(
        {
            "import_s": import_s,
            "setup_s": setup_s,
            "untraced_round_wall_s": [r["wall"] for r in untraced],
            "traced_round_wall_s": [r["wall"] for r in rounds],
            "tracing_overhead_s": overhead,
            "span_edges": [list(e) for e in rounds[0]["edges"][:60]],
        }
    )
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    run = traced_run if args.trace else timed_run
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds)
    result["record"] = record
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
