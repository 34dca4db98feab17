"""cellab benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload certify|exact|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root. The run starts the worker three times: each
start is a fresh interpreter that imports cellab from ./src, builds the
run's inputs from the seed and warms up, and `setup_s` is the median time
from process start to READY. The third worker then runs the ops, one at a
time in a closed loop, and checks every output. With --trace 0 the last
line holds the end-to-end metrics; with --trace 1 the worker runs the same
ops a second time with span wrappers installed and the last line holds the
per-layer metrics. The line before it is a JSON report with the
environment, the op counts and the outcome of every failed op.
"""

import argparse
import json
from importlib import metadata
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
# the names of ops.WORKLOADS; run.py itself never imports cellab
WORKLOADS = ("certify", "exact", "cli")
SETUP_STARTS = 3
WORKER_TIMEOUT_S = 170.0

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("failed_frac", "ratio"),
              ("refused_frac", "ratio"), ("peak_rss_mb", "MB")]


def environment(root: str) -> dict:
    """Machine and library facts, as found; nothing here is changed."""
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for dist in ("numpy", "sympy"):
        try:
            env[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            env[dist] = None
    env["blas_threads"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    env["src_lines"] = lines
    return env


def start_worker(args, deadline: float):
    """Start one worker; returns (process, seconds from start to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY" or time.monotonic() > deadline:
        stop(proc)
        raise RuntimeError(f"worker did not set up (read {line!r})")
    return proc, setup


def stop(proc) -> None:
    """Kill a worker and the CLI processes it started, then reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the largest sample when there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cellab", "__init__.py")):
        print("error: run from the repository root: ./src/cellab is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    setups = []
    proc = None
    try:
        for i in range(SETUP_STARTS):
            proc, setup = start_worker(args, deadline)
            setups.append(setup)
            if i < SETUP_STARTS - 1:
                proc.communicate("STOP\n", timeout=30)
        out, _ = proc.communicate(
            "GO\n", timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop(proc)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    outcomes = res["outcomes"]
    n = len(outcomes)
    failed = sum(o["cls"] == "failed" for o in outcomes)
    refused = sum(o["cls"] == "refused" for o in outcomes)
    problems = [f"{o['id']}: {'; '.join(o['problems'])}"
                for o in outcomes if not o["consistent"]]
    if res["wrappers_in_untraced"]:
        problems.append("untraced run found wrappers: "
                        + ", ".join(res["wrappers_in_untraced"]))
    lat = res["latencies"]
    tail_value, tail_pct = tail(lat)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "ops": n, "ok": n - failed - refused, "refused": refused,
        "failed": failed,
        "op_p50_samples": n, "op_tail_percentile": tail_pct,
        "op_tail_samples": n, "setup_starts_s": setups,
        "failed_ops": {o["id"]: "; ".join(o["problems"])[:200]
                       for o in outcomes if o["cls"] == "failed"},
        "op_ms": [[o["id"], round(1000.0 * t, 3)] for o, t in zip(outcomes, lat)],
    }
    if args.trace:
        mismatched = [a["id"] for a, b in zip(outcomes, res["traced_outcomes"])
                      if (a["cls"], a["kind"], a["sig"]) != (b["cls"], b["kind"], b["sig"])]
        if mismatched:
            problems.append("traced outcomes differ from untraced: "
                            + ", ".join(mismatched))
        totals = dict(res["totals"])
        totals["trace.overhead_frac"] = (sum(res["traced_latencies"]) / sum(lat)) - 1.0
        metrics = {name: {"value": totals.get(name, 0), "unit": unit}
                   for name, unit in tracer.LAYER_METRICS}
        report["absent_functions"] = res["absent"]
        report["absent_metrics"] = tracer.absent_metrics(res["absent"])
        op_s = sum(res["traced_latencies"])
        shares = {layer: totals.get(layer + ".self_s", 0) / op_s
                  for layer in tracer.WRAPPED}
        shares["cli.import"] = totals.get("cli.import_s", 0) / op_s
        report["layer_share_of_op_time"] = {k: round(v, 4) for k, v in shares.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / sum(lat),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * tail_value,
            "failed_frac": failed / n,
            "refused_frac": refused / n,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    report["problems"] = problems
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
