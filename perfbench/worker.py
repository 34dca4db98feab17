"""One benchmark process: set up a workload, then run its ops.

Started by run.py from the checkout root. It imports cellab from `src`,
builds the run's inputs, warms up and prints READY. It then reads one line:
STOP ends it (a set-up-only start), GO runs the ops and prints the results
as one JSON line. With --trace 1 it runs the op list twice, untraced and
then with the span wrappers installed, and compares the outcomes.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import cellab  # noqa: E402

if not os.path.abspath(cellab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"cellab was imported from {cellab.__file__}, not from ./src")

import ops  # noqa: E402
import tracer as tr  # noqa: E402


def run_pass(wl, plan, prepared, reference, tracer=None, absent=None):
    """Run every op once; returns (latencies, outcomes, span totals).

    Traced cli ops run in child drivers, whose totals and absent names are
    merged here."""
    latencies, outcomes, totals = [], [], {}
    traced = tracer is not None
    for spec, prep in zip(plan, prepared):
        inp = wl.fresh(spec, prep)
        gc.collect()
        if traced:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            value, exc = wl.call(spec, inp, traced), None
        except Exception as e:  # classified below; the run goes on
            value, exc = None, e
        latencies.append(time.perf_counter() - t0)
        if traced:
            tr.add_totals(totals, tracer.end())
            if wl.name == "cli" and exc is None:
                child = value[3]
                tr.add_totals(totals, child["totals"])
                tr.add_totals(totals, {"cli.import_s": child["import_s"]})
                absent.update(child["absent"])
        out = ops.from_exception(exc) if exc else wl.judge(spec, inp, value)
        out = wl.match(out, reference[spec["id"]])
        out["id"] = spec["id"]
        outcomes.append(out)
    return latencies, outcomes, totals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = ops.WORKLOADS[args.workload]
    reference = ops.load_reference()[wl.name]
    plan = wl.plan(args.seed, args.seconds, reference)
    prepared = [wl.prepare(spec) for spec in plan]
    wl.warmup()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    wrappers_before = tr.installed_wrappers()
    latencies, outcomes, _ = run_pass(wl, plan, prepared, reference)
    result = {"latencies": latencies, "outcomes": outcomes,
              "wrappers_in_untraced": wrappers_before + tr.installed_wrappers()}
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        tracer = tr.Tracer()
        absent = set(tr.install(tracer))
        t_lat, t_out, totals = run_pass(wl, plan, prepared, reference, tracer,
                                        absent)
        result.update({"traced_latencies": t_lat, "traced_outcomes": t_out,
                       "totals": totals, "absent": sorted(absent)})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
