"""Record the reference outcome of every pool spec into reference.json.

    python3 perfbench/record.py [--workload certify|exact|cli ...]

Run from the repository root. Each spec's op runs once, untraced, and its
outcome is stored: the class (ok, refused or failed) and kind, and for ok
ops the output values the benchmark compares against (floats for certify,
digests of the exact outputs and of CLI stdout for exact and cli), and
the op's time, which orders each stratum for sampling (see ops.plan). For
certify, the constructive path of every field is built as well, and its
certified length inequality and endpoint error are checked and stored.
Failures are recorded as they are: they are the baseline's known defects.
Only re-record when a change is meant to alter outputs, and say so.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402


def record(wl) -> dict:
    entries = {}
    for spec in wl.pool():
        prep = wl.prepare(spec)
        inp = wl.fresh(spec, prep)
        t0 = time.perf_counter()
        try:
            value, exc = wl.call(spec, inp, False), None
        except Exception as e:  # recorded as the baseline outcome
            value, exc = None, e
        elapsed = time.perf_counter() - t0
        out = ops.from_exception(exc) if exc else wl.judge(spec, inp, value)
        if hasattr(wl, "record_extra"):
            try:
                extra, problems = wl.record_extra(spec, inp)
            except Exception as exc:  # the path itself refused or failed
                extra, problems = {}, [f"constructive path: {exc!r}"[:200]]
            out["values"].update(extra)
            out["problems"] += problems
        entries[spec["id"]] = {"spec": ops.digest(spec), "cls": out["cls"],
                               "kind": out["kind"], "values": out["values"],
                               "problems": out["problems"],
                               "ms": round(1000.0 * elapsed, 1)}
        print(f"{wl.name:8s} {spec['id']:24s} {elapsed:7.3f}s {out['cls']:8s} "
              f"{out['kind']} {'; '.join(out['problems'])[:100]}",
              file=sys.stderr, flush=True)
    return entries


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(ops.WORKLOADS))
    args = ap.parse_args()
    try:
        reference = ops.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in args.workload or sorted(ops.WORKLOADS):
        reference[name] = record(ops.WORKLOADS[name])
    with open(ops.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
