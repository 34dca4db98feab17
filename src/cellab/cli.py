"""Command-line surface: exact scalar bounds, witness reports, the tower
dump, plot-data curves, and the acceptance runner.

Exit codes: 0 on success/pass, 1 on a failing criterion or witness, 2 on
usage or parse errors. Exact rationals print as 'p/q·π'; decimal outputs
carry their slack. A fixed --seed makes byte-identical outputs.

numpy is imported only where a command handles sampled data: the sampled
`sine` spec and its slack line, `curve branches`, `witness pan-wang` and the
sampled acceptance criteria. Every other command runs without it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import acceptance, dimdrop, witness
from .config import RunConfig
from .errors import CellabError
from .funalg import PiecewiseLinearFn, scalar_cel, symbolic_element

USAGE_ERROR = 2
CHECK_FAILED = 1


def _build_config(args) -> RunConfig:
    path = getattr(args, "config", None) or os.environ.get("CELLAB_CONFIG")
    cfg = RunConfig.from_json(path) if path else RunConfig()
    overrides = {}
    if getattr(args, "grid", None) is not None:
        overrides["grid_size"] = args.grid
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "format", None) is not None:
        overrides["output_format"] = args.format
    return cfg.replace(**overrides) if overrides else cfg


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _fraction(text: str) -> Fraction:
    """Fraction(text), a zero denominator raising ValueError like any other
    malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


# ---------------------------------------------------------------------------
# scalar-cel
# ---------------------------------------------------------------------------

def parse_fn_spec(spec: str, grid_size: int):
    """A function spec is JSON knots [[t, value], ...] (value = coefficient
    of pi, exact strings allowed) or a builtin:

      zero               the constant 0
      ramp:P/Qpi[-neg]   alpha(t) = +-(P/Q) pi t          (exact)
      sine[:AMP]         alpha(t) = AMP pi sin(pi t)      (sampled)

    Returns a PiecewiseLinearFn (pi units) or a float array (radians).
    """
    spec = spec.strip()
    if spec == "zero":
        return PiecewiseLinearFn.constant(0)
    if spec.startswith("ramp:"):
        body = spec[len("ramp:"):]
        neg = body.endswith("-neg")
        if neg:
            body = body[: -len("-neg")]
        if not body.endswith("pi"):
            raise ValueError(f"ramp spec must end in 'pi': {spec!r}")
        slope = _fraction(body[:-2])
        return PiecewiseLinearFn.affine(-slope if neg else slope)
    if spec.startswith("sine"):
        amp = 1.0
        if ":" in spec:
            text = spec.split(":", 1)[1]
            try:
                amp = float(_fraction(text))
            except OverflowError:
                amp = math.inf
            if not math.isfinite(amp * math.pi):
                raise ValueError(f"sine amplitude {text} times pi overflows a float")
        import numpy as np

        ts = np.linspace(0.0, 1.0, grid_size)
        return amp * math.pi * np.sin(math.pi * ts)
    try:
        obj = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"not a builtin and not JSON (line {exc.lineno}, col {exc.colno}): "
            f"{exc.msg}") from exc
    return PiecewiseLinearFn.from_json_obj(obj)


def cmd_scalar_cel(args, cfg: RunConfig) -> int:
    try:
        fn = parse_fn_spec(args.fn_spec, cfg.grid_size)
    except (ValueError, CellabError) as exc:
        print(f"error: bad function spec: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = getattr(args, "out", None)
    value = scalar_cel(fn)
    if isinstance(fn, PiecewiseLinearFn):
        _emit(witness.format_pi(value) + "\n", out)
    else:
        import numpy as np

        slack = float(np.max(np.abs(np.diff(fn)))) if fn.size > 1 else 0.0
        _emit(f"{value:.9f} (radians, grid slack <= {slack:.2e})\n", out)
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def cmd_witness(args, cfg: RunConfig) -> int:
    name = args.name
    try:
        if name == "pan-wang":
            if args.k is None:
                raise ValueError("pan-wang needs --k")
            rep = witness.pan_wang_report(
                args.k, grid_size=cfg.grid_size,
                with_dense=args.k <= witness.DENSE_LIMIT)
        elif name == "chi":
            if args.L is None:
                raise ValueError("chi needs --L")
            x = symbolic_element([(PiecewiseLinearFn.identity(), 1)])
            _, rep = witness.chi_witness(args.L, x, _fraction(args.c),
                                         _fraction(args.d))
        elif name == "jiang-su":
            if args.m is None or args.n is None:
                raise ValueError("jiang-su needs --m and --n")
            rep = witness.jiangsu_witness(args.m, args.n, args.block_k)
        else:
            raise ValueError(f"unknown witness {name!r}")
    except (ValueError, CellabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    obj = rep.to_json_obj()
    if cfg.output_format == "csv":
        text = _csv_text(
            ["witness_id", "paper_target", "lower", "upper", "cu_pass", "pass"],
            [[obj["witness_id"], obj["paper_target"], obj["lower"],
              obj["upper"], rep.cu.passed, rep.passed]])
    else:
        text = _json_text(obj)
    _emit(text, getattr(args, "out", None))
    return 0 if rep.passed else CHECK_FAILED


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def cmd_tower(args, cfg: RunConfig) -> int:
    try:
        stages = dimdrop.tower(args.stages)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for prev, cur in zip(stages, stages[1:]):
        dimdrop.validate_stage_step(prev, cur)
    if cfg.output_format == "csv":
        rows = [[s.index, s.p, s.q, s.d,
                 s.k0 or "", s.k1 or "", s.r0 or "", s.r1 or ""]
                for s in stages]
        text = _csv_text(["index", "p", "q", "d", "k0", "k1", "r0", "r1"], rows)
    else:
        text = _json_text(dimdrop.tower_to_json_obj(stages))
    _emit(text, getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# curve (plot data)
# ---------------------------------------------------------------------------

def cmd_curve(args, cfg: RunConfig) -> int:
    kind = args.kind
    if kind == "chi-bound":
        rows = [[L, str(2 - Fraction(2, L)), float(2 - Fraction(2, L)) * math.pi]
                for L in range(2, args.max_l + 1)]
        text = _csv_text(["L", "bound_over_pi", "bound_radians"], rows)
    elif kind == "jiangsu-floor":
        try:
            dimdrop.tower(args.max_n)  # refuses a cap breach before any row
            rows = []
            for n in range(args.m + 1, args.max_n + 1):
                rep = witness.jiangsu_witness(args.m, n)
                rows.append([n, str(rep.lower_pi), float(rep.lower_pi) * math.pi])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        text = _csv_text(["n", "floor_over_pi", "floor_radians"], rows)
    elif kind == "branches":
        if args.k is None or args.k > witness.DENSE_LIMIT:  # k columns of samples
            print("error: branches curve needs --k K, at most DENSE_LIMIT = "
                  f"{witness.DENSE_LIMIT}", file=sys.stderr)
            return USAGE_ERROR
        import numpy as np

        w = witness.pan_wang_witness(args.k)
        ts = np.linspace(0.0, 1.0, cfg.grid_size)
        cols = [b.sample(ts).tolist() for b in w.branches]
        rows = [[f"{t:.8f}"] + [f"{col[i]:.12f}" for col in cols]
                for i, t in enumerate(ts.tolist())]
        header = ["t"] + [f"h_{j + 1}" for j in range(len(w.branches))]
        text = _csv_text(header, rows)
    else:
        print(f"error: unknown curve {kind!r}", file=sys.stderr)
        return USAGE_ERROR
    _emit(text, getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------

def cmd_acceptance(args, cfg: RunConfig) -> int:
    name = args.suite
    names = acceptance.SUITE_ORDER if name == "all" else [name]
    for n in names:
        if n not in acceptance.CRITERIA:
            print(f"error: unknown suite {n!r}; available: "
                  f"{', '.join(acceptance.SUITE_ORDER)} or 'all'",
                  file=sys.stderr)
            return USAGE_ERROR
    results = acceptance.run_suite(names, cfg)
    # timings go to stderr: the emitted payload is byte-identical for a
    # fixed RunConfig
    lines = []
    for r in results:
        lines.append(r.summary_line(with_time=False))
        lines.extend(r.details)
        print(r.summary_line(), file=sys.stderr)
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    text = "\n".join(lines) + "\n"
    if cfg.output_format == "csv":
        text = _csv_text(["criterion", "passed"],
                         [[r.name, r.passed] for r in results])
    _emit(text, getattr(args, "out", None))
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    # shared before and after the subcommand; SUPPRESS keeps a subcommand
    # from overwriting values parsed at the top level
    c = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    c.add_argument("--config", help="JSON run config (fallback: $CELLAB_CONFIG)")
    c.add_argument("--grid", type=int, help="grid size (>= 17, default 2049)")
    c.add_argument("--seed", type=int, help="seed for randomized suites")
    c.add_argument("--format", choices=("json", "csv"), help="output format")
    c.add_argument("--out", help="write output to this path instead of stdout")
    return c


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    p = argparse.ArgumentParser(
        prog="cellab",
        description="Exponential-length bounds in matrix function algebras "
                    "and the dimension-drop tower",
        parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scalar-cel", parents=[common],
                        help="min-max bound for a scalar angle function")
    sc.add_argument("fn_spec",
                    help="JSON [[t, value-in-pi-units], ...] or builtin "
                         "(zero | ramp:3/2pi-neg | sine[:amp])")
    sc.set_defaults(func=cmd_scalar_cel)

    wt = sub.add_parser("witness", parents=[common],
                        help="build a witness and its bound report")
    wt.add_argument("name", choices=("pan-wang", "chi", "jiang-su"))
    wt.add_argument("--k", type=int, help="matrix size (pan-wang)")
    wt.add_argument("--L", type=int, help="block count (chi)")
    wt.add_argument("--c", default="3/10", help="ramp start (chi)")
    wt.add_argument("--d", default="7/10", help="ramp end (chi)")
    wt.add_argument("--m", type=int, help="source stage (jiang-su)")
    wt.add_argument("--n", type=int, help="target stage (jiang-su)")
    wt.add_argument("--block-k", type=int, default=1, dest="block_k",
                    help="matrix-amplification blocks (jiang-su)")
    wt.set_defaults(func=cmd_witness)

    tw = sub.add_parser("tower", parents=[common],
                        help="exact dimension-drop stage table")
    tw.add_argument("--stages", type=int, required=True)
    tw.set_defaults(func=cmd_tower)

    cv = sub.add_parser("curve", parents=[common], help="plot data as CSV")
    cv.add_argument("kind", choices=("chi-bound", "jiangsu-floor", "branches"))
    cv.add_argument("--max-l", type=int, default=64, dest="max_l")
    cv.add_argument("--m", type=int, default=1)
    cv.add_argument("--max-n", type=int, default=5, dest="max_n")
    cv.add_argument("--k", type=int)
    cv.set_defaults(func=cmd_curve)

    ac = sub.add_parser("acceptance", parents=[common],
                        help="run acceptance criteria")
    ac.add_argument("suite",
                    help=f"one of {', '.join(acceptance.SUITE_ORDER)} or 'all'")
    ac.set_defaults(func=cmd_acceptance)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = getattr(args, "out", None)
    if out and (os.path.isdir(out)
                or not os.path.isdir(os.path.dirname(out) or ".")):
        print(f"error: --out {out!r} is a directory or its parent directory"
              " does not exist", file=sys.stderr)
        return USAGE_ERROR
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
