"""Span recorder for the traced benchmark run.

The benchmark, not the package, records the spans: `install` replaces each
named public function with a timing wrapper in every `cellab` module
namespace that holds that function (so `cel`'s by-name imports of
`lift_angle_array` and `normal_unitary_eig` are wrapped too). Each wrapper
records a span (name, start, end, parent) while the tracer is active and
adds the counts that can be read from arguments, return values or
exceptions. Spans stay in memory for one op and are folded into additive
per-op totals by `Tracer.end`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer (= cellab module) -> public functions wrapped in the traced run.
# Per-grid-point helpers such as match_step are not wrapped; `.steps`
# counts them instead.
WRAPPED = {
    "numerics": ("lift_angle_array", "normal_unitary_eig", "jacobi_eigh",
                 "operator_norm"),
    "cel": ("bound_sandwich", "cel_lower_distinct", "cu_upper_bound_path",
            "geodesic_upper_bound", "cel_lower_ordered_log"),
    "funalg": ("merge_sorted_branches", "compose_spectral", "symbolic_element"),
    "dimdrop": ("next_stage", "validate_stage_step", "tower",
                "connecting_patterns", "push_element", "dichotomy_violations"),
    "witness": ("jiangsu_witness", "chi_witness", "pan_wang_report"),
    "acceptance": ("run_suite",),
    "cli": ("main",),
}

# The per-layer metrics reported by a traced run, in BENCHMARK.json order:
# (name, unit).
LAYER_METRICS = [
    ("numerics.lift_angle_array.busy_s", "s"),
    ("numerics.lift_angle_array.calls", "count"),
    ("numerics.lift_angle_array.steps", "count"),
    ("numerics.lift_angle_array.refusals", "count"),
    ("numerics.normal_unitary_eig.busy_s", "s"),
    ("numerics.normal_unitary_eig.calls", "count"),
    ("numerics.jacobi_eigh.busy_s", "s"),
    ("numerics.jacobi_eigh.calls", "count"),
    ("numerics.jacobi_eigh.matrices", "count"),
    ("numerics.operator_norm.busy_s", "s"),
    ("numerics.operator_norm.calls", "count"),
    ("numerics.self_s", "s"),
    ("cel.bound_sandwich.busy_s", "s"),
    ("cel.bound_sandwich.calls", "count"),
    ("cel.cel_lower_distinct.busy_s", "s"),
    ("cel.cel_lower_distinct.calls", "count"),
    ("cel.cu_upper_bound_path.busy_s", "s"),
    ("cel.cu_upper_bound_path.calls", "count"),
    ("cel.geodesic_upper_bound.busy_s", "s"),
    ("cel.geodesic_upper_bound.calls", "count"),
    ("cel.self_s", "s"),
    ("cel.jitter_fired", "count"),
    ("cel.winding_repairs", "count"),
    ("cel.refusals", "count"),
    ("cel.invalid_bound", "count"),
    ("funalg.merge_sorted_branches.busy_s", "s"),
    ("funalg.merge_sorted_branches.calls", "count"),
    ("funalg.merge_sorted_branches.entries", "count"),
    ("funalg.compose_spectral.busy_s", "s"),
    ("funalg.compose_spectral.calls", "count"),
    ("funalg.symbolic_element.busy_s", "s"),
    ("funalg.self_s", "s"),
    ("dimdrop.next_stage.busy_s", "s"),
    ("dimdrop.next_stage.calls", "count"),
    ("dimdrop.next_stage.max_digits", "digits"),
    ("dimdrop.validate_stage_step.busy_s", "s"),
    ("dimdrop.validate_stage_step.calls", "count"),
    ("dimdrop.tower.busy_s", "s"),
    ("dimdrop.connecting_patterns.busy_s", "s"),
    ("dimdrop.push_element.busy_s", "s"),
    ("dimdrop.dichotomy_violations.busy_s", "s"),
    ("dimdrop.self_s", "s"),
    ("witness.jiangsu_witness.busy_s", "s"),
    ("witness.jiangsu_witness.calls", "count"),
    ("witness.chi_witness.busy_s", "s"),
    ("witness.chi_witness.calls", "count"),
    ("witness.pan_wang_report.busy_s", "s"),
    ("witness.pan_wang_report.calls", "count"),
    ("witness.self_s", "s"),
    ("acceptance.run_suite.busy_s", "s"),
    ("acceptance.run_suite.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Totals that combine across ops by max instead of by sum.
MAX_METRICS = ("dimdrop.next_stage.max_digits",)

# The documented refusals: sampled data cannot certify a bound.
REFUSALS = ("SpectralCollisionError", "BranchCutError", "WindowError")

WRAPPED_MARK = "__perfbench_wrapped__"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def refusal_kind(exc: BaseException) -> str | None:
    """The documented refusal class an exception belongs to, or None."""
    for cls in type(exc).__mro__:
        if cls.__name__ in REFUSALS:
            return cls.__name__
    return None


def _count_return(name, args, kwargs, result, counts):
    if name == "numerics.lift_angle_array":
        angles = _first_arg(args, kwargs, "angles")
        counts[name + ".steps"] += angles.shape[0] - 1
    elif name == "numerics.jacobi_eigh":
        shape = getattr(_first_arg(args, kwargs, "a"), "shape", ())
        batch = 1
        for n in shape[:-2]:
            batch *= int(n)
        counts[name + ".matrices"] += batch
    elif name == "funalg.merge_sorted_branches":
        counts[name + ".entries"] += len(_first_arg(args, kwargs, "entries"))
    elif name == "dimdrop.next_stage":
        digits = len(str(2 * _first_arg(args, kwargs, "s").d))
        counts[name + ".max_digits"] = max(counts[name + ".max_digits"], digits)
    elif name == "cel.cel_lower_distinct":
        if result.certificate.get("jitter", 0) > 0:
            counts["cel.jitter_fired"] += 1
    elif name == "cel.cu_upper_bound_path":
        counts["cel.winding_repairs"] += result.n_repairs


def _count_raise(name, layer_outermost, exc, counts):
    if name == "numerics.lift_angle_array" and refusal_kind(exc):
        counts[name + ".refusals"] += 1
        counts[name + ".steps"] += getattr(exc, "t_index", None) or 0
    if name.startswith("cel.") and layer_outermost:
        if refusal_kind(exc):
            counts["cel.refusals"] += 1
        elif isinstance(exc, ValueError) and "invalid bound" in str(exc):
            counts["cel.invalid_bound"] += 1


class Tracer:
    """Records spans of wrapped calls while active; one op at a time."""

    def __init__(self):
        self.active = False
        self._spans: list[list] = []   # [name, layer, start, end, parent]
        self._stack: list[int] = []
        self._counts: defaultdict = defaultdict(float)

    def wrap(self, layer: str, fn_name: str, fn):
        name = f"{layer}.{fn_name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer._spans, tracer._stack
            parent = stack[-1] if stack else None
            layer_outermost = all(spans[i][1] != layer for i in stack)
            span = [name, layer, time.perf_counter(), None, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.perf_counter()
                stack.pop()
                _count_raise(name, layer_outermost, exc, tracer._counts)
                raise
            span[3] = time.perf_counter()
            stack.pop()
            _count_return(name, args, kwargs, result, tracer._counts)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def begin(self):
        self._spans, self._stack = [], []
        self._counts = defaultdict(float)
        self.active = True

    def end(self) -> dict:
        """Stop recording and fold the op's spans into per-op totals."""
        self.active = False
        totals = defaultdict(float, self._counts)
        spans = self._spans

        def has_ancestor(i, key, field):
            p = spans[i][4]
            while p is not None:
                if spans[p][field] == key:
                    return True
                p = spans[p][4]
            return False

        for i, (name, layer, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            totals[name + ".calls"] += 1
            if not has_ancestor(i, name, 0):
                totals[name + ".busy_s"] += dur
            if not has_ancestor(i, layer, 1):
                totals[layer + ".busy_s"] += dur
                totals[layer + ".self_s"] += dur
            if parent is not None and spans[parent][1] != layer:
                # a child span of another layer: subtract it from the self
                # time of the enclosing layer, when that layer's enclosing
                # chain is outermost for it (only outermost time is busy)
                p_layer = spans[parent][1]
                top = parent
                while (spans[top][4] is not None
                       and spans[spans[top][4]][1] == p_layer):
                    top = spans[top][4]
                if not has_ancestor(top, p_layer, 1):
                    totals[p_layer + ".self_s"] -= dur
        self._spans, self._stack = [], []
        return dict(totals)


def add_totals(acc: dict, op_totals: dict) -> None:
    for key, value in op_totals.items():
        if key in MAX_METRICS:
            acc[key] = max(acc.get(key, 0), value)
        else:
            acc[key] = acc.get(key, 0) + value


def cellab_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cellab" or name.startswith("cellab."))}


def installed_wrappers() -> list[str]:
    """Names of cellab module attributes that are benchmark wrappers."""
    found = []
    for mod_name, mod in cellab_modules().items():
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{mod_name}.{attr}")
    return found


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in WRAPPED; returns the names found absent."""
    absent = []
    originals = []
    for layer, fn_names in WRAPPED.items():
        try:
            home = importlib.import_module(f"cellab.{layer}")
        except ImportError:
            absent.extend(f"{layer}.{fn}" for fn in fn_names)
            continue
        for fn_name in fn_names:
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                absent.append(f"{layer}.{fn_name}")
                continue
            originals.append((fn, tracer.wrap(layer, fn_name, fn)))
    modules = cellab_modules()
    for fn, wrapper in originals:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return absent


def absent_metrics(absent: list[str]) -> list[str]:
    """Per-layer metric names that belong to an absent function."""
    return [name for name, _ in LAYER_METRICS
            if any(name.startswith(fn + ".") for fn in absent)]
