"""cellab: certified exponential-length bounds for unitaries in matrix
function algebras over the interval, and an exact symbolic simulation of
the dimension-drop inductive tower with its extremal witnesses.

The public names are exported lazily (PEP 562): `import cellab` loads no
submodule, and a name loads only the module that defines it, so the exact
layers run without importing numpy."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it (a submodule maps to itself)
_EXPORTS = {name: module for module, names in {
    "cel": ("cel", "bound_sandwich", "cel_lower_distinct",
            "cu_upper_bound_path", "geodesic_upper_bound"),
    "config": ("config", "DEFAULT_TOLERANCES", "RunConfig", "Tolerances"),
    "dimdrop": ("dimdrop", "DimDropAlgebra", "TowerStage", "boundary_check",
                "connecting_patterns", "initial_stage", "membership_check",
                "next_stage", "one_step_patterns", "push_element", "tower"),
    "errors": ("errors",),
    "funalg": ("funalg", "CelBound", "EigenvalueListField", "PiecewiseLinearFn",
               "SymbolicElement", "cel_lower_ordered_log", "chi_family",
               "compose_spectral", "merge_sorted_branches", "scalar_cel",
               "symbolic_element"),
    "numerics": ("numerics", "SampledMatrixField", "jacobi_eigh",
                 "operator_norm", "unitary_exp"),
    "witness": ("witness", "WitnessReport", "chi_witness", "jiangsu_witness",
                "pan_wang_report", "pan_wang_witness", "verify_cu"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
