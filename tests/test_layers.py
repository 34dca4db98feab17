"""Layer rule: only the sampled layer (numerics, cel) imports numpy at load
time. The exact CLI commands run with numpy blocked in tests/test_golden.py."""

import os
import subprocess
import sys
from pathlib import Path

import cellab

SRC = Path(__file__).resolve().parents[1] / "src"

# cellab.__all__; every name must resolve
PUBLIC_NAMES = [
    "CelBound", "DEFAULT_TOLERANCES", "DimDropAlgebra", "EigenvalueListField",
    "PiecewiseLinearFn", "RunConfig", "SampledMatrixField", "SymbolicElement",
    "Tolerances", "TowerStage", "WitnessReport", "bound_sandwich",
    "boundary_check", "cel", "cel_lower_distinct", "cel_lower_ordered_log",
    "chi_family", "chi_witness", "compose_spectral", "config",
    "connecting_patterns", "cu_upper_bound_path", "dimdrop", "errors",
    "funalg", "geodesic_upper_bound", "initial_stage", "jacobi_eigh",
    "jiangsu_witness", "membership_check", "merge_sorted_branches",
    "next_stage", "numerics", "one_step_patterns", "operator_norm",
    "pan_wang_report", "pan_wang_witness", "push_element", "scalar_cel",
    "symbolic_element", "tower", "unitary_exp", "verify_cu", "witness",
]


def test_import_leaves_numpy_unloaded():
    code = "import sys, cellab, cellab.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    assert sorted(cellab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cellab, name) is not None
    assert cellab.scalar_cel is cellab.cel.scalar_cel
    assert cellab.cel.cel_lower_ordered_log is cellab.funalg.cel_lower_ordered_log
