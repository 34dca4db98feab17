"""Layer rule: only the sampled layer (numerics, cel) imports numpy at load
time. The exact CLI commands run in an interpreter where any numpy import
raises, and must print what they print with numpy available."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cellab
from cellab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

EXACT_COMMANDS = [
    "tower --stages 5",
    "witness chi --L 100",
    "witness jiang-su --m 1 --n 4",
    "scalar-cel ramp:3/2pi-neg",
    "curve chi-bound --max-l 20",
    "curve jiangsu-floor --m 1 --max-n 4",
    "acceptance chi-witness",
    "acceptance tower",
    "acceptance jiangsu-floor",
    "tower --stages 0",
]

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

# runs each command through cellab.cli.main with numpy blocked and prints
# {command: [exit code, stdout sha256]}
_BLOCKED_RUN = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
from cellab.cli import main
out = {}
for cmd in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(cmd.split())
    out[cmd] = [rc, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps(out))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CELLAB_CONFIG", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_exact_commands_run_without_numpy(capsys):
    proc = _python(_BLOCKED_RUN, json.dumps(EXACT_COMMANDS))
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    for cmd in EXACT_COMMANDS:
        rc = main(cmd.split())
        out = capsys.readouterr().out
        assert blocked[cmd] == [rc, hashlib.sha256(out.encode("utf-8")).hexdigest()], cmd


def test_import_leaves_numpy_unloaded():
    code = "import sys, cellab, cellab.cli; sys.exit('numpy' in sys.modules)"
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    assert sorted(cellab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cellab, name) is not None
    assert cellab.scalar_cel is cellab.cel.scalar_cel
    assert cellab.cel.cel_lower_ordered_log is cellab.funalg.cel_lower_ordered_log
