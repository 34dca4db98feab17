"""cellab: certified exponential-length bounds for unitaries in matrix
function algebras over the interval, and an exact symbolic simulation of
the dimension-drop inductive tower with its extremal witnesses."""

from .cel import (
    CelBound,
    bound_sandwich,
    cel_lower_distinct,
    cel_lower_ordered_log,
    cu_upper_bound_path,
    geodesic_upper_bound,
    scalar_cel,
)
from .config import DEFAULT_TOLERANCES, RunConfig, Tolerances
from .dimdrop import (
    DimDropAlgebra,
    Pattern,
    PatternMultiset,
    TowerStage,
    boundary_check,
    compose_patterns,
    connecting_patterns,
    initial_stage,
    membership_check,
    next_stage,
    one_step_patterns,
    push_element,
    tower,
)
from .funalg import (
    EigenvalueListField,
    PiecewiseLinearFn,
    SymbolicElement,
    chi_family,
    compose_spectral,
    merge_sorted_branches,
    symbolic_element,
)
from .numerics import (
    SampledMatrixField,
    jacobi_eigh,
    operator_norm,
    unitary_exp,
)
from .witness import (
    WitnessReport,
    chi_witness,
    jiangsu_witness,
    pan_wang_report,
    pan_wang_witness,
    verify_cu,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
