"""Witness constructions: the finite-matrix extremal unitary, the
plateau-ramp (chi) witness, and the dimension-drop tower witness, each with
an exact certified bound report and a determinant-1 certificate.

Branch data is kept in "h-units" (the coefficient of 2*pi: the witness
unitary is diag(e^{2 pi i h_j})); bounds are reported as exact coefficients
of pi.

The reports are exact and need no numpy; only the dense realizations
(PanWangWitness.field, dense_stage_witness_field) and the dense path of
pan_wang_report import it, where they run. verify_cu certifies symbolic
elements only; sampled fields get their determinant-1 test from
cel.cu_upper_bound_path and cel.bound_sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .config import DEFAULT_GRID
from .dimdrop import (
    TowerStage,
    boundary_check,
    connecting_patterns,
    dichotomy_modular_count,
    dichotomy_violations,
    push_element,
    tower,
)
from .errors import CoverageError
from .funalg import (
    EigenvalueListField,
    PiecewiseLinearFn,
    SymbolicElement,
    cel_lower_ordered_log,
    chi_family,
    compose_spectral,
    symbolic_element,
)

if TYPE_CHECKING:
    from .numerics import SampledMatrixField

DENSE_LIMIT = 64  # largest dimension realized densely


def format_pi(x: Fraction) -> str:
    """Exact rational-multiple-of-pi rendering: '0', '1·π', '99/50·π'."""
    if x == 0:
        return "0"
    return f"{x}·π"


# ---------------------------------------------------------------------------
# Determinant-1 certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuCertificate:
    """Evidence that a witness lies in the determinant-1 (commutator
    closure) part of the unitary group."""

    exact: bool
    passed: bool
    residual: float | str
    winding: int | None = None

    def to_json_obj(self) -> dict:
        return {"exact": self.exact, "passed": self.passed,
                "residual": self.residual, "winding": self.winding}


def verify_cu(witness) -> CuCertificate:
    """The weighted branch sum of a symbolic element must be a constant
    integer (zero after normalization); exact rational arithmetic, the
    failing sum function is reported."""
    if isinstance(witness, SymbolicElement):
        s = witness.weighted_sum()
        if s.is_constant() and s.values[0].denominator == 1:
            return CuCertificate(exact=True, passed=True, residual="0",
                                 winding=int(s.values[0]))
        return CuCertificate(exact=True, passed=False, residual=repr(s))
    raise TypeError(f"cannot certify {type(witness).__name__}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Verified bound report: pass iff the exact lower bound reaches the
    target (tolerance zero unless stated) and the CU certificate holds."""

    witness_id: str
    params: dict
    paper_target_pi: Fraction
    lower_pi: Fraction
    upper: float
    cu: CuCertificate
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        extras = {}
        for k, v in self.extras.items():
            if isinstance(v, Fraction):
                extras[k] = str(v)
            elif isinstance(v, PiecewiseLinearFn):
                extras[k] = v.to_json_obj()
            else:
                extras[k] = v
        return {
            "witness_id": self.witness_id,
            "params": self.params,
            "paper_target": format_pi(self.paper_target_pi),
            "lower": format_pi(self.lower_pi),
            "upper": ("inf" if self.upper == math.inf else self.upper),
            "cu": self.cu.to_json_obj(),
            "pass": self.passed,
            "extras": extras,
        }


def _ordered_log_pi(blocks: list[tuple[PiecewiseLinearFn, int]]
                    ) -> tuple[Fraction, dict]:
    """Exact window lower bound from sorted (branch, multiplicity) blocks,
    in coefficient-of-pi units (branches are h-units, hence scaled by 2)."""
    branches = tuple(f.scale(2) for f, _ in blocks)
    bound = cel_lower_ordered_log(EigenvalueListField(exact=branches))
    return bound.lower_pi, bound.certificate


def _two_level(q: int, r: int = 0) -> tuple[PiecewiseLinearFn, PiecewiseLinearFn]:
    """The two-level branches in h-units: the top (q-1)(t + 2^r - 1)/(q 2^r),
    -(q-1) times the bottom -(t + 2^r - 1)/(q 2^r); at r = 0, (q-1)t/q and
    -t/q."""
    den = q << r
    low = PiecewiseLinearFn.affine(Fraction(-1, den), Fraction(1 - (1 << r), den))
    return low.scale(1 - q), low


# ---------------------------------------------------------------------------
# Finite-matrix witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PanWangWitness:
    """diag(e^{2 pi i (k-1) t / k}, e^{-2 pi i t / k}, ...): the extremal
    determinant-1 unitary of the k x k matrix function algebra."""

    k: int
    top: PiecewiseLinearFn   # h-units, multiplicity 1
    low: PiecewiseLinearFn   # h-units, multiplicity k - 1
    element: SymbolicElement

    @property
    def branches(self) -> tuple[PiecewiseLinearFn, ...]:  # k entries, top first
        return (self.top,) + (self.low,) * (self.k - 1)

    def field(self, grid_size: int = DEFAULT_GRID) -> SampledMatrixField:
        import numpy as np
        from .numerics import TWO_PI, SampledMatrixField

        ts = np.linspace(0.0, 1.0, grid_size)
        angles = np.stack([TWO_PI * b.sample(ts) for b in self.branches], axis=1)
        return SampledMatrixField.diagonal_unitary(angles)


def pan_wang_witness(k: int) -> PanWangWitness:
    if k < 2:
        raise ValueError("k must be at least 2")
    top, low = _two_level(k)
    return PanWangWitness(k=k, top=top, low=low,
                          element=symbolic_element([(top, 1), (low, k - 1)]))


def pan_wang_report(k: int, *, grid_size: int = DEFAULT_GRID,
                    with_dense: bool = False) -> WitnessReport:
    w = pan_wang_witness(k)
    target = Fraction(2 * (k - 1), k)
    lower_pi, cert = _ordered_log_pi(w.element.sorted_branches())
    cu = verify_cu(w.element)
    upper = math.inf
    extras: dict = {"certificate": cert}
    if with_dense:
        from .cel import cu_upper_bound_path

        res = cu_upper_bound_path(w.field(grid_size))
        upper = res.length
        extras.update({"endpoint_error": res.endpoint_error,
                       "eps_report": res.eps_report})
    passed = cu.passed and lower_pi >= target
    return WitnessReport(witness_id="pan-wang", params={"k": k},
                         paper_target_pi=target, lower_pi=lower_pi,
                         upper=upper, cu=cu, passed=passed, extras=extras)


# ---------------------------------------------------------------------------
# Plateau-ramp (chi) witness
# ---------------------------------------------------------------------------

def chi_witness(L: int, x: SymbolicElement, c, d, *, pad: int = 0
                ) -> tuple[SymbolicElement, WitnessReport]:
    """Witness with one chi2-composed block and L-1 chi1-composed blocks per
    branch of x (plus optional zero padding for the ambient corner), pushed
    by compose_spectral: (chi2 o chi o h, m) and (chi1 o chi o h, (L-1) m).

    Requires some branch of x to cover [c, d]; then the lower bound is
    exactly 2 pi (1 - 1/L).
    """
    chi, chi1, chi2 = chi_family(L, c, d)
    cq, dq = Fraction(c), Fraction(d)
    covering = [f for f, _ in x.entries if f.covers(cq, dq)]
    if not covering:
        best = max(x.entries,
                   key=lambda fm: min(fm[0].max_value(), dq)
                   - max(fm[0].min_value(), cq))[0]
        lo, hi = best.range()
        missing_lo = cq if lo > cq else max(cq, hi)
        missing_hi = min(dq, lo) if lo > cq else dq
        raise CoverageError(
            f"no branch of x covers [{cq},{dq}]; best branch has range "
            f"[{lo},{hi}], leaving [{missing_lo},{missing_hi}] uncovered")
    element = compose_spectral(x.entries, symbolic_element(
        [(chi2.compose(chi), 1), (chi1.compose(chi), L - 1)]))
    if pad:
        element = element.padded(pad)
    lower_pi, cert = _ordered_log_pi(element.sorted_branches())
    cu = verify_cu(element)
    target = 2 - Fraction(2, L)
    passed = cu.passed and lower_pi >= target
    report = WitnessReport(
        witness_id="chi", params={"L": L, "c": str(cq), "d": str(dq), "pad": pad},
        paper_target_pi=target, lower_pi=lower_pi, upper=math.inf, cu=cu,
        passed=passed, extras={"certificate": cert})
    return element, report


# ---------------------------------------------------------------------------
# Dimension-drop tower witness
# ---------------------------------------------------------------------------

def stage_witness_element(stage: TowerStage) -> SymbolicElement:
    """Stage-m witness branches: (q-1)t/q with multiplicity p, -t/q with
    multiplicity d - p."""
    top, low = _two_level(stage.q)
    return symbolic_element([(top, stage.p), (low, stage.d - stage.p)])


def dense_stage_witness_field(stage: TowerStage, grid_size: int = DEFAULT_GRID
                              ) -> SampledMatrixField:
    """Dense diagonal realization of the stage witness (for oracle
    cross-checks); a stage of dimension above DENSE_LIMIT is refused."""
    if stage.d > DENSE_LIMIT:
        raise ValueError(f"stage dim {stage.d} exceeds DENSE_LIMIT {DENSE_LIMIT}")
    import numpy as np
    from .numerics import TWO_PI, SampledMatrixField

    q, p, d = stage.q, stage.p, stage.d
    ts = np.linspace(0.0, 1.0, grid_size)
    tops = np.tile(TWO_PI * (q - 1) / q * ts[:, None], (1, p))
    lows = np.tile(-TWO_PI / q * ts[:, None], (1, d - p))
    return SampledMatrixField.diagonal_unitary(
        np.concatenate([tops, lows], axis=1))


def jiangsu_witness(m: int, n: int, block_k: int = 1) -> WitnessReport:
    """Stage-m witness pushed to stage n: verifies the extremal branch
    formulas, the endpoint multiplicity laws, the window envelope count,
    the coprimality dichotomy, and computes the case-analysis floor bound
    2 pi (q_m - 1)(2^{n-m} - 1) / (q_m 2^{n-m})."""
    if block_k < 1:
        raise ValueError("block_k must be positive")
    stages = tower(n)
    if not (1 <= m < n <= len(stages)):
        raise ValueError(f"need 1 <= m < n <= {len(stages)}")
    sm, sn = stages[m - 1], stages[n - 1]
    q, p, d = sm.q, sm.p, sm.d
    r = n - m
    patterns = connecting_patterns(stages, m, n)
    boundary = boundary_check(patterns, target=sn, source=sm)
    base = stage_witness_element(sm)
    pushed = push_element(base, patterns)
    if block_k > 1:
        pushed = pushed.padded((block_k - 1) * d * patterns.total_rank)
    blocks = pushed.sorted_branches()
    top_fn, top_mult = blocks[-1]
    bottom_fn, _ = blocks[0]
    mu_top, mu_bottom = _two_level(q, r)
    prod_r1 = math.prod(stages[j].r1 for j in range(m, n))
    prod_k = math.prod(stages[j].k for j in range(m, n))
    # window envelope: branches below the top group stay within [-1/q, 1/q]
    # for the first (d-p) prod_k + p prod_r1 of them (sorted blocks are
    # pointwise ordered, so in-window blocks form a prefix)
    env_count = (d - p) * prod_k + p * prod_r1
    window = Fraction(1, q)
    prefix = 0
    for f, mult in blocks:
        lo, hi = f.range()
        if lo >= -window and hi <= window:
            prefix += mult
        else:
            break
    envelope_ok = prefix >= env_count
    # case-analysis values (coefficient of pi)
    pow2 = 1 << r
    cases = {
        "outer_winding": Fraction(2),
        "all_zero_shift": Fraction(2 * (q - 1), q),
        "all_one_shift": Fraction(2 * (q + 1), q),
        "split_bottom": 2 * (1 + Fraction(pow2 - 1, q * pow2)),
        "split_top": Fraction(2 * (q - 1) * (pow2 - 1), q * pow2),
    }
    floor_pi = min(cases.values())
    if floor_pi != cases["split_top"]:
        raise AssertionError("the split-top case is not the floor")
    ordered_log_pi, _ = _ordered_log_pi(blocks)
    cu = verify_cu(pushed)
    dich_count = dichotomy_modular_count(sn.p, sn.q)
    if sn.d <= 10_000:
        dich_count += len(dichotomy_violations(sn.p, sn.q))
    passed = (
        boundary.ok
        and top_fn == mu_top
        and bottom_fn == mu_bottom
        and top_mult == p * prod_r1
        and dich_count == 0
        and cu.passed
    )
    extras = {
        "floor_pi": floor_pi,
        "cases_pi": {k: str(v) for k, v in cases.items()},
        "top_branch": top_fn,
        "top_multiplicity": str(top_mult),
        "expected_top_multiplicity": str(p * prod_r1),
        "bottom_branch": bottom_fn,
        "envelope_ok": envelope_ok,
        "envelope_count": str(env_count),
        "boundary_ok": boundary.ok,
        "dichotomy_violations": dich_count,
        "ordered_log_pi": ordered_log_pi,
        "total_rank": str(pushed.total_rank),
    }
    return WitnessReport(
        witness_id="jiang-su", params={"m": m, "n": n, "block_k": block_k},
        paper_target_pi=cases["split_top"], lower_pi=floor_pi,
        upper=math.inf, cu=cu, passed=passed, extras=extras)
