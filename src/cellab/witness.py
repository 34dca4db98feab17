"""Witness constructions: the finite-matrix extremal unitary, the
plateau-ramp (chi) witness, and the dimension-drop tower witness, each with
an exact certified bound report and a determinant-1 certificate.

Branch data is kept in "h-units" (the coefficient of 2*pi: the witness
unitary is diag(e^{2 pi i h_j})); bounds are reported as exact coefficients
of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cel import CelBound, cel_lower_ordered_log, cu_upper_bound_path
from .config import DEFAULT_GRID, DEFAULT_TOLERANCES, Tolerances
from .dimdrop import (
    MAX_STAGES,
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
    chi_family,
    symbolic_element,
)
from .numerics import TWO_PI, SampledMatrixField


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


def verify_cu(witness, tol: Tolerances = DEFAULT_TOLERANCES) -> CuCertificate:
    """Sampled fields: max_t |det - 1|. Symbolic elements: the weighted
    branch sum must be a constant integer (zero after normalization);
    exact rational arithmetic, the failing sum function is reported."""
    if isinstance(witness, SampledMatrixField):
        det = np.linalg.det(witness.samples)
        residual = float(np.max(np.abs(det - 1.0)))
        return CuCertificate(exact=False, passed=residual <= tol.tol_det,
                             residual=residual)
    if isinstance(witness, SymbolicElement):
        s = witness.weighted_sum().simplified()
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

    def bound(self) -> CelBound:
        return CelBound(
            lower=float(self.lower_pi) * math.pi,
            upper=self.upper,
            lower_method="ordered-log-branches",
            upper_method=("cu-constructive-path" if self.upper != math.inf
                          else "none"),
            lower_pi=self.lower_pi)

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


# ---------------------------------------------------------------------------
# Finite-matrix witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PanWangWitness:
    """diag(e^{2 pi i (k-1) t / k}, e^{-2 pi i t / k}, ...): the extremal
    determinant-1 unitary of the k x k matrix function algebra."""

    k: int
    branches: tuple[PiecewiseLinearFn, ...]   # h-units, top branch first
    element: SymbolicElement

    def field(self, grid_size: int = DEFAULT_GRID,
              tol: Tolerances = DEFAULT_TOLERANCES) -> SampledMatrixField:
        ts = np.linspace(0.0, 1.0, grid_size)
        angles = np.stack([TWO_PI * b.sample(ts) for b in self.branches], axis=1)
        return SampledMatrixField.diagonal_unitary(angles, tol=tol)


def pan_wang_witness(k: int) -> PanWangWitness:
    if k < 2:
        raise ValueError("k must be at least 2")
    top = PiecewiseLinearFn.affine(Fraction(k - 1, k))
    low = PiecewiseLinearFn.affine(Fraction(-1, k))
    branches = (top,) + (low,) * (k - 1)
    return PanWangWitness(k=k, branches=branches,
                          element=symbolic_element([(top, 1), (low, k - 1)]))


def pan_wang_report(k: int, *, grid_size: int = DEFAULT_GRID,
                    with_dense: bool = False,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> WitnessReport:
    w = pan_wang_witness(k)
    target = Fraction(2 * (k - 1), k)
    lower_pi, cert = _ordered_log_pi(w.element.sorted_branches())
    cu = verify_cu(w.element)
    upper = math.inf
    extras: dict = {"certificate": cert}
    if with_dense:
        res = cu_upper_bound_path(w.field(grid_size, tol), tol=tol)
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
    branch of x (plus optional zero padding for the ambient corner).

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
    w2 = chi2.compose(chi)
    w1 = chi1.compose(chi)
    entries = []
    for h, m in x.entries:
        entries.append((w2.compose(h), m))
        entries.append((w1.compose(h), (L - 1) * m))
    element = symbolic_element(entries)
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


def minimal_chi_L(target_pi: Fraction) -> int:
    """Smallest L with exact bound 2(1 - 1/L) >= target (target < 2)."""
    t = Fraction(target_pi)
    if t >= 2:
        raise ValueError("the chi family only reaches bounds below 2*pi")
    if t <= 0:
        return 2
    need = 1 / (1 - t / 2)   # L >= need
    L = -((-need.numerator) // need.denominator)  # ceil
    return max(2, int(L))


# ---------------------------------------------------------------------------
# Dimension-drop tower witness
# ---------------------------------------------------------------------------

def stage_witness_element(stage: TowerStage, block_k: int = 1) -> SymbolicElement:
    """Stage-m witness branches: (q-1)t/q with multiplicity p, -t/q with
    multiplicity d - p; block_k > 1 pads with identity blocks (zero
    branches)."""
    q, p, d = stage.q, stage.p, stage.d
    top = PiecewiseLinearFn.affine(Fraction(q - 1, q))
    low = PiecewiseLinearFn.affine(Fraction(-1, q))
    e = symbolic_element([(top, p), (low, d - p)])
    if block_k > 1:
        e = e.padded((block_k - 1) * d)
    return e


def dense_stage_witness_field(stage: TowerStage, grid_size: int = DEFAULT_GRID,
                              *, dense_limit: int = 64,
                              tol: Tolerances = DEFAULT_TOLERANCES
                              ) -> SampledMatrixField:
    """Dense diagonal realization of the stage witness (for oracle
    cross-checks); guarded by the dense dimension limit."""
    if stage.d > dense_limit:
        raise ValueError(f"stage dim {stage.d} exceeds dense_limit {dense_limit}")
    q, p, d = stage.q, stage.p, stage.d
    ts = np.linspace(0.0, 1.0, grid_size)
    tops = np.tile(TWO_PI * (q - 1) / q * ts[:, None], (1, p))
    lows = np.tile(-TWO_PI / q * ts[:, None], (1, d - p))
    return SampledMatrixField.diagonal_unitary(
        np.concatenate([tops, lows], axis=1), tol=tol)


def _mu_top(q: int, r: int) -> PiecewiseLinearFn:
    """(q-1)(t + 2^r - 1) / (q 2^r) in h-units."""
    den = q * (1 << r)
    return PiecewiseLinearFn.from_pairs(
        [(0, Fraction((q - 1) * ((1 << r) - 1), den)),
         (1, Fraction(q - 1, q))])


def _mu_bottom(q: int, r: int) -> PiecewiseLinearFn:
    """-(t + 2^r - 1) / (q 2^r) in h-units."""
    den = q * (1 << r)
    return PiecewiseLinearFn.from_pairs(
        [(0, Fraction(-((1 << r) - 1), den)), (1, Fraction(-1, q))])


def jiangsu_witness(m: int, n: int, block_k: int = 1, *,
                    stages: list[TowerStage] | None = None) -> WitnessReport:
    """Stage-m witness pushed to stage n: verifies the extremal branch
    formulas, the endpoint multiplicity laws, the window envelope count,
    the coprimality dichotomy, and computes the case-analysis floor bound
    2 pi (q_m - 1)(2^{n-m} - 1) / (q_m 2^{n-m})."""
    if block_k < 1:
        raise ValueError("block_k must be positive")
    if stages is None:
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
        pushed = pushed.padded((block_k - 1) * d * patterns.total)
    blocks = pushed.sorted_branches()
    top_fn, top_mult = blocks[-1]
    bottom_fn, _ = blocks[0]
    mu_top, mu_bottom = _mu_top(q, r), _mu_bottom(q, r)
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
        dich_count += int(dichotomy_violations(sn.p, sn.q).size)
    checks_ok = (
        boundary.ok
        and top_fn == mu_top
        and bottom_fn == mu_bottom
        and top_mult == p * prod_r1
        and dich_count == 0
        and cu.passed
    )
    passed = checks_ok and floor_pi >= cases["split_top"]
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


def minimal_jiangsu_n(m: int, target_pi: Fraction, *,
                      stages: list[TowerStage] | None = None) -> int:
    """Smallest n > m whose floor bound reaches the target; the reachable
    supremum at stage m is 2(q_m - 1)/q_m. Refuses an n beyond the stage cap
    dimdrop.MAX_STAGES, which jiangsu_witness could not build."""
    t = Fraction(target_pi)
    if stages is None:
        stages = tower(m)
    q = stages[m - 1].q
    limit = Fraction(2 * (q - 1), q)
    if t >= limit:
        raise ValueError(
            f"target {t} not reachable from stage {m}: supremum is {limit}")
    for r in range(1, MAX_STAGES - m + 1):
        pow2 = 1 << r
        if Fraction(2 * (q - 1) * (pow2 - 1), q * pow2) >= t:
            return m + r
    raise ValueError(
        f"target {t} not reached by n <= {MAX_STAGES}: the answer lies beyond "
        f"the stage cap MAX_STAGES = {MAX_STAGES}")
