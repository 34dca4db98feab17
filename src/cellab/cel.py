"""Exponential-length estimators on sampled unitary fields: branch-based
lower bounds, the constructive determinant-1 upper-bound path, and the
principal-log geodesic oracle.

The exact formulas (the scalar min-max formula, the ordered-log lower bound
and CelBound) live in funalg, which needs no numpy; this module imports from
it only what it uses. This module and numerics are the sampled layer, and
the only two that import numpy at load time.

Sampled angle data is in radians (the exact formulas hold coefficients of
pi). Every public result here is a certified bound, never a point value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CommutatorError, FlavorError, SpectralCollisionError
from .funalg import CelBound, _max_over_branches
# perfbench reads and traces the ordered-log bound as cel.cel_lower_ordered_log
from .funalg import cel_lower_ordered_log  # noqa: F401
from .numerics import (
    TWO_PI,
    SampledMatrixField,
    jitter_spectrum,
    lift_angle_array,
    normal_unitary_eig,
)

INF = math.inf


# ---------------------------------------------------------------------------
# Eigenvalue-branch lower bounds
# ---------------------------------------------------------------------------

def winding_pass_slack(thetas: np.ndarray) -> float:
    """Certify lifted branches against invisible winding passes.

    If two branches come closer on the circle than the local sampling can
    resolve while their values differ by a nonzero multiple of 2 pi, the
    sampled data cannot decide whether they passed or bounced between grid
    points. An interior pass (the pair separates again afterwards) makes
    any stitching-based lower bound a guess: SpectralCollisionError. A pass
    zone reaching the boundary t=1 is benign (the competing stitchings have
    no room to diverge); the approach distance is returned as slack.
    """
    n, grid = thetas.shape
    if n == 1:
        return 0.0
    motion = float(np.max(np.abs(np.diff(thetas, axis=1)))) if grid > 1 else 0.0
    margin = 4.0 * motion + 1e-6
    escape = 4.0 * margin
    slack = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s = thetas[i] - thetas[j]
            winding = np.round(s / TWO_PI)
            dist = np.abs(s - TWO_PI * winding)
            close = (np.abs(winding) >= 1) & (dist < margin)
            idx = np.nonzero(close)[0]
            if idx.size == 0:
                continue
            first = int(idx[0])
            after = dist[first:]
            if float(np.max(after)) > escape:
                raise SpectralCollisionError(
                    "winding-ambiguous eigenvalue pass between grid samples "
                    f"(branches {i},{j} near grid index {first}); the sampled "
                    "data cannot certify a lower bound, refine the grid",
                    t_index=first)
            slack = max(slack, float(np.max(dist[idx])) + motion)
    return slack


@dataclass(frozen=True)
class _FieldSpectrum:
    """Spectral data of one unitary field, computed once and shared by the
    branch lower bound, the geodesic bound and the constructive path.

    lam, vecs, residual: the raw normal eigendecomposition. eps_used: the
    eps jitter_spectrum used (0.0 when the gap was open). thetas, cols
    (n, grid): the lift of the jittered angles and, for each branch, the
    column of lam and vecs it follows. The jittered gaps are at least
    gap_tol, above the lift's collision gap, so repeated eigenvalues never
    reach the lift; it refuses only a step too coarse to decide (a tie
    between matchings or a half turn). The winding-pass guard on thetas
    runs in its only reader, _lower_distinct. A lifted row is a bijection
    onto its spectrum, so the branch sum lifts arg det (plus the jitter's
    constant): _field_spectrum refuses the first step of it by pi - tie_tol
    or more, at the step's end, for every bound. No determinant is needed.
    """

    lam: np.ndarray
    vecs: np.ndarray
    residual: float
    eps_used: float
    thetas: np.ndarray
    cols: np.ndarray


def _field_spectrum(u: SampledMatrixField, tol: Tolerances) -> _FieldSpectrum:
    """Decompose and lift a unitary field, its spectral gap opened by
    jitter_spectrum where needed (the eigenbasis is untouched)."""
    lam, vecs, residual = normal_unitary_eig(u.samples, tol)
    jittered, eps_used = jitter_spectrum(lam, tol)
    angles = np.angle(jittered)
    thetas, cols = lift_angle_array(angles, tol.tie_tol)
    jumps = np.flatnonzero(
        np.abs(np.diff(thetas.sum(axis=0))) >= math.pi - tol.tie_tol)
    if jumps.size:
        k = int(jumps[0]) + 1
        raise SpectralCollisionError(
            f"branch sum jumps by pi or more at grid index {k}: an eigenvalue"
            " moved too far between samples to be followed, refine the grid",
            t_index=k)
    return _FieldSpectrum(lam, vecs, residual, eps_used, thetas, cols)


def cel_lower_distinct(u: SampledMatrixField,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> CelBound:
    """Lower bound max_j cel(e^{i theta_j}) over lifted eigenvalue branches.

    Valid because any path from u to 1 moves every continuous eigenvalue
    branch at least as far as the matrix path moves. Near-repeated spectra
    are jittered first: the bound is the jittered value, correct for u up to
    epsilon_report (which holds the dim * eps slack). A lift whose branch
    sum steps by pi or more (_FieldSpectrum), or whose branches pass a
    winding level invisibly, need not follow the eigenvalues: refused.
    """
    if u.flavor != "unitary":
        raise FlavorError("cel_lower_distinct needs a unitary field")
    return _lower_distinct(_field_spectrum(u, tol), u.dim)


def _lower_distinct(spec: _FieldSpectrum, dim: int) -> CelBound:
    pass_slack = winding_pass_slack(spec.thetas)
    best_j, value, shift = _max_over_branches(
        spec.thetas.min(axis=1).tolist(), spec.thetas.max(axis=1).tolist(),
        TWO_PI)
    eps_report = dim * spec.eps_used + 10 * spec.residual + pass_slack
    return CelBound(
        lower=value,
        upper=INF,
        lower_method="distinct-eigenvalue-branches",
        epsilon_report=eps_report,
        certificate={"branch": best_j, "shift": shift, "jitter": spec.eps_used},
    )


# ---------------------------------------------------------------------------
# Constructive CU upper bound (determinant-1 fields)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuPathResult:
    """Constructive path certificate for a determinant-1 unitary field.

    The path is v_s(t) = V(t) diag(e^{2 pi i (1-s) h_j(t)}) V(t)^* for s in
    [0, 1]: h (n, grid) holds the normalized branches in full turns and
    vecs (grid, n, n) the eigenvectors, column j paired with h[j].
    """

    h: np.ndarray
    vecs: np.ndarray
    length: float               # exact rectifiable length of the built path
    endpoint_error: float       # sup ||v_0 - u||
    eps_report: float
    winding: int
    # Always 0: no repair is made, a winding pass is refused instead (see
    # _cu_branches). Kept only because the benchmark harness reads it; it
    # goes with the next change to the benchmark.
    n_repairs: int = 0


def _winding_pass(h: np.ndarray) -> tuple[int, int, int] | None:
    """(i, j, k) for the first pair i < j and first grid step k where
    floor(h_i - h_j) changes and the larger floor is nonzero; else None.
    A change with larger floor 0 is a genuine value crossing, not a
    winding pass."""
    for i, j in itertools.combinations(range(h.shape[0]), 2):
        fl = np.floor(h[i] - h[j])
        top = np.maximum(fl[:-1], fl[1:])
        passes = np.flatnonzero((fl[1:] != fl[:-1]) & (top != 0))
        if passes.size:
            return i, j, int(passes[0])
    return None


def _minimax_integer_shifts(mins: np.ndarray, maxs: np.ndarray, total: int
                            ) -> np.ndarray:
    """Integer shifts c_j with sum c = total minimizing max_j ||h_j + c_j||.

    The achievable max-norms form a finite candidate set (one value per
    branch and integer shift in a bounded window); feasibility of a cap M
    reduces to per-branch shift intervals, so the optimum is found by a
    scan and ties break toward the lexicographically smallest vector.
    """
    nb = mins.shape[0]
    cands: set[float] = set()
    for j in range(nb):
        center = -(maxs[j] + mins[j]) / 2.0
        for c in range(int(math.floor(center)) - 2, int(math.ceil(center)) + 3):
            cands.add(max(maxs[j] + c, -(mins[j] + c)))
    eps = 1e-12
    for cap in sorted(cands):
        lo = np.ceil(-cap - mins - eps).astype(np.int64)
        hi = np.floor(cap - maxs + eps).astype(np.int64)
        if np.all(lo <= hi) and lo.sum() <= total <= hi.sum():
            break
    else:
        raise ArithmeticError("no feasible integer shift vector")
    shifts = np.empty(nb, dtype=np.int64)
    remaining = total
    for j in range(nb):
        tail_hi = hi[j + 1:].sum()
        c = max(lo[j], remaining - tail_hi)
        shifts[j] = c
        remaining -= c
    if remaining != 0:
        raise AssertionError(f"shift vector misses its total by {remaining}")
    return shifts


def cu_upper_bound_path(u: SampledMatrixField, *,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> CuPathResult:
    """Constructive path from a determinant-1 unitary field to the identity.

    Lifts the (jittered, if necessary) eigenvalue branches, normalizes
    their sum to zero by integer shifts chosen to minimize the largest
    branch norm, and rotates each spectral projection home:
    v_s = sum_j e^{2 pi i (1-s) h_j} p_j. For a dim-k field the minimized
    branch norms stay below (k-1)/k (up to jitter slack), so the exact
    length 2 pi max_j ||h_j|| is at most 2 pi (k-1)/k + eps_report.

    The eigenvector of branch j is the column the lift paired with it; no
    second matching is made. A branch-sum step of pi or more (the lift
    check of every sampled bound, _FieldSpectrum), or two branches passing
    a winding level between samples, is refused with SpectralCollisionError
    at that grid index; no repair is tried, so n_repairs is always 0.
    """
    if u.flavor != "unitary":
        raise FlavorError("cu_upper_bound_path needs a unitary field")
    det = np.linalg.det(u.samples)
    det_resid = float(np.max(np.abs(det - 1.0)))
    if det_resid > tol.tol_det:
        raise CommutatorError(
            f"det(u) deviates from 1 by {det_resid:.3e} (> tol_det); "
            "not a CU element of the matrix algebra")
    spec = _field_spectrum(u, tol)
    max_norm, h_norm, winding, eps_report = _cu_branches(spec, u.dim, det_resid)
    cols = np.ascontiguousarray(spec.cols.T)    # (grid, n)
    lam = np.take_along_axis(spec.lam, cols, axis=1)
    pair_err = float(np.max(np.abs(np.exp(2j * math.pi * h_norm.T) - lam)))
    if pair_err > u.dim * spec.eps_used + 1e-6:
        raise ArithmeticError(f"branch/eigenvalue pairing residual {pair_err:.3e}")
    vecs = np.take_along_axis(spec.vecs, cols[:, None, :], axis=2)
    v0 = SampledMatrixField(
        np.einsum("bij,bj,bkj->bik", vecs, np.exp(2j * math.pi * h_norm.T),
                  vecs.conj()), "unitary", tol=tol)
    # d v_s/ds has op norm 2 pi max_j |h_j(t)| pointwise, so the rectifiable
    # length is exactly 2 pi max_norm.
    return CuPathResult(
        h=h_norm, vecs=vecs, length=TWO_PI * max_norm,
        endpoint_error=v0.sup_distance(u),
        eps_report=eps_report, winding=winding)


def _cu_branches(spec: _FieldSpectrum, n: int, det_resid: float
                 ) -> tuple[float, np.ndarray, int, float]:
    """The certified part of the constructive path, without building it:
    the winding-pass refusal, integer shifts and the (k-1)/k norm limit.
    Returns (max_norm, normalized branches h (n, grid), winding, eps_report).

    _field_spectrum refused every branch-sum step of pi or more, so for a
    det-1 field the sum keeps its t = 0 winding (plus the tiny jitter
    constant) on the whole grid. No pair of lifted branches has been seen
    to pass a winding level (an integer h_i - h_j other than 0) between
    samples, on any test, benchmark or acceptance field, so constant shifts
    confine the branches and a pass, should one show up, is refused.
    """
    h = spec.thetas / TWO_PI
    winding = int(round(float(h[:, 0].sum())))
    found = _winding_pass(h)
    if found is not None:
        i, j, k = found
        raise SpectralCollisionError(
            f"branches {i},{j} pass a winding level between grid indices {k}"
            f" and {k + 1}; constant shifts cannot confine them", t_index=k + 1)
    shifts = _minimax_integer_shifts(h.min(axis=1), h.max(axis=1), -winding)
    h_norm = h + shifts[:, None]
    max_norm = float(np.max(np.abs(h_norm)))
    eps_report = n * spec.eps_used + 10.0 * spec.residual + 2.0 * det_resid
    limit = (n - 1) / n + eps_report / TWO_PI + 1e-9
    if max_norm >= limit + 1e-12:
        raise AssertionError(
            f"normalized branch norm {max_norm:.6f} exceeds (k-1)/k + slack "
            f"{limit:.6f} (impossible for det = 1 inputs)")
    return max_norm, h_norm, winding, eps_report


# ---------------------------------------------------------------------------
# Geodesic oracle
# ---------------------------------------------------------------------------

def geodesic_upper_bound(u: SampledMatrixField,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """sup_t ||Log u(t)|| when the spectrum avoids -1, else +inf.

    The one-exponential path exp(i(1-s)H) has length ||H||, so this is
    always a valid upper bound for the exponential length.
    """
    if u.flavor != "unitary":
        raise FlavorError("geodesic_upper_bound needs a unitary field")
    lam, _, _ = normal_unitary_eig(u.samples, tol)
    return _geodesic(lam, tol)


def _geodesic(lam: np.ndarray, tol: Tolerances) -> float:
    peak = float(np.abs(np.angle(lam)).max())
    if math.pi - peak < tol.gap_tol:
        return INF
    return peak


def bound_sandwich(u: SampledMatrixField, *,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> CelBound:
    """Combined certified bounds: branch lower bound against the best of the
    geodesic and constructive uppers.

    The field is decomposed and lifted once; the three bounds share that
    spectral data (the geodesic reads the raw, unjittered angles). The
    constructive length 2 pi max_j ||h_j|| is certified, and refused, as
    in cu_upper_bound_path, but its eigenvectors are not gathered and its
    endpoint error is not measured.
    """
    if u.flavor != "unitary":
        raise FlavorError("bound_sandwich needs a unitary field")
    spec = _field_spectrum(u, tol)
    low = _lower_distinct(spec, u.dim)
    upper, method = _geodesic(spec.lam, tol), "principal-log-geodesic"
    det_resid = float(np.max(np.abs(np.linalg.det(u.samples) - 1.0)))
    if det_resid <= tol.tol_det:
        length = TWO_PI * _cu_branches(spec, u.dim, det_resid)[0]
        if length < upper:
            upper, method = length, "cu-constructive-path"
    return CelBound(
        lower=low.lower, upper=upper,
        lower_method=low.lower_method, upper_method=method,
        epsilon_report=low.epsilon_report,
        certificate=low.certificate)
