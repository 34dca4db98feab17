"""Exponential-length estimators on sampled unitary fields: branch-based
lower bounds, the constructive determinant-1 upper-bound path, and the
principal-log geodesic oracle.

The exact formulas (the scalar min-max formula, the ordered-log lower bound
and CelBound) and the one integer-shift solver live in funalg, which needs
no numpy; this module imports from it only what it uses. This module and
numerics are the sampled layer, and the only two that import numpy at load
time.

Sampled angle data is in radians (the exact formulas hold coefficients of
pi). Every public result here is a certified bound, never a point value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import CommutatorError, FlavorError, SpectralCollisionError
from .funalg import CelBound, _integer_shifts, _max_over_branches
# perfbench reads and traces the ordered-log bound as cel.cel_lower_ordered_log
from .funalg import cel_lower_ordered_log  # noqa: F401
from .numerics import (
    LIFT_MARGIN,
    TWO_PI,
    SampledMatrixField,
    _gram_norms,
    jitter_spectrum,
    lift_angle_array,
    normal_unitary_eig,
    unitary_defect,
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
    gap_tol, above LIFT_MARGIN, so repeated eigenvalues never reach the
    lift; it refuses only a step too coarse to decide, a tie between
    matchings (every half turn of two or more branches is one). The
    winding-pass guard on thetas runs in its only reader, _lower_distinct.
    A lifted row is a bijection onto its spectrum, so the branch sum lifts
    arg det (plus the jitter's constant): _field_spectrum refuses the first
    step of it by pi - LIFT_MARGIN or more, at the step's end, for every
    bound, which covers a single branch's half turns. No determinant is
    needed.
    """

    lam: np.ndarray
    vecs: np.ndarray
    residual: float
    eps_used: float
    thetas: np.ndarray
    cols: np.ndarray


def _field_spectrum(u: SampledMatrixField) -> _FieldSpectrum:
    """Decompose and lift a unitary field, its spectral gap opened by
    jitter_spectrum where needed (the eigenbasis is untouched)."""
    lam, vecs, residual = normal_unitary_eig(u.samples)
    jittered, eps_used = jitter_spectrum(lam)
    angles = np.angle(jittered)
    thetas, cols = lift_angle_array(angles)
    jumps = np.flatnonzero(
        np.abs(np.diff(thetas.sum(axis=0))) >= math.pi - LIFT_MARGIN)
    if jumps.size:
        k = int(jumps[0]) + 1
        raise SpectralCollisionError(
            f"branch sum jumps by pi or more at grid index {k}: an eigenvalue"
            " moved too far between samples to be followed, refine the grid",
            t_index=k)
    return _FieldSpectrum(lam, vecs, residual, eps_used, thetas, cols)


def cel_lower_distinct(u: SampledMatrixField) -> CelBound:
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
    return _lower_distinct(_field_spectrum(u), u.dim)


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


def cu_upper_bound_path(u: SampledMatrixField) -> CuPathResult:
    """Constructive path from a determinant-1 unitary field to the identity.

    Lifts the (jittered, if necessary) eigenvalue branches, normalizes
    their sum to zero by the exact integer shifts (funalg) that minimize
    the largest branch norm, and rotates each spectral projection home:
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
    det_resid = _det_residual(u)
    return _cu_path(u, _field_spectrum(u), det_resid)


def _det_residual(u: SampledMatrixField) -> float:
    """sup_t |det u(t) - 1|; CommutatorError above tol_det."""
    det_resid = float(np.max(np.abs(np.linalg.det(u.samples) - 1.0)))
    if det_resid > DEFAULT_TOLERANCES.tol_det:
        raise CommutatorError(
            f"det(u) deviates from 1 by {det_resid:.3e} (> tol_det); "
            "not a CU element of the matrix algebra")
    return det_resid


def _cu_path(u: SampledMatrixField, spec: _FieldSpectrum, det_resid: float
             ) -> CuPathResult:
    """cu_upper_bound_path from the field's spectrum. The path's endpoint
    v_0 is never held whole: each chunk of it is built from the paired
    eigenvector columns, checked for unitarity and compared with u as the
    endpoint solve takes its chunks, so besides u and spec.vecs only that
    solve's batch-last copy is the size of u."""
    max_norm, h_norm, winding, eps_report = _cu_branches(spec, u.dim, det_resid)
    cols = np.ascontiguousarray(spec.cols.T)    # (grid, n)
    lam = np.take_along_axis(spec.lam, cols, axis=1)
    phases = np.exp(2j * math.pi * h_norm.T)
    pair_err = float(np.max(np.abs(phases - lam)))
    if pair_err > u.dim * spec.eps_used + 1e-6:
        raise ArithmeticError(f"branch/eigenvalue pairing residual {pair_err:.3e}")

    def endpoint_gap(s):
        vecs = np.take_along_axis(spec.vecs[s], cols[s, None, :], axis=2)
        v0 = np.einsum("bij,bj,bkj->bik", vecs, phases[s], vecs.conj())
        if not unitary_defect(v0) <= DEFAULT_TOLERANCES.tol_unitary:
            raise FlavorError("path endpoint v_0 is not unitary within tol_unitary")
        return v0 - u.samples[s]

    endpoint_error = float(np.max(_gram_norms(u.grid_size, u.dim, endpoint_gap)))
    # d v_s/ds has op norm 2 pi max_j |h_j(t)| pointwise, so the rectifiable
    # length is exactly 2 pi max_norm.
    return CuPathResult(
        h=h_norm, vecs=np.take_along_axis(spec.vecs, cols[:, None, :], axis=2),
        length=TWO_PI * max_norm, endpoint_error=endpoint_error,
        eps_report=eps_report, winding=winding)


def _cu_branches(spec: _FieldSpectrum, n: int, det_resid: float
                 ) -> tuple[float, np.ndarray, int, float]:
    """The certified part of the constructive path, without building it:
    the winding-pass refusal, integer shifts and the (k-1)/k norm limit.
    Returns (max_norm, normalized branches h (n, grid), winding, eps_report).
    The shifts c sum to -winding; the solver, whose shift k takes alpha to
    alpha - k, gets the ranges of -h, as |h_j + c| = |(-h_j) - c|.

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
    shifts = _integer_shifts((-h.max(axis=1)).tolist(),
                             (-h.min(axis=1)).tolist(), 1, -winding)
    h_norm = h + np.array(shifts)[:, None]
    max_norm = float(np.max(np.abs(h_norm)))
    eps_report = n * spec.eps_used + 10.0 * spec.residual + 2.0 * det_resid
    limit = (n - 1) / n + eps_report / TWO_PI + 1e-9
    if max_norm >= limit:
        raise AssertionError(
            f"normalized branch norm {max_norm:.6f} exceeds (k-1)/k + slack "
            f"{limit:.6f} (impossible for det = 1 inputs)")
    return max_norm, h_norm, winding, eps_report


# ---------------------------------------------------------------------------
# Geodesic oracle
# ---------------------------------------------------------------------------

def geodesic_upper_bound(u: SampledMatrixField) -> float:
    """sup_t ||Log u(t)|| when the spectrum avoids -1, else +inf.

    The one-exponential path exp(i(1-s)H) has length ||H||, so this is
    always a valid upper bound for the exponential length.
    """
    if u.flavor != "unitary":
        raise FlavorError("geodesic_upper_bound needs a unitary field")
    lam, _, _ = normal_unitary_eig(u.samples)
    return _geodesic(lam)


def _geodesic(lam: np.ndarray) -> float:
    peak = float(np.abs(np.angle(lam)).max())
    if math.pi - peak < DEFAULT_TOLERANCES.gap_tol:
        return INF
    return peak


def bound_sandwich(u: SampledMatrixField) -> CelBound:
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
    spec = _field_spectrum(u)
    low = _lower_distinct(spec, u.dim)
    upper, method = _geodesic(spec.lam), "principal-log-geodesic"
    det_resid = float(np.max(np.abs(np.linalg.det(u.samples) - 1.0)))
    if det_resid <= DEFAULT_TOLERANCES.tol_det:
        length = TWO_PI * _cu_branches(spec, u.dim, det_resid)[0]
        if length < upper:
            upper, method = length, "cu-constructive-path"
    return CelBound(
        lower=low.lower, upper=upper,
        lower_method=low.lower_method, upper_method=method,
        epsilon_report=low.epsilon_report,
        certificate=low.certificate)


def _three_bounds(u: SampledMatrixField
                  ) -> tuple[CelBound, CuPathResult, float]:
    """cel_lower_distinct, cu_upper_bound_path and geodesic_upper_bound of
    one field, from one decomposition and lift; each refusal is raised as
    those three calls, made in that order, would raise it first."""
    if u.flavor != "unitary":
        raise FlavorError("cel_lower_distinct needs a unitary field")
    spec = _field_spectrum(u)
    low = _lower_distinct(spec, u.dim)
    path = _cu_path(u, spec, _det_residual(u))
    return low, path, _geodesic(spec.lam)
