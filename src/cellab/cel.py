"""Exponential-length estimators: the exact scalar min-max formula,
branch-based lower bounds, path-length machinery, the constructive
determinant-1 upper-bound path, and the principal-log geodesic oracle.

Unit conventions: exact angle functions are PiecewiseLinearFn's holding the
coefficient of pi (so the value Fraction(3, 2) means 3pi/2); sampled angle
data is in radians. Every public result is a certified bound, never a point
value, except where an exact formula applies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CommutatorError, FlavorError, SpectralCollisionError, WindowError
from .funalg import EigenvalueListField, PiecewiseLinearFn
from .numerics import (
    TWO_PI,
    SampledMatrixField,
    circular_gaps,
    cyclic_match,
    jitter_spectrum,
    lift_angle_array,
    match_step,
    normal_unitary_eig,
    operator_norm,
)

INF = math.inf


@dataclass(frozen=True)
class CelBound:
    """A certified lower/upper sandwich for an exponential length.

    lower/upper are radians; *_pi carry the exact coefficient of pi where
    the computation was exact. epsilon_report aggregates jitter and
    residual slack already included in the bound values.
    """

    lower: float = 0.0
    upper: float = INF
    lower_method: str = "trivial"
    upper_method: str = "none"
    epsilon_report: float = 0.0
    certificate: dict = field(default_factory=dict)
    lower_pi: Fraction | None = None
    upper_pi: Fraction | None = None

    def __post_init__(self):
        if self.upper != INF and self.lower > self.upper + 1e-9 + self.epsilon_report:
            raise ValueError(
                f"invalid bound: lower {self.lower} exceeds upper {self.upper}")

    def to_json_obj(self) -> dict:
        cert = {k: (v if not isinstance(v, Fraction) else str(v))
                for k, v in self.certificate.items()}
        return {
            "lower": self.lower,
            "upper": ("inf" if self.upper == INF else self.upper),
            "lower_method": self.lower_method,
            "upper_method": self.upper_method,
            "epsilon_report": self.epsilon_report,
            "certificate": cert,
            "lower_pi": (str(self.lower_pi) if self.lower_pi is not None else None),
            "upper_pi": (str(self.upper_pi) if self.upper_pi is not None else None),
        }


# ---------------------------------------------------------------------------
# Scalar formula: cel(e^{i alpha}) = min_k max_t |alpha(t) - 2k pi|
# ---------------------------------------------------------------------------

def _minmax_over_shifts(m, M, two: Fraction | float):
    """min over integers k of sup_t |alpha(t) - k*two|, where alpha has
    range [m, M] and `two` represents one full turn in the working unit
    (Fraction(2) for pi units, 2*pi for radians). The sup equals
    max(M - k*two, k*two - m). The scan covers |k| up to
    ceil(max|alpha| / two) + 1, which suffices: beyond it both endpoint
    distances grow with |k|.
    """
    bound = int(math.ceil(float(max(abs(m), abs(M))) / float(two))) + 1
    best = None
    best_k = 0
    for k in range(-bound, bound + 1):
        c = two * k
        cand = max(M - c, c - m)  # == max(|M-c|, |m-c|) since m <= M
        if best is None or cand < best:
            best, best_k = cand, k
    return best, best_k


def _max_over_branches(mins, maxs, two: Fraction | float):
    """The scalar min-max of the branch with ranges [mins[j], maxs[j]] that
    has the largest one: (first such branch j, its value, its shift)."""
    per = [_minmax_over_shifts(lo, hi, two) for lo, hi in zip(mins, maxs)]
    best_j = max(range(len(per)), key=lambda j: per[j][0])
    return best_j, *per[best_j]


def scalar_cel(alpha) -> Fraction | float:
    """Exponential length of the scalar unitary t -> exp(i alpha(t)).

    alpha: PiecewiseLinearFn holding alpha/pi (exact; returns the
    coefficient of pi as a Fraction) or a 1-d float array of radians
    (returns radians). The min-max is attained at range endpoints, hence
    exact for piecewise-linear input.
    """
    return scalar_cel_certificate(alpha)[0]


def scalar_cel_certificate(alpha):
    """scalar_cel plus the minimizing integer shift."""
    if isinstance(alpha, PiecewiseLinearFn):
        return _minmax_over_shifts(alpha.min_value(), alpha.max_value(), Fraction(2))
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sampled alpha must be one-dimensional")
    return _minmax_over_shifts(float(arr.min()), float(arr.max()), TWO_PI)


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

    lam, vecs, residual: the raw normal eigendecomposition. angles: the
    spectral angles after jitter (angle(lam) when none fired), eps_used the
    jitter scale. thetas (n, grid): the lift of angles. pass_slack: the
    winding-pass slack of thetas, 0 when the guard was not run.
    """

    lam: np.ndarray
    vecs: np.ndarray
    residual: float
    angles: np.ndarray
    eps_used: float
    thetas: np.ndarray
    pass_slack: float


def _field_spectrum(u: SampledMatrixField, tol: Tolerances,
                    winding_guard: bool) -> _FieldSpectrum:
    """Decompose and lift a unitary field with a guaranteed spectral gap.

    When the raw field has near-coincident eigenvalues the angle-sorted
    spectrum is jittered by e^{i j eps} (the eigenbasis is untouched).
    """
    lam, vecs, residual = normal_unitary_eig(u.samples, tol)
    angles = np.angle(lam)
    eps_used = 0.0
    if np.min(circular_gaps(angles)) < tol.gap_tol:
        jittered, eps_used = jitter_spectrum(lam, tol)
        angles = np.angle(jittered)
    thetas = lift_angle_array(angles, np.sort(angles[0]), tol.tie_tol)
    pass_slack = winding_pass_slack(thetas) if winding_guard else 0.0
    return _FieldSpectrum(lam, vecs, residual, angles, eps_used, thetas,
                          pass_slack)


def cel_lower_distinct(u: SampledMatrixField,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> CelBound:
    """Lower bound max_j cel(e^{i theta_j}) over lifted eigenvalue branches.

    Valid because any path from u to 1 moves every continuous eigenvalue
    branch at least as far as the matrix path moves. Near-repeated spectra
    are jittered first; the induced slack (dim * eps) is folded into
    epsilon_report and already subtracted from nothing: the reported lower
    bound is the jittered value, correct for the original field up to
    epsilon_report.
    """
    if u.flavor != "unitary":
        raise FlavorError("cel_lower_distinct needs a unitary field")
    return _lower_distinct(_field_spectrum(u, tol, winding_guard=True), u.dim)


def _lower_distinct(spec: _FieldSpectrum, dim: int) -> CelBound:
    best_j, value, shift = _max_over_branches(
        spec.thetas.min(axis=1).tolist(), spec.thetas.max(axis=1).tolist(),
        TWO_PI)
    eps_report = dim * spec.eps_used + 10 * spec.residual + spec.pass_slack
    return CelBound(
        lower=value,
        upper=INF,
        lower_method="distinct-eigenvalue-branches",
        epsilon_report=eps_report,
        certificate={"branch": best_j, "shift": shift, "jitter": spec.eps_used},
    )


def cel_lower_ordered_log(e: EigenvalueListField) -> CelBound:
    """Lower bound from an eigenvalue list of a logarithm H with u=exp(iH).

    Precondition: the whole list fits a window [alpha, alpha+2pi] for some
    alpha in [-2pi, 0); checked, violations name the failing inequality.
    Exact lists are in coefficient-of-pi units, sampled lists in radians.
    The bound is max over branches of the scalar min-max formula.
    """
    if e.is_exact:
        mins = [h.min_value() for h in e.exact]
        maxs = [h.max_value() for h in e.exact]
        two, unit = Fraction(2), math.pi
    else:
        mins, maxs = e.samples.min(axis=1).tolist(), e.samples.max(axis=1).tolist()
        two, unit = TWO_PI, 1.0
    _check_window(min(mins), max(maxs), two)
    best_j, value, shift = _max_over_branches(mins, maxs, two)
    return CelBound(
        lower=float(value) * unit,
        upper=INF,
        lower_method="ordered-log-branches",
        certificate={"branch": best_j, "shift": shift},
        lower_pi=value if e.is_exact else None,
    )


def _check_window(m, M, two):
    """Feasibility of alpha in [-2pi, 0) with alpha <= h <= alpha + 2pi."""
    if m < -two:
        raise WindowError(f"min branch {m} < -2pi: no admissible alpha")
    if M - m > two:
        raise WindowError(f"branch spread {M - m} exceeds 2pi")
    if M >= two:
        raise WindowError(f"max branch {M} >= 2pi: alpha would be >= 0")


# ---------------------------------------------------------------------------
# 2-D unitary paths
# ---------------------------------------------------------------------------

class UnitaryPath2D:
    """A discretized path s -> v_s of unitary fields, v_1 = identity.

    Slices are produced on demand (a dense 2-D store would be wasteful at
    production grids); iteration is sequential in all consumers.
    """

    def __init__(self, s_grid: np.ndarray, provider: Callable[[int], SampledMatrixField],
                 *, dim: int, grid_size: int):
        self.s_grid = np.asarray(s_grid, dtype=float)
        if self.s_grid.ndim != 1 or self.s_grid.shape[0] < 2:
            raise ValueError("need at least two s samples")
        if self.s_grid[0] != 0.0 or self.s_grid[-1] != 1.0:
            raise ValueError("s grid must run from 0 to 1")
        self._provider = provider
        self.dim = dim
        self.grid_size = grid_size

    @property
    def n_s(self) -> int:
        return self.s_grid.shape[0]

    def slice(self, i: int) -> SampledMatrixField:
        out = self._provider(int(i))
        if out.dim != self.dim or out.grid_size != self.grid_size:
            raise ValueError("provider returned a mismatched slice")
        return out

    @staticmethod
    def from_slices(slices: Sequence[SampledMatrixField],
                    s_grid: np.ndarray | None = None) -> "UnitaryPath2D":
        slices = list(slices)
        if s_grid is None:
            s_grid = np.linspace(0.0, 1.0, len(slices))
        return UnitaryPath2D(s_grid, lambda i: slices[i], dim=slices[0].dim,
                             grid_size=slices[0].grid_size)

    @staticmethod
    def from_spectral(h: np.ndarray, vecs: np.ndarray, s_grid: np.ndarray,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> "UnitaryPath2D":
        """Path v_s(t) = V(t) diag(e^{2 pi i (1-s) h_j(t)}) V(t)^*."""
        h = np.asarray(h, dtype=float)           # (n, grid)
        vecs = np.asarray(vecs, dtype=complex)   # (grid, n, n)
        n, grid = h.shape

        def provider(i: int) -> SampledMatrixField:
            s = float(np.asarray(s_grid)[i])
            phases = np.exp(2j * math.pi * (1.0 - s) * h.T)  # (grid, n)
            samples = np.einsum("bij,bj,bkj->bik", vecs, phases,
                                np.conjugate(vecs))
            return SampledMatrixField(samples, "unitary", tol=tol)

        return UnitaryPath2D(np.asarray(s_grid, dtype=float), provider,
                             dim=n, grid_size=grid)

    def endpoint_defects(self, target: SampledMatrixField) -> tuple[float, float]:
        """(sup ||v_0 - target||, sup ||v_1 - 1||)."""
        d0 = self.slice(0).sup_distance(target)
        eye = np.eye(self.dim)
        d1 = float(np.max(operator_norm(self.slice(self.n_s - 1).samples - eye)))
        return d0, d1


def path_length(path: UnitaryPath2D) -> float:
    """Chordal length sum_i sup_t ||v_{s_{i+1}}(t) - v_{s_i}(t)||_op.

    Converges to the rectifiable length from below as the s grid refines.
    """
    total = 0.0
    prev = path.slice(0)
    for i in range(1, path.n_s):
        cur = path.slice(i)
        total += prev.sup_distance(cur)
        prev = cur
    return total


def concatenate_paths(p1: UnitaryPath2D, p2: UnitaryPath2D) -> UnitaryPath2D:
    """Join two discretized paths end to start (reparametrized to [0,1]);
    p1 must end where p2 begins."""
    if p1.dim != p2.dim or p1.grid_size != p2.grid_size:
        raise ValueError("paths are not composable")
    seam = p1.slice(p1.n_s - 1).sup_distance(p2.slice(0))
    if seam > 1e-6:
        raise ValueError(f"paths do not join: seam gap {seam:.3e}")
    s1 = 0.5 * p1.s_grid
    s2 = 0.5 + 0.5 * p2.s_grid
    s = np.concatenate([s1, s2[1:]])

    def provider(i: int) -> SampledMatrixField:
        if i < p1.n_s:
            return p1.slice(i)
        return p2.slice(i - p1.n_s + 1)

    return UnitaryPath2D(s, provider, dim=p1.dim, grid_size=p1.grid_size)


def path_lower_bound_branches(path: UnitaryPath2D,
                              tol: Tolerances = DEFAULT_TOLERANCES
                              ) -> tuple[float, dict]:
    """max over branches of the s-arc-length of the 2-D lifted eigenvalue
    branches, measured as sum_i sup_t |theta_j(s_{i+1}, t) - theta_j(s_i, t)|.

    Requires distinct eigenvalues on the whole (s,t) grid; collisions raise
    with their location. Always a lower bound for the path length up to the
    chord-vs-arc discretization gap.
    """
    all_angles = []
    max_eps = 0.0
    for i in range(path.n_s):
        lam, _, _ = normal_unitary_eig(path.slice(i).samples, tol)
        angles = np.angle(lam)
        if np.min(circular_gaps(angles)) < tol.gap_tol:
            try:
                jittered, eps = jitter_spectrum(lam, tol)
            except SpectralCollisionError as exc:
                raise SpectralCollisionError(
                    f"unresolvable spectral collision at (s_index={i}, "
                    f"t_index={exc.t_index})", s_index=i,
                    t_index=exc.t_index) from exc
            angles = np.angle(jittered)
            max_eps = max(max_eps, eps)
        all_angles.append(angles)
    anchors = np.sort(all_angles[0][0])
    prev = lift_angle_array(all_angles[0], anchors, tol.tie_tol)
    winding_pass_slack(prev)
    n = prev.shape[0]
    arc = np.zeros(n)
    for i in range(1, path.n_s):
        delta0 = match_step(prev[:, 0], all_angles[i][0], tol.tie_tol)
        cur = lift_angle_array(all_angles[i], prev[:, 0] + delta0, tol.tie_tol)
        winding_pass_slack(cur)
        step = np.max(np.abs(cur - prev), axis=1)
        if np.max(step) >= math.pi:
            raise SpectralCollisionError(
                f"branch moved by >= pi between s slices {i - 1} and {i}",
                s_index=i)
        arc += step
        prev = cur
    j = int(np.argmax(arc))
    slack = 2.0 * path.dim * max_eps * path.n_s
    return float(arc[j]), {"branch": j, "per_branch": arc.tolist(),
                           "jitter_slack": slack}


# ---------------------------------------------------------------------------
# Constructive CU upper bound (determinant-1 fields)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuPathResult:
    """Constructive path certificate for a determinant-1 unitary field."""

    path: UnitaryPath2D
    length: float               # exact rectifiable length of the built path
    endpoint_error: float       # sup ||v_0 - u||
    eps_report: float
    shifts: tuple[int, ...]
    winding: int
    max_branch_norm: float      # max_j ||h_j||_inf after normalization
    n_repairs: int = 0          # winding-crossing tail swaps applied


def _winding_pass(h: np.ndarray) -> tuple[int, int, int, int] | None:
    """(i, j, k, m) for the first pair i < j and first grid step k where
    floor(h_i - h_j) changes and m, the larger floor, is nonzero; else None.
    A change with m = 0 is a genuine value crossing, not a winding pass."""
    for i, j in itertools.combinations(range(h.shape[0]), 2):
        fl = np.floor(h[i] - h[j])
        top = np.maximum(fl[:-1], fl[1:])
        passes = np.flatnonzero((fl[1:] != fl[:-1]) & (top != 0))
        if passes.size:
            k = int(passes[0])
            return i, j, k, int(top[k])
    return None


def _confine_branches(h: np.ndarray) -> tuple[np.ndarray, int]:
    """Repair winding crossings so that branch differences never pass an
    integer (units of full turns).

    A continuous lift anchored at t=0 can let two branches pass each other
    modulo 1 between grid samples (the spectra stay distinct at every grid
    point, so the pass is invisible pointwise); constant integer shifts can
    then no longer confine the family to a width-1 window. Each winding
    pass found by _winding_pass is removed by swapping the tails with the
    corresponding integer adjustment: the pointwise spectrum multiset and
    the branch sum are unchanged and the seam jump is below one grid step.
    Returns (repaired h, number of swaps)."""
    h = h.copy()
    n = h.shape[0]
    max_rounds = 64 * n * n * (2 + int(np.max(np.abs(h))))
    for swaps in range(max_rounds):
        found = _winding_pass(h)
        if found is None:
            return h, swaps
        i, j, k, m = found
        hi_tail = h[i, k + 1:].copy()
        h[i, k + 1:] = h[j, k + 1:] + m
        h[j, k + 1:] = hi_tail - m
    raise ArithmeticError("branch winding repair did not converge")


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


def cu_upper_bound_path(u: SampledMatrixField, *, s_points: int = 33,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> CuPathResult:
    """Constructive path from a determinant-1 unitary field to the identity.

    Lifts the (jittered, if necessary) eigenvalue branches, normalizes
    their sum to zero by integer shifts chosen to minimize the largest
    branch norm, and rotates each spectral projection home:
    v_s = sum_j e^{2 pi i (1-s) h_j} p_j. For a dim-k field the minimized
    branch norms stay below (k-1)/k (up to jitter slack), so the exact
    length 2 pi max_j ||h_j|| is at most 2 pi (k-1)/k + eps_report.
    """
    if u.flavor != "unitary":
        raise FlavorError("cu_upper_bound_path needs a unitary field")
    det = np.linalg.det(u.samples)
    det_resid = float(np.max(np.abs(det - 1.0)))
    if det_resid > tol.tol_det:
        raise CommutatorError(
            f"det(u) deviates from 1 by {det_resid:.3e} (> tol_det); "
            "not a CU element of the matrix algebra")
    spec = _field_spectrum(u, tol, winding_guard=False)
    max_norm, h_norm, vecs, shifts, winding, eps_report, n_swaps = (
        _cu_branches(spec, u.dim, det_resid))
    path = UnitaryPath2D.from_spectral(h_norm, vecs,
                                       np.linspace(0.0, 1.0, s_points), tol)
    # d v_s/ds has op norm 2 pi max_j |h_j(t)| pointwise, so the rectifiable
    # length is exactly 2 pi max_norm, independent of the s grid.
    return CuPathResult(
        path=path, length=TWO_PI * max_norm,
        endpoint_error=path.slice(0).sup_distance(u),
        eps_report=eps_report, shifts=tuple(int(c) for c in shifts),
        winding=winding, max_branch_norm=max_norm, n_repairs=n_swaps)


def _cu_branches(spec: _FieldSpectrum, n: int, det_resid: float
                 ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int,
                            float, int]:
    """The certified part of the constructive path, without building it:
    the branch-sum defect, winding repair, integer shifts, the (k-1)/k norm
    limit and the eigenvector pairing. Returns (max_norm, normalized
    branches h (n, grid), paired eigenvectors, shifts, winding, eps_report,
    number of repairs)."""
    h = spec.thetas / TWO_PI
    sums = h.sum(axis=0)
    jitter_sum = spec.eps_used * n * (n + 1) / 2.0 / TWO_PI
    winding = int(round(float(sums[0]) - jitter_sum))
    sum_defect = float(np.max(np.abs(sums - winding - jitter_sum)))
    if sum_defect > 1e-6:
        raise AssertionError(
            f"branch sum is not the constant winding number: defect {sum_defect:.3e}"
            " (impossible for det = 1 inputs)")
    h, n_swaps = _confine_branches(h)
    shifts = _minimax_integer_shifts(h.min(axis=1), h.max(axis=1), -winding)
    h_norm = h + shifts[:, None]
    max_norm = float(np.max(np.abs(h_norm)))
    eps_report = n * spec.eps_used + 10.0 * spec.residual + 2.0 * det_resid
    limit = (n - 1) / n + eps_report / TWO_PI + 1e-9
    if max_norm >= limit + 1e-12:
        raise AssertionError(
            f"normalized branch norm {max_norm:.6f} exceeds (k-1)/k + slack "
            f"{limit:.6f} (impossible for det = 1 inputs)")
    vecs_paired = _pair_columns(spec.vecs, spec.angles, h_norm)
    return max_norm, h_norm, vecs_paired, shifts, winding, eps_report, n_swaps


def _pair_columns(vecs: np.ndarray, angles: np.ndarray, h: np.ndarray
                  ) -> np.ndarray:
    """Permute eigenvector columns per grid point so that column j carries
    the eigenvalue e^{2 pi i h[j, t]}.

    Both the branch values mod 1 and the spectral angles have pairwise
    circular gaps >= gap_tol, so the (order-preserving) assignment is
    unambiguous; the match residual is checked.
    """
    n = h.shape[0]
    target = np.mod(h.T, 1.0) * TWO_PI          # (grid, n)
    have = np.mod(angles, TWO_PI)               # (grid, n)
    tsort = np.argsort(target, axis=1, kind="stable")
    hsort = np.argsort(have, axis=1, kind="stable")
    tvals = np.take_along_axis(target, tsort, axis=1)
    hvals = np.take_along_axis(have, hsort, axis=1)
    # shift s pairs hvals[:, j] with tvals[:, (j + s) % n]
    _, costs = cyclic_match(hvals, tvals)
    best = np.argmin(costs, axis=1)
    worst = float(np.max(np.take_along_axis(costs, best[:, None], axis=1)))
    if worst > 1e-6:
        raise ArithmeticError(f"branch/eigenvalue pairing residual {worst:.3e}")
    perm = np.empty_like(hsort)
    slots = (np.arange(n)[None, :] + best[:, None]) % n
    np.put_along_axis(perm, np.take_along_axis(tsort, slots, axis=1), hsort,
                      axis=1)
    return np.take_along_axis(vecs, perm[:, None, :], axis=2)


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
    constructive length 2 pi max_j ||h_j|| is certified as in
    cu_upper_bound_path, but the path itself is not built.
    """
    if u.flavor != "unitary":
        raise FlavorError("bound_sandwich needs a unitary field")
    spec = _field_spectrum(u, tol, winding_guard=True)
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
