"""Grid/matrix kernel: batched spectral decomposition, matrix exp/log on the
unit circle, continuous eigenvalue-branch lifting, and sampled matrix fields
over the interval.

All eigendecompositions run through the in-house batched cyclic Jacobi
solver: reproducible across platforms and entirely adequate for the small
dimensions (<= 64) this package works at. numpy supplies array plumbing only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_GRID, DEFAULT_TOLERANCES, Tolerances
from .errors import (
    BranchCutError,
    FlavorError,
    MatchingAmbiguityError,
    SpectralCollisionError,
)

TWO_PI = 2.0 * math.pi

FLAVORS = ("selfadjoint", "unitary", "projection", "general")


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entry of |A - A*| over the whole batch."""
    return float(np.max(np.abs(a - adjoint(a)))) if a.size else 0.0


def unitary_defect(a: np.ndarray) -> float:
    """Largest entry of |A*A - I| over the whole batch."""
    n = a.shape[-1]
    return float(np.max(np.abs(adjoint(a) @ a - np.eye(n))))


def projection_defect(a: np.ndarray) -> float:
    return max(hermitian_defect(a), float(np.max(np.abs(a @ a - a))))


# ---------------------------------------------------------------------------
# Batched cyclic Jacobi for complex hermitian matrices
# ---------------------------------------------------------------------------

_SWEEP_TOL = 1e-14  # Jacobi stop: largest off-diagonal entry / Frobenius norm
_MAX_SWEEPS = 60


def jacobi_eigh(a: np.ndarray, *, compute_v: bool = True):
    """Eigendecomposition of hermitian matrices by cyclic Jacobi rotations.

    a: (..., n, n) complex hermitian. Returns (w, v) with w ascending along
    the last axis and v unitary, A v[..., :, j] = w[..., j] v[..., :, j];
    (w, None) when compute_v is False. Rotations are applied to the whole
    batch at once, so fields of matrices cost one sweep loop, not one per
    grid point. Eigenvector columns carry a deterministic phase (largest
    entry real positive).
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError("matrices must be square")
    batch_shape = a.shape[:-2]
    A = a.reshape(-1, n, n).copy()
    A = (A + adjoint(A)) / 2.0
    nb = A.shape[0]
    V = np.tile(np.eye(n, dtype=np.complex128), (nb, 1, 1)) if compute_v else None

    if n == 1:
        w = A[:, 0, 0].real.reshape(*batch_shape, 1)
        if compute_v:
            return w, np.ones((*batch_shape, 1, 1), dtype=np.complex128)
        return w, None

    scale = np.sqrt(np.sum(np.abs(A) ** 2, axis=(1, 2)))
    thr = _SWEEP_TOL * np.maximum(scale, 1e-300)
    offdiag_mask = ~np.eye(n, dtype=bool)

    for _ in range(_MAX_SWEEPS):
        off = np.max(np.abs(A[:, offdiag_mask]), axis=1)
        if np.all(off <= thr):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q]
                r = np.abs(apq)
                active = r > 1e-300
                phase = np.where(active, apq / np.where(active, r, 1.0), 1.0)
                app = A[:, p, p].real
                aqq = A[:, q, q].real
                tau = np.where(active, (app - aqq) / np.where(active, 2.0 * r, 1.0), 0.0)
                # stable small root of t^2 - 2*tau*t - 1 = 0
                denom = np.abs(tau) + np.sqrt(1.0 + tau * tau)
                t = np.where(tau >= 0, -1.0, 1.0) / denom
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * np.conjugate(phase)
                colp = A[:, :, p].copy()
                colq = A[:, :, q].copy()
                A[:, :, p] = c[:, None] * colp - spc[:, None] * colq
                A[:, :, q] = sp[:, None] * colp + c[:, None] * colq
                rowp = A[:, p, :].copy()
                rowq = A[:, q, :].copy()
                A[:, p, :] = c[:, None] * rowp - sp[:, None] * rowq
                A[:, q, :] = spc[:, None] * rowp + c[:, None] * rowq
                if compute_v:
                    vp = V[:, :, p].copy()
                    vq = V[:, :, q].copy()
                    V[:, :, p] = c[:, None] * vp - spc[:, None] * vq
                    V[:, :, q] = sp[:, None] * vp + c[:, None] * vq
    else:
        raise ArithmeticError("jacobi_eigh failed to converge")

    w = np.real(np.einsum("bii->bi", A))
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if compute_v:
        V = np.take_along_axis(V, order[:, None, :], axis=2)
        # deterministic column phases
        mags = np.abs(V)
        lead = np.argmax(mags, axis=1)
        entries = np.take_along_axis(V, lead[:, None, :], axis=1)[:, 0, :]
        mod = np.abs(entries)
        ph = np.where(mod > 0, entries / np.where(mod > 0, mod, 1.0), 1.0)
        V = V * np.conjugate(ph)[:, None, :]
        return w.reshape(*batch_shape, n), V.reshape(*batch_shape, n, n)
    return w.reshape(*batch_shape, n), None


def hermitian_eigen(a: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Eigenpairs of a single hermitian matrix, eigenvalues ascending."""
    a = np.asarray(a, dtype=np.complex128)
    if hermitian_defect(a) > tol.tol_sym:
        raise FlavorError(f"matrix is not hermitian within {tol.tol_sym}")
    w, v = jacobi_eigh(a)
    return w, v


def operator_norm(a: np.ndarray) -> np.ndarray | float:
    """Largest singular value, via the hermitian eigensolver on A*A."""
    a = np.asarray(a, dtype=np.complex128)
    single = a.ndim == 2
    g = adjoint(a) @ a
    w, _ = jacobi_eigh(g, compute_v=False)
    out = np.sqrt(np.maximum(w[..., -1], 0.0))
    return float(out) if single else out


# ---------------------------------------------------------------------------
# Normal (unitary) eigendecomposition via the commuting hermitian pair
# ---------------------------------------------------------------------------

def normal_unitary_eig(u: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Joint eigendecomposition of unitary (normal) matrices.

    Diagonalizes H1 = (U+U*)/2, then the compression of H2 = (U-U*)/2i on
    each near-degenerate H1 cluster; this resolves pairs with equal cosine
    but opposite sine that a single hermitian solve cannot separate.
    Eigenvalues come from Rayleigh quotients on U itself (quadratically
    accurate in the eigenvector error).

    Returns (lam, v, residual): lam (..., n) complex on the unit circle,
    v unitary columns, residual = max entry of |U v - v diag(lam)|.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[-1]
    batch_shape = u.shape[:-2]
    U = u.reshape(-1, n, n)
    h1 = (U + adjoint(U)) / 2.0
    h2 = (U - adjoint(U)) / 2.0j
    w1, v = jacobi_eigh(h1)
    b = adjoint(v) @ h2 @ v
    b = (b + adjoint(b)) / 2.0
    # zero b outside clusters of w1; jacobi then acts blockwise
    gaps = np.diff(w1, axis=1) > tol.cluster_tol
    cluster_id = np.concatenate(
        [np.zeros((w1.shape[0], 1), dtype=np.int64), np.cumsum(gaps, axis=1)], axis=1)
    mask = cluster_id[:, :, None] == cluster_id[:, None, :]
    b = np.where(mask, b, 0.0)
    _, wrot = jacobi_eigh(b)
    v2 = v @ wrot
    uv = U @ v2
    lam = np.sum(np.conjugate(v2) * uv, axis=1)
    residual = float(np.max(np.abs(uv - v2 * lam[:, None, :])))
    return lam.reshape(*batch_shape, n), v2.reshape(*batch_shape, n, n), residual


def unitary_spectrum(u: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Spectrum of a single unitary matrix as a multiset, sorted by angle."""
    u = np.asarray(u, dtype=np.complex128)
    if unitary_defect(u) > tol.tol_unitary:
        raise FlavorError(f"matrix is not unitary within {tol.tol_unitary}")
    lam, _, residual = normal_unitary_eig(u, tol)
    if residual > 1e-6:
        raise ArithmeticError(f"normal eigendecomposition residual {residual:.3e}")
    lam = lam[np.argsort(np.angle(lam), kind="stable")]
    return lam


# ---------------------------------------------------------------------------
# Sampled matrix fields on [0, 1]
# ---------------------------------------------------------------------------

class SampledMatrixField:
    """Uniform grid of square complex matrices on [0,1], endpoints included.

    The numeric stand-in for an element of M_n(C([0,1])). Immutable after
    construction; every sample is checked against the declared flavor.
    """

    __slots__ = ("samples", "flavor")

    def __init__(self, samples: np.ndarray, flavor: str = "general", *,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        samples = np.array(samples, dtype=np.complex128)
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise ValueError("samples must have shape (grid_size, n, n)")
        if samples.shape[0] < 2:
            raise ValueError("need at least two grid points")
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples contain non-finite entries")
        if flavor == "selfadjoint" and hermitian_defect(samples) > tol.tol_sym:
            raise FlavorError("field is not selfadjoint within tol_sym")
        if flavor == "unitary" and unitary_defect(samples) > tol.tol_unitary:
            raise FlavorError("field is not unitary within tol_unitary")
        if flavor == "projection" and projection_defect(samples) > tol.tol_sym:
            raise FlavorError("field is not a projection within tol_sym")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "flavor", flavor)

    def __setattr__(self, *a):
        raise AttributeError("SampledMatrixField is immutable")

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size)

    def max_adjacent_step(self) -> float:
        """sup over adjacent grid pairs of the operator-norm difference."""
        d = self.samples[1:] - self.samples[:-1]
        return float(np.max(operator_norm(d)))

    def sup_distance(self, other: "SampledMatrixField") -> float:
        """sup over the grid of the operator-norm difference."""
        if self.grid_size != other.grid_size or self.dim != other.dim:
            raise ValueError("fields are not comparable")
        return float(np.max(operator_norm(self.samples - other.samples)))

    @staticmethod
    def constant(matrix: np.ndarray, grid_size: int = DEFAULT_GRID,
                 flavor: str = "general", **kw) -> "SampledMatrixField":
        m = np.asarray(matrix, dtype=np.complex128)
        return SampledMatrixField(np.tile(m, (grid_size, 1, 1)), flavor, **kw)

    @staticmethod
    def identity(dim: int, grid_size: int = DEFAULT_GRID) -> "SampledMatrixField":
        return SampledMatrixField.constant(np.eye(dim), grid_size, "unitary")

    @staticmethod
    def diagonal_unitary(angles: np.ndarray, **kw) -> "SampledMatrixField":
        """diag(e^{i angles[t, j]}) for an (grid_size, n) angle array."""
        angles = np.asarray(angles, dtype=float)
        grid_size, n = angles.shape
        samples = np.zeros((grid_size, n, n), dtype=np.complex128)
        idx = np.arange(n)
        samples[:, idx, idx] = np.exp(1j * angles)
        return SampledMatrixField(samples, "unitary", **kw)


@dataclass(frozen=True)
class BranchLift:
    """Continuous real logarithms of the moving eigenvalues of a unitary field.

    thetas has shape (n, grid_size); exp(i thetas[:, t]) enumerates the
    spectrum at grid point t, and adjacent samples of each branch differ by
    less than pi.
    """

    thetas: np.ndarray

    @property
    def anchors(self) -> np.ndarray:
        return self.thetas[:, 0]

    def max_jump(self) -> float:
        return float(np.max(np.abs(np.diff(self.thetas, axis=1))))


def _wrap_to_pi(x: np.ndarray) -> np.ndarray:
    """Reduce angles to (-pi, pi]."""
    return -(np.mod(-x + math.pi, TWO_PI) - math.pi)


def circular_gaps(angles: np.ndarray) -> np.ndarray:
    """Minimal pairwise circular distance per row of an (m, n) angle array."""
    a = np.sort(np.mod(angles, TWO_PI), axis=-1)
    diffs = np.diff(a, axis=-1)
    wrap = TWO_PI - (a[..., -1] - a[..., 0])
    if a.shape[-1] < 2:
        return np.full(a.shape[:-1], TWO_PI)
    return np.minimum(diffs.min(axis=-1), wrap)


def cyclic_match(a_sorted: np.ndarray, b_sorted: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All order-preserving matchings on the circle between rows of angles.

    a_sorted, b_sorted: (m, n), each row sorted ascending. Shift s matches
    a[:, j] with b[:, (j + s) % n]. Returns (moves, costs): moves (m, n, n)
    indexed [row, shift, j] holds the increments b - a wrapped to (-pi, pi],
    costs (m, n) the largest |move| per row and shift. An optimal bottleneck
    matching of two multisets on the circle is order preserving, so every
    circle matching in the package scans exactly these shifts.
    """
    n = a_sorted.shape[-1]
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    moves = _wrap_to_pi(b_sorted[:, idx] - a_sorted[:, None, :])
    return moves, np.max(np.abs(moves), axis=-1)


def match_step(prev_thetas: np.ndarray, new_angles: np.ndarray,
               tie_tol: float) -> np.ndarray:
    """Angle increments matching branch values to the next spectrum.

    Both inputs are length-n; new_angles are principal values. Among the
    order-preserving bijections on the circle (cyclic shifts of the sorted
    sequences) picks the one minimizing the largest angular move: this
    coincides with nearest-angle matching whenever the motion is below half
    the minimal gap, and stays well defined for jitter-split clusters.
    Ties between matchings that produce the same branch-value multiset
    (e.g. at exact eigenvalue collisions) are resolved toward the smaller
    shift; genuinely different matchings within tie_tol raise.
    Returns per-branch increments in (-pi, pi].
    """
    n = prev_thetas.shape[0]
    if n == 1:
        return _wrap_to_pi(new_angles - prev_thetas)
    return _match_row(prev_thetas, new_angles, tie_tol)[0]


def _match_row(prev_thetas: np.ndarray, new_angles: np.ndarray,
               tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """match_step for n >= 2 branches: (increments, slots), where slots[k]
    is the branch matched to the k-th smallest of mod(new_angles, 2 pi)."""
    n = prev_thetas.shape[0]
    order_a = np.argsort(np.mod(prev_thetas, TWO_PI), kind="stable")
    order_b = np.argsort(np.mod(new_angles, TWO_PI), kind="stable")
    a_sorted = np.mod(prev_thetas, TWO_PI)[order_a]
    b_sorted = np.mod(new_angles, TWO_PI)[order_b]
    moves, costs = cyclic_match(a_sorted[None], b_sorted[None])
    moves, costs = moves[0], costs[0]
    best_shift = int(np.argmin(costs))
    best_cost = costs[best_shift]
    best_values = np.sort(a_sorted + moves[best_shift])
    for shift in range(n):
        if shift == best_shift or costs[shift] - best_cost > tie_tol:
            continue
        values = np.sort(a_sorted + moves[shift])
        if np.max(np.abs(values - best_values)) > 1e-9:
            raise MatchingAmbiguityError(
                "two different branch matchings within tie_tol "
                f"({best_cost:.3e} vs {costs[shift]:.3e})")
    deltas = np.empty(n)
    deltas[order_a] = moves[best_shift]
    if np.max(np.abs(deltas)) >= math.pi - tie_tol:
        raise MatchingAmbiguityError("branch step of size pi: wraparound ambiguous")
    slots = np.empty(n, dtype=np.intp)
    slots[(np.arange(n) + best_shift) % n] = order_a
    return deltas, slots


def lift_branches(field: SampledMatrixField, anchors: np.ndarray | None = None,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> BranchLift:
    """Continuous branch functions theta_j with exp(i theta_j(t)) running
    through the spectrum of the field at every grid point.

    Callers wanting the distinct-eigenvalue guarantee must ensure a pairwise
    spectral gap >= gap_tol on the circle (jitter first otherwise): with a
    genuine gap the lift is unique given the anchors. Benign collisions
    (where every continuation yields the same branch multiset, e.g. exact
    crossings on a diagonal field) are lifted anyway; ambiguous ones raise
    a collision error carrying the offending grid index. anchors, when
    given, must be real logarithms of the spectrum at t=0, one per branch;
    default is the principal angles at t=0 in ascending order.
    """
    if field.flavor != "unitary":
        raise FlavorError("lift_branches needs a unitary field")
    lam, _, _ = normal_unitary_eig(field.samples, tol)
    angles = np.angle(lam)  # (grid, n)
    n = field.dim
    grid = field.grid_size
    if anchors is None:
        anchors = np.sort(angles[0])
    else:
        anchors = np.asarray(anchors, dtype=float)
        if anchors.shape != (n,):
            raise ValueError("need one anchor per branch")
        delta = match_step(anchors, angles[0], tol.tie_tol)
        if np.max(np.abs(delta)) > tol.tol_spec * 10 + 1e-12:
            raise ValueError("anchors are not logarithms of the spectrum at t=0")
    thetas = lift_angle_array(angles, anchors, tol.tie_tol)
    lift = BranchLift(thetas=thetas)
    err = multiset_circle_distance(lift.thetas.T, angles)
    if err > 1e-7:
        raise ArithmeticError(f"lift fidelity violated: {err:.3e}")
    return lift


# A previous row with a circular gap at most this small is an exact
# collision: which branch continues where is settled by match_step's
# stable tie-break on the lifted values, not by the sorted angles.
_COLLISION_GAP = 1e-9
# Cost decisions closer than this to a threshold (a tie between shifts,
# a step of pi) are left to match_step on the lifted values, whose mod 2pi
# may differ from the principal angles in the last bits.
_DECISION_MARGIN = 1e-9
# Rows per cyclic_match batch: bounds the (rows, n, n) cost tensor.
_MATCH_BATCH = 1 << 20


def lift_angle_array(angles: np.ndarray, anchors: np.ndarray,
                     tie_tol: float) -> np.ndarray:
    """Continuously unwrap an (grid, n) array of spectral angles into
    branch functions (n, grid) starting from the given anchors.

    The result is bit-identical to applying match_step grid point by grid
    point. Each step's best cyclic shift depends only on the sorted
    principal angles of the previous and the current row, so all shifts
    come from one batched cyclic_match. A branch's slot in the sorted row
    is carried along by the chosen shifts, which gives every branch its
    matched target value c; the values then follow match_step's own
    arithmetic, theta_i = theta_{i-1} + wrap(c_i - mod(theta_{i-1}, 2 pi)),
    in an n-wide loop over the grid. Rows after an exact collision and rows
    whose decision sits within _DECISION_MARGIN of a tie or of a step of pi
    run match_step itself, so a refusal raises at the loop's grid index
    with the loop's message.
    """
    grid, n = angles.shape
    thetas = np.empty((grid, n))
    thetas[0] = anchors
    if n == 1:
        for i in range(1, grid):
            thetas[i] = thetas[i - 1] + _wrap_to_pi(angles[i] - thetas[i - 1])
        return thetas.T.copy()
    b_sorted = np.sort(np.mod(angles[1:], TWO_PI), axis=1)
    a_sorted = np.concatenate(
        [np.sort(np.mod(anchors, TWO_PI))[None], b_sorted[:-1]])
    shifts = np.empty(grid - 1, dtype=np.intp)
    decided = np.empty(grid - 1, dtype=bool)
    rows = max(1, _MATCH_BATCH // (n * n))
    for lo in range(0, grid - 1, rows):
        _, costs = cyclic_match(a_sorted[lo:lo + rows], b_sorted[lo:lo + rows])
        best = np.argmin(costs, axis=1)
        best_cost = np.take_along_axis(costs, best[:, None], axis=1)
        near = costs - best_cost <= tie_tol + _DECISION_MARGIN
        shifts[lo:lo + rows] = best
        decided[lo:lo + rows] = (
            (np.sum(near, axis=1) == 1)
            & (best_cost[:, 0] < math.pi - tie_tol - _DECISION_MARGIN))
    decided &= circular_gaps(a_sorted) > _COLLISION_GAP
    # Slot k of row i holds the branch at frame position (k - frame[i]) % n;
    # in this frame a branch keeps its position across decided rows.
    frame = np.cumsum(np.where(decided, shifts, 0)) % n
    targets = np.take_along_axis(
        b_sorted, (np.arange(n)[None, :] + frame[:, None]) % n, axis=1)
    pos = np.empty(n, dtype=np.intp)
    pos[np.argsort(np.mod(anchors, TWO_PI), kind="stable")] = np.arange(n)
    start = 1
    for stop in [*(np.flatnonzero(~decided) + 1).tolist(), grid]:
        c = targets[start - 1:stop - 1][:, pos]
        for i in range(start, stop):
            prev = thetas[i - 1]
            thetas[i] = prev + _wrap_to_pi(c[i - start] - np.mod(prev, TWO_PI))
        if stop == grid:
            break
        try:
            deltas, slots = _match_row(thetas[stop - 1], angles[stop], tie_tol)
        except MatchingAmbiguityError as exc:
            raise SpectralCollisionError(
                f"ambiguous branch continuation at grid index {stop}: {exc}",
                t_index=stop) from exc
        thetas[stop] = thetas[stop - 1] + deltas
        pos[slots] = (np.arange(n) - frame[stop - 1]) % n
        start = stop + 1
    return thetas.T.copy()


def multiset_circle_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over rows of the circular multiset distance between angle rows."""
    sa = np.sort(np.mod(a, TWO_PI), axis=1)
    sb = np.sort(np.mod(b, TWO_PI), axis=1)
    _, costs = cyclic_match(sb, sa)
    return float(np.max(np.min(costs, axis=1)))


def lift_fidelity(lift: BranchLift, field: SampledMatrixField,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Hausdorff-on-the-circle distance between lift values and the spectrum."""
    lam, _, _ = normal_unitary_eig(field.samples, tol)
    return multiset_circle_distance(lift.thetas.T, np.angle(lam))


# ---------------------------------------------------------------------------
# exp / log between selfadjoint and unitary fields
# ---------------------------------------------------------------------------

def unitary_exp(h: SampledMatrixField, tol: Tolerances = DEFAULT_TOLERANCES
                ) -> SampledMatrixField:
    """Pointwise exp(iH(t)) of a selfadjoint field."""
    if h.flavor != "selfadjoint":
        raise FlavorError("unitary_exp needs a selfadjoint field")
    w, v = jacobi_eigh(h.samples)
    phases = np.exp(1j * w)
    samples = np.einsum("bij,bj,bkj->bik", v, phases, np.conjugate(v))
    return SampledMatrixField(samples, "unitary", tol=tol)


def principal_log(u: SampledMatrixField, tol: Tolerances = DEFAULT_TOLERANCES
                  ) -> SampledMatrixField:
    """Principal logarithm H(t) with u = exp(iH), ||H|| < pi.

    Fails with BranchCutError when the spectrum meets -1 within gap_tol.
    """
    if u.flavor != "unitary":
        raise FlavorError("principal_log needs a unitary field")
    lam, v, _ = normal_unitary_eig(u.samples, tol)
    theta = np.angle(lam)
    dist_to_cut = math.pi - np.max(np.abs(theta))
    if dist_to_cut < tol.gap_tol:
        t = int(np.argmax(np.max(np.abs(theta), axis=1)))
        raise BranchCutError(
            f"spectrum within {dist_to_cut:.3e} of -1 at grid index {t}")
    samples = np.einsum("bij,bj,bkj->bik", v, theta.astype(complex), np.conjugate(v))
    samples = (samples + adjoint(samples)) / 2.0
    return SampledMatrixField(samples, "selfadjoint", tol=tol)


# ---------------------------------------------------------------------------
# Jitter protocol for (near-)repeated eigenvalues
# ---------------------------------------------------------------------------

def jitter_spectrum(lam: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
                    ) -> tuple[np.ndarray, float]:
    """Multiply the j-th (angle-sorted) eigenvalue of every row of an (m, n)
    spectrum by e^{i j eps}, until every row has a circular gap >= gap_tol.

    eps starts at tol.eps_jitter and grows deterministically on a
    re-collision, up to a small number of retries; then the collision is
    refused with the grid index of the first row whose gap is below gap_tol
    (before jitter, or after the last attempt when jitter closed it).
    Returns the jittered spectrum and the eps used.
    """
    ranks = np.argsort(np.argsort(np.angle(lam), axis=1, kind="stable"),
                       axis=1, kind="stable")
    for attempt in range(6):
        eps = tol.eps_jitter * (1.7 ** attempt)
        jittered = lam * np.exp(1j * eps * (ranks + 1))
        if np.min(circular_gaps(np.angle(jittered))) >= tol.gap_tol:
            return jittered, eps
    gaps = circular_gaps(np.angle(lam))
    if np.min(gaps) >= tol.gap_tol:
        gaps = circular_gaps(np.angle(jittered))
    bad = int(np.argmax(gaps < tol.gap_tol))
    raise SpectralCollisionError(
        f"jitter failed to open a spectral gap (grid index {bad})", t_index=bad)


def jitter_unitary(field: SampledMatrixField, tol: Tolerances = DEFAULT_TOLERANCES
                   ) -> tuple[SampledMatrixField, float]:
    """Multiply the j-th (angle-sorted) eigenvalue by e^{i j eps} pointwise.

    The numerical surrogate of a transversality perturbation: splits
    repeated eigenvalues so branch lifting applies. Returns the perturbed
    field and the eps actually used (see jitter_spectrum). The perturbed
    field differs from the input by at most n*eps in operator norm.
    """
    if field.flavor != "unitary":
        raise FlavorError("jitter_unitary needs a unitary field")
    lam, v, _ = normal_unitary_eig(field.samples, tol)
    lam2, eps = jitter_spectrum(lam, tol)
    samples = np.einsum("bij,bj,bkj->bik", v, lam2, np.conjugate(v))
    return SampledMatrixField(samples, "unitary", tol=tol), eps


def min_circular_gap(field: SampledMatrixField,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    lam, _, _ = normal_unitary_eig(field.samples, tol)
    return float(np.min(circular_gaps(np.angle(lam))))


# ---------------------------------------------------------------------------
# Seeded random constructions (tests and acceptance suites)
# ---------------------------------------------------------------------------

def random_hermitian(rng: np.random.Generator, n: int, *, traceless: bool = False
                     ) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    if traceless:
        h -= np.trace(h).real / n * np.eye(n)
    return h


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    w, v = jacobi_eigh(random_hermitian(rng, n))
    return v


def random_unitary_field(rng: np.random.Generator, n: int, grid_size: int,
                         *, amplitude: float = 1.0, det_one: bool = False,
                         max_log_norm: float | None = None,
                         tol: Tolerances = DEFAULT_TOLERANCES
                         ) -> SampledMatrixField:
    """Smooth random unitary field u(t) = exp(iH(t)).

    H(t) is a low-frequency combination of three fixed random hermitian
    generators; with det_one the generators are traceless, so
    det(u(t)) = 1 identically. max_log_norm rescales H so that its sup
    operator norm does not exceed it (keeps all spectral angles away from
    the -1 branch cut when set below pi).
    """
    gens = [random_hermitian(rng, n, traceless=det_one) for _ in range(3)]
    coeffs = rng.standard_normal(len(gens))
    ts = np.linspace(0.0, 1.0, grid_size)
    h = np.zeros((grid_size, n, n), dtype=np.complex128)
    for k, (g, c) in enumerate(zip(gens, coeffs)):
        profile = np.cos(math.pi * k * ts) if k % 2 == 0 else np.sin(math.pi * k * ts)
        h += (amplitude * c) * profile[:, None, None] * g
    if max_log_norm is not None:
        peak = float(np.max(operator_norm(h)))
        if peak > max_log_norm:
            h *= max_log_norm / peak
    hf = SampledMatrixField(h, "selfadjoint", tol=tol)
    return unitary_exp(hf, tol)
