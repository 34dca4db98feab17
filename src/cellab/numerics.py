"""Grid/matrix kernel: batched spectral decomposition, the matrix
exponential onto the unit circle, continuous eigenvalue-branch lifting, and
sampled matrix fields over the interval.

All eigendecompositions run through the in-house batched cyclic Jacobi
solver: reproducible across platforms and entirely adequate for the small
dimensions (<= 64) this package works at. numpy supplies array plumbing only.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_GRID, DEFAULT_TOLERANCES, Tolerances
from .errors import (
    FlavorError,
    MatchingAmbiguityError,
    SpectralCollisionError,
)

TWO_PI = 2.0 * math.pi

FLAVORS = ("selfadjoint", "unitary", "general")


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entry of |A - A*| over the whole batch."""
    return float(np.max(np.abs(a - adjoint(a)))) if a.size else 0.0


def unitary_defect(a: np.ndarray) -> float:
    """Largest entry of |A*A - I| over the whole batch."""
    n = a.shape[-1]
    return float(np.max(np.abs(adjoint(a) @ a - np.eye(n))))


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


def _match_row(prev_thetas: np.ndarray, new_angles: np.ndarray,
               tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Angle increments matching n >= 2 branch values to the next spectrum.

    Both inputs are length-n; new_angles are principal values. Among the
    order-preserving bijections on the circle (cyclic shifts of the sorted
    sequences) picks the one minimizing the largest angular move: this
    coincides with nearest-angle matching whenever the motion is below half
    the minimal gap, and stays well defined for jitter-split clusters.
    Ties between matchings that produce the same branch-value multiset
    (e.g. at exact eigenvalue collisions) are resolved toward the smaller
    shift; genuinely different matchings within tie_tol raise.
    Returns (increments in (-pi, pi], slots), where slots[k] is the branch
    matched to the k-th smallest of mod(new_angles, 2 pi).
    """
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


# A previous row with a circular gap at most this small is an exact
# collision: which branch continues where is settled by _match_row's
# stable tie-break on the lifted values, not by the sorted angles.
_COLLISION_GAP = 1e-9
# Cost decisions closer than this to a threshold (a tie between shifts,
# a step of pi) are left to _match_row on the lifted values, whose mod 2pi
# may differ from the principal angles in the last bits.
_DECISION_MARGIN = 1e-9
# Rows per cyclic_match batch: bounds the (rows, n, n) cost tensor.
_MATCH_BATCH = 1 << 20


def lift_angle_array(angles: np.ndarray, anchors: np.ndarray,
                     tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrap an (grid, n) array of spectral angles into
    branch functions (n, grid) starting from the given anchors.

    Returns (thetas, cols), both (n, grid): cols[j, i] is the column of
    angles[i] whose eigenvalue branch j follows at grid point i, so the
    eigenvector paired with thetas[j, i] is column cols[j, i]. At t = 0 the
    anchors, a lift of angles[0], take the columns of angles[0] in sorted
    order mod 2 pi.

    The values are bit-identical to applying _match_row grid point by grid
    point. Each step's best cyclic shift depends only on the sorted
    principal angles of the previous and the current row, so all shifts
    come from one batched cyclic_match. A branch's slot in the sorted row
    is carried along by the chosen shifts, which gives every branch its
    matched target value c and column; the values then follow _match_row's
    own arithmetic, theta_i = theta_{i-1} + wrap(c_i - mod(theta_{i-1},
    2 pi)), in an n-wide loop over the grid. Rows after an exact collision
    and rows whose decision sits within _DECISION_MARGIN of a tie or of a
    step of pi run _match_row itself, so a refusal raises at the loop's
    grid index with the loop's message.
    """
    grid, n = angles.shape
    thetas = np.empty((grid, n))
    thetas[0] = anchors
    cols = np.zeros((grid, n), dtype=np.intp)
    if n == 1:
        for i in range(1, grid):
            thetas[i] = thetas[i - 1] + _wrap_to_pi(angles[i] - thetas[i - 1])
        return thetas.T.copy(), cols.T.copy()
    # stable, so a _match_row row sorts its spectrum into the same order
    order = np.argsort(np.mod(angles, TWO_PI), axis=1, kind="stable")
    b_order = order[1:]
    b_sorted = np.take_along_axis(np.mod(angles[1:], TWO_PI), b_order, axis=1)
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
    frame_slots = (np.arange(n)[None, :] + frame[:, None]) % n
    targets = np.take_along_axis(b_sorted, frame_slots, axis=1)
    target_cols = np.take_along_axis(b_order, frame_slots, axis=1)
    pos = np.empty(n, dtype=np.intp)
    pos[np.argsort(np.mod(anchors, TWO_PI), kind="stable")] = np.arange(n)
    cols[0] = order[0][pos]
    start = 1
    for stop in [*(np.flatnonzero(~decided) + 1).tolist(), grid]:
        c = targets[start - 1:stop - 1][:, pos]
        cols[start:stop] = target_cols[start - 1:stop - 1][:, pos]
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
        cols[stop][slots] = b_order[stop - 1]
        pos[slots] = (np.arange(n) - frame[stop - 1]) % n
        start = stop + 1
    return thetas.T.copy(), cols.T.copy()


# ---------------------------------------------------------------------------
# exp from selfadjoint to unitary fields
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


# ---------------------------------------------------------------------------
# Jitter protocol for (near-)repeated eigenvalues
# ---------------------------------------------------------------------------

def jitter_spectrum(lam: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
                    ) -> tuple[np.ndarray, float]:
    """Open a circular gap >= gap_tol in every row of an (m, n) spectrum;
    the one place that decides whether a spectrum is jittered.

    A spectrum whose rows all have the gap comes back as is, with eps 0.0.
    Otherwise the j-th (angle-sorted) eigenvalue of every row is multiplied
    by e^{i j eps}; eps starts at tol.eps_jitter and grows on a
    re-collision, up to five retries, then the collision is refused with
    the grid index of the first row whose gap is below gap_tol.
    """
    gaps = circular_gaps(np.angle(lam))
    if np.min(gaps) >= tol.gap_tol:
        return lam, 0.0
    ranks = np.argsort(np.argsort(np.angle(lam), axis=1, kind="stable"),
                       axis=1, kind="stable")
    for attempt in range(6):
        eps = tol.eps_jitter * (1.7 ** attempt)
        jittered = lam * np.exp(1j * eps * (ranks + 1))
        if np.min(circular_gaps(np.angle(jittered))) >= tol.gap_tol:
            return jittered, eps
    bad = int(np.argmax(gaps < tol.gap_tol))
    raise SpectralCollisionError(
        f"jitter failed to open a spectral gap (grid index {bad})", t_index=bad)


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
