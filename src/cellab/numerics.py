"""Grid/matrix kernel: batched spectral decomposition, the matrix
exponential onto the unit circle, continuous eigenvalue-branch lifting, and
sampled matrix fields over the interval.

All eigendecompositions run through the in-house batched cyclic Jacobi
solver, adequate for the small dimensions (<= 64) this package works at.
numpy supplies array plumbing only. The printed outputs were byte-identical
under every CPU setting tried, but the last bits of a sampled bound depend on
numpy's SIMD level (`np.angle`, complex `abs`) and on the OpenBLAS kernel
(`@`, `np.linalg.det`).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import FlavorError, SpectralCollisionError

TWO_PI = 2.0 * math.pi

FLAVORS = ("selfadjoint", "unitary", "general")


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


# A batched temporary (a symmetrized, multiplied or compared copy of a field)
# is made one chunk of about this many complex entries at a time, so that
# none lives at full size. Elementwise maps, per-matrix products and
# per-matrix reductions give a chunk the same bits as the whole batch.
_CHUNK_ENTRIES = 1 << 12


def _chunks(nb: int, n: int) -> list[slice]:
    """Consecutive slices of a batch of nb n x n matrices, of near-equal
    length and about _CHUNK_ENTRIES entries each."""
    count = max(1, -(-nb * n * n // _CHUNK_ENTRIES))
    step = max(1, -(-nb // count))
    return [slice(lo, min(lo + step, nb)) for lo in range(0, nb, step)]


def _batch_max(entries, a: np.ndarray) -> float:
    """Largest value of entries(chunk) over the batch chunks of a (..., n, n)
    array: the max entries(a) would give, without its full-size arrays."""
    a = a.reshape(-1, *a.shape[-2:])
    return float(np.max([np.max(entries(a[s])) for s in _chunks(*a.shape[:2])]))


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entry of |A - A*| over the whole batch."""
    return _batch_max(lambda c: np.abs(c - adjoint(c)), a)


def unitary_defect(a: np.ndarray) -> float:
    """Largest entry of |A*A - I| over the whole batch."""
    eye = np.eye(a.shape[-1])
    return _batch_max(lambda c: np.abs(adjoint(c) @ c - eye), a)


# ---------------------------------------------------------------------------
# Batched cyclic Jacobi for complex hermitian matrices
# ---------------------------------------------------------------------------

_SWEEP_TOL = 1e-14  # Jacobi stop: largest off-diagonal entry / Frobenius norm
_MAX_SWEEPS = 60


def _sweep(A: np.ndarray, V: np.ndarray | None, thr: np.ndarray) -> None:
    """Cyclic Jacobi sweeps on A (n, n, batch) in place, until every matrix's
    largest off-diagonal |a_pq| is at most thr; V accumulates the rotations
    unless it is None. The row and column views die with the call."""
    n = A.shape[0]
    for _ in range(_MAX_SWEEPS):
        # largest off-diagonal |a_pq| per matrix, row by row (a max is exact)
        off = np.zeros(A.shape[2])
        for p in range(n):
            mags = np.abs(A[p])
            mags[p] = 0.0
            np.maximum(off, np.max(mags, axis=0), out=off)
        del mags
        if np.all(off <= thr):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = np.abs(apq)
                active = r > 1e-300
                phase = np.where(active, apq / np.where(active, r, 1.0), 1.0)
                app = A[p, p].real
                aqq = A[q, q].real
                # a tiny |a_pq| overflows tau * tau to inf: t = +-0, no rotation
                with np.errstate(over="ignore"):
                    tau = np.where(active, (app - aqq) / np.where(active, 2.0 * r, 1.0), 0.0)
                    # stable small root of t^2 - 2*tau*t - 1 = 0
                    denom = np.abs(tau) + np.sqrt(1.0 + tau * tau)
                    t = np.where(tau >= 0, -1.0, 1.0) / denom
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * np.conjugate(phase)
                colp, colq = A[:, p], A[:, q]
                A[:, p], A[:, q] = c * colp - spc * colq, sp * colp + c * colq
                rowp, rowq = A[p], A[q]
                A[p], A[q] = c * rowp - sp * rowq, spc * rowp + c * rowq
                if V is not None:
                    vp, vq = V[:, p], V[:, q]
                    V[:, p], V[:, q] = c * vp - spc * vq, sp * vp + c * vq
    else:
        raise ArithmeticError("jacobi_eigh failed to converge")


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of hermitian matrices by cyclic Jacobi rotations.

    a: (..., n, n) complex hermitian. Returns (w, v) with w ascending along
    the last axis and v unitary, A v[..., :, j] = w[..., j] v[..., :, j].
    Rotations are applied to the whole batch at once, so fields of matrices
    cost one sweep loop, not one per grid point. The batch is held last, as
    (n, n, batch), so a rotated row or column is one contiguous (n, batch)
    block. Eigenvector columns carry a deterministic phase (largest entry
    real positive).

    Peak working set: A's batch-last copy and V besides the input, plus
    a few row blocks per rotation (2.6 times its bytes at n = 8, grid 2049).
    The copy is written chunk by chunk, with no full-size (A + A*)/2, and
    |A| is read one row at a time.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError("matrices must be square")
    A = a.reshape(-1, n, n)
    w, v = _jacobi(A.shape[0], n, A.__getitem__, True)
    batch_shape = a.shape[:-2]
    return w.reshape(*batch_shape, n), v.reshape(*batch_shape, n, n)


def _hermitian_batch_last(nb: int, n: int, matrices
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The hermitian parts (A + A*)/2 of nb n x n matrices handed over
    chunk by chunk (matrices(s) returns those of batch slice s), written
    straight into one batch-last (n, n, nb) array, and their Frobenius
    norms, each summed batch-first in the order of its (n, n) block."""
    A = np.empty((n, n, nb), dtype=np.complex128)
    scale = np.empty(nb)
    for s in _chunks(nb, n):
        c = matrices(s)
        c = (c + adjoint(c)) / 2.0
        scale[s] = np.sqrt(np.sum(np.abs(c) ** 2, axis=(1, 2)))
        A[:, :, s] = c.transpose(1, 2, 0)
    return A, scale


def _jacobi(nb: int, n: int, matrices, compute_v: bool):
    """jacobi_eigh on the hermitian parts of nb n x n matrices handed over
    chunk by chunk, as _hermitian_batch_last takes them. The batch is never
    split, since the sweep count is the batch maximum. Returns w (nb, n)
    and v (nb, n, n), or None for v."""
    A, scale = _hermitian_batch_last(nb, n, matrices)
    thr = _SWEEP_TOL * np.maximum(scale, 1e-300)
    V = np.eye(n, dtype=np.complex128)[:, :, None].repeat(nb, 2) if compute_v else None
    _sweep(A, V, thr)

    w = np.real(np.einsum("iib->bi", A))
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    del A
    if not compute_v:
        return w, None
    v = np.empty((nb, n, n), dtype=np.complex128)
    for s in _chunks(nb, n):
        vs = np.take_along_axis(V[:, :, s].transpose(2, 0, 1), order[s, None, :], axis=2)
        # deterministic column phases
        lead = np.argmax(np.abs(vs), axis=1)
        entries = np.take_along_axis(vs, lead[:, None, :], axis=1)[:, 0, :]
        mod = np.abs(entries)
        ph = np.where(mod > 0, entries / np.where(mod > 0, mod, 1.0), 1.0)
        np.multiply(vs, np.conjugate(ph)[:, None, :], out=v[s])
    return w, v


def operator_norm(a: np.ndarray) -> np.ndarray | float:
    """Largest singular value, via the hermitian eigensolver on A*A."""
    a = np.asarray(a, dtype=np.complex128)
    A = a.reshape(-1, *a.shape[-2:])
    out = _gram_norms(A.shape[0], a.shape[-1], A.__getitem__).reshape(a.shape[:-2])
    return float(out) if a.ndim == 2 else out


def _gram_norms(nb: int, n: int, matrices) -> np.ndarray:
    """operator_norm of nb matrices with n columns, handed over chunk by
    chunk as _jacobi takes them; A*A is formed one chunk at a time."""
    def gram(s):
        c = matrices(s)
        return adjoint(c) @ c

    w, _ = _jacobi(nb, n, gram, False)
    return np.sqrt(np.maximum(w[:, -1], 0.0))


# ---------------------------------------------------------------------------
# Normal (unitary) eigendecomposition via the commuting hermitian pair
# ---------------------------------------------------------------------------

def normal_unitary_eig(u: np.ndarray):
    """Joint eigendecomposition of unitary (normal) matrices.

    Diagonalizes H1 = (U+U*)/2, then the compression of H2 = (U-U*)/2i on
    each near-degenerate H1 cluster; this resolves pairs with equal cosine
    but opposite sine that a single hermitian solve cannot separate.
    Eigenvalues come from Rayleigh quotients on U itself (quadratically
    accurate in the eigenvector error).

    Returns (lam, v, residual): lam (..., n) complex on the unit circle,
    v unitary columns, residual = max entry of |U v - v diag(lam)|.

    Peak working set, in the cluster solve: v and that solve's batch-last
    copy and V besides u (3.3 times u's bytes at n = 8, grid 2049, and 3.5
    at n = 6). H1, the compression and U v are formed one chunk of the
    batch at a time; each product acts per matrix, so the chunks give the
    bits of whole-batch products.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[-1]
    batch_shape = u.shape[:-2]
    U = u.reshape(-1, n, n)
    nb = U.shape[0]
    w1, v = _jacobi(nb, n, U.__getitem__, True)  # H1, the hermitian part
    # zero b outside clusters of w1; jacobi then acts blockwise
    gaps = np.diff(w1, axis=1) > DEFAULT_TOLERANCES.cluster_tol
    cluster_id = np.concatenate(
        [np.zeros((w1.shape[0], 1), dtype=np.int64), np.cumsum(gaps, axis=1)], axis=1)
    del w1, gaps

    def compressed(s):
        # H2 lives only in this product; _jacobi takes its hermitian part
        b = adjoint(v[s]) @ ((U[s] - adjoint(U[s])) / 2.0j) @ v[s]
        mask = cluster_id[s, :, None] == cluster_id[s, None, :]
        return np.where(mask, b, 0.0)

    _, wrot = _jacobi(nb, n, compressed, True)
    chunks = _chunks(nb, n)
    for s in chunks:
        v[s] = v[s] @ wrot[s]
    del wrot
    lam = np.empty((nb, n), dtype=np.complex128)
    worst = []
    for s in chunks:
        uv = U[s] @ v[s]
        lam[s] = np.sum(np.conjugate(v[s]) * uv, axis=1)
        worst.append(np.max(np.abs(uv - v[s] * lam[s, None, :])))
    return (lam.reshape(*batch_shape, n), v.reshape(*batch_shape, n, n),
            float(np.max(worst)))


# ---------------------------------------------------------------------------
# Sampled matrix fields on [0, 1]
# ---------------------------------------------------------------------------

class SampledMatrixField:
    """Uniform grid of square complex matrices on [0,1], endpoints included.

    The numeric stand-in for an element of M_n(C([0,1])). Immutable after
    construction; every sample is checked against the declared flavor.
    An array that is already read-only, C-ordered complex128 and owns its
    data (as the sampled layer hands over the arrays it builds) is held as
    it is: whoever made it read-only gives up writing to it. Any other
    input is copied.
    """

    __slots__ = ("samples", "flavor")

    def __init__(self, samples: np.ndarray, flavor: str = "general"):
        if not (type(samples) is np.ndarray and samples.dtype == np.complex128
                and samples.flags.c_contiguous and samples.flags.owndata
                and not samples.flags.writeable):
            samples = np.array(samples, dtype=np.complex128, order="C")
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise ValueError("samples must have shape (grid_size, n, n)")
        if samples.shape[1] == 0:
            raise ValueError(f"samples of shape {samples.shape} hold 0 x 0 matrices")
        if samples.shape[0] < 2:
            raise ValueError("need at least two grid points")
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples contain non-finite entries")
        if (flavor == "selfadjoint"
                and hermitian_defect(samples) > DEFAULT_TOLERANCES.tol_sym):
            raise FlavorError("field is not selfadjoint within tol_sym")
        if (flavor == "unitary"
                and unitary_defect(samples) > DEFAULT_TOLERANCES.tol_unitary):
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

    @staticmethod
    def diagonal_unitary(angles: np.ndarray) -> "SampledMatrixField":
        """diag(e^{i angles[t, j]}) for an (grid_size, n) angle array."""
        angles = np.asarray(angles, dtype=float)
        grid_size, n = angles.shape
        samples = np.zeros((grid_size, n, n), dtype=np.complex128)
        idx = np.arange(n)
        samples[:, idx, idx] = np.exp(1j * angles)
        samples.setflags(write=False)
        return SampledMatrixField(samples, "unitary")


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


def cyclic_match(a_sorted: np.ndarray, b_sorted: np.ndarray) -> np.ndarray:
    """Costs of all order-preserving matchings on the circle between rows
    of angles.

    a_sorted, b_sorted: (m, n), each row sorted ascending. Shift s matches
    a[:, j] with b[:, (j + s) % n]. Returns costs (m, n) indexed [row,
    shift]: the largest |b - a|, wrapped to (-pi, pi], per row and shift.
    An optimal bottleneck matching of two multisets on the circle is order
    preserving, so every circle matching in the package scans exactly these
    shifts.
    """
    n = a_sorted.shape[-1]
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    moves = _wrap_to_pi(b_sorted[:, idx] - a_sorted[:, None, :])
    return np.max(np.abs(moves), axis=-1)


LIFT_MARGIN = 1e-9
"""The lift's one decision margin, in radians. A previous row with a
circular gap at most this holds a repeated eigenvalue, and a shift costing
within it of the best ties: each is refused, never decided. No shift moves
an angle by more than pi, so with two or more branches a best step within
the margin of pi leaves every shift within it of the best: a half turn is
refused as a tie. It must sit far above the float error of np.angle and of
one step of the mod-2 pi recurrence (a few ulps of 2 pi, ~1e-15), whose
values may differ from the principal angles in the last bits, and below
gap_tol (1e-8), so that a row jitter_spectrum opened is never read as a
collision."""
# Entries per cyclic_match batch: bounds each (rows, n, n) cost tensor to
# 128 KB, a tenth of a field at n = 6 and grid 2049.
_MATCH_BATCH = 1 << 14


def lift_angle_array(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrap an (grid, n) array of spectral angles into
    branch functions (n, grid) starting from the sorted angles at t = 0.

    Returns (thetas, cols), both (n, grid): cols[j, i] is the column of
    angles[i] whose eigenvalue branch j follows at grid point i, so the
    eigenvector paired with thetas[j, i] is column cols[j, i]. At t = 0
    the branches take the columns of angles[0] in sorted order mod 2 pi.

    Step i matches the sorted principal angles of row i - 1 to those of
    row i by the cyclic shift of least bottleneck cost, all steps in one
    batched cyclic_match. A step is decided when exactly one shift lies
    within LIFT_MARGIN of the best and row i - 1 has a circular gap above
    LIFT_MARGIN; a step of pi or more ties (see LIFT_MARGIN), and a single
    branch's half turns are left to the branch-sum check of the sampled
    bounds. The first undecided step raises SpectralCollisionError with
    t_index i: repeated eigenvalues are opened by jitter_spectrum before
    the lift, never tie-broken by it.
    A branch's slot in the sorted row is carried along by the chosen shifts,
    which gives every branch its matched target value c and column; the
    values follow the recurrence theta_i = theta_{i-1} + wrap(c_i -
    mod(theta_{i-1}, 2 pi)), run along the grid one branch at a time.
    """
    grid, n = angles.shape
    start = np.sort(angles[0])
    cols = np.zeros((n, grid), dtype=np.intp)
    if n == 1:
        thetas = np.repeat(start[None], grid, axis=0)
        for i in range(1, grid):
            thetas[i] = thetas[i - 1] + _wrap_to_pi(angles[i] - thetas[i - 1])
        return thetas.T.copy(), cols
    order = np.argsort(np.mod(angles, TWO_PI), axis=1, kind="stable")
    by_angle = np.take_along_axis(np.mod(angles, TWO_PI), order, axis=1)
    a_sorted, b_sorted = by_angle[:-1], by_angle[1:]
    shifts = np.empty(grid - 1, dtype=np.intp)
    tied = np.empty(grid - 1, dtype=bool)
    rows = max(1, _MATCH_BATCH // (n * n))
    for lo in range(0, grid - 1, rows):
        costs = cyclic_match(a_sorted[lo:lo + rows], b_sorted[lo:lo + rows])
        best = np.argmin(costs, axis=1)
        best_cost = np.take_along_axis(costs, best[:, None], axis=1)
        shifts[lo:lo + rows] = best
        tied[lo:lo + rows] = np.sum(costs - best_cost <= LIFT_MARGIN, axis=1) != 1
    collided = circular_gaps(a_sorted) <= LIFT_MARGIN
    undecided = collided | tied
    if undecided.any():
        k = int(np.argmax(undecided))
        reasons = [text for failed, text in (
            (collided, f"repeated eigenvalue at grid index {k} (circular gap"
                       f" <= {LIFT_MARGIN:g}), open the gap by jitter first"),
            (tied, "two cyclic matchings within LIFT_MARGIN of the best"))
            if failed[k]]
        raise SpectralCollisionError(
            f"ambiguous branch continuation at grid index {k + 1}: "
            + "; ".join(reasons), t_index=k + 1)
    # Slot k of row i holds the branch at frame position (k - frame[i]) % n;
    # in this frame a branch keeps its position across rows.
    frame = np.cumsum(shifts) % n
    pos = np.empty(n, dtype=np.intp)
    pos[np.argsort(np.mod(start, TWO_PI), kind="stable")] = np.arange(n)
    cols[:, 0] = order[0][pos]
    slots = (pos[None, :] + frame[:, None]) % n
    targets = np.take_along_axis(b_sorted, slots, axis=1)
    cols[:, 1:] = np.take_along_axis(order[1:], slots, axis=1).T
    # prev + _wrap_to_pi(c - mod(prev, 2 pi)) bit for bit on floats: negating
    # a difference is exact, and float % is np.mod's fmod with its sign fix
    thetas = np.empty((n, grid))
    for j, prev in enumerate(start.tolist()):
        row = targets[:, j].tolist()    # one branch's floats at a time
        branch = [prev]
        for c in row:
            prev = prev - ((prev % TWO_PI - c + math.pi) % TWO_PI - math.pi)
            branch.append(prev)
        thetas[j] = branch
    return thetas, cols


# ---------------------------------------------------------------------------
# exp from selfadjoint to unitary fields
# ---------------------------------------------------------------------------

def unitary_exp(h: SampledMatrixField) -> SampledMatrixField:
    """Pointwise exp(iH(t)) of a selfadjoint field. Peak working set, in
    the eigensolve: 2.6 times h's bytes besides h at n = 8, grid 2049. The
    product is built chunk by chunk into the result's own array, which
    the field keeps without a copy."""
    if h.flavor != "selfadjoint":
        raise FlavorError("unitary_exp needs a selfadjoint field")
    w, v = jacobi_eigh(h.samples)
    phases = np.exp(1j * w)
    del w
    samples = np.empty_like(v)
    for s in _chunks(h.grid_size, h.dim):
        samples[s] = np.einsum("bij,bj,bkj->bik", v[s], phases[s], np.conjugate(v[s]))
    del v
    samples.setflags(write=False)
    return SampledMatrixField(samples, "unitary")


# ---------------------------------------------------------------------------
# Jitter protocol for (near-)repeated eigenvalues
# ---------------------------------------------------------------------------

def jitter_spectrum(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Open a circular gap >= gap_tol in every row of an (m, n) spectrum;
    the one place that decides whether a spectrum is jittered, and the only
    mechanism for repeated eigenvalues: lift_angle_array refuses a row whose
    gap is at most LIFT_MARGIN (below gap_tol) instead of breaking the tie.

    A spectrum whose rows all have the gap comes back as is, with eps 0.0.
    Otherwise the j-th (angle-sorted) eigenvalue of every row is multiplied
    by e^{i j eps}; eps starts at eps_jitter and grows on a re-collision,
    up to five retries, then the collision is refused with the grid index
    of the first row whose gap is below gap_tol. Both thresholds are fixed
    in DEFAULT_TOLERANCES.
    """
    gap_tol = DEFAULT_TOLERANCES.gap_tol
    gaps = circular_gaps(np.angle(lam))
    if np.min(gaps) >= gap_tol:
        return lam, 0.0
    ranks = np.argsort(np.argsort(np.angle(lam), axis=1, kind="stable"),
                       axis=1, kind="stable")
    for attempt in range(6):
        eps = DEFAULT_TOLERANCES.eps_jitter * (1.7 ** attempt)
        jittered = lam * np.exp(1j * eps * (ranks + 1))
        if np.min(circular_gaps(np.angle(jittered))) >= gap_tol:
            return jittered, eps
    bad = int(np.argmax(gaps < gap_tol))
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
                         max_log_norm: float | None = None
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
    h.setflags(write=False)
    hf = SampledMatrixField(h, "selfadjoint")
    del h
    return unitary_exp(hf)
