"""The batch-last Jacobi solver against the batch-first kernel it replaced.

`batch_first_jacobi_eigh` is the original solver, kept here as the
reference: the batch on the leading axis, each rotated row and column
copied out before it is written back (with the solver's overflow guard on
the rotation angle, which changes no value). `jacobi_eigh` holds the batch on
the trailing axis and writes each rotated pair in one assignment, with
the same formulas, the same cyclic (p, q) order and the same batch-wide
convergence test, so it must return the same bits (np.array_equal) on
every input, and so must everything built on it.
"""

import numpy as np
import pytest

from cellab import numerics
from cellab.numerics import (
    SampledMatrixField,
    jacobi_eigh,
    operator_norm,
    random_hermitian,
    unitary_exp,
)

_SWEEP_TOL = 1e-14
_MAX_SWEEPS = 60


def batch_first_jacobi_eigh(a, *, compute_v=True):
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[-1]
    batch_shape = a.shape[:-2]
    A = a.reshape(-1, n, n).copy()
    A = (A + numerics.adjoint(A)) / 2.0
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
                with np.errstate(over="ignore"):
                    tau = np.where(active, (app - aqq) / np.where(active, 2.0 * r, 1.0), 0.0)
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
        mags = np.abs(V)
        lead = np.argmax(mags, axis=1)
        entries = np.take_along_axis(V, lead[:, None, :], axis=1)[:, 0, :]
        mod = np.abs(entries)
        ph = np.where(mod > 0, entries / np.where(mod > 0, mod, 1.0), 1.0)
        V = V * np.conjugate(ph)[:, None, :]
        return w.reshape(*batch_shape, n), V.reshape(*batch_shape, n, n)
    return w.reshape(*batch_shape, n), None


def assert_same_bits(a):
    w, v = jacobi_eigh(a)
    w_ref, v_ref = batch_first_jacobi_eigh(a)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)
    w_only, none = jacobi_eigh(a, compute_v=False)
    assert none is None
    assert np.array_equal(w_only, batch_first_jacobi_eigh(a, compute_v=False)[0])


def hermitian_batch(rng, n, nb):
    x = rng.standard_normal((nb, n, n)) + 1j * rng.standard_normal((nb, n, n))
    return (x + np.conj(np.swapaxes(x, 1, 2))) / 2.0


@pytest.mark.parametrize("n", range(1, 9))
def test_seeded_batches_match_the_batch_first_kernel(n):
    rng = np.random.default_rng(2300 + n)
    for nb in (1, 17, 2049):
        assert_same_bits(hermitian_batch(rng, n, nb))
    # an unbatched matrix and a two-axis batch keep their shapes
    assert_same_bits(random_hermitian(rng, n))
    assert_same_bits(hermitian_batch(rng, n, 12).reshape(3, 4, n, n))


def test_exactly_diagonal_batch():
    rng = np.random.default_rng(2310)
    a = np.zeros((33, 5, 5), dtype=np.complex128)
    a[:, range(5), range(5)] = rng.standard_normal((33, 5))
    w, v = jacobi_eigh(a)
    assert np.array_equal(w, np.sort(a.real[:, range(5), range(5)], axis=1))
    assert np.array_equal(np.abs(v), np.abs(v).round())
    assert_same_bits(a)


def test_exactly_repeated_eigenvalues():
    rng = np.random.default_rng(2320)
    for n in (2, 3, 4):
        h = random_hermitian(rng, n)
        # every eigenvalue of h twice: block diagonal, and permuted
        assert_same_bits(np.stack([np.kron(np.eye(2), h), np.kron(h, np.eye(2))]))
    assert_same_bits(np.stack([np.eye(6), 2.5 * np.eye(6)]))
    # the cosine part of a Pan-Wang-like diagonal field with a repeated
    # eigenvalue, conjugated by a fixed unitary
    q = jacobi_eigh(random_hermitian(rng, 4))[1]
    d = np.zeros((17, 4, 4), dtype=np.complex128)
    d[:, range(4), range(4)] = np.cos(np.linspace(0, 1, 17)[:, None] * [1, 1, 2, -1])
    assert_same_bits(q @ d @ np.conj(q.T))


def test_mixed_convergence_batch():
    # nearly diagonal matrices converge in fewer sweeps than dense ones;
    # the batch runs the slowest one's sweep count on all of them
    rng = np.random.default_rng(2330)
    near = np.diag(np.arange(1.0, 7.0)) + 1e-9 * hermitian_batch(rng, 6, 20)
    dense = hermitian_batch(rng, 6, 20)
    batch = np.concatenate([near, dense])[rng.permutation(40)]
    assert_same_bits(batch)
    assert_same_bits(near)


def test_builders_match_on_either_kernel(monkeypatch):
    rng = np.random.default_rng(2340)
    g = hermitian_batch(rng, 5, 65)
    h = SampledMatrixField(hermitian_batch(rng, 4, 129), "selfadjoint")
    norms, exps = operator_norm(g), unitary_exp(h).samples
    monkeypatch.setattr(numerics, "jacobi_eigh", batch_first_jacobi_eigh)
    assert np.array_equal(norms, operator_norm(g))
    assert np.array_equal(exps, unitary_exp(h).samples)
