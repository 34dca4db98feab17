"""The constructive path's eigenvector pairing against the re-pairing it
replaces.

`pair_columns` is the original second matching, kept here as the oracle:
per grid point it matches the normalized branch values mod 1 against the
jittered spectral angles by a cyclic shift and permutes the eigenvector
columns to follow. `oracle_cu_path` is the constructive path built with
it, and with `_minimax_integer_shifts`, the original float scan for the
det-1 shifts (its ceil and floor widened by 1e-12), kept here verbatim.
`cu_upper_bound_path`, which reads the pairing from the lift and its
shifts from the exact solver, must give the same bytes: branches,
eigenvectors, length, endpoint error and slack.
"""

import math

import numpy as np
import pytest

from conftest import random_unitary

from cellab.cel import _field_spectrum, cu_upper_bound_path
from cellab.config import DEFAULT_TOLERANCES
from cellab.numerics import (
    SampledMatrixField,
    cyclic_match,
    jitter_spectrum,
    operator_norm,
    random_unitary_field,
)
from cellab.witness import pan_wang_witness

TWO_PI = 2 * math.pi


def pair_columns(vecs, angles, h):
    """Permute eigenvector columns per grid point so that column j carries
    the eigenvalue e^{2 pi i h[j, t]}."""
    n = h.shape[0]
    target = np.mod(h.T, 1.0) * TWO_PI
    have = np.mod(angles, TWO_PI)
    tsort = np.argsort(target, axis=1, kind="stable")
    hsort = np.argsort(have, axis=1, kind="stable")
    tvals = np.take_along_axis(target, tsort, axis=1)
    hvals = np.take_along_axis(have, hsort, axis=1)
    costs = cyclic_match(hvals, tvals)
    best = np.argmin(costs, axis=1)
    assert float(np.max(np.min(costs, axis=1))) <= 1e-6
    perm = np.empty_like(hsort)
    slots = (np.arange(n)[None, :] + best[:, None]) % n
    np.put_along_axis(perm, np.take_along_axis(tsort, slots, axis=1), hsort,
                      axis=1)
    return np.take_along_axis(vecs, perm[:, None, :], axis=2)


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


def oracle_cu_path(u, tol=DEFAULT_TOLERANCES):
    """(h, vecs, length, endpoint_error, eps_report, eps_used) of the
    constructive path paired by pair_columns. The fields used here have no
    winding pass, so the original repair loop would leave h unchanged and
    is left out."""
    n = u.dim
    det_resid = float(np.max(np.abs(np.linalg.det(u.samples) - 1.0)))
    spec = _field_spectrum(u, tol)
    angles = np.angle(jitter_spectrum(spec.lam, tol)[0])
    h = spec.thetas / TWO_PI
    jitter_sum = spec.eps_used * n * (n + 1) / 2.0 / TWO_PI
    winding = int(round(float(h.sum(axis=0)[0]) - jitter_sum))
    h_norm = h + _minimax_integer_shifts(h.min(axis=1), h.max(axis=1),
                                         -winding)[:, None]
    vecs = pair_columns(spec.vecs, angles, h_norm)
    v0 = SampledMatrixField(
        np.einsum("bij,bj,bkj->bik", vecs, np.exp(2j * math.pi * h_norm.T),
                  vecs.conj()), "unitary", tol=tol)
    eps_report = n * spec.eps_used + 10.0 * spec.residual + 2.0 * det_resid
    return (h_norm, vecs, TWO_PI * float(np.max(np.abs(h_norm))),
            float(np.max(operator_norm(v0.samples - u.samples))), eps_report,
            spec.eps_used)


def assert_same_path(u):
    """Returns the jitter eps the field needed."""
    got = cu_upper_bound_path(u)
    h, vecs, length, endpoint_error, eps_report, eps_used = oracle_cu_path(u)
    assert got.h.tobytes() == h.tobytes()
    assert got.vecs.tobytes() == vecs.tobytes()
    assert got.length.hex() == length.hex()
    assert got.endpoint_error.hex() == endpoint_error.hex()
    assert got.eps_report.hex() == eps_report.hex()
    assert got.n_repairs == 0
    return eps_used


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_pan_wang_pairing_matches_oracle(k):
    assert_same_path(pan_wang_witness(k).field(513))


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_seeded_det1_pairing_matches_oracle(k):
    rng = np.random.default_rng(20261018 + k)
    for i in range(20):
        assert_same_path(random_unitary_field(
            rng, k, 257, amplitude=0.3 + 0.05 * i, det_one=True))


def test_diagonal_winding_fields_match_oracle():
    ts = np.linspace(0, 1, 513)
    lam = 1.2 * math.pi * np.sin(math.pi * ts)
    assert_same_path(SampledMatrixField.diagonal_unitary(
        np.stack([lam, -lam], axis=1)))
    assert_same_path(SampledMatrixField.diagonal_unitary(np.stack(
        [TWO_PI * ts, -TWO_PI * (ts - ts ** 2), -TWO_PI * ts ** 2], axis=1)))


def test_repeated_eigenvalue_pairing_matches_oracle():
    # W diag(e^{ia}, e^{ia}, e^{-2ia}) W*: det 1 and a doubled eigenvalue
    # at every grid point, which jitter splits
    ts = np.linspace(0, 1, 257)
    a = 0.9 * math.pi * np.sin(math.pi * ts)
    w = random_unitary(np.random.default_rng(7), 3)
    phases = np.exp(1j * np.stack([a, a, -2 * a], axis=1))
    u = SampledMatrixField(
        np.einsum("ij,bj,kj->bik", w, phases, w.conj()), "unitary")
    assert assert_same_path(u) > 0.0
