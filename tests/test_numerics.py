import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    constant_field,
    identity_field,
    jitter_unitary,
    random_unitary,
)

from cellab.cel import bound_sandwich, cu_upper_bound_path, geodesic_upper_bound
from cellab.dimdrop import tower
from cellab.errors import FlavorError, SpectralCollisionError
from cellab.numerics import (
    SampledMatrixField,
    adjoint,
    circular_gaps,
    cyclic_match,
    jacobi_eigh,
    jitter_spectrum,
    lift_angle_array,
    normal_unitary_eig,
    operator_norm,
    random_hermitian,
    random_unitary_field,
    unitary_exp,
)
from cellab.witness import dense_stage_witness_field

TWO_PI = 2 * math.pi


def _sup_distance(f: SampledMatrixField, g: SampledMatrixField) -> float:
    """sup over the grid of the operator-norm difference."""
    return float(np.max(operator_norm(f.samples - g.samples)))


def _spectrum(u: np.ndarray) -> np.ndarray:
    """Spectrum of one unitary matrix, sorted by angle."""
    lam, _, residual = normal_unitary_eig(u)
    assert residual < 1e-6
    return lam[np.argsort(np.angle(lam), kind="stable")]


def _min_gap(f: SampledMatrixField) -> float:
    lam, _, _ = normal_unitary_eig(f.samples)
    return float(np.min(circular_gaps(np.angle(lam))))


def _lift(f: SampledMatrixField) -> np.ndarray:
    """Branches (n, grid) lifted from a unitary field's principal angles,
    starting at the sorted angles at t = 0."""
    angles = np.angle(normal_unitary_eig(f.samples)[0])
    return lift_angle_array(angles)[0]


# ---------------------------------------------------------------------------
# hermitian eigensolver
# ---------------------------------------------------------------------------

def test_eigen_identity_dim3():
    w, v = jacobi_eigh(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eigen_diagonal_reordering():
    w, _ = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])


def test_eigen_2x2_quadratic_formula_oracle(rng):
    # closed-form eigenvalues of [[a, b], [conj(b), d]]:
    # (a+d)/2 +- sqrt(((a-d)/2)^2 + |b|^2)
    for _ in range(50):
        a, d = rng.standard_normal(2)
        b = complex(*rng.standard_normal(2))
        m = np.array([[a, b], [np.conj(b), d]])
        mean = (a + d) / 2
        rad = math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        w, v = jacobi_eigh(m)
        assert np.allclose(w, [mean - rad, mean + rad], atol=1e-12)
        assert np.max(np.abs(m @ v - v * w)) < 1e-12


def test_jacobi_against_numpy_oracle(rng):
    for n in (2, 3, 5, 8, 13):
        a = np.stack([random_hermitian(rng, n) for _ in range(7)])
        w, v = jacobi_eigh(a)
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-11)
        assert np.max(np.abs(a @ v - v * w[:, None, :])) < 1e-11
        # eigenvector matrices unitary
        g = np.einsum("bij,bik->bjk", v.conj(), v)
        assert np.max(np.abs(g - np.eye(n))) < 1e-12


def test_jacobi_tiny_off_diagonal_entries_do_not_overflow():
    # |a_pq| between 1e-300 and ~1e-154 against an O(1) diagonal gap
    # overflows tau * tau; the rotation is then none (t = +-0), and the
    # suite's RuntimeWarning filter turns any numpy warning into a failure
    single = np.diag([1.0, 2.0, 3.0]).astype(complex)
    single[0, 1] = single[1, 0] = 1e-200
    single[1, 2] = single[2, 1] = 0.5
    tiny = np.diag([1.0, 2.0]).astype(complex)
    tiny[0, 1] = tiny[1, 0] = 1e-170
    batch = np.stack([tiny, np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)])
    for a in (single, batch):
        w, v = jacobi_eigh(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-12
        assert np.max(np.abs(a @ v - v * w[..., None, :])) < 1e-12


def test_jacobi_deterministic(rng):
    a = random_hermitian(rng, 6)
    w1, v1 = jacobi_eigh(a)
    w2, v2 = jacobi_eigh(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_weyl_stability_on_random_pairs(rng):
    # |lambda_j(A) - lambda_j(B)| <= ||A - B||
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = random_hermitian(rng, n)
        b = a + 0.3 * random_hermitian(rng, n)
        wa = jacobi_eigh(a)[0]
        wb = jacobi_eigh(b)[0]
        assert np.max(np.abs(wa - wb)) <= operator_norm(a - b) + 1e-9


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 3))) == 0
    assert abs(operator_norm(np.array([[0, 2], [0, 0]], dtype=complex)) - 2) < 1e-12
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(operator_norm(u) - 1) < 1e-12


# ---------------------------------------------------------------------------
# unitary spectra
# ---------------------------------------------------------------------------

def test_unitary_spectrum_identity():
    lam = _spectrum(np.eye(4))
    assert np.allclose(lam, np.ones(4), atol=1e-12)


def test_unitary_spectrum_diagonal():
    u = np.diag(np.exp(1j * np.array([math.pi / 3, -math.pi / 3])))
    lam = _spectrum(u)
    expect = np.exp(1j * np.array([-math.pi / 3, math.pi / 3]))
    assert np.allclose(np.sort(np.angle(lam)), np.sort(np.angle(expect)), atol=1e-12)


def test_unitary_spectrum_householder_reflection(rng):
    # a reflection fixes the hyperplane and flips the normal: spectrum {1, -1}
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x /= np.linalg.norm(x)
    h = np.eye(2) - 2 * np.outer(x, x.conj())
    lam = _spectrum(h)
    assert np.allclose(np.sort(lam.real), [-1, 1], atol=1e-10)
    assert np.max(np.abs(lam.imag)) < 1e-10


def test_unitary_spectrum_opposite_cosines():
    # e^{i a} and e^{-i a} share their cosine: the clustered second stage
    # must still split them
    u0 = np.diag(np.exp(1j * np.array([0.7, -0.7])))
    q = random_unitary(np.random.default_rng(3), 2)
    lam = _spectrum(q @ u0 @ q.conj().T)
    assert np.allclose(np.sort(np.angle(lam)), [-0.7, 0.7], atol=1e-10)


def test_unitary_spectrum_modulus_and_det(rng):
    for n in (2, 3, 5):
        u = random_unitary(rng, n)
        lam = _spectrum(u)
        assert np.max(np.abs(np.abs(lam) - 1)) < 1e-9
        assert abs(np.prod(lam) - np.linalg.det(u)) < 1e-9


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_field_flavor_validation():
    with pytest.raises(FlavorError):
        SampledMatrixField(np.tile(np.array([[0, 1], [0, 0]], dtype=complex),
                                   (4, 1, 1)), "selfadjoint")
    with pytest.raises(FlavorError):
        SampledMatrixField(np.tile(2 * np.eye(2), (4, 1, 1)), "unitary")
    # 0 x 0 matrices are refused by shape, before any flavor check
    for flavor in ("selfadjoint", "unitary", "general"):
        with pytest.raises(ValueError, match=r"\(17, 0, 0\)"):
            SampledMatrixField(np.zeros((17, 0, 0)), flavor)


def _peak_bytes(fn):
    """fn() and the most bytes it held at once beyond those held before the
    call, as tracemalloc counts them (numpy reports its array buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sampled_working_set_is_a_few_fields():
    # the certify benchmark's det1-k8-44 field (k = 8, grid 2049, 2.1 MB):
    # every full-size temporary of the eigensolver, the normal
    # decomposition, the exponential and the flavor checks is made one
    # batch chunk at a time, and the layer's own fresh arrays go into a
    # field without a copy, so generating the field holds 3.6 fields at once
    # and bounding it 3.3 (7.6 and 9.4 while every intermediate lived to its
    # function's return, 5.5 and 4.7 while each was freed after its last
    # reader)
    rng = np.random.default_rng(1709472040)
    u, generate = _peak_bytes(lambda: random_unitary_field(
        rng, 8, 2049, amplitude=0.96, det_one=True))
    _, sandwich = _peak_bytes(lambda: bound_sandwich(u))
    field = u.samples.nbytes
    assert generate <= 3.85 * field, generate / field
    assert sandwich <= 3.6 * field, sandwich / field
    # a field built from a caller's writable array is one copy plus the
    # checks' chunks (about 4.1 with full-size check temporaries)
    fresh = np.array(u.samples)
    _, built = _peak_bytes(lambda: SampledMatrixField(fresh, "unitary"))
    assert built <= 1.3 * field, built / field


def test_dense_witness_and_path_working_set():
    # oracle-dense's field (k = 6, grid 2049, 1.2 MB) is built in 1.5 fields
    # (4.3 while the constructor copied it and checked it at full size),
    # and the constructive path, with its endpoint measured, holds 3.5
    # (7.7 before): its endpoint v_0 is formed chunk by chunk inside the
    # endpoint solve and never whole
    stage = tower(1)[0]
    w, built = _peak_bytes(lambda: dense_stage_witness_field(stage, 2049))
    field = w.samples.nbytes
    assert built <= 1.75 * field, built / field
    path, held = _peak_bytes(lambda: cu_upper_bound_path(w))
    assert held <= 3.75 * field, held / field
    # the endpoint is the witness up to the jitter's dim * eps_jitter
    assert path.endpoint_error <= 1e-6


def test_field_immutable():
    f = identity_field(2, 8)
    with pytest.raises(AttributeError):
        f.flavor = "general"
    with pytest.raises(ValueError):
        f.samples[0, 0, 0] = 5


def test_field_copies_any_memory_layout_to_c_order():
    # adjoint(u.samples) keeps the transposed memory order of its swapaxes
    # view; the field's copy is C-ordered, so the finiteness check can read
    # it as pairs of float64
    u = random_unitary_field(np.random.default_rng(3901), 3, 17)
    v = SampledMatrixField(adjoint(u.samples), "unitary")
    assert v.samples.flags.c_contiguous
    assert np.array_equal(v.samples, np.conjugate(u.samples.transpose(0, 2, 1)))


def test_sorted_eigenvalue_continuity(rng):
    # adjacent-sample eigenvalues move no farther than the field does
    ts = np.linspace(0, 1, 65)[:, None, None]
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    h = SampledMatrixField(np.cos(ts) * a + np.sin(3 * ts) * b, "selfadjoint")
    w = jacobi_eigh(h.samples)[0]
    step_eig = np.max(np.abs(np.diff(w, axis=0)))
    step_field = np.max(operator_norm(np.diff(h.samples, axis=0)))
    assert step_eig <= step_field + 1e-9


# ---------------------------------------------------------------------------
# branch lifting
# ---------------------------------------------------------------------------

def test_lift_scalar_full_turn():
    ts = np.linspace(0, 1, 129)
    f = SampledMatrixField.diagonal_unitary((TWO_PI * ts)[:, None])
    thetas = _lift(f)
    assert thetas[0, 0] == 0.0
    assert np.allclose(thetas[0], TWO_PI * ts, atol=1e-12)


def test_lift_diagonal_pair_with_endpoint_collisions():
    ts = np.linspace(0, 1, 257)
    ang = np.stack([math.pi * ts, -math.pi * ts], axis=1)
    f = SampledMatrixField.diagonal_unitary(ang)
    # the lift does not guess at a repeated eigenvalue: it refuses
    with pytest.raises(SpectralCollisionError,
                       match="repeated eigenvalue at grid index 0") as exc:
        _lift(f)
    assert exc.value.t_index == 1
    # jitter opens both collisions, and the lift follows the pair within it
    lam, eps = jitter_spectrum(normal_unitary_eig(f.samples)[0])
    assert eps > 0
    thetas, _ = lift_angle_array(np.angle(lam))
    assert np.allclose(np.sort(thetas, axis=0).T, np.sort(ang, axis=1),
                       atol=2 * eps + 1e-12)
    assert np.max(np.abs(np.diff(thetas, axis=1))) < math.pi


def test_lift_roundtrip_against_spectrum_oracle(rng):
    f = random_unitary_field(rng, 3, 257, amplitude=0.5,
                             max_log_norm=0.8 * math.pi)
    if _min_gap(f) < 1e-8:
        f, _ = jitter_unitary(f)
    thetas = _lift(f)
    # re-enumeration at 50 random grid points against the independent
    # single-matrix spectrum
    idx = rng.choice(f.grid_size, size=50, replace=False)
    for i in idx:
        lam = _spectrum(f.samples[i])
        got = np.sort(np.mod(thetas[:, i], TWO_PI))
        want = np.sort(np.mod(np.angle(lam), TWO_PI))
        err = min(np.max(np.abs(got - want)),
                  np.max(np.abs(np.sort((got + math.pi) % TWO_PI)
                                - np.sort((want + math.pi) % TWO_PI))))
        assert err < 1e-8
    # and at every grid point against the spectrum the lift was built from
    lam, _, _ = normal_unitary_eig(f.samples)
    costs = cyclic_match(np.sort(np.mod(np.angle(lam), TWO_PI), axis=1),
                         np.sort(np.mod(thetas.T, TWO_PI), axis=1))
    assert np.max(np.min(costs, axis=1)) < 1e-8


def test_lift_ambiguous_half_turn_collision():
    # antipodal spectra half a turn apart: both continuations differ and tie
    ang = np.array([[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]])
    f = SampledMatrixField.diagonal_unitary(ang)
    with pytest.raises(SpectralCollisionError,
                       match="two cyclic matchings") as exc:
        _lift(f)
    assert exc.value.t_index == 1


# The lift's one margin, pinned here rather than read from numerics: each
# rule is placed by a pair of two-row inputs at 0.5x and 2x of it, on
# different sides of it.
MARGIN = 1e-9


def _lift_reasons(angles):
    """The lift's refusal reasons for an angle array, or None if decided."""
    try:
        lift_angle_array(np.array(angles))
    except SpectralCollisionError as exc:
        assert exc.t_index == 1
        return str(exc).split(": ", 1)[1]
    return None


def test_lift_margin_places_the_collision_gap():
    # row 0 holds two angles g apart; the third angle keeps every other
    # shift far from the best, so the gap alone decides
    assert _lift_reasons([[0.0, 2 * MARGIN, 2.0],
                          [-0.01, 2 * MARGIN + 0.01, 2.0]]) is None
    reasons = _lift_reasons([[0.0, MARGIN / 2, 2.0],
                             [-0.01, MARGIN / 2 + 0.01, 2.0]])
    assert reasons.startswith("repeated eigenvalue") and ";" not in reasons


def test_lift_margin_places_the_tie():
    # an antipodal pair stepping by c: the other shift costs pi - c, which
    # is delta above the best c
    def reasons(delta):
        c = (math.pi - delta) / 2
        return _lift_reasons([[0.0, math.pi], [c, math.pi + c]])

    assert reasons(2 * MARGIN) is None
    assert reasons(MARGIN / 2) == "two cyclic matchings within LIFT_MARGIN of the best"


def test_lift_margin_places_the_half_turn():
    # the best shift steps 0 -> pi - e and the other one 0 -> pi. No move
    # exceeds pi, so with two or more branches a best step within the
    # margin of pi is refused as a tie, the lift's only rule for it
    assert _lift_reasons([[0.0, 2.0], [math.pi - 2 * MARGIN, math.pi]]) is None
    reasons = _lift_reasons([[0.0, 2.0], [math.pi - MARGIN / 2, math.pi]])
    assert reasons == "two cyclic matchings within LIFT_MARGIN of the best"


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_unitary_exp_zero_field():
    h = SampledMatrixField(np.zeros((8, 3, 3)), "selfadjoint")
    u = unitary_exp(h)
    assert np.max(np.abs(u.samples - np.eye(3))) < 1e-14


def test_unitary_exp_constant_diagonal():
    h = constant_field(np.diag([math.pi / 2, -math.pi / 2]), 8,
                       "selfadjoint")
    u = unitary_exp(h)
    assert np.allclose(u.samples[0], np.diag([1j, -1j]), atol=1e-12)


def test_exp_log_roundtrip(rng):
    h = np.stack([0.8 * random_hermitian(rng, 3) for _ in range(33)])
    h *= 0.9 * math.pi / max(1e-9, float(np.max(operator_norm(h))))
    hf = SampledMatrixField(h, "selfadjoint")
    # oracle: the principal logarithm, from the normal eigendecomposition
    lam, v, _ = normal_unitary_eig(unitary_exp(hf).samples)
    back = np.einsum("bij,bj,bkj->bik", v, np.angle(lam), v.conj())
    assert np.max(np.abs(back - h)) < 1e-9


def test_principal_log_right_half_circle_bound(rng):
    # u = exp(iH) with ||H|| < pi/2: the principal logarithm's sup norm,
    # which geodesic_upper_bound reports, stays within pi/2
    h = np.stack([random_hermitian(rng, 3) for _ in range(17)])
    h *= (math.pi / 2 - 1e-3) / float(np.max(operator_norm(h)))
    u = unitary_exp(SampledMatrixField(h, "selfadjoint"))
    assert geodesic_upper_bound(u) <= math.pi / 2 + 1e-9


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

def test_jitter_splits_repeated_eigenvalues(tol):
    u = identity_field(4, 16)
    assert _min_gap(u) < tol.gap_tol
    v, eps = jitter_unitary(u)
    assert _min_gap(v) >= tol.gap_tol
    assert _sup_distance(u, v) <= 4 * eps + 1e-12


def test_jitter_cost_on_repeated_eigenvalue(rng, tol):
    # a doubled eigenvalue in an eigenbasis that turns with t
    ts = np.linspace(0, 1, 33)
    q = unitary_exp(SampledMatrixField(
        ts[:, None, None] * random_hermitian(rng, 3), "selfadjoint")).samples
    d = np.diag(np.exp(1j * np.array([0.4, 0.4, -1.1])))
    f = SampledMatrixField(q @ d @ np.conjugate(np.swapaxes(q, 1, 2)), "unitary")
    assert _min_gap(f) < tol.gap_tol
    v, eps = jitter_unitary(f)
    assert eps > 0
    assert _min_gap(v) >= tol.gap_tol
    assert _sup_distance(f, v) <= f.dim * eps + 1e-12


def test_jitter_leaves_a_gapped_spectrum_alone(rng, tol):
    f = random_unitary_field(rng, 4, 65, amplitude=0.8, det_one=True)
    lam, _, _ = normal_unitary_eig(f.samples)
    assert np.min(circular_gaps(np.angle(lam))) >= tol.gap_tol
    out, eps = jitter_spectrum(lam)
    assert out is lam and eps == 0.0
    v, eps = jitter_unitary(f)
    assert eps == 0.0
    assert _sup_distance(f, v) <= 1e-12


def test_circular_gaps_shape():
    g = circular_gaps(np.array([[0.0, 1.0, 2.0]]))
    assert g.shape == (1,)
    assert abs(g[0] - 1.0) < 1e-12


def test_normal_eig_residual(rng):
    u = np.stack([random_unitary(rng, 4) for _ in range(5)])
    lam, v, resid = normal_unitary_eig(u)
    assert resid < 1e-9
    assert np.max(np.abs(np.abs(lam) - 1)) < 1e-9
