import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    conjugated_field,
    constant_field,
    identity_field,
    jitter_unitary,
    random_plf,
)

from cellab.cel import (
    CelBound,
    bound_sandwich,
    cel_lower_distinct,
    cel_lower_ordered_log,
    cu_upper_bound_path,
    geodesic_upper_bound,
    winding_pass_slack,
)
from cellab.config import DEFAULT_TOLERANCES, Tolerances
from cellab.dimdrop import tower
from cellab.errors import CommutatorError, SpectralCollisionError, WindowError
from cellab.funalg import (
    EigenvalueListField,
    PiecewiseLinearFn,
    _integer_shifts,
    scalar_cel,
    scalar_cel_certificate,
)
from cellab.numerics import (
    SampledMatrixField,
    circular_gaps,
    lift_angle_array,
    normal_unitary_eig,
    operator_norm,
    random_unitary_field,
)
from cellab.witness import dense_stage_witness_field, pan_wang_witness

PLF = PiecewiseLinearFn
PI = math.pi


# ---------------------------------------------------------------------------
# scalar formula (exact angle functions hold the coefficient of pi)
# ---------------------------------------------------------------------------

def test_scalar_cel_zero():
    assert scalar_cel(PLF.constant(0)) == 0


def test_scalar_cel_half_winding():
    # alpha(t) = 2 pi (k-1) t / k at k = 2, i.e. pi t
    assert scalar_cel(PLF.affine(1)) == 1


def test_scalar_cel_witness_branch_value():
    # alpha(t) = -(3/2) pi t: the L=4 witness branch scaled to radians
    assert scalar_cel(PLF.affine(F(-3, 2))) == F(3, 2)


def test_scalar_cel_brute_force_shift_oracle():
    # alpha(t) = pi t + 10 pi; independent scan over k in [-8, 8]
    f = PLF.from_pairs([(0, 10), (1, 11)])
    brute = min(max(abs(F(10) - 2 * k), abs(F(11) - 2 * k))
                for k in range(-8, 9))
    assert scalar_cel(f) == brute == 1
    _, k = scalar_cel_certificate(f)
    assert k == 5


def test_scalar_cel_sampled():
    ts = np.linspace(0, 1, 513)
    assert abs(scalar_cel(PI * ts + 10 * PI) - PI) < 1e-12
    assert scalar_cel(np.zeros(5)) == 0
    for fn in (scalar_cel, scalar_cel_certificate):
        with pytest.raises(ValueError, match="one-dimensional"):
            fn(np.zeros((2, 5)))


def test_scalar_cel_shift_invariance_exact():
    f = PLF.from_pairs([(0, F(1, 3)), (F(1, 2), F(-5, 7)), (1, F(2, 5))])
    for m in (-3, -1, 0, 2, 7):
        assert scalar_cel(f + 2 * m) == scalar_cel(f)


def test_scalar_cel_k_range_sufficiency(rng):
    # no shift in a window far wider than the range beats the solver's
    for _ in range(50):
        vals = sorted(rng.uniform(-20, 20, 2))
        m, M = float(vals[0]), float(vals[1])
        [k] = _integer_shifts([m], [M], 2 * PI)
        v1 = max(M - 2 * PI * k, 2 * PI * k - m)
        bound = int(math.ceil(max(abs(m), abs(M)) / (2 * PI))) + 1
        v2 = min(max(M - 2 * PI * k, 2 * PI * k - m)
                 for k in range(-2 * bound, 2 * bound + 1))
        assert abs(v1 - v2) < 1e-12


def test_scalar_cel_lipschitz(rng):
    # |cel(f) - cel(g)| <= sup|f - g|: exactly on piecewise-linear pairs,
    # to 1e-12 on sampled ones
    for _ in range(200):
        f, g = random_plf(rng), random_plf(rng)
        cf, cg = scalar_cel(f), scalar_cel(g)
        assert isinstance(cf, F) and isinstance(cg, F)
        diff = f - g
        assert abs(cf - cg) <= max(abs(diff.min_value()), abs(diff.max_value()))
    for _ in range(200):
        a = rng.standard_normal(33).cumsum()
        b = a + rng.standard_normal(33) * 0.2
        assert abs(scalar_cel(a) - scalar_cel(b)) <= np.max(np.abs(a - b)) + 1e-12


# ---------------------------------------------------------------------------
# distinct-branch lower bound
# ---------------------------------------------------------------------------

def test_lower_distinct_half_turn_pair():
    u = pan_wang_witness(2).field(513)
    b = cel_lower_distinct(u)
    assert abs(b.lower - PI) < 1e-6
    assert b.upper == math.inf


def test_lower_distinct_jittered_identity():
    u = identity_field(3, 65)
    b = cel_lower_distinct(u)
    assert b.lower <= 1e-5


def test_lower_distinct_k3_value():
    u = pan_wang_witness(3).field(1025)
    b = cel_lower_distinct(u)
    assert abs(b.lower - 4 * PI / 3) < 1e-6
    assert b.certificate["branch"] is not None


@pytest.mark.parametrize("grid", [17, 257])
def test_collided_witnesses_certify_through_jitter(grid):
    # every row of these fields repeats an eigenvalue, so the lift alone
    # refuses them at once; jitter opens the gaps and the bounds go through
    cases = [(pan_wang_witness(k).field(grid), 2 * PI * (k - 1) / k, k == 3)
             for k in (3, 4, 8)]
    cases.append((dense_stage_witness_field(tower(1)[0], grid), 4 * PI / 3,
                  True))
    for u, value, sandwiched in cases:
        angles = np.angle(normal_unitary_eig(u.samples)[0])
        assert np.all(circular_gaps(angles) <= 1e-9)
        with pytest.raises(SpectralCollisionError, match="repeated eigenvalue"):
            lift_angle_array(angles)
        low = cel_lower_distinct(u)
        assert low.certificate["jitter"] > 0
        assert abs(low.lower - value) < 1e-6
        if not sandwiched:
            # Pan-Wang k = 4, 8: the principal-log geodesic undercuts the
            # branch bound (its branch-cut test misses the sampled
            # eigenvalue -1), so bound_sandwich rejects the pair after the
            # lift went through
            with pytest.raises(ValueError, match="invalid bound"):
                bound_sandwich(u)
            continue
        b = bound_sandwich(u)
        assert b.lower == low.lower and b.upper == b.lower
        assert b.upper_method == "cu-constructive-path"


@pytest.mark.parametrize("seed", [1201, 1202, 1203])
def test_conjugated_witnesses_keep_their_exact_values(seed):
    # the witness fields are diagonal, so the eigensolver does no work on
    # them; conjugated by a smooth non-constant unitary they keep every
    # eigenvalue, and the sampled bounds must still meet the exact value
    grid = 513
    cases = [(pan_wang_witness(k).field(grid), 2 * PI * (k - 1) / k, k <= 3)
             for k in (2, 3, 4, 8)]
    cases.append((dense_stage_witness_field(tower(1)[0], grid), 4 * PI / 3,
                  True))
    for u, exact, sandwiched in cases:
        v = conjugated_field(u, seed)
        assert normal_unitary_eig(v.samples)[2] > 0
        if not sandwiched:
            # Pan-Wang k = 4, 8: the same invalid bound as unconjugated
            # (test_collided_witnesses_certify_through_jitter)
            with pytest.raises(ValueError, match="invalid bound"):
                bound_sandwich(v)
            continue
        b = bound_sandwich(v)
        eps = b.epsilon_report
        assert exact - eps <= b.lower <= exact + eps
        assert b.upper >= exact - eps
        assert b.lower <= b.upper + 1e-6


def gapped_det1_branches(rng, n):
    """n exact branches h_j (h-units) of a gapped determinant-1 diagonal
    field: centres j/n - (n-1)/(2n), each with its own perturbation of at
    most 1/(4n^2) on knots of the 1/64 grid, less their mean. The mean moves
    every branch alike, so two branches stay at least 1/n - 1/(2n^2) apart
    mod 1, and the branches sum to 0 exactly."""
    deltas = [random_plf(rng, n_knots=int(rng.integers(2, 7)), lo=-1, hi=1)
              .scale(F(1, 4 * n * n)) for _ in range(n)]
    mean = sum(deltas[1:], deltas[0]).scale(F(1, n))
    return [d - mean + (F(j, n) - F(n - 1, 2 * n)) for j, d in enumerate(deltas)]


def test_gapped_fields_certify_their_exact_value():
    # the exact layer as an oracle for the sampled one: diag(e^{2 pi i h_j})
    # with no two branches meeting mod 1 has the exact value
    # max_j scalar_cel(2 h_j) pi, and grid 2049 samples every 1/64 knot
    rng = np.random.default_rng(1901)
    ts = np.linspace(0.0, 1.0, 2049)
    for case in range(24):
        hs = gapped_det1_branches(rng, int(rng.integers(2, 8)))
        assert sum(hs[1:], hs[0]) == PLF.constant(0)
        exact = float(max(scalar_cel(h.scale(2)) for h in hs)) * PI
        u = SampledMatrixField.diagonal_unitary(
            np.stack([2 * PI * h.sample(ts) for h in hs], axis=1))
        for field in (u, conjugated_field(u, 1901 + case)):
            b = bound_sandwich(field)
            assert abs(b.lower - exact) <= b.epsilon_report + 1e-12, (case, b)
            # and no path is shorter than the exact value
            assert b.upper >= exact - 1e-12, (case, b)


def winding_det1_branches(rng, n):
    """n >= 3 exact branches h_j (h-units) of a gapped determinant-1 diagonal
    field whose branch 0 winds past 1/2. Branch 0 starts at a in
    [13/32, 31/64] and rises by a drift d >= 0 with d(0) = 0 and max 1/4,
    so its range has its midpoint above 1/2; the other n - 1 branches fall
    by d/(n - 1), so the branches sum to a constant integer. Branch j >= 1
    starts e_j below branch 0, e_j on the 1/64 grid, drawn again until every
    pair stays at least 1/16 apart mod 1. (A det-1 pair cannot wind this
    way: its two branches meet at -1 when one of them crosses 1/2.)"""
    gap = F(1, 16)
    bps = [0, *sorted(rng.choice(np.arange(1, 64), size=3, replace=False)), 64]
    vals = [0, *rng.integers(0, 17, size=4)]
    vals[int(rng.integers(1, 5))] = 16
    d = PLF.from_pairs((F(int(t), 64), F(int(v), 64)) for t, v in zip(bps, vals))
    a = F(int(rng.integers(26, 32)), 64)
    # branch 0 gains n/(n - 1) * max d = n/(4(n - 1)) on every other branch
    hi = 1 - gap - F(n, 4 * (n - 1))
    while True:
        e = [F(int(x), 64) for x in rng.integers(4, int(hi * 64) + 1, size=n - 2)]
        e.append((n * a - sum(e)) % 1)
        if gap <= e[-1] <= hi and all(abs(x - y) >= gap for i, x in enumerate(e)
                                      for y in e[:i]):
            return [d + a] + [d.scale(F(-1, n - 1)) + (a - x) for x in e]


def test_winding_fields_certify_their_exact_value():
    # a branch that winds past 1/2 from where the lift starts (its principal
    # angle at t = 0) has least shift -1, so a shift solver stuck at 0
    # reports too much; the expected value scans the shifts -3..3 itself.
    # The branch crosses -1 between samples, where the geodesic upper of
    # bound_sandwich is no path length (ROADMAP item 1), so the lower bound
    # and the constructive path are checked on their own.
    rng = np.random.default_rng(3801)
    ts = np.linspace(0.0, 1.0, 2049)

    def sup(h, c):
        return max(abs(h.min_value() + c), abs(h.max_value() + c))

    for case in range(12):
        hs = winding_det1_branches(rng, int(rng.integers(3, 6)))
        total = sum(hs[1:], hs[0])
        assert total.is_constant() and total(0).denominator == 1
        assert min(range(-3, 4), key=lambda c: sup(hs[0], c)) == -1
        exact = float(max(min(sup(h, c) for c in range(-3, 4)) for h in hs)) * 2 * PI
        u = SampledMatrixField.diagonal_unitary(
            np.stack([2 * PI * h.sample(ts) for h in hs], axis=1))
        for field in (u, conjugated_field(u, 3801 + case)):
            b = cel_lower_distinct(field)
            assert abs(b.lower - exact) <= b.epsilon_report + 1e-12, (case, b)
            # and no path is shorter than the exact value
            path = cu_upper_bound_path(field)
            assert path.length >= exact - path.eps_report - 1e-12, (case, path.length)
            assert path.endpoint_error < 1e-9, (case, path.endpoint_error)


def test_lower_distinct_refuses_interior_winding_pass():
    ts = np.linspace(0, 1, 513)
    lam = 1.2 * PI * np.sin(PI * ts)
    u = SampledMatrixField.diagonal_unitary(np.stack([lam, -lam], axis=1))
    with pytest.raises(SpectralCollisionError):
        cel_lower_distinct(u)


def test_winding_pass_slack_boundary_is_benign():
    ts = np.linspace(0, 1, 513)
    thetas = np.stack([PI * ts, -PI * ts])
    assert winding_pass_slack(thetas) >= 0.0


# ---------------------------------------------------------------------------
# ordered-log lower bound
# ---------------------------------------------------------------------------

def test_ordered_log_single_branch():
    # h(t) = pi t: reduces to the scalar formula
    e = EigenvalueListField(exact=(PLF.affine(1),))
    b = cel_lower_ordered_log(e)
    assert b.lower_pi == 1


def test_ordered_log_chi_witness_list():
    # one chi2 branch and L-1 chi1 branches (pi units): exactly 2(1 - 1/L)
    L = 9
    lo = PLF.affine(2 * (F(1, L) - 1))
    hi = PLF.affine(F(2, L))
    e = EigenvalueListField(exact=(lo,) + (hi,) * (L - 1))
    b = cel_lower_ordered_log(e)
    assert b.lower_pi == 2 - F(2, L)


def test_ordered_log_symmetric_pair():
    e = EigenvalueListField(exact=(PLF.affine(-1), PLF.affine(1)))
    assert cel_lower_ordered_log(e).lower_pi == 1


def test_ordered_log_window_violations():
    with pytest.raises(WindowError, match="spread"):
        cel_lower_ordered_log(EigenvalueListField(
            exact=(PLF.affine(-2), PLF.affine(2))))
    with pytest.raises(WindowError, match="-2pi"):
        cel_lower_ordered_log(EigenvalueListField(exact=(PLF.constant(-3),)))
    with pytest.raises(WindowError, match=">= 2pi"):
        cel_lower_ordered_log(EigenvalueListField(exact=(PLF.constant(2),)))


# ---------------------------------------------------------------------------
# refusals and the constructive path's endpoints
# ---------------------------------------------------------------------------

def test_jitter_refusal_carries_grid_index(monkeypatch):
    import cellab.numerics as numerics_mod

    # diag(e^{i(1-t)}, e^{-i(1-t)}) on 11 points: with gap_tol patched to
    # 0.5, the gap 2(1-t) first drops below it at t = 0.8 (grid index 8),
    # and jitter of size ~1e-6 cannot open it to 0.5
    ts = np.linspace(0, 1, 11)
    f = SampledMatrixField.diagonal_unitary(np.stack([1.0 - ts, ts - 1.0], axis=1))
    monkeypatch.setattr(numerics_mod, "DEFAULT_TOLERANCES", Tolerances(gap_tol=0.5))
    for refuse in (lambda: cel_lower_distinct(f), lambda: jitter_unitary(f)):
        with pytest.raises(SpectralCollisionError, match="jitter") as exc:
            refuse()
        assert exc.value.t_index == 8


def _path_slices(res, s_grid):
    """Test oracle: v_s(t) = V(t) diag(e^{2 pi i (1-s) h_j(t)}) V(t)^*,
    rebuilt from the certificate's branches and eigenvectors, shape
    (len(s_grid), grid, n, n)."""
    phases = np.exp(2j * PI * (1.0 - s_grid)[:, None, None] * res.h.T[None])
    return np.einsum("bij,sbj,bkj->sbik", res.vecs, phases, res.vecs.conj())


def test_path_endpoint_metadata():
    w = pan_wang_witness(2)
    u = w.field(129)
    res = cu_upper_bound_path(u)
    v0, v1 = _path_slices(res, np.array([0.0, 1.0]))
    d0 = float(np.max(operator_norm(v0 - u.samples)))
    d1 = float(np.max(operator_norm(v1 - np.eye(u.dim))))
    assert d0 < 1e-6 and d1 < 1e-9
    assert d0 == pytest.approx(res.endpoint_error, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# constructive determinant-1 upper bound
# ---------------------------------------------------------------------------

def test_cu_identity():
    u = identity_field(3, 65)
    res = cu_upper_bound_path(u)
    assert res.length <= 1e-5
    assert res.endpoint_error <= 1e-5


def test_cu_witness_k2():
    u = pan_wang_witness(2).field(513)
    res = cu_upper_bound_path(u)
    assert PI - 1e-3 <= res.length <= PI + 1e-3
    assert res.endpoint_error <= 1e-2


def test_cu_random_dim3(rng):
    cap = 4 * PI / 3
    for i in range(20):
        u = random_unitary_field(rng, 3, 257, amplitude=0.7 + 0.1 * i,
                                 det_one=True)
        res = cu_upper_bound_path(u)
        assert res.length <= cap + 1e-2
        assert res.endpoint_error <= 1e-2


def test_cu_scalar_det_one_is_trivial():
    # dim 1, det = 1 forces u = 1: zero-length path
    u = identity_field(1, 33)
    res = cu_upper_bound_path(u)
    assert res.length <= 1e-9
    assert res.winding == 0


def test_cu_rejects_nonzero_determinant():
    ts = np.linspace(0, 1, 33)
    u = SampledMatrixField.diagonal_unitary(
        np.stack([2 * PI * ts, np.zeros(33)], axis=1))
    with pytest.raises(CommutatorError):
        cu_upper_bound_path(u)


def test_cu_handles_interior_winding_pass():
    ts = np.linspace(0, 1, 513)
    lam = 1.2 * PI * np.sin(PI * ts)
    u = SampledMatrixField.diagonal_unitary(np.stack([lam, -lam], axis=1))
    res = cu_upper_bound_path(u)
    assert res.length <= PI + 1e-2
    assert res.endpoint_error <= 1e-2


def test_cu_shift_normalization_nonzero_winding():
    # diag(e^{2 pi i t}, e^{-2 pi i (t - t^2)}, e^{-2 pi i t^2}): det = 1,
    # branches wind; shifts must re-center them
    ts = np.linspace(0, 1, 513)
    ang = np.stack([2 * PI * ts, -2 * PI * (ts - ts ** 2), -2 * PI * ts ** 2],
                   axis=1)
    u = SampledMatrixField.diagonal_unitary(ang)
    res = cu_upper_bound_path(u)
    assert res.length <= 4 * PI / 3 + 1e-2
    assert res.endpoint_error <= 1e-2


def test_lift_never_passes_a_winding_level():
    # random-walk spectra (n 2..6, grid 5..33, steps up to 3 rad): the
    # constructive path refuses instead of repairing a winding pass, so it
    # relies on the lift never letting two branches pass a nonzero winding
    # level between samples
    from cellab.cel import _winding_pass
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        n, grid = int(rng.integers(2, 7)), int(rng.integers(5, 34))
        step = rng.uniform(0.05, 3.0)
        walk = np.cumsum(rng.uniform(-step, step, (grid, n)), axis=0)
        ang = np.angle(np.exp(1j * walk))
        assert np.min(circular_gaps(ang)) >= DEFAULT_TOLERANCES.gap_tol
        thetas, _ = lift_angle_array(ang)
        assert _winding_pass(thetas / (2 * PI)) is None


def test_cu_refuses_a_winding_pass(monkeypatch):
    import cellab.cel as cel_mod

    # diag(e^{2 pi i h}, e^{-2 pi i h}), h = 0.45 + 0.1 t: the lift bounces
    # the pair off -1, while the branches 2 pi (h, -h) cross there and pass
    # winding level 1 between grid indices 31 and 32
    ts = np.linspace(0, 1, 64)
    h = 0.45 + 0.1 * ts
    u = SampledMatrixField.diagonal_unitary(2 * PI * np.stack([h, -h], axis=1))
    assert cu_upper_bound_path(u).n_repairs == 0
    lift = cel_mod.lift_angle_array

    def crossing_lift(angles):
        return 2 * PI * np.stack([h, -h]), lift(angles)[1]

    monkeypatch.setattr(cel_mod, "lift_angle_array", crossing_lift)
    with pytest.raises(SpectralCollisionError, match="winding level") as exc:
        cu_upper_bound_path(u)
    assert exc.value.t_index == 32


def test_branch_sum_jump_is_refused():
    # every sampled bound refuses the first step where the lifted branch sum
    # moves by pi or more: an eigenvalue moved too far to be followed
    sampled = (cel_lower_distinct, bound_sandwich)
    cases = [
        # det-1 fields whose lifted sum drops a full turn (the lower bound
        # alone used to certify, 6.49 for seed 137, above the 2 pi 4/5 a
        # 5x5 det-1 field can reach)
        *((random_unitary_field(np.random.default_rng(seed), 5, 65,
                                amplitude=3.2, det_one=True),
           index, (*sampled, cu_upper_bound_path))
          for seed, index in ((42, 12), (137, 10), (149, 10))),
        # no determinant needed: its phase moves by pi or more in one step,
        # the grid is too coarse (4.64 was certified; grid 129 gives 5.96)
        (random_unitary_field(np.random.default_rng(2), 3, 33, amplitude=3.0),
         10, sampled),
        # a half turn either way round: 3 pi/2 was certified as a lower
        # bound and bound_sandwich failed on it as an invalid bound
        (SampledMatrixField.diagonal_unitary(
            np.array([[0.0], [PI / 2], [3 * PI / 2]])), 2, sampled),
    ]
    for u, index, refusers in cases:
        for refuse in refusers:
            with pytest.raises(SpectralCollisionError, match="branch sum") as exc:
                refuse(u)
            assert exc.value.t_index == index
    finer = random_unitary_field(np.random.default_rng(2), 3, 129, amplitude=3.0)
    assert abs(cel_lower_distinct(finer).lower - 5.963445658271884) < 1e-9


def test_lift_margin_places_the_branch_sum_step():
    # both branches step by (pi - delta)/2, each decided by the lift, so
    # the branch sum steps by pi - delta; the margin is pinned at 1e-9
    # here, not read from numerics
    margin = 1e-9
    for delta, refused in ((margin / 2, True), (2 * margin, False)):
        s = (PI - delta) / 2
        u = SampledMatrixField.diagonal_unitary(np.array([[0.0, 1.0],
                                                          [s, 1.0 + s]]))
        if refused:
            with pytest.raises(SpectralCollisionError, match="branch sum") as exc:
                cel_lower_distinct(u)
            assert exc.value.t_index == 1
        else:
            assert abs(cel_lower_distinct(u).lower - (1.0 + s)) < 1e-12


def test_cu_length_bounds_chordal_measurement():
    # the closed-form length dominates the chordal sum and converges to it
    u = pan_wang_witness(2).field(129)
    res = cu_upper_bound_path(u)
    v = _path_slices(res, np.linspace(0.0, 1.0, 129))
    measured = float(np.sum(np.max(operator_norm(np.diff(v, axis=0)), axis=1)))
    assert measured <= res.length + 1e-9
    assert res.length - measured < 1e-3


# ---------------------------------------------------------------------------
# geodesic oracle and sandwiches
# ---------------------------------------------------------------------------

def test_geodesic_trivials():
    assert geodesic_upper_bound(identity_field(2, 9)) == 0
    u = constant_field(np.array([[np.exp(1j * PI / 2)]]), 9, "unitary")
    assert abs(geodesic_upper_bound(u) - PI / 2) < 1e-12


def test_geodesic_infinite_on_branch_cut():
    u = constant_field(np.diag([-1.0 + 0j, 1.0]), 9, "unitary")
    assert geodesic_upper_bound(u) == math.inf


def test_geodesic_dominates_lower_bound(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        u = random_unitary_field(rng, n, 129, amplitude=0.8,
                                 max_log_norm=0.9 * PI)
        g = geodesic_upper_bound(u)
        lo = cel_lower_distinct(u).lower
        assert g >= lo - 1e-6


def test_bound_sandwich(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        u = random_unitary_field(rng, n, 129, amplitude=1.0,
                                 max_log_norm=0.85 * PI)
        b = bound_sandwich(u)
        assert b.lower <= b.upper + 1e-6


def test_celbound_invariant():
    CelBound(lower=1.0, upper=2.0, lower_method="x", upper_method="y",
             lower_pi=F(1, 3))
    with pytest.raises(ValueError):
        CelBound(lower=2.0, upper=1.0)


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_bound_sandwich_decomposes_and_lifts_once(monkeypatch):
    import cellab.cel as cel_mod
    import cellab.numerics as numerics_mod

    u = random_unitary_field(np.random.default_rng(5), 3, 257, amplitude=0.4,
                             det_one=True)
    want = (cel_lower_distinct(u), geodesic_upper_bound(u),
            cu_upper_bound_path(u))
    counts = {}
    for name in ("normal_unitary_eig", "lift_angle_array"):
        _count_calls(monkeypatch, cel_mod, name, counts)
    _count_calls(monkeypatch, np.linalg, "det", counts)
    # the constructive length is read without measuring the path's endpoint
    _count_calls(monkeypatch, numerics_mod, "operator_norm", counts)
    # one circle matching, the lift's: cel makes none of its own
    _count_calls(monkeypatch, numerics_mod, "cyclic_match", counts)
    monkeypatch.setattr(cel_mod, "cyclic_match", numerics_mod.cyclic_match,
                        raising=False)
    b = bound_sandwich(u)
    assert counts == {"normal_unitary_eig": 1, "lift_angle_array": 1, "det": 1,
                      "cyclic_match": 1}
    low, geo, cu = want
    assert b.lower == low.lower and b.epsilon_report == low.epsilon_report
    assert b.certificate == low.certificate
    assert b.upper.hex() == min(geo, cu.length).hex()


def test_bound_sandwich_refuses_like_the_lower_bound():
    u = random_unitary_field(np.random.default_rng(1), 3, 129, amplitude=2.5,
                             det_one=True)
    with pytest.raises(SpectralCollisionError) as alone:
        cel_lower_distinct(u)
    with pytest.raises(SpectralCollisionError) as combined:
        bound_sandwich(u)
    assert combined.value.t_index == alone.value.t_index == 15
    assert str(combined.value) == str(alone.value)
