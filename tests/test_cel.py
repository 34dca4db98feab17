import math
from fractions import Fraction as F

import numpy as np
import pytest

from cellab.cel import (
    CelBound,
    UnitaryPath2D,
    bound_sandwich,
    cel_lower_distinct,
    cel_lower_ordered_log,
    concatenate_paths,
    cu_upper_bound_path,
    geodesic_upper_bound,
    path_length,
    path_lower_bound_branches,
    scalar_cel,
    scalar_cel_certificate,
    winding_pass_slack,
)
from cellab.config import Tolerances
from cellab.errors import CommutatorError, SpectralCollisionError, WindowError
from cellab.funalg import EigenvalueListField, PiecewiseLinearFn
from cellab.numerics import (
    SampledMatrixField,
    jitter_unitary,
    random_hermitian,
    random_unitary_field,
    unitary_exp,
)
from cellab.witness import pan_wang_witness

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
        assert scalar_cel(f.shift(2 * m)) == scalar_cel(f)


def test_scalar_cel_k_range_sufficiency(rng):
    # enlarging the scanned shift window never changes the result
    from cellab.cel import _minmax_over_shifts
    for _ in range(50):
        vals = sorted(rng.uniform(-20, 20, 2))
        m, M = float(vals[0]), float(vals[1])
        v1, _ = _minmax_over_shifts(m, M, 2 * PI)
        bound = int(math.ceil(max(abs(m), abs(M)) / (2 * PI))) + 1
        v2 = min(max(M - 2 * PI * k, 2 * PI * k - m)
                 for k in range(-2 * bound, 2 * bound + 1))
        assert abs(v1 - v2) < 1e-12


def test_scalar_cel_lipschitz(rng):
    for _ in range(50):
        a = rng.standard_normal(17).cumsum()
        b = a + rng.standard_normal(17) * 0.2
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
    u = SampledMatrixField.identity(3, 65)
    b = cel_lower_distinct(u)
    assert b.lower <= 1e-5


def test_lower_distinct_k3_value():
    u = pan_wang_witness(3).field(1025)
    b = cel_lower_distinct(u)
    assert abs(b.lower - 4 * PI / 3) < 1e-6
    assert b.certificate["branch"] is not None


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


def test_ordered_log_sampled():
    ts = np.linspace(0, 1, 257)
    e = EigenvalueListField(samples=np.stack([-PI * ts, PI * ts]))
    assert abs(cel_lower_ordered_log(e).lower - PI) < 1e-12


def test_ordered_log_window_violations():
    with pytest.raises(WindowError, match="spread"):
        cel_lower_ordered_log(EigenvalueListField(
            exact=(PLF.affine(-2), PLF.affine(2))))
    with pytest.raises(WindowError, match="-2pi"):
        cel_lower_ordered_log(EigenvalueListField(exact=(PLF.constant(-3),)))
    with pytest.raises(WindowError, match=">= 2pi"):
        cel_lower_ordered_log(EigenvalueListField(exact=(PLF.constant(2),)))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _geodesic_path(h_samples, n_s):
    hf = SampledMatrixField(h_samples, "selfadjoint")
    s_grid = np.linspace(0.0, 1.0, n_s)

    def provider(i):
        s = s_grid[i]
        f = SampledMatrixField(h_samples * (1 - s), "selfadjoint")
        return unitary_exp(f)

    return UnitaryPath2D(s_grid, provider, dim=h_samples.shape[1],
                         grid_size=h_samples.shape[0])


def test_path_length_constant_zero():
    u = SampledMatrixField.identity(2, 17)
    p = UnitaryPath2D.from_slices([u, u, u])
    assert path_length(p) == 0.0


def test_path_length_geodesic_convergence():
    # exp(i s H) with ||H|| = pi/2: chordal sums approach pi/2 from below
    h = np.tile(np.diag([PI / 2, -PI / 2]).astype(complex), (17, 1, 1))
    p = _geodesic_path(h, 257)
    length = path_length(p)
    assert length <= PI / 2 + 1e-12
    assert abs(length - PI / 2) < 0.01 * PI / 2


def test_path_length_concatenation_additive():
    # split one path at a slice: the chordal lengths add exactly
    h = np.tile(np.diag([1.0, -1.0]).astype(complex), (9, 1, 1))
    whole = _geodesic_path(h, 17)
    slices = [whole.slice(i) for i in range(whole.n_s)]
    p1 = UnitaryPath2D.from_slices(slices[:9])
    p2 = UnitaryPath2D.from_slices(slices[8:])
    joint = concatenate_paths(p1, p2)
    assert abs(path_length(joint) - (path_length(p1) + path_length(p2))) < 1e-12
    assert abs(path_length(joint) - path_length(whole)) < 1e-12
    with pytest.raises(ValueError, match="seam"):
        concatenate_paths(p2, p1)


def test_path_lower_bound_diagonal_homotopy():
    # v_s = exp(i (1-s) H), H diagonal: branch arc lengths are |H_jj|, the
    # bound is their max. The identity endpoint needs jitter; the pinned
    # per-branch arcs were recorded when jitter still shifted the raw angles
    # (angles + eps * rank) instead of multiplying by e^{i eps rank}.
    cases = [
        ([0.9, 0.3, -0.5],
         [0.5000001000000012, 0.29999980000000015, 0.8999997]),
        ([1.1, -0.7], [0.7000001000000005, 1.0999998]),
        ([0.9, 0.3, -0.5, -1.3],
         [1.3000001, 0.5000002000000001, 0.29999969999999987,
          0.8999996000000001]),
        ([2.1, -0.4, 0.6], [0.4000001000000002, 0.5999998, 2.0999997]),
    ]
    s_grid = np.linspace(0, 1, 65)
    for hvals, pinned in cases:
        h = np.tile(np.diag(hvals).astype(complex), (33, 1, 1))

        def provider(i, h=h):
            return unitary_exp(SampledMatrixField(h * (1 - s_grid[i]),
                                                  "selfadjoint"))

        p = UnitaryPath2D(s_grid, provider, dim=len(hvals), grid_size=33)
        bound, cert = path_lower_bound_branches(p)
        assert cert["jitter_slack"] > 0
        assert abs(bound - max(np.abs(hvals))) < 1e-5
        # per-branch arcs are |H_jj| (branch order = sorted anchors at s=0)
        assert np.allclose(sorted(cert["per_branch"]), sorted(np.abs(hvals)),
                           atol=1e-5)
        assert np.allclose(cert["per_branch"], pinned, rtol=0, atol=1e-12)
        assert abs(bound - max(pinned)) <= 1e-12


def test_path_lower_bound_below_path_length(rng):
    # the branch bound never exceeds the measured length by more than the
    # chord-vs-arc discretization gap (random homotopies)
    for _ in range(5):
        g = random_hermitian(rng, 2)
        g *= 1.2 / float(np.max(np.abs(np.linalg.eigvalsh(g))))
        h = np.tile(g, (17, 1, 1)) * np.linspace(0.3, 1.0, 17)[:, None, None]
        p = _geodesic_path(h, 129)
        bound, _ = path_lower_bound_branches(p)
        length = path_length(p)
        n_steps = p.n_s - 1
        chord_gap = length * (PI / n_steps) ** 2 / 8 + 1e-9
        assert bound <= length + chord_gap + 2e-3


def test_path_lower_bound_scalar_comparison(rng):
    # dim 1: the 2-D branch bound equals the 1-D scalar arc length
    ts = np.linspace(0, 1, 33)
    alpha = 0.8 * np.sin(PI * ts) + 0.2
    s_grid = np.linspace(0, 1, 33)

    def provider(i):
        return SampledMatrixField.diagonal_unitary(
            ((1 - s_grid[i]) * alpha)[:, None])

    p = UnitaryPath2D(s_grid, provider, dim=1, grid_size=33)
    bound, _ = path_lower_bound_branches(p)
    expect = sum(np.max(np.abs(alpha * (s_grid[i] - s_grid[i + 1])))
                 for i in range(32))
    assert abs(bound - expect) < 1e-12


def test_jitter_refusal_carries_grid_index():
    # diag(e^{i(c-t)}, e^{-i(c-t)}) on 11 points: at c = 1 the gap 2(1-t)
    # first drops below 0.5 at t = 0.8 (grid index 8), and jitter of
    # size ~1e-6 cannot open it to 0.5
    tol = Tolerances(gap_tol=0.5)
    ts = np.linspace(0, 1, 11)

    def field(c):
        return SampledMatrixField.diagonal_unitary(
            np.stack([c - ts, ts - c], axis=1))

    for refuse in (lambda: cel_lower_distinct(field(1.0), tol),
                   lambda: jitter_unitary(field(1.0), tol)):
        with pytest.raises(SpectralCollisionError, match="jitter") as exc:
            refuse()
        assert exc.value.t_index == 8
    p = UnitaryPath2D.from_slices([field(2.0), field(1.0), field(1.0)])
    with pytest.raises(SpectralCollisionError) as exc:
        path_lower_bound_branches(p, tol)
    assert (exc.value.s_index, exc.value.t_index) == (1, 8)
    assert str(exc.value) == ("unresolvable spectral collision at "
                              "(s_index=1, t_index=8)")


def test_path_endpoint_metadata():
    w = pan_wang_witness(2)
    u = w.field(129)
    res = cu_upper_bound_path(u)
    d0, d1 = res.path.endpoint_defects(u)
    assert d0 < 1e-6 and d1 < 1e-9


# ---------------------------------------------------------------------------
# constructive determinant-1 upper bound
# ---------------------------------------------------------------------------

def test_cu_identity():
    u = SampledMatrixField.identity(3, 65)
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
    u = SampledMatrixField.identity(1, 33)
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


def test_cu_length_bounds_chordal_measurement():
    # the closed-form length dominates the chordal sum and converges to it
    u = pan_wang_witness(2).field(129)
    res = cu_upper_bound_path(u, s_points=129)
    measured = path_length(res.path)
    assert measured <= res.length + 1e-9
    assert res.length - measured < 1e-3


# ---------------------------------------------------------------------------
# geodesic oracle and sandwiches
# ---------------------------------------------------------------------------

def test_geodesic_trivials():
    assert geodesic_upper_bound(SampledMatrixField.identity(2, 9)) == 0
    u = SampledMatrixField.constant(np.array([[np.exp(1j * PI / 2)]]), 9,
                                    "unitary")
    assert abs(geodesic_upper_bound(u) - PI / 2) < 1e-12


def test_geodesic_infinite_on_branch_cut():
    u = SampledMatrixField.constant(np.diag([-1.0 + 0j, 1.0]), 9, "unitary")
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
    for _ in range(20):
        u = random_unitary_field(rng, 3, 129, amplitude=1.0,
                                 max_log_norm=0.85 * PI)
        b = bound_sandwich(u)
        assert b.lower <= b.upper + 1e-6


def test_celbound_serialization_and_invariant():
    b = CelBound(lower=1.0, upper=2.0, lower_method="x", upper_method="y",
                 lower_pi=F(1, 3))
    obj = b.to_json_obj()
    assert obj["lower_pi"] == "1/3"
    assert obj["upper"] == 2.0
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
            cu_upper_bound_path(u, s_points=17))
    counts = {}
    for name in ("normal_unitary_eig", "lift_angle_array"):
        _count_calls(monkeypatch, cel_mod, name, counts)
    _count_calls(monkeypatch, np.linalg, "det", counts)
    # the constructive length is read without building the path
    _count_calls(monkeypatch, numerics_mod, "operator_norm", counts)
    _count_calls(monkeypatch, UnitaryPath2D, "from_spectral", counts)
    b = bound_sandwich(u)
    assert counts == {"normal_unitary_eig": 1, "lift_angle_array": 1, "det": 1}
    assert counts.get("operator_norm", 0) == counts.get("from_spectral", 0) == 0
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
