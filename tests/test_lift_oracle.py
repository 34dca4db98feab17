"""The vectorized branch lift against the grid-point loop it replaced and
against its documented refusal rule.

`loop_lift` is the original lifting loop, kept here as the reference: one
cyclic-shift matching per grid point, on the lifted values themselves,
with a stable tie-break at exact collisions. `first_undecided` recomputes
the lift's refusal rule from the sorted principal angles. Where every step
is decided, `lift_angle_array` must return the same bits as the loop
(np.array_equal) and the same eigenvalue column for every branch and grid
point. Otherwise it must refuse at the first undecided step, which is no
later than the loop's own refusal: repeated eigenvalues are opened by
jitter before the lift, never tie-broken by it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jitter_unitary

from cellab.config import DEFAULT_TOLERANCES
from cellab.errors import SpectralCollisionError
from cellab.numerics import (
    LIFT_MARGIN,
    circular_gaps,
    jitter_spectrum,
    lift_angle_array,
    normal_unitary_eig,
    random_unitary_field,
)

TWO_PI = 2 * math.pi
# the loop oracle's own tie threshold, independent of the lift's LIFT_MARGIN
TIE_TOL = 1e-12


class _Ambiguous(Exception):
    pass


def _wrap(x):
    return -(np.mod(-x + math.pi, TWO_PI) - math.pi)


def _loop_step(prev_thetas, new_angles, tie_tol):
    """(increments, cols): cols[j] is the entry of new_angles that branch j
    is matched to."""
    n = prev_thetas.shape[0]
    if n == 1:
        return _wrap(new_angles - prev_thetas), np.zeros(1, dtype=int)
    order_a = np.argsort(np.mod(prev_thetas, TWO_PI), kind="stable")
    order_b = np.argsort(np.mod(new_angles, TWO_PI), kind="stable")
    a_sorted = np.mod(prev_thetas, TWO_PI)[order_a]
    b_sorted = np.mod(new_angles, TWO_PI)[order_b]
    moves = [_wrap(np.roll(b_sorted, -shift) - a_sorted) for shift in range(n)]
    costs = [float(np.max(np.abs(d))) for d in moves]
    best_shift = int(np.argmin(costs))
    best_cost = costs[best_shift]
    best_values = np.sort(a_sorted + moves[best_shift])
    for shift in range(n):
        if shift == best_shift or costs[shift] - best_cost > tie_tol:
            continue
        values = np.sort(a_sorted + moves[shift])
        if np.max(np.abs(values - best_values)) > 1e-9:
            raise _Ambiguous(
                "two different branch matchings within tie_tol "
                f"({best_cost:.3e} vs {costs[shift]:.3e})")
    deltas = np.empty(n)
    deltas[order_a] = moves[best_shift]
    if np.max(np.abs(deltas)) >= math.pi - tie_tol:
        raise _Ambiguous("branch step of size pi: wraparound ambiguous")
    cols = np.empty(n, dtype=int)
    cols[order_a] = order_b[(np.arange(n) + best_shift) % n]
    return deltas, cols


def loop_lift(angles, tie_tol=TIE_TOL):
    """(thetas, cols), both (n, grid). At t = 0 the branches start at the
    sorted angles and take the columns of angles[0] in sorted order mod
    2 pi."""
    grid, n = angles.shape
    thetas = np.empty((n, grid))
    cols = np.empty((n, grid), dtype=int)
    thetas[:, 0] = np.sort(angles[0])
    rank = np.argsort(np.argsort(np.mod(thetas[:, 0], TWO_PI), kind="stable"))
    cols[:, 0] = np.argsort(np.mod(angles[0], TWO_PI), kind="stable")[rank]
    for i in range(1, grid):
        try:
            deltas, cols[:, i] = _loop_step(thetas[:, i - 1], angles[i], tie_tol)
        except _Ambiguous as exc:
            raise SpectralCollisionError(
                f"ambiguous branch continuation at grid index {i}: {exc}",
                t_index=i) from exc
        thetas[:, i] = thetas[:, i - 1] + deltas
    return thetas, cols


def first_undecided(angles):
    """The first grid index i whose step the documented rule leaves
    undecided, or None. Row i - 1 is matched to row i, both sorted mod
    2 pi, by cyclic shifts; the step is decided when row i - 1 has a
    circular gap above LIFT_MARGIN and exactly one shift costs within
    LIFT_MARGIN of the best. A single branch is always decided. The half
    turn clause (best >= pi - LIFT_MARGIN) is not in the lift, since with
    two or more branches such a step ties; it is kept here, so a half turn
    the lift decided would show as a mismatch."""
    grid, n = angles.shape
    if n == 1:
        return None
    for i in range(1, grid):
        a = np.sort(np.mod(angles[i - 1], TWO_PI))
        b = np.sort(np.mod(angles[i], TWO_PI))
        gap = min(float(np.min(np.diff(a))), TWO_PI - (a[-1] - a[0]))
        costs = [float(np.max(np.abs(_wrap(np.roll(b, -s) - a))))
                 for s in range(n)]
        best = min(costs)
        near = sum(c - best <= LIFT_MARGIN for c in costs)
        if (gap <= LIFT_MARGIN or near != 1
                or best >= math.pi - LIFT_MARGIN):
            return i
    return None


def _outcome(lift, angles):
    try:
        return "ok", lift(angles)
    except SpectralCollisionError as exc:
        return "refused", exc.t_index


def assert_same_lift(angles):
    """The lift keeps its contract against the loop and the rule; returns
    the lift's outcome kind."""
    undecided = first_undecided(angles)
    want = _outcome(loop_lift, angles)
    got = _outcome(lift_angle_array, angles)
    if undecided is None:
        assert got[0] == want[0] == "ok", (got, want)
        assert np.array_equal(got[1][0], want[1][0])
        assert np.array_equal(got[1][1], want[1][1])
    else:
        assert got == ("refused", undecided), (got, undecided)
        if want[0] == "refused":
            assert undecided <= want[1], (undecided, want)
    return got[0]


def diagonal_angles(slopes, offsets, grid):
    """Principal angles of diag(e^{i(2 pi s_j t + o_j pi/4)}): integer-slope
    branches that cross exactly on grid points."""
    ts = np.linspace(0.0, 1.0, grid)
    phase = (TWO_PI * np.asarray(slopes)[None, :] * ts[:, None]
             + np.asarray(offsets)[None, :] * (math.pi / 4))
    return np.angle(np.exp(1j * phase))


def diagonal_fields(max_slope, max_k=5):
    """(slopes, offsets) of diagonal_angles, k = 1..max_k branches."""
    return st.integers(1, max_k).flatmap(lambda k: st.tuples(
        st.lists(st.integers(-max_slope, max_slope), min_size=k, max_size=k),
        st.lists(st.integers(-4, 4), min_size=k, max_size=k)))


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([2, 3, 4, 8]),
       grid=st.sampled_from([257, 2049]), amp=st.floats(0.3, 1.8))
@settings(max_examples=16, deadline=None)
def test_lift_matches_loop_on_gapped_det1_fields(seed, k, grid, amp):
    rng = np.random.default_rng(seed)
    f = random_unitary_field(rng, k, grid, amplitude=amp, det_one=True)
    angles = np.angle(normal_unitary_eig(f.samples)[0])
    if np.min(circular_gaps(angles)) < DEFAULT_TOLERANCES.gap_tol:
        f, _ = jitter_unitary(f)
        angles = np.angle(normal_unitary_eig(f.samples)[0])
    assert_same_lift(angles)


# Both examples collide exactly at interior grid points. The loop
# tie-broke the first through and refused the second only at index 28;
# the lift refuses both at the step after their first collision.
COLLIDING = ([3, 0, -2], [4, 1, 2])
COLLIDING_REFUSED = ([3, 4, -5, 6], [-4, -3, 2, -3])


@given(field=diagonal_fields(6), grid=st.sampled_from([17, 33, 65, 129]))
@settings(max_examples=150, deadline=None)
@example(field=COLLIDING, grid=33)
@example(field=COLLIDING_REFUSED, grid=33)
def test_lift_matches_loop_on_exact_crossings(field, grid):
    assert_same_lift(diagonal_angles(*field, grid))


def test_exact_collision_rows_refuse():
    for field, collision in ((COLLIDING, 2), (COLLIDING_REFUSED, 0)):
        ang = diagonal_angles(*field, 33)
        gaps = circular_gaps(ang)
        assert np.flatnonzero(gaps <= LIFT_MARGIN)[0] == collision
        assert assert_same_lift(ang) == "refused"
        with pytest.raises(SpectralCollisionError,
                           match="repeated eigenvalue") as exc:
            lift_angle_array(ang)
        assert exc.value.t_index == collision + 1
        # jitter opens every gap, and the jittered angles lift like the loop
        lam, eps = jitter_spectrum(np.exp(1j * ang))
        assert eps > 0
        assert assert_same_lift(np.angle(lam)) == "ok"


@given(field=diagonal_fields(8), grid=st.sampled_from([5, 9, 17]))
@settings(max_examples=150, deadline=None)
def test_lift_matches_loop_on_coarse_grids(field, grid):
    # steps of quarter and half turns: ties between shifts and steps of pi
    assert_same_lift(diagonal_angles(*field, grid))


def test_coarse_grid_refusals_carry_the_loop_index():
    tie = np.array([[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]])
    half_turn = diagonal_angles([-4, -2], [-4, -4], 5)
    # a half turn of two branches is refused as a tie
    for ang, reason in ((tie, "two cyclic matchings"),
                        (half_turn, "two cyclic matchings")):
        assert assert_same_lift(ang) == "refused"
        with pytest.raises(SpectralCollisionError, match=reason) as exc:
            lift_angle_array(ang)
        assert exc.value.t_index == 1
        with pytest.raises(SpectralCollisionError) as loop_exc:
            loop_lift(ang, TIE_TOL)
        assert loop_exc.value.t_index == 1


def test_lift_starts_at_the_sorted_first_row():
    # three branches crossing between grid points, and a single branch
    for ang in (diagonal_angles([2, -1, 1], [1, 0, -3], 64),
                diagonal_angles([5], [3], 33)):
        assert assert_same_lift(ang) == "ok"
        thetas, cols = lift_angle_array(ang)
        assert np.array_equal(thetas[:, 0], np.sort(ang[0]))
        assert np.array_equal(ang[0][cols[:, 0]], thetas[:, 0])
