"""The vectorized branch lift against the grid-point loop it replaces.

`loop_lift` is the original lifting loop, kept here as the oracle: one
cyclic-shift matching per grid point, on the lifted values themselves.
`lift_angle_array` must return the same bits (np.array_equal) and the same
eigenvalue column for every branch and grid point, or refuse with the same
exception class, grid index and message.
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
    circular_gaps,
    lift_angle_array,
    normal_unitary_eig,
    random_unitary_field,
)

TWO_PI = 2 * math.pi
TIE_TOL = DEFAULT_TOLERANCES.tie_tol


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


def loop_lift(angles, anchors, tie_tol):
    """(thetas, cols), both (n, grid). At t = 0 the anchors take the
    columns of angles[0] in sorted order mod 2 pi."""
    grid, n = angles.shape
    thetas = np.empty((n, grid))
    cols = np.empty((n, grid), dtype=int)
    thetas[:, 0] = anchors
    rank = np.argsort(np.argsort(np.mod(anchors, TWO_PI), kind="stable"))
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


def _outcome(lift, angles, anchors):
    try:
        return "ok", lift(angles, anchors, TIE_TOL)
    except SpectralCollisionError as exc:
        return "refused", (type(exc), exc.t_index, str(exc))


def assert_same_lift(angles, anchors=None):
    """Both lifts agree bit for bit, columns included; returns the oracle's
    outcome kind."""
    if anchors is None:
        anchors = np.sort(angles[0])
    want = _outcome(loop_lift, angles, anchors)
    got = _outcome(lift_angle_array, angles, anchors)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert np.array_equal(got[1][0], want[1][0])
        assert np.array_equal(got[1][1], want[1][1])
    else:
        assert got[1] == want[1]
    return want[0]


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


# Both examples lift differently (the second loses its refusal) when rows
# after an exact collision follow the sorted principal angles instead of
# the loop's stable tie-break on the lifted values.
COLLIDING = ([3, 0, -2], [4, 1, 2])
COLLIDING_REFUSED = ([3, 4, -5, 6], [-4, -3, 2, -3])


@given(field=diagonal_fields(6), grid=st.sampled_from([17, 33, 65, 129]))
@settings(max_examples=150, deadline=None)
@example(field=COLLIDING, grid=33)
@example(field=COLLIDING_REFUSED, grid=33)
def test_lift_matches_loop_on_exact_crossings(field, grid):
    assert_same_lift(diagonal_angles(*field, grid))


def test_exact_collision_rows_follow_the_loop():
    ang = diagonal_angles(*COLLIDING, 33)
    assert np.min(circular_gaps(ang)) <= 1e-9
    assert assert_same_lift(ang) == "ok"
    ang = diagonal_angles(*COLLIDING_REFUSED, 33)
    assert assert_same_lift(ang) == "refused"
    with pytest.raises(SpectralCollisionError) as exc:
        lift_angle_array(ang, np.sort(ang[0]), TIE_TOL)
    assert np.min(circular_gaps(ang[:exc.value.t_index])) <= 1e-9


@given(field=diagonal_fields(8), grid=st.sampled_from([5, 9, 17]))
@settings(max_examples=150, deadline=None)
def test_lift_matches_loop_on_coarse_grids(field, grid):
    # steps of quarter and half turns: ties between shifts and steps of pi
    assert_same_lift(diagonal_angles(*field, grid))


def test_coarse_grid_refusals_carry_the_loop_index():
    tie = np.array([[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]])
    half_turn = diagonal_angles([-4, -2], [-4, -4], 5)
    for ang, reason in ((tie, "two different branch matchings"),
                        (half_turn, "branch step of size pi")):
        assert assert_same_lift(ang) == "refused"
        with pytest.raises(SpectralCollisionError, match=reason) as exc:
            lift_angle_array(ang, np.sort(ang[0]), TIE_TOL)
        assert exc.value.t_index == 1


def test_lift_matches_loop_with_given_anchors():
    # anchors off the principal branch, and a single branch
    ang = diagonal_angles([2, -1, 1], [1, 0, -3], 65)
    assert_same_lift(ang, np.sort(ang[0]) + TWO_PI * np.array([1, -2, 0]))
    ang = diagonal_angles([5], [3], 33)
    assert_same_lift(ang, ang[0] - TWO_PI)
