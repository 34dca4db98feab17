import hashlib
import itertools
import json
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    clamp01,
    constant_field,
    identity_field,
    random_patterns,
    random_plf,
)

from cellab.errors import DomainRangeError, UnsupportedPaddingError
from cellab.funalg import (
    EigenvalueListField,
    PiecewiseLinearFn,
    _integer_shifts,
    _union_values,
    chi_family,
    compose_spectral,
    merge_sorted_branches,
    symbolic_element,
)
from cellab.numerics import (
    SampledMatrixField,
    cyclic_match,
    jacobi_eigh,
    random_hermitian,
)

PLF = PiecewiseLinearFn


# ---------------------------------------------------------------------------
# hypothesis strategies: small exact rationals and functions
# ---------------------------------------------------------------------------

rationals = st.integers(-40, 40).map(lambda n: F(n, 20))
unit_interior = st.integers(1, 19).map(lambda n: F(n, 20))


@st.composite
def plfs(draw, lo=-2, hi=2):
    interior = draw(st.lists(unit_interior, unique=True, max_size=3))
    bps = [F(0)] + sorted(interior) + [F(1)]
    vals = [F(draw(st.integers(lo * 12, hi * 12)), 12) for _ in bps]
    return PLF(tuple(bps), tuple(vals))


@st.composite
def huge_grid_plfs(draw):
    """Knots on the 1/12 grid, values with numerators up to 10**30."""
    interior = draw(st.lists(st.integers(1, 11).map(lambda n: F(n, 12)),
                             unique=True, max_size=6))
    bps = [F(0)] + sorted(interior) + [F(1)]
    return PLF(tuple(bps), tuple(F(draw(st.integers(-10 ** 30, 10 ** 30)),
                                   draw(st.integers(1, 10 ** 6))) for _ in bps))


# ---------------------------------------------------------------------------
# PiecewiseLinearFn basics
# ---------------------------------------------------------------------------

def test_plf_validation():
    with pytest.raises(ValueError):
        PLF((F(0),), (F(1),))
    with pytest.raises(ValueError):
        PLF((F(0), F(1, 2)), (F(0), F(0)))
    with pytest.raises(ValueError):
        PLF((F(0), F(1, 2), F(1, 2), F(1)), (F(0), F(0), F(0), F(0)))
    # knots that fall back by 10**-30
    with pytest.raises(ValueError, match="strictly increasing"):
        PLF((F(0), F(1, 2), F(1, 2) - F(1, 10 ** 30), F(1)), (F(0), F(0), F(0), F(0)))
    with pytest.raises(TypeError):
        PLF((0.0, 1.0), (0, 0))


def test_plf_evaluation_exact():
    f = PLF.from_pairs([(0, 0), (F(1, 3), 1), (1, F(1, 2))])
    assert f(F(1, 6)) == F(1, 2)
    assert f(F(2, 3)) == F(3, 4)
    assert f(1) == F(1, 2)
    with pytest.raises(DomainRangeError):
        f(F(3, 2))


def test_plf_function_equality_ignores_redundant_knots():
    f = PLF.from_pairs([(0, 0), (1, 1)])
    g = PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    assert f == g
    assert hash(f) == hash(g)
    assert f != g + F(1, 100)


def test_plf_collinear_knot_dropped_at_construction():
    f = PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    assert f.breakpoints == (0, 1)
    assert f.values == (0, 1)


@given(plfs(), st.data())
@settings(max_examples=80, deadline=None)
def test_plf_collinear_knot_insertion_is_invisible(f, data):
    i = data.draw(st.integers(0, len(f.breakpoints) - 2))
    a, b = f.breakpoints[i], f.breakpoints[i + 1]
    t = a + (b - a) * data.draw(st.integers(1, 9)) / 10
    g = PLF(f.breakpoints[:i + 1] + (t,) + f.breakpoints[i + 1:],
            f.values[:i + 1] + (f(t),) + f.values[i + 1:])
    assert g.breakpoints == f.breakpoints
    assert g.values == f.values
    assert hash(g) == hash(f)


def cross_product_canonical(bps, vals):
    """The canonical pass as it was before each piece's slope was formed
    once, kept as the oracle: a knot b after the last kept knot a goes when
    (b, vb) lies on the line from (a, va) to the next knot (c, vc)."""
    out_b, out_v = [bps[0]], [vals[0]]
    for i in range(1, len(bps) - 1):
        a, b, c = out_b[-1], bps[i], bps[i + 1]
        va, vb, vc = out_v[-1], vals[i], vals[i + 1]
        if (vb - va) * (c - a) != (vc - va) * (b - a):
            out_b.append(b)
            out_v.append(vb)
    return tuple(out_b + [bps[-1]]), tuple(out_v + [vals[-1]])


def fraction_canonical(bps, vals):
    """The canonical pass as it was on Fractions, before it compared
    cross-multiplied numerators, kept as the oracle: each piece's slope is
    formed once, and a knot goes when its two pieces have one slope."""
    slopes = [(y - x) / (b - a) for a, b, x, y in zip(bps, bps[1:], vals, vals[1:])]
    keep = [0, *(i for i in range(1, len(bps) - 1) if slopes[i - 1] != slopes[i]),
            len(bps) - 1]
    return tuple(bps[i] for i in keep), tuple(vals[i] for i in keep)


@given(st.lists(st.integers(1, 11).map(lambda n: F(n, 12)), unique=True, max_size=9),
       st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=3),
       huge_grid_plfs(), st.data())
@settings(max_examples=200, deadline=None)
def test_plf_canonical_knots_match_the_cross_product_pass(interior, lines, huge, data):
    # each knot's value lies on one of a few lines, so runs of collinear
    # knots, and knots where two lines meet, are common
    bps = [F(0)] + sorted(interior) + [F(1)]
    vals = []
    for t in bps:
        a, s = data.draw(st.sampled_from(lines))
        vals.append(F(a, 6) + F(s, 6) * t)
    # and a function with numerators up to 10**30, given with a collinear
    # knot in the middle of each piece, one of them raised by 10**-30
    hb, hv = [F(0)], [huge.values[0]]
    for a, b, x, y in zip(huge.breakpoints, huge.breakpoints[1:],
                          huge.values, huge.values[1:]):
        hb += [(a + b) / 2, b]
        hv += [(x + y) / 2, y]
    hv[2 * data.draw(st.integers(0, len(huge.breakpoints) - 2)) + 1] += F(1, 10 ** 30)
    for bps, vals in ((bps, vals), (hb, hv)):
        f = PLF(tuple(bps), tuple(vals))
        assert ((f.breakpoints, f.values) == cross_product_canonical(bps, vals)
                == fraction_canonical(bps, vals))


@given(plfs(), plfs(), unit_interior)
@settings(max_examples=60, deadline=None)
def test_plf_pointwise_algebra(f, g, t):
    assert (f + g)(t) == f(t) + g(t)
    assert (f - g)(t) == f(t) - g(t)
    assert f.scale(F(3, 7))(t) == f(t) * F(3, 7)


@st.composite
def inner_plfs(draw, outer):
    """Functions into [0,1] with constant and decreasing pieces, whose
    values often land exactly on a knot of outer."""
    interior = draw(st.lists(unit_interior, unique=True, max_size=4))
    bps = [F(0)] + sorted(interior) + [F(1)]
    value = st.one_of(st.sampled_from(outer.breakpoints),
                      st.integers(0, 12).map(lambda n: F(n, 12)))
    vals = [draw(value)]
    for _ in bps[1:]:
        vals.append(draw(st.one_of(st.just(vals[-1]), value)))
    return PLF(tuple(bps), tuple(vals))


@given(plfs(), st.data())
@settings(max_examples=120, deadline=None)
def test_plf_compose_pointwise(f, data):
    g = data.draw(inner_plfs(f))
    h = f.compose(g)
    knots = sorted(set(h.breakpoints) | set(g.breakpoints))
    for t in knots + [(a + b) / 2 for a, b in zip(knots, knots[1:])]:
        assert h(t) == f(g(t)), t


def count_evaluations(monkeypatch):
    """Record every __call__ point and every walk handed to _values_at, as
    (function, points) pairs."""
    calls, walks = [], []
    plain_call, plain_walk = PLF.__call__, PLF._values_at

    def counted_call(self, t):
        calls.append(t)
        return plain_call(self, t)

    def counted_walk(self, ts):
        walks.append((self, list(ts)))
        return plain_walk(self, ts)

    monkeypatch.setattr(PLF, "__call__", counted_call)
    monkeypatch.setattr(PLF, "_values_at", counted_walk)
    return calls, walks


def test_plf_compose_evaluates_only_at_inner_knots(monkeypatch):
    f = PLF.from_pairs([(0, F(1, 4)), (F(1, 3), 1), (F(3, 5), -1), (1, 0)])
    cases = [(PLF.identity(), PLF.affine(F(-1, 2), 1)),
             (f, PLF.identity()),
             (f, PLF.from_pairs([(0, 1), (F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)),
                                 (1, F(1, 10))]))]
    calls, walks = count_evaluations(monkeypatch)
    for outer, g in cases:
        calls.clear()
        outer.compose(g)
        # one call per knot of g, at its values in the order of its knots
        assert calls == list(g.values)
        assert len(calls) == len(g.breakpoints)
    # and no walk: the pulled-back knots read the outer's stored values
    assert walks == []


def sorting_compose(f, g):
    """compose as it was before its one ordered pass along g, kept as the
    oracle: f read at g's sorted values, two Fraction-keyed dicts and a
    final sort of the knots."""
    xs = sorted(g.values)
    at = dict(zip(xs, fraction_values_at(f, xs)))
    pts = {t: at[v] for t, v in zip(g.breakpoints, g.values)}
    for a, b, ga, gb in zip(g.breakpoints, g.breakpoints[1:],
                            g.values, g.values[1:]):
        if ga == gb:
            continue
        i = bisect_right(f.breakpoints, min(ga, gb))
        j = bisect_left(f.breakpoints, max(ga, gb))
        for x, v in zip(f.breakpoints[i:j], f.values[i:j]):
            pts[a + (x - ga) * (b - a) / (gb - ga)] = v
    bps = tuple(sorted(pts))
    return PLF(bps, tuple(pts[t] for t in bps))


@given(huge_grid_plfs(), st.data())
@settings(max_examples=200, deadline=None)
def test_plf_compose_matches_the_sorting_oracle(f, data):
    # g has constant, rising and falling pieces, with values often on f's
    # knots; f's values have numerators up to 10**30
    g = data.draw(inner_plfs(f))
    h = f.compose(g)
    assert h == sorting_compose(f, g)
    assert all(type(v) is F for v in h.values)


def fraction_values_at(f, ts):
    """_values_at as it was on Fractions, before the interpolation ran on
    integers, kept as the oracle."""
    bps, vals = f.breakpoints, f.values
    out, i = [], 0
    for t in ts:
        while i < len(bps) - 1 and bps[i + 1] <= t:
            i += 1
        a = bps[i]
        if t == a:
            out.append(vals[i])
        else:
            va, vb = vals[i], vals[i + 1]
            out.append(va + (vb - va) * (t - a) / (bps[i + 1] - a))
    return out


@given(huge_grid_plfs(), st.data())
@settings(max_examples=200, deadline=None)
def test_values_at_matches_pointwise_calls(f, data):
    knots = list(f.breakpoints)
    mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    other = data.draw(st.lists(st.integers(0, 10 ** 6).map(lambda n: F(n, 10 ** 6)),
                               max_size=8))
    pts = [F(0), F(1)] + knots + mids + other
    # every point may come again, so the walk sees runs of equal points
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=6))
    # and a draw from them, so the walk also passes knots it is not asked at
    some = data.draw(st.lists(st.sampled_from(pts), max_size=6))
    for ts in (sorted(pts), sorted(some)):
        got = f._values_at(ts)
        assert got == [f(t) for t in ts] == fraction_values_at(f, ts)
        assert all(type(v) is F for v in got)
    # a knot reads the stored value itself
    assert all(v is s for v, s in zip(f._values_at(knots), f.values))


def test_plf_compose_domain_error():
    f = PLF.identity()
    g = PLF.from_pairs([(0, 0), (1, 2)])
    with pytest.raises(DomainRangeError):
        f.compose(g)


def test_plf_minmax_at_breakpoints():
    f = PLF.from_pairs([(0, F(1, 2)), (F(1, 4), -1), (1, 3)])
    assert f.min_value() == -1
    assert f.max_value() == 3
    assert f.covers(F(-1, 2), F(2)) and not f.covers(F(-2), 0)


def test_plf_json_roundtrip():
    f = PLF.from_pairs([(0, F(1, 3)), (F(3, 10), "0.25"), (1, -2)])
    assert PLF.from_json_obj(f.to_json_obj()) == f
    # decimal strings parse exactly
    g = PLF.from_json_obj([["0", "0.3"], ["1", "1/3"]])
    assert g(0) == F(3, 10) and g(1) == F(1, 3)


def test_plf_sample_matches_exact():
    f = PLF.from_pairs([(0, 0), (F(1, 3), 1), (1, F(1, 2))])
    ts = np.linspace(0, 1, 17)
    fs = f.sample(ts)
    for t, v in zip(ts, fs):
        assert abs(v - float(f(F(t).limit_denominator(10 ** 9)))) < 1e-12


# ---------------------------------------------------------------------------
# integer shifts: least minimizers per branch, or a least cap under a total
# ---------------------------------------------------------------------------

TAU = 2 * math.pi


def brute_shifts(mins, maxs, two, total):
    """The shift vector of _integer_shifts by exhaustive search in exact
    arithmetic of max(M - k*two, k*two - m). With no total, per branch the
    least minimizer in [-4, 4]. Under a total, the vector of least largest
    norm among those with that sum, the lexicographically smallest on ties:
    a reference vector spreads the total evenly, and a vector that could
    beat it has every branch norm at most the reference's largest norm N.
    As |k*two - mid| is at most the norm of shift k, each of its shifts lies
    within N of the branch's midpoint, and all such vectors are searched."""
    two, n = F(two), len(mins)
    ranges = [(F(m), F(M)) for m, M in zip(mins, maxs)]

    def norm(j, k):
        m, M = ranges[j]
        return max(M - k * two, k * two - m)

    if total is None:
        return [min(range(-4, 5), key=lambda k: norm(j, k)) for j in range(n)]
    q, rem = divmod(total, n)
    cap = max(norm(j, q + (j < rem)) for j in range(n))
    boxes = []
    for m, M in ranges:
        mid = (m + M) / 2
        boxes.append(range(math.floor((mid - cap) / two),
                           math.ceil((mid + cap) / two) + 1))
    vectors = (v + (total - sum(v),)
               for v in itertools.product(*boxes[:-1])
               if total - sum(v) in boxes[-1])
    return list(min(vectors, key=lambda v: (
        max(norm(j, k) for j, k in enumerate(v)), v)))


@st.composite
def shift_problems(draw):
    """(mins, maxs, two, total): up to four ranges at most a turn wide
    around midpoints within 5/4 turns of 0. The ranges sit on a grid of
    1/12 or 1/16 turn: Fractions in pi units, or floats in turns of 1.0 or
    of the float 2*pi. A range whose midpoint lies half a turn between two
    shifts, such as [0, 2] in pi units, ties. The total is None, or within
    1 of the rounded sum of the midpoints in turns (the det-1 path's
    -winding, whose branches it negates), or anywhere a vector of shifts in
    [-4, 4] can reach, up to 4n turns from 0."""
    n = draw(st.integers(1, 4))
    two, q = draw(st.sampled_from([(F(2), 12), (1.0, 16), (TAU, 16)]))
    mins, maxs, mid = [], [], F(0)
    for _ in range(n):
        c = draw(st.integers(-5 * q // 4, 5 * q // 4))
        w = draw(st.integers(0, q // 2))
        mid += F(c, q)
        for ends, x in ((mins, c - w), (maxs, c + w)):
            ends.append(F(x, q) * two if type(two) is F else x / q * two)
    total = draw(st.none()
                 | st.integers(-1, 1).map(lambda d: round(mid) + d)
                 | st.integers(-4 * n, 4 * n))
    return mins, maxs, two, total


@given(shift_problems())
@example(([F(0)], [F(2)], F(2), None))
@example(([F(0), F(0)], [F(2), F(2)], F(2), 1))
@example(([0.0, -0.25], [0.0, 0.25], 1.0, 1))
@example(([F(4)], [F(4)], F(2), -1))  # 3 turns below the one midpoint
@example(([F(0), F(0)], [F(1), F(1)], F(2), 9))  # 8.5 turns above the sum
@example(([-2.5, 2.5], [-2.5, 2.5], 1.0, 7))  # the far shift leaves [-4, 4]
@settings(max_examples=300, deadline=None)
def test_integer_shifts_match_brute_force(problem):
    mins, maxs, two, total = problem
    shifts = _integer_shifts(mins, maxs, two, total)
    assert all(type(k) is int for k in shifts)
    assert shifts == brute_shifts(mins, maxs, two, total)


def test_integer_shifts_refuse_an_unreachable_total():
    # integer shifts reach every total once there is a branch; with none,
    # only the empty sum 0
    assert _integer_shifts([], [], F(2), 0) == []
    with pytest.raises(ArithmeticError, match="no feasible"):
        _integer_shifts([], [], F(2), 1)


# ---------------------------------------------------------------------------
# eigenvalue lists on sampled fields: the ascending jacobi_eigh eigenvalues
# ---------------------------------------------------------------------------

def _diag_field(branches, grid=65):
    ts = np.linspace(0.0, 1.0, grid)
    vals = np.stack([np.polyval(b, ts) for b in branches], axis=1)
    samples = np.zeros((grid, len(branches), len(branches)))
    idx = np.arange(len(branches))
    samples[:, idx, idx] = vals
    return SampledMatrixField(samples.astype(complex), "selfadjoint")


def _eigenvalue_list(f: SampledMatrixField) -> np.ndarray:
    """Sorted eigenvalue branches (k, grid) of a selfadjoint field."""
    return jacobi_eigh(f.samples, compute_v=False)[0].T


def test_eigenvalue_list_two_crossing_lines():
    # diag(t, 1-t): branches are min and max of the two lines
    f = _diag_field([[1.0, 0.0], [-1.0, 1.0]])
    e = _eigenvalue_list(f)
    ts = np.linspace(0, 1, f.grid_size)
    assert np.allclose(e[0], np.minimum(ts, 1 - ts), atol=1e-12)
    assert np.allclose(e[1], np.maximum(ts, 1 - ts), atol=1e-12)


def test_eigenvalue_list_constant():
    f = constant_field(np.diag([1.0, 2.0, 3.0]), 17, "selfadjoint")
    e = _eigenvalue_list(f)
    assert np.allclose(e, [[1], [2], [3]] * np.ones((3, 17)))


def test_eigenvalue_list_trace_identity(rng):
    samples = np.stack([random_hermitian(rng, 4) for _ in range(33)])
    f = SampledMatrixField(samples, "selfadjoint")
    e = _eigenvalue_list(f)
    traces = np.einsum("bii->b", samples).real
    assert np.max(np.abs(e.sum(axis=0) - traces)) < 1e-9


# ---------------------------------------------------------------------------
# eigenvalue variation, exact
# ---------------------------------------------------------------------------

def test_ev_witness_branch_value():
    # chi2 o chi o h has range [-1 + 1/L, 0] when h covers [c, d]
    L = 7
    chi, chi1, chi2 = chi_family(L, F(3, 10), F(7, 10))
    h = PLF.identity()
    w = chi2.compose(chi).compose(h)
    assert w.range() == (F(1, L) - 1, F(0))
    e = symbolic_element([(w, 1)])
    assert e.variation() == 1 - F(1, L)


def test_ev_symbolic_uses_sorted_branches():
    # two crossing lines: sorted branches each oscillate by 1/2 only
    up = PLF.from_pairs([(0, 0), (1, 1)])
    down = PLF.from_pairs([(0, 1), (1, 0)])
    e = symbolic_element([(up, 1), (down, 1)])
    assert e.variation() == F(1, 2)


# ---------------------------------------------------------------------------
# chi family
# ---------------------------------------------------------------------------

def test_chi_family_degenerate_interval_is_identity():
    chi, chi1, chi2 = chi_family(4, 0, 1)
    assert chi == PLF.identity()
    assert chi2 == PLF.affine(F(-3, 4))


def test_chi_family_midpoint_symmetry():
    chi, _, _ = chi_family(100, F(3, 10), F(7, 10))
    assert chi(F(1, 2)) == F(1, 2)


def test_chi1_range_under_coverage():
    chi, chi1, _ = chi_family(9, F(3, 10), F(7, 10))
    w = chi1.compose(chi).compose(PLF.identity())
    assert w.range() == (F(0), F(1, 9))


def test_chi_family_argument_error():
    with pytest.raises(ValueError):
        chi_family(4, F(7, 10), F(3, 10))
    with pytest.raises(ValueError):
        chi_family(1, 0, 1)


# ---------------------------------------------------------------------------
# determinant field
# ---------------------------------------------------------------------------

def test_determinant_identity():
    u = identity_field(3, 9)
    assert np.allclose(np.linalg.det(u.samples), 1.0, atol=1e-14)


def test_determinant_scalar_winding():
    ts = np.linspace(0, 1, 65)
    u = SampledMatrixField.diagonal_unitary((2 * math.pi * ts)[:, None])
    det = np.linalg.det(u.samples)
    assert np.max(np.abs(det - np.exp(2j * math.pi * ts))) < 1e-12


def test_determinant_extremal_witness_is_one():
    from cellab.witness import pan_wang_witness
    u = pan_wang_witness(3).field(129)
    det = np.linalg.det(u.samples)
    assert np.max(np.abs(det - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# point multisets on the circle: the order-preserving shifts of cyclic_match
# ---------------------------------------------------------------------------

def test_pset_circle_against_brute_force(rng):
    for _ in range(25):
        x = rng.uniform(-math.pi, math.pi, 4)
        y = rng.uniform(-math.pi, math.pi, 4)

        def circ(a, b):
            d = abs((a - b) % (2 * math.pi))
            return min(d, 2 * math.pi - d)

        brute = min(max(circ(a, b) for a, b in zip(x, perm))
                    for perm in itertools.permutations(y))
        costs = cyclic_match(np.sort(np.mod(x, 2 * math.pi))[None],
                             np.sort(np.mod(y, 2 * math.pi))[None])
        assert abs(float(np.min(costs)) - brute) < 1e-12


# ---------------------------------------------------------------------------
# spectral composition
# ---------------------------------------------------------------------------

def test_compose_spectral_identity_pattern():
    e = symbolic_element([(PLF.identity(), 2)])
    out = compose_spectral([(PLF.identity(), 1)], e)
    assert out.entries == e.entries


def test_compose_spectral_tower_patterns():
    e = symbolic_element([(PLF.identity(), 1)])
    half_lo = PLF.from_pairs([(0, 0), (1, F(1, 2))])        # t/2
    half_hi = PLF.from_pairs([(0, F(1, 2)), (1, 1)])        # (t+1)/2
    out = compose_spectral([(half_lo, 1), (half_hi, 1)], e)
    assert out.total_rank == 2
    fns = [f for f, _ in out.entries]
    assert half_lo in fns and half_hi in fns


def test_compose_spectral_rejects_bad_patterns():
    e = symbolic_element([(PLF.identity(), 1), (PLF.constant(F(1, 2)), 2)])
    with pytest.raises(DomainRangeError):
        compose_spectral([(PLF.identity(), 1),
                          (PLF.from_pairs([(0, 0), (1, F(3, 2))]), 1)], e)
    with pytest.raises(ValueError, match="positive"):
        compose_spectral([(PLF.identity(), 1), (PLF.constant(0), 0)], e)


def test_compose_spectral_ev_monotone(rng):
    for _ in range(200):
        entries = [(clamp01(random_plf(rng, lo=0, hi=1)),
                    int(rng.integers(1, 4)))
                   for _ in range(int(rng.integers(1, 4)))]
        src = symbolic_element(entries)
        out = compose_spectral(random_patterns(rng), src)
        assert out.variation() <= src.variation()


# ---------------------------------------------------------------------------
# k-th lowest merge
# ---------------------------------------------------------------------------

def test_merge_two_lines():
    up = PLF.from_pairs([(0, 0), (1, 1)])
    down = PLF.from_pairs([(0, 1), (1, 0)])
    (lo, m_lo), (hi, m_hi) = merge_sorted_branches([(up, 1), (down, 1)])
    assert m_lo == m_hi == 1
    assert lo == PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 0)])
    assert hi == PLF.from_pairs([(0, 1), (F(1, 2), F(1, 2)), (1, 1)])


def test_merge_single_function():
    f = PLF.from_pairs([(0, F(1, 3)), (1, F(2, 3))])
    assert merge_sorted_branches([(f, 1)]) == [(f, 1)]


def test_merge_respects_multiplicity():
    f = PLF.constant(0)
    g = PLF.constant(1)
    blocks = merge_sorted_branches([(f, 3), (g, 2)])
    assert [(fn.values[0], m) for fn, m in blocks] == [(0, 3), (1, 2)]


def _golden_merge_families():
    """Seeded families on a 1/12 knot grid with values in sixths, so that
    crossings often land exactly on knots; each family also mixes in
    duplicates, a constant, a function that agrees with another on a
    sub-interval, and multiplicities up to 10**30."""
    r = random.Random(20261018)
    grid = [F(k, 12) for k in range(13)]

    def value():
        return F(r.randint(-6, 6), 6)

    def rand_fn():
        bps = [F(0)] + sorted(r.sample(grid[1:-1], r.randint(0, 3))) + [F(1)]
        return PLF(tuple(bps), tuple(value() for _ in bps))

    up = PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    down = PLF.from_pairs([(0, 1), (F(1, 2), F(1, 2)), (1, 0)])
    families = [[(up, 1), (down, 1)], [(up, 10**30), (down, 2), (up, 3)]]
    for _ in range(60):
        fns = [rand_fn() for _ in range(r.randint(1, 5))]
        f = fns[0]
        # an equal function with a redundant knot, and an exact copy
        fns.append(PLF.from_pairs(sorted({(t, f(t)) for t in f.breakpoints}
                                         | {(F(1, 2), f(F(1, 2)))})))
        fns.append(PLF(f.breakpoints, f.values))
        fns.append(PLF.constant(value()))
        # agrees with f on [0, s], then leaves it
        s = grid[r.randint(2, 10)]
        fns.append(PLF.from_pairs(
            [(t, f(t)) for t in sorted(set(f.breakpoints) | {s}) if t <= s]
            + [(F(1), value())]))
        if r.random() < 0.5:
            fns.append(up)
        r.shuffle(fns)
        families.append([(g, r.choice([1, 1, 2, 3, 10**30])) for g in fns])
    return families


def test_merge_golden_digest():
    out = [[(f.to_json_obj(), str(m)) for f, m in merge_sorted_branches(fam)]
           for fam in _golden_merge_families()]
    digest = hashlib.sha256(json.dumps(out).encode("utf-8")).hexdigest()
    assert digest == "4589a6c02737d999ff175c3a9da2ced325222b6cf8f391ec529184638ef631fb"


def pairwise_merge_sorted_branches(entries):
    """The merge as it was before crossings were read from order flips, kept
    as the reference: every pair of entries is tested for a crossing on
    every base interval, every entry is evaluated at every cut, and each
    branch hands every cut to PiecewiseLinearFn, which drops the collinear
    ones."""
    entries = [(f, int(m)) for f, m in entries if m != 0]
    fns = [f for f, _ in entries]
    base = sorted(set().union(*[f.breakpoints for f in fns]))
    cuts = set(base)
    base_vals = [[f(t) for f in fns] for t in base]
    for k, (a, b) in enumerate(zip(base, base[1:])):
        width = b - a
        segs = [(va, (vb - va) / width)
                for va, vb in zip(base_vals[k], base_vals[k + 1])]
        for i, (vi, mi) in enumerate(segs):
            for vj, mj in segs[i + 1:]:
                if mi == mj:
                    continue
                t = a + (vj - vi) / (mi - mj)
                if a < t < b:
                    cuts.add(t)
    cuts = sorted(cuts)
    vals = [[f(t) for f in fns] for t in cuts]
    orders, cums = [], []
    for left, right in zip(vals, vals[1:]):
        order = sorted(range(len(entries)), key=lambda e: (left[e] + right[e], e))
        cum = [0]
        for e in order:
            cum.append(cum[-1] + entries[e][1])
        orders.append(order)
        cums.append(cum)
    rank_cuts = sorted(set().union(*[set(c) for c in cums]))
    out = []
    for lo, hi in zip(rank_cuts, rank_cuts[1:]):
        values = []
        for i, (order, cum) in enumerate(zip(orders, cums)):
            part = bisect_right(cum, lo) - 1
            assert cum[part] <= lo and hi <= cum[part + 1]
            e = order[part]
            if i == 0:
                values.append(vals[0][e])
            else:
                assert values[-1] == vals[i][e]
            values.append(vals[i + 1][e])
        out.append((PLF(tuple(cuts), tuple(values)), hi - lo))
    return out


knot_grid = st.integers(1, 11).map(lambda n: F(n, 12))
sixths = st.integers(-6, 6).map(lambda n: F(n, 6))


@st.composite
def grid_plfs(draw):
    """Knots on the 1/12 grid and values in sixths, so that crossings often
    land exactly on a knot of some entry."""
    interior = draw(st.lists(knot_grid, unique=True, max_size=3))
    bps = [F(0)] + sorted(interior) + [F(1)]
    return PLF(tuple(bps), tuple(draw(sixths) for _ in bps))


@st.composite
def merge_families(draw):
    """Families of 1 to 24 entries built to hit the merge's edge cases."""
    fns = draw(st.lists(grid_plfs(), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 6))):
        f = draw(st.sampled_from(fns))
        t0 = draw(st.sampled_from([F(1, 3), F(5, 12), F(1, 2), F(4, 7)]))
        kind = draw(st.sampled_from(["pencil", "touch", "copy", "parallel",
                                     "partial", "knot"]))
        if kind == "pencil":
            # three or more lines concurrent at an interior point, which is
            # a base knot when t0 is on the grid
            v0 = draw(sixths)
            for s in draw(st.lists(st.integers(-4, 4), min_size=3, max_size=5,
                                   unique=True)):
                fns.append(PLF.from_pairs([(0, v0 - s * t0), (1, v0 + s * (1 - t0))]))
        elif kind == "touch":
            # meets f at t0 and stays above it on both sides
            a, b = draw(sixths), draw(sixths)
            fns.append(f + PLF.from_pairs([(0, abs(a)), (t0, 0), (1, abs(b))]))
        elif kind == "copy":
            fns.append(PLF(f.breakpoints, f.values))
        elif kind == "parallel":
            fns.append(f + draw(sixths))
        elif kind == "partial":
            # equal to f on [0, t0], then leaves it
            fns.append(PLF.from_pairs(
                [(t, f(t)) for t in sorted(set(f.breakpoints) | {t0}) if t <= t0]
                + [(1, draw(sixths))]))
        else:
            # crosses f exactly at t0, a knot of the new entry
            fns.append(PLF.from_pairs([(0, f(0) + 1), (t0, f(t0)), (1, f(1) - 1)]))
    fns = draw(st.permutations(fns[:24]))
    mults = st.sampled_from([1, 1, 2, 3, 10 ** 30])
    return [(f, draw(mults)) for f in fns]


# 24 distinct lines between 7 heights at t = 0 and 11 at t = 1: they cross
# at 21 inner cuts, up to four of them at one point
TWENTY_FOUR_LINES = [(PLF.from_pairs([(0, F(i % 7, 6)), (1, F(5 * i % 11, 6))]),
                      [1, 2, 10 ** 30][i % 3]) for i in range(24)]


# four lines through (1/3, 1/2), a V with its knot at 1/2 that crosses
# them on both sides, and a copy of one line with multiplicity 10**30
PENCIL = [PLF.from_pairs([(0, F(1, 2) - F(s, 3)), (1, F(1, 2) + F(2 * s, 3))])
          for s in (-2, -1, 1, 3)]
PENCIL_AND_VEE = [(f, 1) for f in PENCIL] + [
    (PLF.from_pairs([(0, 1), (F(1, 2), 0), (1, F(3, 2))]), 2), (PENCIL[0], 10 ** 30)]


def _huge_family():
    """Seeded: values with numerators up to 10**30 over denominators up to
    10**6, so the common denominator of a base interval changes from one
    interval to the next; with three lines through one huge point, a copy,
    a copy raised by 10**-30, and one touching another at a knot."""
    r = random.Random(20261019)
    grid = [F(k, 12) for k in range(13)]

    def value():
        return F(r.randint(-10 ** 30, 10 ** 30), r.randint(1, 10 ** 6))

    fns = []
    for _ in range(6):
        bps = [F(0)] + sorted(r.sample(grid[1:-1], r.randint(0, 3))) + [F(1)]
        fns.append(PLF(tuple(bps), tuple(value() for _ in bps)))
    t0, v0 = F(5, 12), value()
    fns += [PLF.from_pairs([(0, v0 - s * t0), (1, v0 + s * (1 - t0))])
            for s in (value(), value(), value())]
    f = fns[0]
    fns += [PLF(f.breakpoints, f.values), f + F(1, 10 ** 30),
            f + PLF.from_pairs([(0, 1), (F(1, 2), 0), (1, F(1, 3))])]
    r.shuffle(fns)
    return [(g, r.choice([1, 2, 10 ** 30])) for g in fns]


HUGE_FAMILY = _huge_family()


@given(merge_families())
@example(TWENTY_FOUR_LINES)
@example(PENCIL_AND_VEE)
@example(HUGE_FAMILY)
@settings(max_examples=100, deadline=None)
def test_merge_matches_pairwise_oracle(family):
    assert merge_sorted_branches(family) == pairwise_merge_sorted_branches(family)


def test_merge_evaluates_entries_only_at_base_knots(monkeypatch):
    family = PENCIL_AND_VEE
    base = [F(0), F(1, 2), F(1)]
    calls, walks = count_evaluations(monkeypatch)
    merged = merge_sorted_branches(family)
    # each entry is walked once, at exactly the base knots: 6 x 3 points
    assert [w for w, _ in walks] == [f for f, _ in family]
    assert all(ts == base for _, ts in walks)
    assert sum(len(ts) for _, ts in walks) == len(family) * len(base) == 18
    assert calls == []
    # the merge did cut inside the base intervals, at 1/3 and elsewhere
    assert {F(1, 3)} < set().union(*[f.breakpoints for f, _ in merged]) - set(base)


def test_interval_persistence_small_families(rng):
    # no merged branch covers [c, d] unless an input branch does
    dense = np.linspace(0, 1, 10_000)
    checked = 0
    for _ in range(500):
        fns = [clamp01(random_plf(rng, lo=0, hi=1))
               for _ in range(int(rng.integers(1, 7)))]
        c = F(int(rng.integers(0, 40)), 100)
        d = c + F(int(rng.integers(10, 45)), 100)
        if any(f.covers(c, d) for f in fns):
            continue
        checked += 1
        merged = merge_sorted_branches([(f, 1) for f in fns])
        assert not any(f.covers(c, d) for f, _ in merged)
        stacked = np.sort(np.stack([f.sample(dense) for f in fns]), axis=0)
        exact = np.stack([f.sample(dense) for f, _ in merged])
        assert np.max(np.abs(stacked - exact)) < 1e-12
    assert checked > 70


def test_eigenvalue_list_field_validation():
    with pytest.raises(ValueError):
        EigenvalueListField(exact=(PLF.constant(1), PLF.constant(0)))
    # the tent rises above 1/2 between the constant's knots: only the
    # tent's middle knot shows it
    tent = PLF((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))
    with pytest.raises(ValueError, match="pointwise sorted"):
        EigenvalueListField(exact=(tent, PLF.constant(F(1, 2))))
    EigenvalueListField(exact=(PLF.affine(1), PLF.affine(1), PLF.constant(1)))


def test_eigenvalue_list_field_of_a_merged_family_makes_no_call(monkeypatch):
    merged = [f for f, _ in merge_sorted_branches(TWENTY_FOUR_LINES)]
    # a pair of adjacent branches that meet at a knot of the upper one, with
    # the upper lowered there by 10**-30
    lo, hi, k = next((lo, hi, k) for lo, hi in zip(merged, merged[1:])
                     for k, (t, v) in enumerate(zip(hi.breakpoints, hi.values))
                     if 0 < t < 1 and lo(t) == v)
    lowered = PLF(hi.breakpoints,
                  hi.values[:k] + (hi.values[k] - F(1, 10 ** 30),) + hi.values[k + 1:])
    calls, walks = count_evaluations(monkeypatch)
    EigenvalueListField(exact=tuple(merged))
    for pair in ((TENT, PLF.constant(F(1, 2))), (lo, lowered)):
        with pytest.raises(ValueError, match="pointwise sorted"):
            EigenvalueListField(exact=pair)
    # the check reads stored knots and values only: no call and no walk
    assert calls == [] and walks == []


def pointwise_aligned(f, g):
    """The knot union of two functions and their values there as read before
    the one-walk kernel, kept as the oracle: both functions evaluated
    through __call__ at each knot of either."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return bps, [f(t) for t in bps], [g(t) for t in bps]


TENT = PLF((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))


@given(grid_plfs(), grid_plfs(), huge_grid_plfs())
@example(TENT, PLF.constant(F(1, 2)), PLF.constant(10 ** 30))
@example(PLF.affine(1), PLF.affine(1), PLF.affine(F(10 ** 30 + 1, 7)))
@settings(max_examples=300, deadline=None)
def test_eigenvalue_list_field_agrees_with_the_pointwise_oracle(f, g, h):
    # grid_plfs put knots on the 1/12 grid and values in sixths, so a pair
    # often touches or crosses exactly at a knot of one of them; adding h,
    # with numerators up to 10**30, keeps that order at huge values
    for lo, hi in ((f, g), (g, f), (f, g + F(1, 6)), (g, f + F(1, 6)),
                   (h + f, h + g), (h + g, h + f)):
        bps, va, vb = pointwise_aligned(lo, hi)
        assert _union_values((lo, hi)) == (bps, [va, vb])
        sorted_ = all(a <= b for a, b in zip(va, vb))
        if sorted_:
            EigenvalueListField(exact=(lo, hi))
        else:
            with pytest.raises(ValueError, match="pointwise sorted"):
                EigenvalueListField(exact=(lo, hi))


# ---------------------------------------------------------------------------
# corner padding
# ---------------------------------------------------------------------------

def test_padding_neutral_for_positive_elements():
    e = symbolic_element([(PLF.from_pairs([(0, F(1, 4)), (1, F(3, 4))]), 2)])
    padded = e.padded(5)
    assert padded.total_rank == 7
    assert padded.variation() == e.variation()


def test_padding_rejected_on_sign_crossing():
    f = PLF.from_pairs([(0, -1), (1, 1)])
    e = symbolic_element([(f, 1)])
    with pytest.raises(UnsupportedPaddingError):
        e.padded(1)


def test_symbolic_element_normalization():
    f = PLF.from_pairs([(0, 0), (1, 1)])
    g = PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])  # same function
    e = symbolic_element([(f, 2), (g, 3)])
    assert len(e.entries) == 1
    assert e.entries[0][1] == 5


def test_symbolic_element_merges_two_knot_layouts():
    # two non-canonical layouts of t -> 1 - t, next to a distinct function
    g1 = PLF.from_pairs([(0, 1), (F(1, 3), F(2, 3)), (1, 0)])
    g2 = PLF.from_pairs([(0, 1), (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (1, 0)])
    h = PLF.constant(F(1, 2))
    e = symbolic_element([(g1, 2), (h, 1), (g2, 7)])
    # entries sort by (breakpoints, values): h's values (1/2, 1/2) come first
    assert e.entries == ((h, 1), (PLF.affine(-1, 1), 9))
    assert e.entries[1][0].breakpoints == (0, 1)
