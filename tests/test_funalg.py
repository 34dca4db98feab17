import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellab.errors import DomainRangeError, UnsupportedPaddingError
from cellab.funalg import (
    EigenvalueListField,
    PiecewiseLinearFn,
    PSetPoint,
    chi_family,
    compose_spectral,
    determinant_field,
    eigenvalue_list,
    eigenvalue_variation,
    functional_calculus,
    kth_lowest_merge,
    merge_sorted_branches,
    pset_distance,
    pset_distance_circle,
    symbolic_element,
)
from cellab.numerics import SampledMatrixField, random_hermitian, random_unitary

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
    assert f != g.shift(F(1, 100))


@given(plfs(), plfs(), unit_interior)
@settings(max_examples=60, deadline=None)
def test_plf_pointwise_algebra(f, g, t):
    assert (f + g)(t) == f(t) + g(t)
    assert (f - g)(t) == f(t) - g(t)
    assert f.scale(F(3, 7))(t) == f(t) * F(3, 7)


@given(plfs(lo=0, hi=1), plfs(lo=0, hi=1), unit_interior)
@settings(max_examples=60, deadline=None)
def test_plf_compose_pointwise(f, g, t):
    lo, hi = g.range()
    if lo < 0 or hi > 1:
        with pytest.raises(DomainRangeError):
            f.compose(g)
    else:
        assert f.compose(g)(t) == f(g(t))


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
# eigenvalue lists on sampled fields
# ---------------------------------------------------------------------------

def _diag_field(branches, grid=65):
    ts = np.linspace(0.0, 1.0, grid)
    vals = np.stack([np.polyval(b, ts) for b in branches], axis=1)
    samples = np.zeros((grid, len(branches), len(branches)))
    idx = np.arange(len(branches))
    samples[:, idx, idx] = vals
    return SampledMatrixField(samples.astype(complex), "selfadjoint")


def test_eigenvalue_list_two_crossing_lines():
    # diag(t, 1-t): branches are min and max of the two lines
    f = _diag_field([[1.0, 0.0], [-1.0, 1.0]])
    e = eigenvalue_list(f)
    ts = np.linspace(0, 1, f.grid_size)
    assert np.allclose(e.samples[0], np.minimum(ts, 1 - ts), atol=1e-12)
    assert np.allclose(e.samples[1], np.maximum(ts, 1 - ts), atol=1e-12)
    assert abs(eigenvalue_variation(f) - 0.5) < 1e-12


def test_eigenvalue_list_constant():
    f = SampledMatrixField.constant(np.diag([1.0, 2.0, 3.0]), 17, "selfadjoint")
    e = eigenvalue_list(f)
    assert np.allclose(e.samples, [[1], [2], [3]] * np.ones((3, 17)))
    assert eigenvalue_variation(f) == 0


def test_eigenvalue_list_trace_identity(rng):
    samples = np.stack([random_hermitian(rng, 4) for _ in range(33)])
    f = SampledMatrixField(samples, "selfadjoint")
    e = eigenvalue_list(f)
    traces = np.einsum("bii->b", samples).real
    assert np.max(np.abs(e.samples.sum(axis=0) - traces)) < 1e-9


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
# functional calculus
# ---------------------------------------------------------------------------

def test_functional_calculus_identity_leaves_field(rng):
    w = np.sort(rng.uniform(0.05, 0.95, size=3))
    q = random_unitary(rng, 3)
    samples = np.tile(q @ np.diag(w) @ q.conj().T, (9, 1, 1))
    f = SampledMatrixField(samples, "selfadjoint")
    out = functional_calculus(f, PLF.identity())
    assert np.max(np.abs(out.samples - f.samples)) < 1e-10


def test_functional_calculus_chi_on_identity_branch():
    chi, _, _ = chi_family(4, F(3, 10), F(7, 10))
    e = symbolic_element([(PLF.identity(), 1)])
    out = functional_calculus(e, chi)
    assert out.entries[0][0] == chi  # chi o id == chi
    # plateau values: 0 before c, affine to 1 on [c, d], 1 after
    assert out.entries[0][0](F(1, 10)) == 0
    assert out.entries[0][0](F(1, 2)) == F(1, 2)
    assert out.entries[0][0](F(9, 10)) == 1


def test_functional_calculus_chi2_slope():
    L = 5
    _, _, chi2 = chi_family(L, F(0), F(1))
    e = symbolic_element([(PLF.identity(), 2)])
    out = functional_calculus(e, chi2)
    assert out.entries[0][0] == PLF.affine(F(1, L) - 1)
    assert out.entries[0][1] == 2


def test_functional_calculus_domain_error():
    e = symbolic_element([(PLF.affine(2), 1)])
    with pytest.raises(DomainRangeError):
        functional_calculus(e, PLF.identity())


def test_functional_calculus_sampled_matches_symbolic(rng):
    chi, _, _ = chi_family(3, F(1, 4), F(3, 4))
    ts = np.linspace(0, 1, 33)
    samples = np.zeros((33, 2, 2), dtype=complex)
    samples[:, 0, 0] = ts
    samples[:, 1, 1] = 1 - ts
    f = SampledMatrixField(samples, "selfadjoint")
    out = functional_calculus(f, chi)
    expect0 = chi.sample(ts)
    assert np.max(np.abs(out.samples[:, 0, 0].real - expect0)) < 1e-12


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
    u = SampledMatrixField.identity(3, 9)
    assert np.allclose(determinant_field(u), 1.0, atol=1e-14)


def test_determinant_scalar_winding():
    ts = np.linspace(0, 1, 65)
    u = SampledMatrixField.diagonal_unitary((2 * math.pi * ts)[:, None])
    det = determinant_field(u)
    assert np.max(np.abs(det - np.exp(2j * math.pi * ts))) < 1e-12


def test_determinant_extremal_witness_is_one():
    from cellab.witness import pan_wang_witness
    u = pan_wang_witness(3).field(129)
    det = determinant_field(u)
    assert np.max(np.abs(det - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# point multisets
# ---------------------------------------------------------------------------

def test_pset_trivials():
    assert pset_distance([0, 1], [1, 0]) == 0
    assert pset_distance([F(1, 3)], [F(1, 3)]) == 0
    with pytest.raises(ValueError):
        pset_distance([1], [1, 2])


def test_pset_brute_force_oracle(rng):
    # exhaustive minimum over all 120 pairings of 5 points
    for _ in range(25):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        brute = min(max(abs(a - b) for a, b in zip(x, perm))
                    for perm in itertools.permutations(y))
        assert abs(pset_distance(list(x), list(y)) - brute) < 1e-12


def test_pset_triangle_inequality(rng):
    for _ in range(40):
        x, y, z = (sorted(rng.standard_normal(4)) for _ in range(3))
        dxy = pset_distance(x, y)
        dyz = pset_distance(y, z)
        dxz = pset_distance(x, z)
        assert dxz <= dxy + dyz + 1e-12


def test_pset_circle_against_brute_force(rng):
    for _ in range(25):
        x = rng.uniform(-math.pi, math.pi, 4)
        y = rng.uniform(-math.pi, math.pi, 4)

        def circ(a, b):
            d = abs((a - b) % (2 * math.pi))
            return min(d, 2 * math.pi - d)

        brute = min(max(circ(a, b) for a, b in zip(x, perm))
                    for perm in itertools.permutations(y))
        assert abs(pset_distance_circle(x, y) - brute) < 1e-12


def test_psetpoint_wrapper():
    p = PSetPoint((F(1), F(0)))
    q = PSetPoint((F(0), F(2)))
    assert p.distance(q) == 1
    assert p.cardinality == 2


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


def test_compose_spectral_ev_monotone(rng):
    from cellab.acceptance import _clamp01, _random_patterns, _random_plf
    for _ in range(100):
        entries = [(_clamp01(_random_plf(rng, lo=0, hi=1)),
                    int(rng.integers(1, 4)))
                   for _ in range(int(rng.integers(1, 4)))]
        src = symbolic_element(entries)
        out = compose_spectral(_random_patterns(rng), src)
        assert out.variation() <= src.variation()


# ---------------------------------------------------------------------------
# k-th lowest merge
# ---------------------------------------------------------------------------

def test_merge_two_lines():
    up = PLF.from_pairs([(0, 0), (1, 1)])
    down = PLF.from_pairs([(0, 1), (1, 0)])
    e = kth_lowest_merge([(up, 1), (down, 1)])
    lo, hi = e.exact
    assert lo == PLF.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 0)]).simplified()
    assert hi == PLF.from_pairs([(0, 1), (F(1, 2), F(1, 2)), (1, 1)]).simplified()


def test_merge_single_function():
    f = PLF.from_pairs([(0, F(1, 3)), (1, F(2, 3))])
    e = kth_lowest_merge([(f, 1)])
    assert e.exact == (f,)


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


def test_interval_persistence_small_families(rng):
    # no merged branch covers [c, d] unless an input branch does
    dense = np.linspace(0, 1, 10_000)
    from cellab.acceptance import _clamp01, _random_plf
    checked = 0
    for _ in range(150):
        fns = [_clamp01(_random_plf(rng, lo=0, hi=1))
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
    assert checked > 20


def test_eigenvalue_list_field_validation():
    with pytest.raises(ValueError):
        EigenvalueListField(exact=(PLF.constant(1), PLF.constant(0)))
    with pytest.raises(ValueError):
        EigenvalueListField()


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
