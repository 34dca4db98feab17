import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_plf

from cellab import funalg
from cellab.cel import cel_lower_distinct, cu_upper_bound_path
from cellab.dimdrop import connecting_patterns, membership_check, push_element, tower
from cellab.errors import CoverageError
from cellab.funalg import PiecewiseLinearFn, symbolic_element
from cellab.witness import (
    CuCertificate,
    chi_witness,
    dense_stage_witness_field,
    format_pi,
    jiangsu_witness,
    pan_wang_report,
    pan_wang_witness,
    stage_witness_element,
    verify_cu,
)

PLF = PiecewiseLinearFn
PI = math.pi


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_pi():
    assert format_pi(F(0)) == "0"
    assert format_pi(F(3, 2)) == "3/2·π"
    assert format_pi(F(2)) == "2·π"


# ---------------------------------------------------------------------------
# finite-matrix witness
# ---------------------------------------------------------------------------

def test_pan_wang_k2_matrices():
    w = pan_wang_witness(2)
    f = w.field(65)
    ts = np.linspace(0, 1, 65)
    expect = np.zeros((65, 2, 2), dtype=complex)
    expect[:, 0, 0] = np.exp(1j * PI * ts)
    expect[:, 1, 1] = np.exp(-1j * PI * ts)
    assert np.max(np.abs(f.samples - expect)) < 1e-12


def test_pan_wang_branch_sum_gives_det_one():
    for k in (2, 3, 5):
        w = pan_wang_witness(k)
        total = w.element.weighted_sum()
        assert total.is_constant() and total.values[0] == 0
        det = np.linalg.det(w.field(65).samples)
        assert np.max(np.abs(det - 1)) < 1e-12


def test_pan_wang_k5_exact_bound():
    rep = pan_wang_report(5)
    assert rep.lower_pi == F(8, 5)
    assert rep.paper_target_pi == F(8, 5)
    assert rep.passed


def test_pan_wang_rejects_k1():
    with pytest.raises(ValueError):
        pan_wang_witness(1)


def test_pan_wang_field_samples_top_then_k_minus_1_low_branches():
    # the witness holds its two branches; the field is diag(e^{2 pi i h_j})
    # over the top branch and k - 1 copies of the low one, bit for bit
    from cellab.numerics import TWO_PI, SampledMatrixField

    ts = np.linspace(0.0, 1.0, 129)
    for k in (2, 3, 8):
        w = pan_wang_witness(k)
        assert w.branches == (w.top,) + (w.low,) * (k - 1)
        angles = np.stack([TWO_PI * w.top.sample(ts)]
                          + [TWO_PI * w.low.sample(ts)] * (k - 1), axis=1)
        assert np.array_equal(w.field(129).samples,
                              SampledMatrixField.diagonal_unitary(angles).samples)


def test_pan_wang_report_memory_does_not_grow_with_k():
    # the report reads two branches and their multiplicities, never a
    # k-entry branch tuple (which took 16 MB at k = 10**6)
    pan_wang_report(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = pan_wang_report(10**6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.lower_pi == F(2 * (10**6 - 1), 10**6) and rep.passed
    assert peak < 1 << 20


def test_pan_wang_report_with_dense_upper():
    rep = pan_wang_report(3, grid_size=257, with_dense=True)
    assert rep.upper <= 4 * PI / 3 + 1e-2
    assert rep.extras["endpoint_error"] <= 1e-2
    assert float(rep.lower_pi) * PI <= rep.upper


# ---------------------------------------------------------------------------
# chi witness
# ---------------------------------------------------------------------------

def test_chi_witness_l100_exact():
    x = symbolic_element([(PLF.identity(), 1)])
    element, rep = chi_witness(100, x, F(3, 10), F(7, 10))
    assert rep.lower_pi == F(99, 50)
    assert rep.passed and rep.cu.exact and rep.cu.passed
    # one chi2 block and L-1 chi1 blocks
    mults = sorted(m for _, m in element.entries)
    assert mults == [1, 99]


def test_chi_witness_l2_half_bound():
    x = symbolic_element([(PLF.identity(), 1)])
    # exact evaluation of the min-max on the branch -t/2 (times 2 pi):
    # range [-pi, 0] -> distance pi at every shift
    _, rep = chi_witness(2, x, F(0), F(1))
    assert rep.lower_pi == 1


def test_chi_witness_constant_branch_rejected():
    x = symbolic_element([(PLF.constant(F(1, 2)), 1)])
    with pytest.raises(CoverageError, match="uncovered"):
        chi_witness(4, x, F(3, 10), F(7, 10))


def test_chi_witness_padding_keeps_bound():
    x = symbolic_element([(PLF.identity(), 1)])
    el_pad, rep_pad = chi_witness(7, x, F(1, 4), F(3, 4), pad=5)
    el, rep = chi_witness(7, x, F(1, 4), F(3, 4))
    assert rep_pad.lower_pi == rep.lower_pi
    assert el_pad.total_rank == el.total_rank + 5


def test_chi_witness_bound_monotone_in_L():
    x = symbolic_element([(PLF.identity(), 1)])
    prev = F(0)
    for L in (2, 3, 5, 11, 64, 301):
        _, rep = chi_witness(L, x, F(3, 10), F(7, 10))
        assert rep.lower_pi > prev
        assert rep.lower_pi < 2
        prev = rep.lower_pi


def test_chi_witness_multibranch_source():
    up = PLF.identity()
    down = PLF.from_pairs([(0, 1), (1, 0)])
    x = symbolic_element([(up, 2), (down, 3)])
    element, rep = chi_witness(4, x, F(2, 10), F(8, 10))
    assert rep.lower_pi == F(3, 2)
    assert element.total_rank == 4 * x.total_rank


def loop_chi_element(L, x, c, d, pad=0):
    """The chi witness element by an explicit loop over x's branches (the
    construction before chi_witness went through compose_spectral): the
    oracle for that push."""
    chi, chi1, chi2 = funalg.chi_family(L, c, d)
    w2 = chi2.compose(chi)
    w1 = chi1.compose(chi)
    entries = []
    for h, m in x.entries:
        entries.append((w2.compose(h), m))
        entries.append((w1.compose(h), (L - 1) * m))
    element = symbolic_element(entries)
    return element.padded(pad) if pad else element


def _random_unit_plf(rng: random.Random) -> PiecewiseLinearFn:
    bps = [0] + sorted(rng.sample(range(1, 12), rng.randint(0, 3))) + [12]
    return PLF.from_pairs([(F(t, 12), F(rng.randint(0, 10), 10)) for t in bps])


@pytest.mark.parametrize("pad", (0, 3))
@pytest.mark.parametrize("branches", (1, 2, 3, 4))
def test_chi_witness_matches_the_branch_loop(branches, pad):
    rng = random.Random(100 * branches + pad)
    for _ in range(12):
        c = F(rng.randint(0, 6), 10)
        d = c + F(rng.randint(1, 10 - int(10 * c)), 10)
        ends = (F(rng.randint(0, int(10 * c)), 10),
                F(rng.randint(int(10 * d), 10), 10))
        cover = PLF.from_pairs(zip((0, 1), ends[::rng.choice((1, -1))]))
        x = symbolic_element([(cover, rng.randint(1, 3))]
                             + [(_random_unit_plf(rng), rng.randint(1, 3))
                                for _ in range(branches - 1)])
        L = rng.choice((2, 3, 7, 100))
        element, _ = chi_witness(L, x, c, d, pad=pad)
        assert element == loop_chi_element(L, x, c, d, pad)


# ---------------------------------------------------------------------------
# determinant-1 certificates
# ---------------------------------------------------------------------------

def test_verify_cu_exact_pass_on_witnesses():
    for k in (2, 4):
        cert = verify_cu(pan_wang_witness(k).element)
        assert cert.exact and cert.passed and cert.winding == 0


def test_verify_cu_chi_blocks_cancel():
    x = symbolic_element([(PLF.identity(), 1)])
    element, _ = chi_witness(5, x, F(1, 10), F(9, 10))
    cert = verify_cu(element)
    assert cert.exact and cert.passed


def test_verify_cu_fails_with_residual_function():
    e = symbolic_element([(PLF.identity(), 1), (PLF.constant(0), 1)])
    cert = verify_cu(e)
    assert cert.exact and not cert.passed
    assert "1)" in cert.residual or "PiecewiseLinearFn" in cert.residual


def test_verify_cu_rejects_non_symbolic_input():
    with pytest.raises(TypeError):
        verify_cu(pan_wang_witness(3).field(129))


def test_verify_cu_constant_winding_integer():
    # constant sum 1 is still a determinant-1 element (winding 1)
    e = symbolic_element([(PLF.affine(F(1, 2)), 1),
                          (PLF.from_pairs([(0, 1), (1, F(1, 2))]), 1)])
    cert = verify_cu(e)
    assert cert.passed and cert.winding == 1


# ---------------------------------------------------------------------------
# dimension-drop tower witness
# ---------------------------------------------------------------------------

def test_jiangsu_n2_top_branch():
    rep = jiangsu_witness(1, 2)
    top = rep.extras["top_branch"]
    assert top == PLF.from_pairs([(0, F(1, 3)), (1, F(2, 3))])
    assert top.max_value() == F(2, 3)
    assert rep.extras["top_multiplicity"] == "26"


def test_jiangsu_n3_floor_is_pi():
    rep = jiangsu_witness(1, 3)
    assert rep.lower_pi == F(1)
    assert rep.passed
    assert rep.extras["dichotomy_violations"] == 0
    assert rep.extras["boundary_ok"]


def test_jiangsu_floor_formula_and_monotone():
    prev = F(0)
    for n in (2, 3, 4):
        rep = jiangsu_witness(1, n)
        pow2 = 1 << (n - 1)
        assert rep.lower_pi == F(2 * 2 * (pow2 - 1), 3 * pow2)
        assert rep.lower_pi > prev
        prev = rep.lower_pi


def test_jiangsu_block_padding_agrees():
    r1 = jiangsu_witness(1, 2, block_k=1)
    r3 = jiangsu_witness(1, 2, block_k=3)
    assert r1.lower_pi == r3.lower_pi
    assert r1.extras["top_branch"] == r3.extras["top_branch"]
    assert int(r3.extras["total_rank"]) == 3 * int(r1.extras["total_rank"])


def test_jiangsu_bottom_branch_formula():
    rep = jiangsu_witness(1, 3)
    bottom = rep.extras["bottom_branch"]
    assert bottom == PLF.from_pairs([(0, F(-3, 12)), (1, F(-1, 3))])


def test_jiangsu_envelope_and_ordered_log():
    rep = jiangsu_witness(1, 2)
    assert rep.extras["envelope_ok"]
    # the window bound on the pushed element itself is stronger than the
    # case floor at n=2
    assert rep.extras["ordered_log_pi"] == F(4, 3)
    rep3 = jiangsu_witness(1, 3)
    assert rep3.extras["ordered_log_pi"] >= rep3.lower_pi


def test_jiangsu_merges_pushed_element_once(monkeypatch):
    calls = []
    merge = funalg.merge_sorted_branches

    def counting(entries):
        calls.append(len(entries))
        return merge(entries)

    monkeypatch.setattr(funalg, "merge_sorted_branches", counting)
    rep = jiangsu_witness(1, 4)
    assert rep.passed
    assert len(calls) == 1


def test_jiangsu_from_higher_stage():
    stages = tower(3)
    rep = jiangsu_witness(2, 3)
    q2 = stages[1].q
    assert rep.lower_pi == F(2 * (q2 - 1), 2 * q2)
    assert rep.passed
    # the interior-window count claim is arithmetically false beyond the
    # first stage (h_top o (t/2) already leaves [-1/q, 1/q]); the report
    # carries the honest flag rather than asserting it
    assert rep.extras["envelope_ok"] is False


def test_jiangsu_rejects_bad_indices():
    with pytest.raises(ValueError):
        jiangsu_witness(2, 2)
    with pytest.raises(ValueError):
        jiangsu_witness(1, 2, block_k=0)


def test_stage_witness_element_rank():
    s1 = tower(1)[0]
    e = stage_witness_element(s1)
    assert e.total_rank == 6
    assert verify_cu(e).passed


def _folded_sum(e):
    # the weighted branch sum as a fold of exact additions
    acc = funalg.ZERO_FN
    for f, m in e.entries:
        acc = acc + f.scale(m)
    return acc


def test_weighted_sum_matches_the_fold(rng):
    for _ in range(100):
        e = symbolic_element([(random_plf(rng, n_knots=int(rng.integers(2, 7))),
                               int(rng.integers(1, 10 ** 12)))
                              for _ in range(int(rng.integers(1, 6)))])
        assert e.weighted_sum() == _folded_sum(e)
    # the largest Jiang-Su push: stage 1 to stage 7, 254 distinct entries
    stages = tower(7)
    pushed = push_element(stage_witness_element(stages[0]),
                          connecting_patterns(stages, 1, 7))
    assert len(pushed.entries) == 254
    total = pushed.weighted_sum()
    assert total == _folded_sum(pushed)
    assert total.breakpoints == (0, 1) and total.values == (0, 0)


# ---------------------------------------------------------------------------
# dense realization and oracle agreement
# ---------------------------------------------------------------------------

def test_dense_witness_membership_and_bounds():
    s1 = tower(1)[0]
    f = dense_stage_witness_field(s1, 513)
    assert membership_check(f, s1.algebra()).ok
    low = cel_lower_distinct(f)
    assert abs(low.lower - 4 * PI / 3) < 1e-5
    res = cu_upper_bound_path(f)
    assert low.lower <= res.length + 1e-6
    assert res.length <= 2 * PI * F(5, 6) + 1e-2


def test_dense_witness_respects_limit():
    s2 = tower(2)[1]
    with pytest.raises(ValueError):
        dense_stage_witness_field(s2, 65)


# ---------------------------------------------------------------------------
# report wire format
# ---------------------------------------------------------------------------

def test_witness_report_json_contract():
    rep = pan_wang_report(4)
    obj = rep.to_json_obj()
    assert obj["witness_id"] == "pan-wang"
    assert obj["paper_target"] == "3/2·π"
    assert obj["lower"] == "3/2·π"
    assert obj["upper"] == "inf"
    assert obj["cu"] == {"exact": True, "passed": True, "residual": "0",
                         "winding": 0}
    assert obj["pass"] is True
    json.dumps(obj)  # serializable


def test_jiangsu_report_json_big_integers():
    rep = jiangsu_witness(1, 3)
    obj = rep.to_json_obj()
    assert obj["lower"] == "1·π"
    assert isinstance(obj["extras"]["total_rank"], str)
    assert int(obj["extras"]["total_rank"]) == 6 * 221 * tower(3)[2].k
    json.dumps(obj)


def test_cu_certificate_json():
    c = CuCertificate(exact=True, passed=True, residual="0", winding=0)
    assert c.to_json_obj()["exact"] is True
