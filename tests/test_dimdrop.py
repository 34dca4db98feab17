import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_field, identity_field, random_unitary

from cellab import dimdrop
from cellab.dimdrop import (
    DimDropAlgebra,
    Pattern,
    PatternMultiset,
    TowerStage,
    _bpsw,
    _isprime,
    _nextprime,
    boundary_check,
    compose_patterns,
    connecting_patterns,
    dichotomy_modular_count,
    dichotomy_violations,
    initial_stage,
    membership_check,
    next_stage,
    one_step_patterns,
    push_element,
    stage_to_json_obj,
    tower,
    tower_to_json_obj,
    validate_stage_step,
)
from cellab.cli import main
from cellab.funalg import PiecewiseLinearFn, symbolic_element
from cellab.numerics import SampledMatrixField
from cellab.witness import jiangsu_witness

PLF = PiecewiseLinearFn


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def test_initial_stage_values():
    s = initial_stage()
    assert (s.p, s.q, s.d) == (2, 3, 6)
    assert math.gcd(s.p, s.q) == 1
    assert s.d == s.p * s.q
    assert not s.has_transition


def test_next_stage_prime_search_oracle():
    # independent prime search by trial division: first two primes > 12
    cands = [n for n in range(13, 40) if _trial_division_prime(n)]
    assert cands[:2] == [13, 17]
    s2 = next_stage(initial_stage())
    assert (s2.k0, s2.k1) == (13, 17)
    assert (s2.p, s2.q, s2.d) == (26, 51, 1326)


def test_next_stage_residue_brute_force_oracle():
    # scan the congruence directly: the unique r in (0, q2] with q2 | (k - r)
    s2 = next_stage(initial_stage())
    k = 13 * 17
    r0 = next(r for r in range(1, 52) if (k - r) % 51 == 0)
    r1 = next(r for r in range(1, 27) if (k - r) % 26 == 0)
    assert (r0, r1) == (17, 13)
    assert (s2.r0, s2.r1) == (r0, r1)


def test_stage_invariants_through_four():
    stages = tower(4)
    for prev, cur in zip(stages, stages[1:]):
        validate_stage_step(prev, cur)
        assert math.gcd(cur.p, cur.q) == 1
        assert (cur.r0 * prev.q) % cur.q == 0
        assert (cur.r1 * prev.p) % cur.p == 0
        assert cur.d == cur.k0 * cur.k1 * prev.d
        assert cur.k0 != cur.k1
        assert _trial_division_prime(cur.k0) or cur.k0 > 10 ** 6
    # stage growth leaves 64-bit range by stage 4->5 data
    assert stages[3].d > 2 ** 64


def test_stage_validation_errors():
    with pytest.raises(ValueError):
        TowerStage(index=1, p=2, q=4, d=8)
    with pytest.raises(ValueError):
        TowerStage(index=1, p=2, q=3, d=7)
    with pytest.raises(ValueError):
        TowerStage(index=2, p=2, q=3, d=6, k0=5)


# sha256 of the compact sorted-key JSON of stages 1-7, taken with sympy's
# prime search before the in-house one replaced it
TOWER7_SHA256 = "03c09e9e8302ca902c981dad3936e98a2ba19b1505e61a4de970e9b4f6effa05"


def test_tower_seven_stages_frozen_digest():
    text = json.dumps(tower_to_json_obj(tower(7)), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TOWER7_SHA256


def _stage_from(prev: TowerStage, k0: int, k1: int) -> TowerStage:
    """A successor with the given factors and sizes and residues made
    consistent, so only the prime conditions can be wrong."""
    p, q = k0 * prev.p, k1 * prev.q
    k = k0 * k1
    return TowerStage(index=prev.index + 1, p=p, q=q, d=p * q, k0=k0, k1=k1,
                      r0=k % q or q, r1=k % p or p)


def test_validate_stage_step_rejects_composite_k0():
    prev, cur = tower(4)[2:4]
    assert _stage_from(prev, cur.k0, cur.k1) == cur
    # no factor below 2^16, so only the BPSW stage can reject it
    a = _nextprime(math.isqrt(2 * prev.d))
    bad = _stage_from(prev, a * _nextprime(a), cur.k1)
    with pytest.raises(AssertionError, match="must be prime"):
        validate_stage_step(prev, bad)


def test_validate_stage_step_rejects_skipped_prime_k1():
    prev, cur = tower(4)[2:4]
    bad = _stage_from(prev, cur.k0, _nextprime(cur.k1))
    with pytest.raises(AssertionError, match="first two primes"):
        validate_stage_step(prev, bad)


def test_validate_stage_step_refuses_a_search_that_skips_a_prime(monkeypatch):
    # a window sieve that also strikes a small prime p itself skips 13 above
    # 12 and gives stage 2 as (17, 19); the validator must not trust the
    # search. next_stage is called directly, so no faulty stage is cached.
    search = dimdrop._nextprime
    monkeypatch.setattr(dimdrop, "_nextprime",
                        lambda n: search(13) if search(n) == 13 else search(n))
    prev = initial_stage()
    bad = next_stage(prev)
    assert (bad.k0, bad.k1) == (17, 19)
    with pytest.raises(AssertionError, match="not the first two primes above 2d"):
        validate_stage_step(prev, bad)


@pytest.fixture
def counted_next_stage(monkeypatch):
    """Indices of the stages next_stage builds, from an empty stage cache."""
    built = []
    build = dimdrop.next_stage

    def counting(s):
        built.append(s.index + 1)
        return build(s)

    dimdrop._stage.cache_clear()
    monkeypatch.setattr(dimdrop, "next_stage", counting)
    yield built
    dimdrop._stage.cache_clear()


def test_tower_builds_each_stage_once_per_process(counted_next_stage):
    tower(4)
    tower(4)
    jiangsu_witness(1, 4)
    assert main(["tower", "--stages", "4"]) == 0
    assert counted_next_stage == [2, 3, 4]


def test_tower_cap_refused_before_any_stage(counted_next_stage):
    with pytest.raises(ValueError, match="MAX_STAGES"):
        tower(9)
    assert counted_next_stage == []


def test_tower_returns_a_fresh_list():
    tower(3).append(initial_stage())
    assert len(tower(3)) == 3


# ---------------------------------------------------------------------------
# prime search
# ---------------------------------------------------------------------------

# 1093^2 and 3511^2 are squares of the Wieferich primes; 3825123056546413051
# is a strong pseudoprime to every prime base up to 23 and has no factor
# below 2^16, so only the Lucas half can reject it
STRONG_BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 1093 ** 2,
                             3511 ** 2, 3215031751, 3825123056546413051)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)
CARMICHAEL = (561, 1105, 1729)


@pytest.mark.parametrize("n", STRONG_BASE2_PSEUDOPRIMES
                         + STRONG_LUCAS_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not _isprime(n)
    # each half of BPSW rejects the other half's pseudoprimes
    assert not _bpsw(n)


@pytest.mark.parametrize("e", (521, 607, 1279))
def test_mersenne_primes(e):
    assert _isprime(2 ** e - 1)
    assert not _isprime(2 ** e + 1)


def test_prime_search_small_values():
    assert [n for n in range(30) if _isprime(n)] == [2, 3, 5, 7, 11, 13, 17,
                                                      19, 23, 29]
    assert [_nextprime(n) for n in (-5, 0, 1, 2, 3, 65520, 65521)] == [
        2, 2, 2, 3, 5, 65521, 65537]
    assert _nextprime(2 ** 32 - 6) == 2 ** 32 - 5
    assert _nextprime(2 ** 32 - 5) == 2 ** 32 + 15


def test_prime_search_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [_isprime(n) for n in range(10 ** 5)] == [
        sympy.isprime(n) for n in range(10 ** 5)]
    rng = random.Random(20260418)
    for _ in range(2000):
        n = rng.randrange(10 ** rng.randint(1, 60))
        assert _nextprime(n) == sympy.nextprime(n), n


def test_import_cli_does_not_load_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, cellab.cli; sys.exit('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def test_pattern_values_and_validation():
    assert Pattern("const", 1, 1).value(F(0)) == F(1, 2)
    assert Pattern("affine", 0, 1).value(F(1, 3)) == F(1, 6)
    assert Pattern("affine", 1, 1).value(F(1)) == 1
    with pytest.raises(ValueError):
        Pattern("const", 0, 1)
    with pytest.raises(ValueError):
        Pattern("affine", 2, 1)
    with pytest.raises(ValueError):
        Pattern("oops", 0, 1)


def test_one_step_patterns_stage1_transition():
    s2 = tower(2)[1]
    p = one_step_patterns(s2)
    table = {(pat.kind, pat.l): m for pat, m in p.entries}
    assert table == {("affine", 0): 17, ("const", 1): 191, ("affine", 1): 13}
    assert p.total == 221
    assert p.endpoint_values(0) == {F(0): 17, F(1, 2): 204}
    assert p.endpoint_values(1) == {F(1, 2): 208, F(1): 13}


def test_one_step_patterns_requires_transition():
    with pytest.raises(ValueError):
        one_step_patterns(initial_stage())


def test_compose_with_identity_multiset():
    s2 = tower(2)[1]
    p = one_step_patterns(s2)
    ident = PatternMultiset(entries=((Pattern("affine", 0, 0), 1),),
                            level=0, src_index=0, dst_index=1)
    out = compose_patterns(ident, p)
    assert out.entries == p.entries
    assert out.level == p.level


def test_affine_composition_quarters():
    half = Pattern("affine", 0, 1)
    assert half.compose(half) == Pattern("affine", 0, 2)  # (t/2)/2 = t/4
    top = Pattern("affine", 1, 1)
    assert top.compose(top) == Pattern("affine", 3, 2)    # (t+3)/4
    assert top.compose(Pattern("const", 1, 1)) == Pattern("const", 3, 2)
    assert Pattern("const", 1, 1).compose(top) == Pattern("const", 2, 2)


def test_composed_pattern_grammar_closed():
    stages = tower(3)
    p13 = connecting_patterns(stages, 1, 3)
    assert p13.level == 2
    for pat, mult in p13.entries:
        assert pat.r == 2
        if pat.kind == "const":
            assert 0 < pat.l < 4
        else:
            assert 0 <= pat.l < 4
        assert mult > 0
    assert p13.total == stages[1].k * stages[2].k


def test_unitality_of_composites():
    stages = tower(3)
    for m in (1, 2):
        for n in range(m + 1, 4):
            p = connecting_patterns(stages, m, n)
            assert p.total == stages[n - 1].d // stages[m - 1].d


def test_boundary_divisibility_level_three_bigints():
    stages = tower(3)
    p13 = connecting_patterns(stages, 1, 3)
    rep = boundary_check(p13, target=stages[2], source=stages[0])
    assert rep.ok
    # every weighted count divides exactly
    for row in rep.at_zero:
        assert row.weighted % stages[2].q == 0
        assert row.weighted // row.modulus >= 1
    for row in rep.at_one:
        assert row.weighted % stages[2].p == 0


def test_boundary_check_one_step_quotients():
    stages = tower(2)
    p = one_step_patterns(stages[1])
    rep = boundary_check(p, target=stages[1], source=stages[0])
    assert rep.ok
    by_value = {row.value: row for row in rep.at_zero}
    # the 0-valued count is weighted by the source q: 17 * 3 = 51
    assert by_value[F(0)].weighted == 51
    assert by_value[F(0)].weighted // by_value[F(0)].modulus == 1
    assert by_value[F(1, 2)].weighted == 204


def test_boundary_check_adversarial_violation():
    src = TowerStage(index=1, p=1, q=1, d=1)
    dst = TowerStage(index=2, p=1, q=3, d=3)
    bad = PatternMultiset(entries=((Pattern("affine", 0, 1), 1),),
                          level=1, src_index=1, dst_index=2)
    rep = boundary_check(bad, target=dst, source=src)
    assert not rep.ok
    v = next(r for r in rep.at_zero + rep.at_one if not r.ok)
    assert v.value == 0 and v.weighted == 1 and v.modulus == 3


def test_boundary_check_identity_modulus_one():
    src = TowerStage(index=1, p=1, q=1, d=1)
    dst = TowerStage(index=2, p=1, q=1, d=1)
    ident = PatternMultiset(entries=((Pattern("affine", 0, 0), 1),),
                            level=0, src_index=1, dst_index=2)
    assert boundary_check(ident, target=dst, source=src).ok


def test_compose_rejects_mismatched_chain():
    stages = tower(3)
    p12 = one_step_patterns(stages[1])
    with pytest.raises(ValueError):
        compose_patterns(p12, p12)


# ---------------------------------------------------------------------------
# push-forward
# ---------------------------------------------------------------------------

def test_push_constant_branch():
    stages = tower(2)
    p = one_step_patterns(stages[1])
    e = symbolic_element([(PLF.constant(F(1, 3)), 2)])
    out = push_element(e, p)
    assert len(out.entries) == 1
    assert out.entries[0][0] == PLF.constant(F(1, 3))
    assert out.entries[0][1] == 2 * 221


def test_push_witness_branch_mu_formula():
    # (q-1)t/q through (t + 2^r - 1)/2^r gives the mu formula
    stages = tower(3)
    q = 3
    h = PLF.affine(F(q - 1, q))
    for n in (2, 3):
        r = n - 1
        pats = connecting_patterns(stages, 1, n)
        out = push_element(symbolic_element([(h, 1)]), pats)
        top = Pattern("affine", (1 << r) - 1, r).plf()
        mu = h.compose(top)
        den = q * (1 << r)
        expect = PLF.from_pairs([(0, F((q - 1) * ((1 << r) - 1), den)),
                                 (1, F(q - 1, q))])
        assert mu == expect
        assert any(f == expect for f, _ in out.entries)


def test_push_ev_never_increases(rng):
    stages = tower(2)
    pats = one_step_patterns(stages[1])
    for _ in range(25):
        from cellab.acceptance import _clamp01, _random_plf
        e = symbolic_element(
            [(_clamp01(_random_plf(rng, lo=0, hi=1)), int(rng.integers(1, 3)))
             for _ in range(int(rng.integers(1, 3)))])
        out = push_element(e, pats)
        assert out.variation() <= e.variation()
        assert out.total_rank == e.total_rank * 221


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_scalar_field():
    alg = DimDropAlgebra(2, 6, 3)
    f = constant_field((0.3 + 0.1j) * np.eye(6), 9)
    assert membership_check(f, alg).ok


def test_membership_block_structured_field(rng):
    alg = DimDropAlgebra(2, 6, 3)
    a = np.array([[0.2, 0.1], [0.1, -0.4]], dtype=complex)   # M_2 at t=0
    b = np.diag([1.0, 2.0, 3.0]).astype(complex)             # M_3 at t=1
    grid = 17
    samples = np.zeros((grid, 6, 6), dtype=complex)
    samples[0] = np.kron(np.eye(3), a)       # a (x) 1_3
    samples[-1] = np.kron(b, np.eye(2))      # 1_2 (x) b
    for i in range(1, grid - 1):
        q = random_unitary(rng, 6)
        samples[i] = q @ np.diag(rng.standard_normal(6)).astype(complex) \
            @ q.conj().T
    f = SampledMatrixField(samples, "general")
    assert membership_check(f, alg).ok


def test_membership_rejects_with_located_entry():
    alg = DimDropAlgebra(2, 6, 3)
    samples = np.zeros((5, 6, 6), dtype=complex)
    samples[0, 0, 2] = 0.5  # breaks the tensor block pattern at t=0
    rep = membership_check(SampledMatrixField(samples, "general"), alg)
    assert not rep.ok
    assert rep.endpoint == 0
    assert rep.entry == (0, 2)
    assert rep.defect == pytest.approx(0.5)


def test_membership_dim_mismatch():
    alg = DimDropAlgebra(2, 6, 3)
    with pytest.raises(ValueError):
        membership_check(identity_field(4, 5), alg)


def test_dimdrop_algebra_rejects_nondividing_blocks():
    with pytest.raises(ValueError):
        DimDropAlgebra(4, 6, 3)


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_small_brute_force():
    brute = [K for K in range(1, 6) if K % 3 == 0 and (6 - K) % 2 == 0]
    assert list(dichotomy_violations(2, 3)) == brute == []


def test_dichotomy_stage2_scan():
    assert len(dichotomy_violations(26, 51)) == 0
    assert dichotomy_modular_count(26, 51) == 0


def test_dichotomy_precondition_error():
    with pytest.raises(ValueError, match="coprime"):
        dichotomy_violations(2, 2)
    with pytest.raises(ValueError, match="coprime"):
        dichotomy_modular_count(2, 4)


def test_dichotomy_matches_brute_force_over_every_k():
    # every coprime pair with pq <= 2000, every K in (0, pq)
    for p in range(1, 2001):
        for q in range(1, 2000 // p + 1):
            if math.gcd(p, q) != 1:
                continue
            d = p * q
            brute = [K for K in range(1, d) if K % q == 0 and (d - K) % p == 0]
            assert dichotomy_violations(p, q) == tuple(brute), (p, q)


def test_dichotomy_random_coprime_pairs(rng):
    found = 0
    while found < 40:
        p = int(rng.integers(2, 100))
        q = int(rng.integers(2, 100))
        if math.gcd(p, q) != 1 or p * q > 10_000:
            continue
        found += 1
        assert len(dichotomy_violations(p, q)) == 0
        assert dichotomy_modular_count(p, q) == 0


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def test_tower_json_uses_decimal_strings():
    stages = tower(4)
    obj = tower_to_json_obj(stages)
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert parsed[1]["p"] == "26" and parsed[1]["r0"] == "17"
    # stage-4 integers exceed 2^63 and must survive the round trip exactly
    assert int(parsed[3]["d"]) == stages[3].d
    assert all(isinstance(v, str) for k, v in parsed[3].items() if k != "index")


def test_stage_json_initial_has_no_transition():
    obj = stage_to_json_obj(initial_stage())
    assert "k0" not in obj and obj["d"] == "6"
