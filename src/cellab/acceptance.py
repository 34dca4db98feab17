"""The acceptance suites: every headline quantitative claim as an
executable criterion with pinned tolerances, runnable from the CLI and from
pytest. All randomness is seeded through RunConfig; identical configs give
identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cel, dimdrop, funalg, numerics, witness
from .config import RunConfig
from .funalg import PiecewiseLinearFn

PI = math.pi


@dataclass
class CriterionResult:
    """Named sub-checks with measured values; passed while none is violated."""

    name: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, label: str, passed: bool, measured: str = ""):
        self.passed &= bool(passed)
        mark = "ok" if passed else "VIOLATED"
        suffix = f" [{measured}]" if measured else ""
        self.details.append(f"  {label}: {mark}{suffix}")

    def summary_line(self, with_time: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = f" ({self.elapsed:.1f}s)" if with_time else ""
        return f"[{status}] {self.name}{timing}"


# ---------------------------------------------------------------------------
# Criterion 1: finite-matrix equality
# ---------------------------------------------------------------------------

def criterion_finite_cel(cfg: RunConfig, res: CriterionResult) -> None:
    """For k in {2,3,4,8}: the extremal witness bound equals 2pi(k-1)/k
    exactly, and the constructive path stays within 1e-2 of it (in length
    and endpoint error) on the witness and 20 seeded determinant-1 fields."""
    rng = np.random.default_rng(cfg.seed + 1)
    tol = cfg.tolerances
    for k in (2, 3, 4, 8):
        target_pi = Fraction(2 * (k - 1), k)
        target = float(target_pi) * PI
        rep = witness.pan_wang_report(k)
        res.record(f"k={k} exact witness lower == {witness.format_pi(target_pi)}",
                   rep.lower_pi == target_pi and rep.passed,
                   f"lower={witness.format_pi(rep.lower_pi)}")
        w = witness.pan_wang_witness(k)
        fields = [w.field(cfg.grid_size, tol)]
        fields += [numerics.random_unitary_field(
            rng, k, cfg.grid_size, amplitude=0.6 + 0.12 * i, det_one=True,
            tol=tol) for i in range(20)]
        worst_len = -math.inf
        worst_end = -math.inf
        for f in fields:
            path = cel.cu_upper_bound_path(f, tol=tol)
            worst_len = max(worst_len, path.length - target)
            worst_end = max(worst_end, path.endpoint_error)
        res.record(f"k={k} path length <= 2pi(k-1)/k + 1e-2 on 21 fields",
                   worst_len <= 1e-2, f"max excess={worst_len:.3e}")
        res.record(f"k={k} endpoint error <= 1e-2",
                   worst_end <= 1e-2, f"max={worst_end:.3e}")


# ---------------------------------------------------------------------------
# Criterion 2: chi witness
# ---------------------------------------------------------------------------

def criterion_chi_witness(cfg: RunConfig, res: CriterionResult) -> None:
    """L in {4, 100, 10^4}, [c,d] = [0.3, 0.7], x branch = t: exact lower
    bound 2pi(1 - 1/L), zero tolerance; exact determinant-1 certificate."""
    x = funalg.symbolic_element([(PiecewiseLinearFn.identity(), 1)])
    for L in (4, 100, 10_000):
        target = 2 - Fraction(2, L)
        _, rep = witness.chi_witness(L, x, Fraction(3, 10), Fraction(7, 10))
        res.record(f"L={L} lower == {witness.format_pi(target)} exactly",
                   rep.lower_pi == target,
                   f"lower={witness.format_pi(rep.lower_pi)}")
        res.record(f"L={L} determinant-1 certificate exact",
                   rep.cu.exact and rep.cu.passed,
                   f"residual={rep.cu.residual}")


# ---------------------------------------------------------------------------
# Criterion 3: tower regression
# ---------------------------------------------------------------------------

def criterion_tower(cfg: RunConfig, res: CriterionResult) -> None:
    """Stage 2 equals (26,51,1326,13,17,17,13); stages 3-4 satisfy all
    invariants and the composed endpoint multiplicity laws at every level;
    the dichotomy is empty exhaustively for d <= 1e4 and modularly at
    stages 2-4."""
    stages = dimdrop.tower(4)
    s2 = stages[1]
    expected = (26, 51, 1326, 13, 17, 17, 13)
    got = (s2.p, s2.q, s2.d, s2.k0, s2.k1, s2.r0, s2.r1)
    res.record("stage 2 == (26,51,1326,13,17,17,13)", got == expected, str(got))
    for prev, cur in zip(stages, stages[1:]):
        try:
            dimdrop.validate_stage_step(prev, cur)
            res.record(f"stage {cur.index} invariants", True,
                       f"d={cur.d}")
        except AssertionError as exc:
            res.record(f"stage {cur.index} invariants", False, str(exc))
    for m in range(1, 4):
        for n in range(m + 1, 5):
            pats = dimdrop.connecting_patterns(stages, m, n)
            rep = dimdrop.boundary_check(pats, target=stages[n - 1],
                                         source=stages[m - 1])
            unital = pats.total == stages[n - 1].d // stages[m - 1].d
            res.record(f"boundary law + unitality {m}->{n}",
                       rep.ok and unital,
                       f"levels={pats.level}, total={pats.total}")
    # dichotomy: every coprime pair with d <= 1e4, all K (vectorized)
    bad_pairs = 0
    pairs = 0
    for p in range(2, 5001):
        for q in range(2, 10_000 // p + 1):
            if math.gcd(p, q) != 1:
                continue
            pairs += 1
            if dimdrop.dichotomy_violations(p, q).size:
                bad_pairs += 1
    res.record("dichotomy empty for all coprime p,q with pq <= 1e4",
               bad_pairs == 0, f"{pairs} pairs scanned")
    for s in stages[1:]:
        res.record(f"dichotomy modular count at stage {s.index}",
                   dimdrop.dichotomy_modular_count(s.p, s.q) == 0,
                   f"p,q ~ {len(str(s.p))}/{len(str(s.q))} digits")


# ---------------------------------------------------------------------------
# Criterion 4: tower witness floor
# ---------------------------------------------------------------------------

def criterion_jiangsu_floor(cfg: RunConfig, res: CriterionResult) -> None:
    """m=1, n in {2,3,5}: exact top pushed branch and floor bound, floor
    monotone in n, block padding irrelevant; stage-limit monotone toward
    2pi over stages 1..4."""
    stages = dimdrop.tower(5)
    q1 = stages[0].q
    floors = {}
    for n in (2, 3, 5):
        rep = witness.jiangsu_witness(1, n, stages=stages)
        r = n - 1
        pow2 = 1 << r
        mu = PiecewiseLinearFn.from_pairs(
            [(0, Fraction((q1 - 1) * (pow2 - 1), q1 * pow2)),
             (1, Fraction(q1 - 1, q1))])
        target = Fraction(2 * (q1 - 1) * (pow2 - 1), q1 * pow2)
        top_ok = rep.extras["top_branch"] == mu
        res.record(f"n={n} top pushed branch == mu formula", top_ok,
                   f"mult={rep.extras['top_multiplicity']}")
        res.record(f"n={n} floor == {witness.format_pi(target)} exactly",
                   rep.lower_pi == target and rep.passed,
                   f"floor={witness.format_pi(rep.lower_pi)}")
        floors[n] = rep.lower_pi
    res.record("floor monotone in n",
               floors[2] < floors[3] < floors[5],
               " < ".join(witness.format_pi(floors[n]) for n in (2, 3, 5)))
    b1 = witness.jiangsu_witness(1, 2, block_k=1, stages=stages)
    b3 = witness.jiangsu_witness(1, 2, block_k=3, stages=stages)
    res.record("block_k in {1,3} agree", b1.lower_pi == b3.lower_pi,
               witness.format_pi(b3.lower_pi))
    # the full 2pi claim is a limit: the n-limit at stage m is
    # 2pi(q_m-1)/q_m, monotone toward 2pi along stages 1..4
    limits = [Fraction(2 * (s.q - 1), s.q) for s in stages[:4]]
    mono = all(a < b for a, b in zip(limits, limits[1:])) and limits[-1] < 2
    gap_shrinks = all(2 - lim <= Fraction(2, s.q)
                      for lim, s in zip(limits, stages))
    res.record("stage limits 2pi(q_m-1)/q_m increase toward 2pi over m=1..4",
               mono and gap_shrinks,
               ", ".join(witness.format_pi(v) for v in limits))


# ---------------------------------------------------------------------------
# Criterion 5: property suites
# ---------------------------------------------------------------------------

def _random_plf(rng: np.random.Generator, *, n_knots: int = 4, lo=-2, hi=2,
                denom: int = 64) -> PiecewiseLinearFn:
    ts = sorted(rng.choice(np.arange(1, denom), size=n_knots - 2,
                           replace=False).tolist())
    bps = [Fraction(0)] + [Fraction(int(t), denom) for t in ts] + [Fraction(1)]
    vals = [Fraction(int(rng.integers(lo * denom, hi * denom + 1)), denom)
            for _ in bps]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


def criterion_properties(cfg: RunConfig, res: CriterionResult) -> None:
    """Seeded property suites at pinned counts: scalar 1-Lipschitz
    stability (200), EV monotonicity under spectral composition (200,
    exact), interval persistence of sorted merges (500 vs a dense-sampling
    oracle), bound sandwich (100), eigenvalue stability under perturbation
    (200, Weyl)."""
    tol = cfg.tolerances

    # 1-Lipschitz: |cel(alpha) - cel(beta)| <= sup|alpha - beta|
    rng = np.random.default_rng(cfg.seed + 51)
    worst = Fraction(0)
    lips_ok = True
    for _ in range(200):
        f = _random_plf(rng)
        g = _random_plf(rng)
        cf, cg = cel.scalar_cel(f), cel.scalar_cel(g)
        dist = (f - g)
        sup = max(abs(dist.min_value()), abs(dist.max_value()))
        lips_ok &= abs(cf - cg) <= sup
        worst = max(worst, abs(cf - cg) - sup)
    res.record("scalar formula 1-Lipschitz (200 exact pairs)", lips_ok,
               f"max slack used={worst}")
    samp_ok = True
    for _ in range(200):
        a = rng.standard_normal(33).cumsum() * 0.3
        b = a + rng.standard_normal(33) * 0.1
        ca, cb = cel.scalar_cel(a), cel.scalar_cel(b)
        samp_ok &= abs(ca - cb) <= float(np.max(np.abs(a - b))) + 1e-9
    res.record("scalar formula 1-Lipschitz (200 sampled pairs, 1e-9)", samp_ok)

    # EV monotonicity under composition, exact
    rng = np.random.default_rng(cfg.seed + 52)
    ev_ok = True
    for _ in range(200):
        n_br = int(rng.integers(1, 4))
        entries = [(_random_plf(rng, lo=0, hi=1), int(rng.integers(1, 4)))
                   for _ in range(n_br)]
        # clamped into [0,1] so the patterns can compose
        src = funalg.symbolic_element(
            [(_clamp01(f), m) for f, m in entries])
        pats = _random_patterns(rng)
        out = funalg.compose_spectral(pats, src)
        ev_ok &= out.variation() <= src.variation()
    res.record("EV never grows under spectral composition (200 exact cases)",
               ev_ok)

    # interval persistence: no merged branch covers [c,d] unless an input does
    rng = np.random.default_rng(cfg.seed + 53)
    dense = np.linspace(0.0, 1.0, 10_000)
    pers_ok = True
    oracle_ok = True
    for _ in range(500):
        n_f = int(rng.integers(1, 7))
        fns = [_random_plf(rng, lo=0, hi=1) for _ in range(n_f)]
        fns = [_clamp01(f) for f in fns]
        c = Fraction(int(rng.integers(0, 40)), 100)
        d = c + Fraction(int(rng.integers(10, 45)), 100)
        if any(f.covers(c, d) for f in fns):
            continue
        merged = funalg.merge_sorted_branches([(f, 1) for f in fns])
        pers_ok &= not any(f.covers(c, d) for f, _ in merged)
        # dense-sampling oracle: sorted samples match the exact branches
        stacked = np.sort(np.stack([f.sample(dense) for f in fns]), axis=0)
        exact = np.stack([f.sample(dense) for f, _ in merged])
        oracle_ok &= bool(np.max(np.abs(stacked - exact)) < 1e-12)
    res.record("interval persistence of sorted merges (500 families)", pers_ok)
    res.record("merge agrees with dense-sampling oracle (1e4 points)", oracle_ok)

    # bound sandwich on 100 seeded unitaries
    rng = np.random.default_rng(cfg.seed + 54)
    sand_ok = True
    worst_gap = -math.inf
    for i in range(100):
        n = int(rng.integers(2, 5))
        u = numerics.random_unitary_field(rng, n, 129, amplitude=1.0,
                                          max_log_norm=0.85 * PI, tol=tol)
        b = cel.bound_sandwich(u, tol=tol)
        sand_ok &= b.lower <= b.upper + 1e-6
        worst_gap = max(worst_gap, b.lower - b.upper)
    res.record("bound sandwich lower <= upper on 100 unitaries (1e-6)",
               sand_ok, f"max lower-upper={worst_gap:.3e}")

    # Weyl stability on 200 hermitian pairs
    rng = np.random.default_rng(cfg.seed + 55)
    weyl_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = numerics.random_hermitian(rng, n)
        b = a + 0.1 * numerics.random_hermitian(rng, n)
        wa, _ = numerics.jacobi_eigh(a, compute_v=False)
        wb, _ = numerics.jacobi_eigh(b, compute_v=False)
        gap = float(np.max(np.abs(wa - wb)))
        weyl_ok &= gap <= numerics.operator_norm(a - b) + 1e-9
    res.record("eigenvalue stability |l_j(A)-l_j(B)| <= ||A-B|| (200 pairs, 1e-9)",
               weyl_ok)


def _clamp01(f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    lo, hi = f.range()
    if lo >= 0 and hi <= 1:
        return f
    span = hi - lo
    if span == 0:
        return PiecewiseLinearFn.constant(Fraction(1, 2))
    return PiecewiseLinearFn(
        f.breakpoints, tuple((v - lo) / span for v in f.values))


def _random_patterns(rng: np.random.Generator) -> list[tuple[PiecewiseLinearFn, int]]:
    out = []
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(1, 4))
        if rng.integers(0, 2):
            l = int(rng.integers(1, (1 << r)))
            out.append((PiecewiseLinearFn.constant(Fraction(l, 1 << r)),
                        int(rng.integers(1, 4))))
        else:
            l = int(rng.integers(0, (1 << r)))
            out.append((dimdrop.Pattern("affine", l, r).plf(),
                        int(rng.integers(1, 4))))
    return out


# ---------------------------------------------------------------------------
# Criterion 6: dense oracle consistency
# ---------------------------------------------------------------------------

def criterion_oracle_dense(cfg: RunConfig, res: CriterionResult) -> None:
    """The first-stage witness realized densely in dim 6 at the production
    grid: branch lower bound sits in [4pi/3 - 1e-4, best upper bound], in
    the order the k=6 frame value 2pi*5/6 dictates."""
    tol = cfg.tolerances
    stage1 = dimdrop.tower(1)[0]
    f = witness.dense_stage_witness_field(stage1, cfg.grid_size,
                                          dense_limit=cfg.dense_limit, tol=tol)
    alg = stage1.algebra()
    member = dimdrop.membership_check(f, alg, tol)
    res.record("dense witness lies in I[2,6,3]", member.ok,
               f"defect={member.defect:.2e}")
    low = cel.cel_lower_distinct(f, tol)
    path = cel.cu_upper_bound_path(f, tol=tol)
    geo = cel.geodesic_upper_bound(f, tol)
    upper = min(path.length, geo)
    lo_target = 4 * PI / 3
    frame_value = 2 * PI * 5 / 6
    res.record("lower >= 4pi/3 - 1e-4", low.lower >= lo_target - 1e-4,
               f"lower={low.lower:.8f}")
    res.record("lower <= best upper bound", low.lower <= upper + 1e-6,
               f"upper={upper:.8f} (constructive={path.length:.6f}, "
               f"geodesic={'inf' if geo == math.inf else f'{geo:.6f}'})")
    res.record("k=6 frame value 2pi*5/6 >= 4pi/3",
               frame_value >= lo_target - 1e-12,
               f"{frame_value:.6f} >= {lo_target:.6f}")
    res.record("constructive upper <= 2pi*5/6 + 1e-2",
               path.length <= frame_value + 1e-2,
               f"length={path.length:.6f}")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA = {
    "finite-cel": criterion_finite_cel,
    "chi-witness": criterion_chi_witness,
    "tower": criterion_tower,
    "jiangsu-floor": criterion_jiangsu_floor,
    "properties": criterion_properties,
    "oracle-dense": criterion_oracle_dense,
}

SUITE_ORDER = list(CRITERIA)


def run_suite(names: list[str], cfg: RunConfig) -> list[CriterionResult]:
    """Run the named criteria in order in the calling thread, each timed and
    named by its CRITERIA key. cfg.jobs is accepted and has no effect."""
    # an unknown name raises KeyError before any criterion runs
    criteria = [(name, CRITERIA[name]) for name in names]
    results = []
    for name, criterion in criteria:
        res = CriterionResult(name)
        t0 = time.perf_counter()
        criterion(cfg, res)
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return results
