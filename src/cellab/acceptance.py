"""The acceptance suites: each criterion checks a claim of the paper on
computed data, with pinned tolerances, runnable from the CLI and from
pytest: the finite-matrix value 2pi(k-1)/k, the chi bound 2pi(1-1/L), the
dimension-drop tower, the Jiang-Su floor toward cel_CU = 2pi, and the dense
first-stage witness. Properties of the library's internals are tier-1
tests, not criteria. All randomness is seeded through RunConfig; identical
configs give identical results.

The exact criteria (chi-witness, tower, jiangsu-floor) run without numpy;
the sampled ones (finite-cel, oracle-dense) import it, and the sampled
layer, where they run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import dimdrop, funalg, witness
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
    import numpy as np
    from . import cel, numerics

    rng = np.random.default_rng(cfg.seed + 1)
    for k in (2, 3, 4, 8):
        target_pi = Fraction(2 * (k - 1), k)
        target = float(target_pi) * PI
        rep = witness.pan_wang_report(k)
        res.record(f"k={k} exact witness lower == {witness.format_pi(target_pi)}",
                   rep.lower_pi == target_pi and rep.passed,
                   f"lower={witness.format_pi(rep.lower_pi)}")
        w = witness.pan_wang_witness(k)
        fields = [w.field(cfg.grid_size)]
        fields += [numerics.random_unitary_field(
            rng, k, cfg.grid_size, amplitude=0.6 + 0.12 * i, det_one=True)
            for i in range(20)]
        worst_len = -math.inf
        worst_end = -math.inf
        for f in fields:
            path = cel.cu_upper_bound_path(f)
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
            unital = pats.total_rank == stages[n - 1].d // stages[m - 1].d
            res.record(f"boundary law + unitality {m}->{n}",
                       rep.ok and unital,
                       f"levels={n - m}, total={pats.total_rank}")
    # dichotomy: every coprime pair with d <= 1e4, all K
    bad_pairs = 0
    pairs = 0
    for p in range(2, 5001):
        for q in range(2, 10_000 // p + 1):
            if math.gcd(p, q) != 1:
                continue
            pairs += 1
            if dimdrop.dichotomy_violations(p, q):
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
        rep = witness.jiangsu_witness(1, n)
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
    b1 = witness.jiangsu_witness(1, 2, block_k=1)
    b3 = witness.jiangsu_witness(1, 2, block_k=3)
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
# Criterion 5: dense oracle consistency
# ---------------------------------------------------------------------------

def criterion_oracle_dense(cfg: RunConfig, res: CriterionResult) -> None:
    """The first-stage witness realized densely in dim 6 at the production
    grid: branch lower bound sits in [4pi/3 - 1e-4, best upper bound], in
    the order the k=6 frame value 2pi*5/6 dictates."""
    from . import cel

    stage1 = dimdrop.tower(1)[0]
    f = witness.dense_stage_witness_field(stage1, cfg.grid_size,
                                          dense_limit=cfg.dense_limit)
    alg = stage1.algebra()
    member = dimdrop.membership_check(f, alg)
    res.record("dense witness lies in I[2,6,3]", member.ok,
               f"defect={member.defect:.2e}")
    # the three bounds share one decomposition and lift of f
    low, path, geo = cel._three_bounds(f)
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
