"""Dimension-drop algebras and the inductive tower behind the Jiang-Su
algebra: exact big-integer stage recursion, connecting-map point patterns,
endpoint multiplicity laws, spectral push-forward, endpoint block-structure
membership, and the coprimality dichotomy.

Everything here is exact: stages are Python integers (they leave 64-bit
range by stage 5), patterns are dyadic-rational point evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from .config import DEFAULT_TOLERANCES, Tolerances
from .funalg import PiecewiseLinearFn, SymbolicElement, compose_spectral
from .numerics import SampledMatrixField


# ---------------------------------------------------------------------------
# Algebras and tower stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimDropAlgebra:
    """Matrix functions on [0,1] valued in M_m with tensor-block endpoint
    structure M_{m0} (x) 1 at t=0 and 1 (x) M_{m1} at t=1."""

    m0: int
    m: int
    m1: int

    def __post_init__(self):
        if self.m0 < 1 or self.m1 < 1 or self.m < 1:
            raise ValueError("sizes must be positive")
        if self.m % self.m0 or self.m % self.m1:
            raise ValueError(f"m0={self.m0}, m1={self.m1} must divide m={self.m}")

    @property
    def is_prime(self) -> bool:
        return math.gcd(self.m0, self.m1) == 1 and self.m == self.m0 * self.m1


@dataclass(frozen=True)
class TowerStage:
    """One stage A_m = I[p_m, d_m, q_m] of the tower, together with the
    transition data (k0, k1, r0, r1) of the connecting map that produced it
    from stage m-1 (absent on the initial stage)."""

    index: int
    p: int
    q: int
    d: int
    k0: int | None = None
    k1: int | None = None
    r0: int | None = None
    r1: int | None = None

    def __post_init__(self):
        if self.d != self.p * self.q:
            raise ValueError("d must equal p*q")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        trans = (self.k0, self.k1, self.r0, self.r1)
        if any(x is None for x in trans) != all(x is None for x in trans):
            raise ValueError("transition data must be all present or all absent")

    @property
    def has_transition(self) -> bool:
        return self.k0 is not None

    @property
    def k(self) -> int:
        if not self.has_transition:
            raise ValueError("initial stage has no transition data")
        return self.k0 * self.k1

    def algebra(self) -> DimDropAlgebra:
        return DimDropAlgebra(self.p, self.d, self.q)


def initial_stage() -> TowerStage:
    return TowerStage(index=1, p=2, q=3, d=6)


def next_stage(s: TowerStage) -> TowerStage:
    """The successor stage: k0, k1 are the first two primes above 2*d, the
    sizes multiply, and r0 (r1) is the residue of k = k0*k1 in (0, q'] with
    q' | k - r0 (respectively in (0, p'] with p' | k - r1)."""
    k0 = int(sympy.nextprime(2 * s.d))
    k1 = int(sympy.nextprime(k0))
    p_next = k0 * s.p
    q_next = k1 * s.q
    k = k0 * k1
    r0 = k % q_next
    if r0 == 0:
        r0 = q_next
    r1 = k % p_next
    if r1 == 0:
        r1 = p_next
    return TowerStage(index=s.index + 1, p=p_next, q=q_next, d=p_next * q_next,
                      k0=k0, k1=k1, r0=r0, r1=r1)


# Stage 8 runs nextprime on 2,496-digit integers (~22 s on a 2-core VM);
# stage 9 would need it on ~7,500-digit ones.
MAX_STAGES = 8


def tower(n_stages: int) -> list[TowerStage]:
    """Stages 1..n_stages; each later stage carries its transition data."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if n_stages > MAX_STAGES:
        raise ValueError(f"{n_stages} stages requested; the tower is capped at "
                         f"MAX_STAGES = {MAX_STAGES}")
    stages = [initial_stage()]
    while len(stages) < n_stages:
        stages.append(next_stage(stages[-1]))
    return stages


def validate_stage_step(prev: TowerStage, cur: TowerStage) -> None:
    """Exact invariant checks for one tower step; raises on violation."""
    if cur.index != prev.index + 1:
        raise AssertionError("stages are not consecutive")
    k0, k1, r0, r1 = cur.k0, cur.k1, cur.r0, cur.r1
    if not (sympy.isprime(k0) and sympy.isprime(k1)):
        raise AssertionError("transition factors must be prime")
    if not (k0 > 2 * prev.d and k1 > 2 * prev.d and k0 < k1):
        raise AssertionError("need the first two primes above 2d")
    if sympy.nextprime(2 * prev.d) != k0 or sympy.nextprime(k0) != k1:
        raise AssertionError("k0, k1 are not the first two primes above 2d")
    if cur.p != k0 * prev.p or cur.q != k1 * prev.q:
        raise AssertionError("sizes must multiply by the prime factors")
    if cur.d != cur.p * cur.q:
        raise AssertionError("d = p*q violated")
    if math.gcd(cur.p, cur.q) != 1:
        raise AssertionError("stage sizes must be coprime")
    k = k0 * k1
    if not (0 < r0 <= cur.q and (k - r0) % cur.q == 0):
        raise AssertionError("r0 residue law violated")
    if not (0 < r1 <= cur.p and (k - r1) % cur.p == 0):
        raise AssertionError("r1 residue law violated")
    if (r0 * prev.q) % cur.q != 0:
        raise AssertionError("q_{m+1} | r0*q_m violated")
    if (r1 * prev.p) % cur.p != 0:
        raise AssertionError("p_{m+1} | r1*p_m violated")


# ---------------------------------------------------------------------------
# Connecting-map point patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """A point-evaluation pattern: Const l/2^r or Affine t -> (t+l)/2^r."""

    kind: str  # "const" | "affine"
    l: int
    r: int

    def __post_init__(self):
        if self.kind not in ("const", "affine"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.r < 0:
            raise ValueError("level must be nonnegative")
        hi = 1 << self.r
        if self.kind == "const":
            if not (0 < self.l < hi):
                raise ValueError(f"const pattern value {self.l}/{hi} not interior")
        else:
            if not (0 <= self.l < hi):
                raise ValueError(f"affine pattern (t+{self.l})/{hi} leaves [0,1]")

    def value(self, t: Fraction) -> Fraction:
        if self.kind == "const":
            return Fraction(self.l, 1 << self.r)
        return (t + self.l) / (1 << self.r)

    def plf(self) -> PiecewiseLinearFn:
        if self.kind == "const":
            return PiecewiseLinearFn.constant(Fraction(self.l, 1 << self.r))
        den = 1 << self.r
        return PiecewiseLinearFn.from_pairs(
            [(0, Fraction(self.l, den)), (1, Fraction(self.l + 1, den))])

    def compose(self, inner: "Pattern") -> "Pattern":
        """self o inner, again of the Const/Affine dyadic form (the grammar
        is closed; leaving [0,1] would fail validation and cannot occur for
        valid factors)."""
        if self.kind == "const":
            return Pattern("const", self.l << inner.r, self.r + inner.r)
        return Pattern(inner.kind, inner.l + (self.l << inner.r),
                       self.r + inner.r)


IDENTITY_PATTERN = Pattern("affine", 0, 0)


@dataclass(frozen=True)
class PatternMultiset:
    """Multiset of patterns of one connecting map, all at level r = n - m,
    with source/target stage indices kept for the endpoint laws."""

    entries: tuple[tuple[Pattern, int], ...]
    level: int
    src_index: int
    dst_index: int

    def __post_init__(self):
        for pat, mult in self.entries:
            if mult <= 0:
                raise ValueError("pattern multiplicities must be positive")
            if pat.r != self.level:
                raise ValueError("all patterns must sit at the multiset level")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def endpoint_values(self, t: int) -> dict[Fraction, int]:
        """Value -> multiplicity multiset of {xi_j(t)} at t in {0, 1}."""
        out: dict[Fraction, int] = {}
        tq = Fraction(t)
        for pat, mult in self.entries:
            v = pat.value(tq)
            out[v] = out.get(v, 0) + mult
        return out

    def plf_entries(self) -> list[tuple[PiecewiseLinearFn, int]]:
        return [(pat.plf(), m) for pat, m in self.entries]


def one_step_patterns(stage: TowerStage) -> PatternMultiset:
    """Patterns of the connecting map INTO this stage (from index-1):
    {t/2 with multiplicity r0, 1/2 with k - r0 - r1, (t+1)/2 with r1}."""
    if not stage.has_transition:
        raise ValueError("initial stage carries no connecting map")
    k = stage.k
    entries = []
    if stage.r0:
        entries.append((Pattern("affine", 0, 1), stage.r0))
    mid = k - stage.r0 - stage.r1
    if mid:
        entries.append((Pattern("const", 1, 1), mid))
    if stage.r1:
        entries.append((Pattern("affine", 1, 1), stage.r1))
    entries.sort(key=lambda pm: (pm[0].kind, pm[0].l))
    return PatternMultiset(entries=tuple(entries), level=1,
                           src_index=stage.index - 1, dst_index=stage.index)


def compose_patterns(outer: PatternMultiset, inner: PatternMultiset
                     ) -> PatternMultiset:
    """Patterns of the composite map: outer is the earlier stage map m->j,
    inner the later j->n; composites are outer_pattern o inner_pattern."""
    if outer.dst_index != inner.src_index:
        raise ValueError(
            f"maps do not compose: {outer.src_index}->{outer.dst_index} then "
            f"{inner.src_index}->{inner.dst_index}")
    acc: dict[Pattern, int] = {}
    for po, mo in outer.entries:
        for pi, mi in inner.entries:
            c = po.compose(pi)
            acc[c] = acc.get(c, 0) + mo * mi
    entries = tuple(sorted(acc.items(), key=lambda pm: (pm[0].kind, pm[0].l)))
    return PatternMultiset(entries=entries, level=outer.level + inner.level,
                           src_index=outer.src_index, dst_index=inner.dst_index)


def connecting_patterns(stages: list[TowerStage], m: int, n: int) -> PatternMultiset:
    """Composite pattern multiset of the map from stage m to stage n."""
    if not (1 <= m < n <= len(stages)):
        raise ValueError(f"need 1 <= m < n <= {len(stages)}")
    acc = one_step_patterns(stages[m])  # m -> m+1
    for j in range(m + 1, n):
        acc = compose_patterns(acc, one_step_patterns(stages[j]))
    return acc


# ---------------------------------------------------------------------------
# Endpoint multiplicity laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryRow:
    value: Fraction
    count: int
    weighted: int
    modulus: int
    ok: bool

    @property
    def quotient(self) -> int:
        return self.weighted // self.modulus if self.ok else -1


@dataclass(frozen=True)
class BoundaryReport:
    at_zero: tuple[BoundaryRow, ...]
    at_one: tuple[BoundaryRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.at_zero + self.at_one)

    def violations(self) -> list[BoundaryRow]:
        return [r for r in self.at_zero + self.at_one if not r.ok]


def boundary_check(patterns: PatternMultiset, target: TowerStage,
                   source: TowerStage) -> BoundaryReport:
    """Endpoint multiplicity laws of a connecting map's patterns.

    At t=0 the evaluation lands in M_{p_n} (x) 1_{q_n}: every eigenvalue
    multiplicity must be divisible by q_n. Interior sample values contribute
    their count as is; the value 0 samples the source's t=0 fibre, which is
    itself q_m-fold, so its count enters weighted by q_m. Symmetrically at
    t=1 with p_n and weight p_m on the value 1.
    """
    rows0 = []
    for value, count in sorted(patterns.endpoint_values(0).items()):
        weighted = count * (source.q if value == 0 else 1)
        rows0.append(BoundaryRow(value=value, count=count, weighted=weighted,
                                 modulus=target.q, ok=weighted % target.q == 0))
    rows1 = []
    for value, count in sorted(patterns.endpoint_values(1).items()):
        weighted = count * (source.p if value == 1 else 1)
        rows1.append(BoundaryRow(value=value, count=count, weighted=weighted,
                                 modulus=target.p, ok=weighted % target.p == 0))
    return BoundaryReport(at_zero=tuple(rows0), at_one=tuple(rows1))


# ---------------------------------------------------------------------------
# Spectral push-forward
# ---------------------------------------------------------------------------

def push_element(e: SymbolicElement, patterns: PatternMultiset) -> SymbolicElement:
    """Spectral data of phi(e) for the connecting map with these patterns.

    Only conjugation-invariant data is produced: the unitary path inside
    the connecting map cannot change it and is not represented.
    """
    out = compose_spectral(patterns.plf_entries(), e)
    if out.total_rank != e.total_rank * patterns.total:
        raise AssertionError("push-forward rank is not rank(e) * #patterns")
    return out


# ---------------------------------------------------------------------------
# Membership in a dimension drop algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    defect: float
    endpoint: int | None = None      # 0 or 1 where the worst defect sits
    entry: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def membership_check(f: SampledMatrixField, algebra: DimDropAlgebra,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> MembershipReport:
    """Endpoint block-structure test: f(0) in M_{m0} (x) 1, f(1) in
    1 (x) M_{m1} (with blocks laid out as a_ij * 1 at t=1); diagnostics
    carry the worst violating entry."""
    if f.dim != algebra.m:
        raise ValueError(f"field dim {f.dim} != algebra size {algebra.m}")
    m0, m1, m = algebra.m0, algebra.m1, algebra.m
    f0 = f.samples[0]
    a = f0[:m0, :m0]
    d0 = np.abs(f0 - np.kron(np.eye(m // m0), a))
    f1 = f.samples[-1]
    r1 = m // m1
    b = f1[::r1, ::r1]
    d1 = np.abs(f1 - np.kron(b, np.eye(r1)))
    worst0 = float(d0.max())
    worst1 = float(d1.max())
    ok = worst0 <= tol.tol_membership and worst1 <= tol.tol_membership
    if ok:
        return MembershipReport(ok=True, defect=max(worst0, worst1))
    if worst0 >= worst1:
        ij = np.unravel_index(int(d0.argmax()), d0.shape)
        return MembershipReport(ok=False, defect=worst0, endpoint=0,
                                entry=(int(ij[0]), int(ij[1])))
    ij = np.unravel_index(int(d1.argmax()), d1.shape)
    return MembershipReport(ok=False, defect=worst1, endpoint=1,
                            entry=(int(ij[0]), int(ij[1])))


# ---------------------------------------------------------------------------
# The coprimality dichotomy
# ---------------------------------------------------------------------------

def dichotomy_check(p: int, q: int, K: int) -> bool:
    """Whether q | K and p | (pq - K) hold together; provably never for
    coprime p, q and 0 < K < pq. Exists to assert exactly that."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} must be coprime")
    d = p * q
    if not (0 < K < d):
        raise ValueError(f"need 0 < K < {d}, got {K}")
    return K % q == 0 and (d - K) % p == 0


def dichotomy_violations(p: int, q: int) -> np.ndarray:
    """All K in (0, pq) with q | K and p | (pq - K); vectorized scan."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} must be coprime")
    d = p * q
    ks = np.arange(1, d, dtype=np.int64)
    mask = (ks % q == 0) & ((d - ks) % p == 0)
    return ks[mask]


def dichotomy_modular_count(p: int, q: int) -> int:
    """Number of violating K by the modular argument, without scanning.

    Candidates are K = q*s with 0 < s < p; the second condition asks
    p | q*(p - s), and since q is invertible mod p this forces s = 0
    (mod p). The count of such s in (0, p) is (p-1)//p = 0.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} must be coprime")
    pow(q, -1, p)  # q invertible mod p; raises otherwise
    return (p - 1) // p


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def stage_to_json_obj(s: TowerStage) -> dict:
    out = {"index": s.index, "p": str(s.p), "q": str(s.q), "d": str(s.d)}
    if s.has_transition:
        out.update({"k0": str(s.k0), "k1": str(s.k1), "k": str(s.k),
                    "r0": str(s.r0), "r1": str(s.r1)})
    return out


def tower_to_json_obj(stages: list[TowerStage]) -> list[dict]:
    return [stage_to_json_obj(s) for s in stages]


def patterns_to_json_obj(p: PatternMultiset) -> dict:
    return {
        "source": p.src_index,
        "target": p.dst_index,
        "level": p.level,
        "entries": [{"kind": pat.kind, "l": str(pat.l), "r": pat.r,
                     "mult": str(m)} for pat, m in p.entries],
    }
