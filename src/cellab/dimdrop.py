"""Dimension-drop algebras and the inductive tower behind the Jiang-Su
algebra: exact big-integer stage recursion, connecting maps, endpoint
multiplicity laws, spectral push-forward, endpoint block-structure
membership, and the coprimality dichotomy.

Everything here is exact: stages are Python integers (they leave 64-bit
range by stage 5), and a connecting map is a SymbolicElement whose entries
are its point evaluations, dyadic functions l/2^r or (t+l)/2^r with
big-integer multiplicities, composed across stages by compose_spectral.
The dichotomy scan is integer arithmetic. The one exception is
membership_check, which reads a sampled field and imports numpy where it
runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from typing import TYPE_CHECKING, Iterator

from .config import DEFAULT_TOLERANCES
from .funalg import (PiecewiseLinearFn, SymbolicElement, compose_spectral,
                     symbolic_element)

if TYPE_CHECKING:
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


# ---------------------------------------------------------------------------
# Prime search: a window sieve by the primes below 2^16, exact below 2^32,
# then Baillie-PSW above it (Baillie & Wagstaff 1980; Pomerance,
# Selfridge & Wagstaff 1980). No composite is known to pass BPSW.
# ---------------------------------------------------------------------------

def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


_SMALL_PRIMES = _primes_below(1 << 16)
# a number below 2^32 with no prime factor below 2^16 is 1 or prime
_TRIAL_EXACT = 1 << 32


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


@functools.cache
def _bpsw(n: int) -> bool:
    """Baillie-PSW probable-prime test for odd n > 2^16 (a prime equal to
    |D| would be refused): a strong Miller-Rabin test to base 2, then a
    strong Lucas test with P = 1, Q = (1 - D)/4 for the first D in 5, -7, 9,
    -11, ... with Jacobi symbol (D/n) = -1 (Selfridge's method A).

    A pure predicate of n, computed once per process: the search that finds
    a stage's primes and the window that proves them ask for the same
    survivors, and the second asks the memo."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1 for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) >> 1

    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _window_primes(lo: int, width: int) -> Iterator[int]:
    """The primes in [lo, lo + width), in order; lo must be at least 2
    (below it the sieve would pass 1 and strike 2 and 3), and a width <= 0
    gives none. The window is sieved by small primes (a small prime itself
    is never struck, so every struck number has a proper factor), and the
    survivors are tested."""
    if lo < 2:
        raise ValueError(f"a prime window must start at 2 or above, not {lo}")
    width = max(width, 0)
    sieve = bytearray([1]) * width  # sieve[i] stands for lo + i
    top = lo + width - 1
    # A survivor below 2^32 is taken as prime, so a window starting there
    # is sieved up to the root of its top. Above 2^32 BPSW decides, and
    # striking by p pays only while the Miller-Rabin tests it saves (about
    # 1/p of them, each ~bits^3 work) cost more than the strike: bits^3/3000
    # was measured best from 35 to 923 bits, and from ~600 bits on every
    # p < 2^16 pays.
    bound = math.isqrt(top) if lo < _TRIAL_EXACT else lo.bit_length() ** 3 // 3000
    for p in _SMALL_PRIMES:
        if p > bound:
            break
        start = -lo % p
        if lo + start == p:
            start += p
        if p < width:
            sieve[start::p] = bytes(len(range(start, width, p)))
        elif start < width:
            sieve[start] = 0
    return (c for c in compress(range(lo, top + 1), sieve)
            if c < _TRIAL_EXACT or _bpsw(c))


def _primes_above(n: int) -> Iterator[int]:
    """The primes above n, in order, searched window by window."""
    width = max(256, 4 * n.bit_length())
    lo = max(n + 1, 2)
    while True:
        yield from _window_primes(lo, width)
        lo += width


def next_stage(s: TowerStage) -> TowerStage:
    """The successor stage: k0, k1 are the first two primes above 2*d, the
    sizes multiply, and r0 (r1) is the residue of k = k0*k1 in (0, q'] with
    q' | k - r0 (respectively in (0, p'] with p' | k - r1)."""
    k0, k1 = islice(_primes_above(2 * s.d), 2)
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


# Stage 8 searches for primes above 2*d_7, an 833-digit integer (~8 s on
# a 2-core VM); stage 9 would search above 2*d_8, which has 2,497 digits.
MAX_STAGES = 8


def tower(n_stages: int) -> list[TowerStage]:
    """Stages 1..n_stages in a fresh list; each later stage carries its
    transition data."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if n_stages > MAX_STAGES:
        raise ValueError(f"{n_stages} stages requested; the tower is capped at "
                         f"MAX_STAGES = {MAX_STAGES}")
    return [_stage(i) for i in range(1, n_stages + 1)]


@functools.cache
def _stage(index: int) -> TowerStage:
    """Stage `index`, built once per process (stages are frozen, so sharing
    them is safe)."""
    return initial_stage() if index == 1 else next_stage(_stage(index - 1))


def validate_stage_step(prev: TowerStage, cur: TowerStage) -> None:
    """Exact invariant checks for one tower step; raises on violation
    (d = p*q and gcd(p, q) = 1 hold for every TowerStage). The primes in
    (2d, k1] must be exactly k0 and k1: one window sieve of its own,
    independent of the search, asks BPSW about each survivor in it once,
    and stops at a third. The verdicts come from _bpsw's memo, so a step
    validated in the process that searched for it costs no BPSW test."""
    if cur.index != prev.index + 1:
        raise AssertionError("stages are not consecutive")
    k0, k1, r0, r1 = cur.k0, cur.k1, cur.r0, cur.r1
    window = _window_primes(2 * prev.d + 1, k1 - 2 * prev.d)
    if list(islice(window, 3)) != [k0, k1]:
        raise AssertionError("k0, k1 are not the first two primes above 2d")
    if cur.p != k0 * prev.p or cur.q != k1 * prev.q:
        raise AssertionError("sizes must multiply by the prime factors")
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
# Connecting maps
# ---------------------------------------------------------------------------

def one_step_patterns(stage: TowerStage) -> SymbolicElement:
    """The connecting map INTO this stage (from index-1), as the multiset of
    its point evaluations: t/2 with multiplicity r0, 1/2 with k - r0 - r1,
    (t+1)/2 with r1."""
    if not stage.has_transition:
        raise ValueError("initial stage carries no connecting map")
    half = Fraction(1, 2)
    return symbolic_element([
        (PiecewiseLinearFn.affine(half), stage.r0),
        (PiecewiseLinearFn.constant(half), stage.k - stage.r0 - stage.r1),
        (PiecewiseLinearFn.affine(half, half), stage.r1)])


def connecting_patterns(stages: list[TowerStage], m: int, n: int) -> SymbolicElement:
    """The map from stage m to stage n as a multiset of point evaluations:
    each is the earlier step's function composed with the later one's, so
    every entry is a constant l/2^(n-m) or t -> (t+l)/2^(n-m)."""
    if not (1 <= m < n <= len(stages)):
        raise ValueError(f"need 1 <= m < n <= {len(stages)}")
    acc = one_step_patterns(stages[m])  # m -> m+1
    for j in range(m + 1, n):
        acc = compose_spectral(one_step_patterns(stages[j]).entries, acc)
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


@dataclass(frozen=True)
class BoundaryReport:
    at_zero: tuple[BoundaryRow, ...]
    at_one: tuple[BoundaryRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.at_zero + self.at_one)


def boundary_check(patterns: SymbolicElement, target: TowerStage,
                   source: TowerStage) -> BoundaryReport:
    """Endpoint multiplicity laws of a connecting map's point evaluations.

    At t=0 the evaluation lands in M_{p_n} (x) 1_{q_n}: every eigenvalue
    multiplicity must be divisible by q_n. Interior sample values contribute
    their count as is; the value 0 samples the source's t=0 fibre, which is
    itself q_m-fold, so its count enters weighted by q_m. Symmetrically at
    t=1 with p_n and weight p_m on the value 1.
    """
    rows: list[list[BoundaryRow]] = [[], []]
    for t, weight, modulus in ((0, source.q, target.q), (1, source.p, target.p)):
        counts: dict[Fraction, int] = {}
        for f, mult in patterns.entries:
            v = f(t)
            counts[v] = counts.get(v, 0) + mult
        for value, count in sorted(counts.items()):
            weighted = count * (weight if value == t else 1)
            rows[t].append(BoundaryRow(value=value, count=count,
                                       weighted=weighted, modulus=modulus,
                                       ok=weighted % modulus == 0))
    return BoundaryReport(at_zero=tuple(rows[0]), at_one=tuple(rows[1]))


# ---------------------------------------------------------------------------
# Spectral push-forward
# ---------------------------------------------------------------------------

def push_element(e: SymbolicElement, patterns: SymbolicElement) -> SymbolicElement:
    """Spectral data of phi(e) for the connecting map with these point
    evaluations.

    Only conjugation-invariant data is produced: the unitary path inside
    the connecting map cannot change it and is not represented.
    """
    out = compose_spectral(patterns.entries, e)
    if out.total_rank != e.total_rank * patterns.total_rank:
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


def membership_check(f: SampledMatrixField, algebra: DimDropAlgebra
                     ) -> MembershipReport:
    """Endpoint block-structure test: f(0) in M_{m0} (x) 1, f(1) in
    1 (x) M_{m1} (with blocks laid out as a_ij * 1 at t=1); diagnostics
    carry the worst violating entry."""
    import numpy as np

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
    limit = DEFAULT_TOLERANCES.tol_membership
    ok = worst0 <= limit and worst1 <= limit
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

def dichotomy_violations(p: int, q: int) -> tuple[int, ...]:
    """All K in (0, pq) with q | K and p | (pq - K), ascending; p, q >= 1.

    Exact integer scan over the min(p, q) - 1 candidates that meet one
    condition: K = q*s for 0 < s < p when p <= q, otherwise K = pq - p*s
    for 0 < s < q; each is tested against the other condition.
    """
    if p < 1 or q < 1:
        raise ValueError(f"p={p}, q={q} must be positive")
    d = p * q
    if p <= q:
        found = [q * s for s in range(1, p) if (d - q * s) % p == 0]
    else:
        found = [d - p * s for s in range(1, q) if (d - p * s) % q == 0]
    return tuple(sorted(found))


def dichotomy_modular_count(p: int, q: int) -> int:
    """Number of violating K by the modular argument, without scanning.

    Candidates are K = q*s with 0 < s < p; the second condition asks
    p | q*s, which holds exactly when p/g divides s, g = gcd(p, q). That
    leaves g - 1 violations: none exactly when p and q are coprime.
    """
    if p < 1 or q < 1:
        raise ValueError(f"p={p}, q={q} must be positive")
    return math.gcd(p, q) - 1


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
