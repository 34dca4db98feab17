"""Function-algebra layer over [0,1]: exact rational piecewise-linear
functions, eigenvalue lists and their variation, functional calculus,
spectral composition for block homomorphisms, and the permutation-free
point-multiset metric.

Exact objects use fractions.Fraction throughout, so every witness bound
downstream evaluates with zero grid error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainRangeError, FlavorError, UnsupportedPaddingError
from .numerics import SampledMatrixField, jacobi_eigh, multiset_circle_distance

QLike = Fraction | int | str


def as_fraction(x: QLike) -> Fraction:
    """Coerce to an exact rational; floats are rejected deliberately."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int or string")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Exact piecewise-linear functions on [0, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PiecewiseLinearFn:
    """Piecewise-linear function on [0,1] with rational breakpoints/values.

    Affine between consecutive breakpoints; the first breakpoint is 0 and
    the last is 1, so evaluation is total and min/max are attained at
    breakpoints. Equality and hashing compare the function, not the knot
    representation.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(as_fraction(b) for b in self.breakpoints)
        vals = tuple(as_fraction(v) for v in self.values)
        if len(bps) != len(vals) or len(bps) < 2:
            raise ValueError("need matching breakpoints/values, at least two")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[QLike, QLike]]) -> "PiecewiseLinearFn":
        pts = [(as_fraction(t), as_fraction(v)) for t, v in pairs]
        return PiecewiseLinearFn(tuple(t for t, _ in pts), tuple(v for _, v in pts))

    @staticmethod
    def constant(v: QLike) -> "PiecewiseLinearFn":
        v = as_fraction(v)
        return PiecewiseLinearFn((Fraction(0), Fraction(1)), (v, v))

    @staticmethod
    def identity() -> "PiecewiseLinearFn":
        return PiecewiseLinearFn((Fraction(0), Fraction(1)),
                                 (Fraction(0), Fraction(1)))

    @staticmethod
    def affine(slope: QLike, intercept: QLike = 0) -> "PiecewiseLinearFn":
        """t |-> slope*t + intercept on [0,1]."""
        s, b = as_fraction(slope), as_fraction(intercept)
        return PiecewiseLinearFn((Fraction(0), Fraction(1)), (b, s + b))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t: QLike) -> Fraction:
        t = as_fraction(t)
        if t < 0 or t > 1:
            raise DomainRangeError(f"argument {t} outside [0,1]")
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        a, b = self.breakpoints[i], self.breakpoints[i + 1]
        va, vb = self.values[i], self.values[i + 1]
        return va + (vb - va) * (t - a) / (b - a)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Float evaluation on a float grid (np.interp is exactly piecewise
        linear, matching this representation)."""
        return np.interp(ts, [float(b) for b in self.breakpoints],
                         [float(v) for v in self.values])

    # -- ranges --------------------------------------------------------------

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)

    def range(self) -> tuple[Fraction, Fraction]:
        return (self.min_value(), self.max_value())

    def covers(self, c: QLike, d: QLike) -> bool:
        """Whether [c,d] is contained in the range (range is an interval)."""
        c, d = as_fraction(c), as_fraction(d)
        return self.min_value() <= c and d <= self.max_value()

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    # -- algebra ---------------------------------------------------------------

    def _aligned(self, other: "PiecewiseLinearFn"):
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        return bps, [self(t) for t in bps], [other(t) for t in bps]

    def __add__(self, other):
        if isinstance(other, PiecewiseLinearFn):
            bps, va, vb = self._aligned(other)
            return PiecewiseLinearFn(tuple(bps), tuple(a + b for a, b in zip(va, vb)))
        return self + PiecewiseLinearFn.constant(other)

    def __sub__(self, other):
        if isinstance(other, PiecewiseLinearFn):
            return self + (-other)
        return self + PiecewiseLinearFn.constant(-as_fraction(other))

    def __neg__(self):
        return PiecewiseLinearFn(self.breakpoints, tuple(-v for v in self.values))

    def scale(self, c: QLike) -> "PiecewiseLinearFn":
        c = as_fraction(c)
        return PiecewiseLinearFn(self.breakpoints, tuple(c * v for v in self.values))

    def shift(self, c: QLike) -> "PiecewiseLinearFn":
        c = as_fraction(c)
        return PiecewiseLinearFn(self.breakpoints, tuple(v + c for v in self.values))

    # -- composition ----------------------------------------------------------

    def compose(self, g: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        """self o g, by pulling the outer knots back through g's affine
        pieces; knot count is bounded by |self|*|g|."""
        lo, hi = g.range()
        if lo < 0 or hi > 1:
            raise DomainRangeError(
                f"inner function range [{lo},{hi}] leaves the domain [0,1]")
        cuts: set[Fraction] = set(g.breakpoints)
        for i in range(len(g.breakpoints) - 1):
            a, b = g.breakpoints[i], g.breakpoints[i + 1]
            ga, gb = g.values[i], g.values[i + 1]
            if ga == gb:
                continue
            slope = (gb - ga) / (b - a)
            for x in self.breakpoints:
                t = a + (x - ga) / slope
                if a < t < b:
                    cuts.add(t)
        bps = tuple(sorted(cuts))
        return PiecewiseLinearFn(bps, tuple(self(g(t)) for t in bps))

    # -- canonical form, equality --------------------------------------------

    def simplified(self) -> "PiecewiseLinearFn":
        """Drop interior knots where the two adjacent pieces are collinear."""
        bps, vals = list(self.breakpoints), list(self.values)
        out_b, out_v = [bps[0]], [vals[0]]
        for i in range(1, len(bps) - 1):
            a, b, c = out_b[-1], bps[i], bps[i + 1]
            va, vb, vc = out_v[-1], vals[i], vals[i + 1]
            if (vb - va) * (c - a) == (vc - va) * (b - a):
                continue
            out_b.append(b)
            out_v.append(vb)
        out_b.append(bps[-1])
        out_v.append(vals[-1])
        return PiecewiseLinearFn(tuple(out_b), tuple(out_v))

    def key(self) -> tuple:
        s = self.simplified()
        return (s.breakpoints, s.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearFn):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        pts = ", ".join(f"({b},{v})" for b, v in zip(self.breakpoints, self.values))
        return f"PiecewiseLinearFn[{pts}]"

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> list[list[str]]:
        return [[str(b), str(v)] for b, v in zip(self.breakpoints, self.values)]

    @staticmethod
    def from_json_obj(obj: Sequence[Sequence]) -> "PiecewiseLinearFn":
        pairs = []
        for item in obj:
            if len(item) != 2:
                raise ValueError(f"expected [t, value] pair, got {item!r}")
            t, v = item
            pairs.append((Fraction(str(t)), Fraction(str(v))))
        return PiecewiseLinearFn.from_pairs(pairs)


ZERO_FN = PiecewiseLinearFn.constant(0)


# ---------------------------------------------------------------------------
# Exact sorted-branch merging (the k-th lowest machinery)
# ---------------------------------------------------------------------------

def merge_sorted_branches(entries: Sequence[tuple[PiecewiseLinearFn, int]]
                          ) -> list[tuple[PiecewiseLinearFn, int]]:
    """Pointwise-sorted branch functions of a multiset of functions.

    entries are (function, multiplicity) with positive (possibly huge)
    multiplicities. Returns the distinct sorted-branch functions bottom to
    top as (function, multiplicity) with the same total; branch k of the
    underlying eigenvalue list is found by walking the cumulative counts.
    Exact: the cuts are all breakpoints plus all pairwise crossings, so
    every entry is affine between consecutive cuts and each returned branch
    is again piecewise linear. Entries are evaluated once per base knot and
    once per cut; everything after reads that value table.
    """
    entries = [(f, int(m)) for f, m in entries if m != 0]
    if not entries:
        raise ValueError("empty multiset")
    if any(m < 0 for _, m in entries):
        raise ValueError("multiplicities must be positive")
    fns = [f for f, _ in entries]
    base = sorted(set().union(*[f.breakpoints for f in fns]))
    cuts = set(base)
    # the value tables are indexed [knot][entry]
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
    # per interval: entry order (by value at the midpoint, doubled) and
    # cumulative multiplicity boundaries
    orders: list[list[int]] = []
    cums: list[list[int]] = []
    for left, right in zip(vals, vals[1:]):
        order = sorted(range(len(entries)), key=lambda e: (left[e] + right[e], e))
        cum = [0]
        for e in order:
            cum.append(cum[-1] + entries[e][1])
        orders.append(order)
        cums.append(cum)
    total = cums[0][-1]
    rank_cuts = sorted(set().union(*[set(c) for c in cums]))
    if rank_cuts[0] != 0 or rank_cuts[-1] != total:
        raise AssertionError("rank cuts do not span 0..total multiplicity")
    out: list[tuple[PiecewiseLinearFn, int]] = []
    for lo, hi in zip(rank_cuts, rank_cuts[1:]):
        values = []
        for i, (order, cum) in enumerate(zip(orders, cums)):
            # the order-part containing ranks (lo, hi]
            part = bisect_right(cum, lo) - 1
            if not (cum[part] <= lo and hi <= cum[part + 1]):
                raise AssertionError("rank range straddles two sorted entries")
            e = order[part]
            if i == 0:
                values.append(vals[0][e])
            elif values[-1] != vals[i][e]:
                # continuity of the k-th lowest across the cut
                raise AssertionError("sorted branch discontinuity")
            values.append(vals[i + 1][e])
        out.append((PiecewiseLinearFn(tuple(cuts), tuple(values)).simplified(),
                    hi - lo))
    return out


def kth_lowest_merge(entries: Sequence[tuple[PiecewiseLinearFn, int]]
                     ) -> "EigenvalueListField":
    """Eigenvalue-list field whose branch k at t is the k-th lowest value of
    the input multiset at t. Branches are continuous by construction."""
    blocks = merge_sorted_branches(entries)
    total = sum(m for _, m in blocks)
    if total > 10_000:
        raise ValueError(f"refusing to expand {total} branches; "
                         "use merge_sorted_branches directly")
    branches: list[PiecewiseLinearFn] = []
    for f, m in blocks:
        branches.extend([f] * m)
    return EigenvalueListField(exact=tuple(branches))


# ---------------------------------------------------------------------------
# Eigenvalue lists and symbolic elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueListField:
    """Ordered branch functions h_1 <= ... <= h_k, exact or sampled.

    exact: tuple of PiecewiseLinearFn; samples: float array (k, grid_size).
    Exactly one of the two is set.
    """

    exact: tuple[PiecewiseLinearFn, ...] | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if (self.exact is None) == (self.samples is None):
            raise ValueError("exactly one of exact/samples must be given")
        if self.exact is not None:
            for lo, hi in zip(self.exact, self.exact[1:]):
                if (hi - lo).min_value() < 0:
                    raise ValueError("branches must be pointwise sorted")
        else:
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 2:
                raise ValueError("samples must be (k, grid_size)")
            if s.shape[0] > 1 and np.min(np.diff(s, axis=0)) < -1e-9:
                raise ValueError("branches must be pointwise sorted")
            s.setflags(write=False)
            object.__setattr__(self, "samples", s)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def variation(self) -> Fraction | float:
        """Largest oscillation (max - min over [0,1]) among the branches."""
        if self.is_exact:
            return max((h.max_value() - h.min_value() for h in self.exact),
                       default=Fraction(0))
        spread = self.samples.max(axis=1) - self.samples.min(axis=1)
        return float(spread.max())


def symbolic_element(entries: Iterable[tuple[PiecewiseLinearFn, int]]
                     ) -> "SymbolicElement":
    """Normalize (merge equal branches, sort deterministically) and build."""
    acc: dict[tuple, tuple[PiecewiseLinearFn, int]] = {}
    for f, m in entries:
        m = int(m)
        if m < 0:
            raise ValueError("multiplicities must be positive")
        if m == 0:
            continue
        k = f.key()
        if k in acc:
            acc[k] = (acc[k][0], acc[k][1] + m)
        else:
            acc[k] = (f.simplified(), m)
    if not acc:
        raise ValueError("symbolic element needs at least one branch")
    items = sorted(acc.values(), key=lambda fm: fm[0].key())
    return SymbolicElement(entries=tuple(items))


@dataclass(frozen=True)
class SymbolicElement:
    """Spectral data of a self-adjoint element: branch functions with
    (big-integer) multiplicities, closed under connecting-map push-forward.

    Use symbolic_element() to construct; entries are normalized there.
    """

    entries: tuple[tuple[PiecewiseLinearFn, int], ...]

    @property
    def total_rank(self) -> int:
        return sum(m for _, m in self.entries)

    def sorted_branches(self) -> list[tuple[PiecewiseLinearFn, int]]:
        return merge_sorted_branches(self.entries)

    def variation(self) -> Fraction:
        """Eigenvalue variation: computed on the sorted branch functions,
        not on the raw entries."""
        return max(f.max_value() - f.min_value() for f, _ in self.sorted_branches())

    def weighted_sum(self) -> PiecewiseLinearFn:
        """sum over entries of multiplicity * branch (exact)."""
        acc = ZERO_FN
        for f, m in self.entries:
            acc = acc + f.scale(m)
        return acc

    def padded(self, extra: int) -> "SymbolicElement":
        """Corner-embedding zero padding.

        Only meaningful when no branch crosses 0 (each branch is everywhere
        >= 0 or everywhere <= 0); then eigenvalue lists and variation do not
        depend on the ambient corner and the constant-0 functions may be
        appended (or omitted) freely. Rejected otherwise.
        """
        if extra < 0:
            raise ValueError("padding must be nonnegative")
        if extra == 0:
            return self
        for f, _ in self.entries:
            lo, hi = f.range()
            if lo < 0 < hi:
                raise UnsupportedPaddingError(
                    f"branch {f!r} crosses 0; corner padding is not "
                    "well defined for it")
        return symbolic_element(self.entries + ((ZERO_FN, extra),))


def compose_spectral(patterns: Sequence[tuple[PiecewiseLinearFn, int]],
                     source: SymbolicElement) -> SymbolicElement:
    """Push spectral data through a block homomorphism given by point
    patterns: entries become (h o xi, mult_h * mult_xi)."""
    pats = [(f, int(m)) for f, m in patterns]
    if not pats:
        raise ValueError("empty pattern multiset")
    for f, m in pats:
        lo, hi = f.range()
        if lo < 0 or hi > 1:
            raise DomainRangeError(f"pattern range [{lo},{hi}] not within [0,1]")
        if m <= 0:
            raise ValueError("pattern multiplicities must be positive")
    out = []
    for h, mh in source.entries:
        for xi, mxi in pats:
            out.append((h.compose(xi), mh * mxi))
    return symbolic_element(out)


# ---------------------------------------------------------------------------
# Operations on sampled fields
# ---------------------------------------------------------------------------

def eigenvalue_list(a: SampledMatrixField) -> EigenvalueListField:
    """Sorted eigenvalue branches of a selfadjoint field."""
    if a.flavor != "selfadjoint":
        raise FlavorError("eigenvalue_list needs a selfadjoint field")
    w, _ = jacobi_eigh(a.samples, compute_v=False)
    return EigenvalueListField(samples=w.T.copy())


def eigenvalue_variation(a) -> Fraction | float:
    """EV: the largest branch oscillation, for fields, lists or symbolic
    elements. Sampled inputs use the grid max/min and therefore
    under-approximate by at most Lip * grid step."""
    if isinstance(a, SampledMatrixField):
        return eigenvalue_list(a).variation()
    if isinstance(a, (EigenvalueListField, SymbolicElement)):
        return a.variation()
    raise TypeError(f"cannot compute EV of {type(a).__name__}")


def functional_calculus(a, f: PiecewiseLinearFn,
                        tol: Tolerances = DEFAULT_TOLERANCES):
    """Apply f spectrally. For symbolic elements branches compose exactly;
    for selfadjoint fields eigenvalues map through f pointwise. The
    spectrum must lie in f's domain [0,1] (affine-normalize first)."""
    if isinstance(a, SymbolicElement):
        out = []
        for h, m in a.entries:
            lo, hi = h.range()
            if lo < 0 or hi > 1:
                raise DomainRangeError(
                    f"branch range [{lo},{hi}] outside the domain [0,1]")
            out.append((f.compose(h), m))
        return symbolic_element(out)
    if isinstance(a, SampledMatrixField):
        if a.flavor != "selfadjoint":
            raise FlavorError("functional calculus needs a selfadjoint field")
        w, v = jacobi_eigh(a.samples)
        if w.min() < -tol.tol_eig or w.max() > 1 + tol.tol_eig:
            raise DomainRangeError(
                f"spectrum [{w.min():.6g},{w.max():.6g}] outside [0,1]")
        fw = f.sample(np.clip(w, 0.0, 1.0))
        samples = np.einsum("bij,bj,bkj->bik", v, fw.astype(complex),
                            np.conjugate(v))
        return SampledMatrixField(samples, "selfadjoint", tol=tol)
    raise TypeError(f"cannot apply functional calculus to {type(a).__name__}")


def determinant_field(u: SampledMatrixField) -> np.ndarray:
    """Pointwise determinant of a unitary field (unit modulus)."""
    if u.flavor != "unitary":
        raise FlavorError("determinant_field needs a unitary field")
    return np.linalg.det(u.samples)


# ---------------------------------------------------------------------------
# chi family
# ---------------------------------------------------------------------------

def chi_family(L: int, c: QLike, d: QLike
               ) -> tuple[PiecewiseLinearFn, PiecewiseLinearFn, PiecewiseLinearFn]:
    """The plateau ramp chi (0 on [0,c], affine to 1 on [c,d], 1 after) and
    the two slope functions chi1(t) = t/L, chi2(t) = (-1 + 1/L) t.

    chi2 o chi has range [-1+1/L, 0] whenever the input range covers [c,d];
    chi1 o chi has range [0, 1/L].
    """
    if L < 2:
        raise ValueError("L must be at least 2")
    c, d = as_fraction(c), as_fraction(d)
    if not (0 <= c < d <= 1):
        raise ValueError(f"need 0 <= c < d <= 1, got c={c}, d={d}")
    knots: list[tuple[Fraction, Fraction]] = []
    if c > 0:
        knots.append((Fraction(0), Fraction(0)))
    knots.append((c, Fraction(0)))
    knots.append((d, Fraction(1)))
    if d < 1:
        knots.append((Fraction(1), Fraction(1)))
    chi = PiecewiseLinearFn.from_pairs(knots)
    chi1 = PiecewiseLinearFn.affine(Fraction(1, L))
    chi2 = PiecewiseLinearFn.affine(Fraction(1, L) - 1)
    return chi, chi1, chi2


# ---------------------------------------------------------------------------
# Point multisets and their min-max matching metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSetPoint:
    """A point of the quotient Y^k / permutations, for Y real numbers."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def cardinality(self) -> int:
        return len(self.points)

    def distance(self, other: "PSetPoint"):
        return pset_distance(self.points, other.points)


def pset_distance(x: Sequence, y: Sequence):
    """min over pairings of the max matching distance between two equal-size
    real multisets; equals the sorted coordinatewise max difference."""
    if len(x) != len(y):
        raise ValueError(f"cardinality mismatch: {len(x)} vs {len(y)}")
    xs, ys = sorted(x), sorted(y)
    return max((abs(a - b) for a, b in zip(xs, ys)), default=0)


def pset_distance_circle(x: Sequence[float], y: Sequence[float]) -> float:
    """Same metric for angle multisets on the circle; the optimal bottleneck
    matching is order preserving, so only cyclic shifts are scanned."""
    if len(x) != len(y):
        raise ValueError(f"cardinality mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        return 0.0
    return multiset_circle_distance(np.asarray(x, dtype=float)[None],
                                    np.asarray(y, dtype=float)[None])
