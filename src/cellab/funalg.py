"""Function-algebra layer over [0,1]: exact rational piecewise-linear
functions, their exact sorted-branch merge, eigenvalue lists, spectral
composition for block homomorphisms, and the exact exponential-length
formulas read from them (the scalar min-max formula and the ordered-log
lower bound, with the CelBound they report in).

Exact objects use fractions.Fraction throughout, so every witness bound
downstream evaluates with zero grid error. The layer imports numpy only
where it takes sampled input, inside PiecewiseLinearFn.sample and the array
branch of scalar_cel_certificate, so the exact commands never load it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DomainRangeError, UnsupportedPaddingError, WindowError

if TYPE_CHECKING:
    import numpy as np

QLike = Fraction | int | str


def as_fraction(x: QLike) -> Fraction:
    """Coerce to an exact rational; floats are rejected deliberately."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int or string")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Exact piecewise-linear functions on [0, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-linear function on [0,1] with rational breakpoints/values.

    Affine between consecutive breakpoints; the first breakpoint is 0 and
    the last is 1, so evaluation is total and min/max are attained at
    breakpoints. The knots are canonical: construction drops every interior
    knot where the two adjacent pieces are collinear, so the field-wise
    equality and hash compare the function.
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
        object.__setattr__(self, "breakpoints", tuple(out_b))
        object.__setattr__(self, "values", tuple(out_v))

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
        import numpy as np

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
            bps, va, vb = self._aligned(other)
            return PiecewiseLinearFn(tuple(bps), tuple(a - b for a, b in zip(va, vb)))
        return self + PiecewiseLinearFn.constant(-as_fraction(other))

    def __neg__(self):
        return PiecewiseLinearFn(self.breakpoints, tuple(-v for v in self.values))

    def scale(self, c: QLike) -> "PiecewiseLinearFn":
        c = as_fraction(c)
        return PiecewiseLinearFn(self.breakpoints, tuple(c * v for v in self.values))

    # -- composition ----------------------------------------------------------

    def compose(self, g: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        """self o g: self is evaluated once at each knot of g, and a knot x of
        self strictly inside g's range on a piece (a, b) pulls back to the t
        in (a, b) with g(t) = x, where self's stored value at x is read."""
        lo, hi = g.range()
        if lo < 0 or hi > 1:
            raise DomainRangeError(
                f"inner function range [{lo},{hi}] leaves the domain [0,1]")
        pts = {t: self(v) for t, v in zip(g.breakpoints, g.values)}
        for a, b, ga, gb in zip(g.breakpoints, g.breakpoints[1:],
                                g.values, g.values[1:]):
            if ga == gb:
                continue
            i = bisect_right(self.breakpoints, min(ga, gb))
            j = bisect_left(self.breakpoints, max(ga, gb))
            for x, v in zip(self.breakpoints[i:j], self.values[i:j]):
                pts[a + (x - ga) * (b - a) / (gb - ga)] = v
        bps = tuple(sorted(pts))
        return PiecewiseLinearFn(bps, tuple(pts[t] for t in bps))

    def __repr__(self):
        pts = ", ".join(f"({b},{v})" for b, v in zip(self.breakpoints, self.values))
        return f"PiecewiseLinearFn[{pts}]"

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> list[list[str]]:
        return [[str(b), str(v)] for b, v in zip(self.breakpoints, self.values)]

    @staticmethod
    def from_json_obj(obj: Sequence[Sequence]) -> "PiecewiseLinearFn":
        if not isinstance(obj, (list, tuple)):
            raise ValueError(f"expected a list of [t, value] pairs, got {obj!r}")
        pairs = []
        for item in obj:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"expected [t, value] pair, got {item!r}")
            try:
                pairs.append((Fraction(str(item[0])), Fraction(str(item[1]))))
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in {item!r}") from exc
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
    every returned branch is again piecewise linear. Entries are evaluated
    only at the base knots. On a base interval (a, b) two entries cross
    inside iff their order at a is strictly opposite to that at b: sorted by
    (value at a, value at b), the crossing pairs are the strict inversions
    of the values at b, found by insertion. At an inner cut only the entries
    meeting there move (they leave it sorted by slope), and only their
    values v_a + slope·(t − a) are formed. A branch gets a knot only where
    the slope it follows changes: the canonical knots.
    """
    entries = [(f, int(m)) for f, m in entries if m != 0]
    if not entries:
        raise ValueError("empty multiset")
    if any(m < 0 for _, m in entries):
        raise ValueError("multiplicities must be positive")
    fns = [f for f, _ in entries]
    mults = [m for _, m in entries]
    base = sorted(set().union(*[f.breakpoints for f in fns]))
    base_vals = [[f(t) for f in fns] for t in base]
    # per piece between cuts: its left cut, the values there (at an inner
    # cut, of the entries meeting there), the slopes and the entry order
    pieces = []
    order = range(len(fns))
    for a, b, va, vb in zip(base, base[1:], base_vals, base_vals[1:]):
        width = b - a
        slope = [(y - x) / width for x, y in zip(va, vb)]
        order = sorted(order, key=lambda e: (va[e], vb[e], e))
        pieces.append((a, va, slope, order))
        meets: dict[Fraction, set[int]] = {}
        seen_v, seen_e = [], []
        for j in order:
            pos = bisect_right(seen_v, vb[j])
            for i in seen_e[pos:]:
                d = va[j] - va[i]
                t = a + width * d / (d + vb[i] - vb[j])
                meets.setdefault(t, set()).update((i, j))
            seen_v.insert(pos, vb[j])
            seen_e.insert(pos, j)
        for t in sorted(meets):
            # the entries meeting at t hold adjacent places in the order
            row = {e: va[e] + slope[e] * (t - a) for e in meets[t]}
            order = order.copy()
            for p, e in zip(sorted(map(order.index, row)),
                            sorted(row, key=lambda e: (row[e], slope[e], e))):
                order[p] = e
            pieces.append((t, row, slope, order))
    cums = [list(accumulate(map(mults.__getitem__, order), initial=0))
            for *_, order in pieces]
    total = cums[0][-1]
    rank_cuts = sorted(set().union(*cums))
    if rank_cuts[0] != 0 or rank_cuts[-1] != total:
        raise AssertionError("rank cuts do not span 0..total multiplicity")
    out: list[tuple[PiecewiseLinearFn, int]] = []
    for lo, hi in zip(rank_cuts, rank_cuts[1:]):
        knots, values = [], []
        e = s = None
        for (t, row, slope, order), cum in zip(pieces, cums):
            # the order-part containing ranks (lo, hi]
            part = bisect_right(cum, lo) - 1
            if not (cum[part] <= lo and hi <= cum[part + 1]):
                raise AssertionError("rank range straddles two sorted entries")
            prev, e = e, order[part]
            if prev is not None and prev != e and row[prev] != row[e]:
                # continuity of the k-th lowest across the cut
                raise AssertionError("sorted branch discontinuity")
            if prev is None or (slope[e] is not s and slope[e] != s):
                knots.append(t)
                values.append(row[e])
            s = slope[e]
        knots.append(base[-1])
        values.append(base_vals[-1][e])
        out.append((PiecewiseLinearFn(tuple(knots), tuple(values)), hi - lo))
    return out


# ---------------------------------------------------------------------------
# Eigenvalue lists and symbolic elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueListField:
    """Ordered exact branch functions h_1 <= ... <= h_k."""

    exact: tuple[PiecewiseLinearFn, ...]

    def __post_init__(self):
        for lo, hi in zip(self.exact, self.exact[1:]):
            if any(b < a for a, b in zip(*lo._aligned(hi)[1:])):
                raise ValueError("branches must be pointwise sorted")


def symbolic_element(entries: Iterable[tuple[PiecewiseLinearFn, int]]
                     ) -> "SymbolicElement":
    """Normalize (merge equal branches, sort deterministically) and build."""
    acc: dict[PiecewiseLinearFn, int] = {}
    for f, m in entries:
        m = int(m)
        if m < 0:
            raise ValueError("multiplicities must be positive")
        if m:
            acc[f] = acc.get(f, 0) + m
    if not acc:
        raise ValueError("symbolic element needs at least one branch")
    items = sorted(acc.items(), key=lambda fm: (fm[0].breakpoints, fm[0].values))
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
        """sum over entries of multiplicity * branch (exact), evaluated
        once at the union of the entries' knots."""
        knots = sorted(set(ZERO_FN.breakpoints).union(
            *[f.breakpoints for f, _ in self.entries]))
        return PiecewiseLinearFn(tuple(knots), tuple(
            sum(m * f(t) for f, m in self.entries) for t in knots))

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
    patterns: entries become (h o xi, mult_h * mult_xi). A pattern leaving
    [0,1] raises DomainRangeError in compose; a zero multiplicity raises here.
    Connecting maps and the chi witness are both pushed here: a connecting
    map is itself a SymbolicElement of its point evaluations, so with source
    the map m -> j and patterns those of j -> n this composes the maps."""
    pats = [(f, int(m)) for f, m in patterns]
    if not pats:
        raise ValueError("empty pattern multiset")
    if any(m <= 0 for _, m in pats):
        raise ValueError("pattern multiplicities must be positive")
    return symbolic_element([(h.compose(xi), mh * mxi)
                             for h, mh in source.entries for xi, mxi in pats])


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
# Exact exponential-length formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CelBound:
    """A certified lower/upper sandwich for an exponential length.

    lower/upper are radians; lower_pi carries the exact coefficient of pi
    where the computation was exact. epsilon_report aggregates jitter and
    residual slack already included in the bound values.
    """

    lower: float = 0.0
    upper: float = math.inf
    lower_method: str = "trivial"
    upper_method: str = "none"
    epsilon_report: float = 0.0
    certificate: dict = field(default_factory=dict)
    lower_pi: Fraction | None = None

    def __post_init__(self):
        if self.upper != math.inf and self.lower > self.upper + 1e-9 + self.epsilon_report:
            raise ValueError(
                f"invalid bound: lower {self.lower} exceeds upper {self.upper}")


# Scalar formula: cel(e^{i alpha}) = min_k max_t |alpha(t) - 2k pi|

def _minmax_over_shifts(m, M, two: Fraction | float):
    """min over integers k of sup_t |alpha(t) - k*two|, where alpha has
    range [m, M] and `two` represents one full turn in the working unit
    (Fraction(2) for pi units, 2*pi for radians). The sup equals
    max(M - k*two, k*two - m), which falls while k*two is below the range's
    midpoint (m + M)/2 and rises after it. So the least minimizing k is
    floor((m + M)/(2 two)) or the next integer; the scan covers one more
    shift on each side, which absorbs float rounding of the midpoint, and
    keeps the first (least) k on ties.
    """
    def sup(k):
        c = two * k
        return max(M - c, c - m)  # == max(|M-c|, |m-c|) since m <= M

    mid = math.floor((m + M) / (2 * two))
    best_k = min(range(mid - 1, mid + 3), key=sup)  # the first of equal values
    return sup(best_k), best_k


def _max_over_branches(mins, maxs, two: Fraction | float):
    """The scalar min-max of the branch with ranges [mins[j], maxs[j]] that
    has the largest one: (first such branch j, its value, its shift)."""
    per = [_minmax_over_shifts(lo, hi, two) for lo, hi in zip(mins, maxs)]
    best_j = max(range(len(per)), key=lambda j: per[j][0])
    return best_j, *per[best_j]


def scalar_cel(alpha) -> Fraction | float:
    """Exponential length of the scalar unitary t -> exp(i alpha(t)).

    alpha: PiecewiseLinearFn holding alpha/pi (exact; returns the
    coefficient of pi as a Fraction) or a 1-d float array of radians
    (returns radians). The min-max is attained at range endpoints, hence
    exact for piecewise-linear input.
    """
    return scalar_cel_certificate(alpha)[0]


def scalar_cel_certificate(alpha):
    """scalar_cel plus the minimizing integer shift."""
    if isinstance(alpha, PiecewiseLinearFn):
        return _minmax_over_shifts(alpha.min_value(), alpha.max_value(), Fraction(2))
    import numpy as np
    from .numerics import TWO_PI

    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sampled alpha must be one-dimensional")
    return _minmax_over_shifts(float(arr.min()), float(arr.max()), TWO_PI)


# Eigenvalue-list lower bound

def cel_lower_ordered_log(e: EigenvalueListField) -> CelBound:
    """Lower bound from an eigenvalue list of a logarithm H with u=exp(iH).

    Precondition: the whole list fits a window [alpha, alpha+2pi] for some
    alpha in [-2pi, 0); checked, violations name the failing inequality.
    The branches are in coefficient-of-pi units. The bound is max over
    branches of the scalar min-max formula.
    """
    mins = [h.min_value() for h in e.exact]
    maxs = [h.max_value() for h in e.exact]
    _check_window(min(mins), max(maxs))
    best_j, value, shift = _max_over_branches(mins, maxs, Fraction(2))
    return CelBound(
        lower=float(value) * math.pi,
        upper=math.inf,
        lower_method="ordered-log-branches",
        certificate={"branch": best_j, "shift": shift},
        lower_pi=value,
    )


def _check_window(m: Fraction, M: Fraction):
    """Feasibility of alpha in [-2pi, 0) with alpha <= h <= alpha + 2pi,
    for branch extremes m, M in coefficient-of-pi units."""
    if m < -2:
        raise WindowError(f"min branch {m} < -2pi: no admissible alpha")
    if M - m > 2:
        raise WindowError(f"branch spread {M - m} exceeds 2pi")
    if M >= 2:
        raise WindowError(f"max branch {M} >= 2pi: alpha would be >= 0")
