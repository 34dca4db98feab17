"""Function-algebra layer over [0,1]: exact rational piecewise-linear
functions, their exact sorted-branch merge, eigenvalue lists, spectral
composition for block homomorphisms, and the exact exponential-length
formulas read from them (the scalar min-max formula and the ordered-log
lower bound, with the CelBound they report in), with the one integer-shift
solver that they and the sampled layer's bounds and path share.

Exact values are fractions.Fraction (the hot kernels compare cross-multiplied
numerators and build one only for a value they keep), so every witness bound
downstream evaluates with zero grid error. A function is read at many points
in one integer walk along its knots (`_walk`), and several functions at the
union of their knots by `_union_values`. The layer imports numpy only
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
    """Coerce to an exact rational; floats are rejected deliberately. A
    Fraction comes back unchanged (it is immutable), so building a function
    from existing knots or evaluating at one does not rebuild it."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int or string")
    return Fraction(x)


def _ints(xs: Iterable[Fraction]) -> list[tuple[int, int]]:
    """(numerator, positive denominator) of each rational."""
    return [(x.numerator, x.denominator) for x in xs]


def _lerp(a, b, p, q, x: int, y: int) -> tuple[int, int]:
    """The value at t = x/y of the line through (a, p) and (b, q), a < b, all
    `_ints` pairs, as an unreduced numerator and positive denominator."""
    (an, ad), (bn, bd), (pn, pd), (qn, qd) = a, b, p, q
    w = bn * ad - an * bd
    return (pn * qd * y * w + (qn * pd - pn * qd) * (x * ad - an * y) * bd,
            pd * qd * y * w)


def _walk(knots, values, points):
    """One walk along a function's knots and values (`_ints` pairs) at the
    ascending points (x, y) of [0, 1]: per point, the index i of its piece
    (knots[i] <= x/y), and None at knots[i] itself, else the unreduced `_lerp`."""
    last = len(knots) - 1
    i = 0
    for x, y in points:
        while i < last and knots[i + 1][0] * y <= x * knots[i + 1][1]:
            i += 1
        yield i, (None if knots[i] == (x, y) else
                  _lerp(knots[i], knots[i + 1], values[i], values[i + 1], x, y))


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
        # knots, values and each piece's run dt as (numerator, positive
        # denominator) pairs, so that the pass forms no Fraction
        ts, vs = _ints(bps), _ints(vals)
        runs = [(n * c - m * d, c * d) for (m, c), (n, d) in zip(ts, ts[1:])]
        if any(n <= 0 for n, _ in runs):
            raise ValueError("breakpoints must be strictly increasing")
        if len(bps) > 2:
            # an interior knot goes when the pieces on its two sides have
            # one slope dv/dt: dv1·dt2 == dv2·dt1 on cross-multiplied integers
            slopes = [((n * c - m * d) * rd, c * d * rn)
                      for (m, c), (n, d), (rn, rd) in zip(vs, vs[1:], runs)]
            keep = [0, *(i for i in range(1, len(bps) - 1)
                         if slopes[i - 1][0] * slopes[i][1]
                         != slopes[i][0] * slopes[i - 1][1]), len(bps) - 1]
            bps, vals = (tuple(bps[i] for i in keep),
                         tuple(vals[i] for i in keep))
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
        if self.breakpoints[i] == t:
            return self.values[i]
        return Fraction(*_lerp(*_ints(self.breakpoints[i:i + 2] + self.values[i:i + 2]),
                               t.numerator, t.denominator))

    def _values_at(self, ts: Sequence[Fraction]) -> list[Fraction]:
        """The values at ascending points ts of [0, 1] (repeats allowed), read
        in one `_walk`: the same Fractions as [self(t) for t in ts], a knot's
        being the stored value itself. The points are not checked: every
        caller passes knots of functions on [0, 1], or values already checked
        to lie there."""
        vals = self.values
        return [vals[i] if v is None else Fraction(*v)
                for i, v in _walk(_ints(self.breakpoints), _ints(vals), _ints(ts))]

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

    def __add__(self, other):
        if isinstance(other, PiecewiseLinearFn):
            bps, (va, vb) = _union_values((self, other))
            return PiecewiseLinearFn(tuple(bps), tuple(a + b for a, b in zip(va, vb)))
        return self + PiecewiseLinearFn.constant(other)

    def __sub__(self, other):
        if isinstance(other, PiecewiseLinearFn):
            bps, (va, vb) = _union_values((self, other))
            return PiecewiseLinearFn(tuple(bps), tuple(a - b for a, b in zip(va, vb)))
        return self + PiecewiseLinearFn.constant(-as_fraction(other))

    def __neg__(self):
        return PiecewiseLinearFn(self.breakpoints, tuple(-v for v in self.values))

    def scale(self, c: QLike) -> "PiecewiseLinearFn":
        c = as_fraction(c)
        return PiecewiseLinearFn(self.breakpoints, tuple(c * v for v in self.values))

    # -- composition ----------------------------------------------------------

    def compose(self, g: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        """self o g in one ordered pass along g's pieces: a piece (a, b) gives
        its left knot, valued self(g(a)) (one call per knot of g), then each
        knot x of self strictly between g(a) and g(b), valued as stored at the
        t in (a, b) with g(t) = x (x descends on a falling piece, so t rises)."""
        lo, hi = g.range()
        if lo < 0 or hi > 1:
            raise DomainRangeError(
                f"inner function range [{lo},{hi}] leaves the domain [0,1]")
        knots, vals = [], []
        for a, b, ga, gb in zip(g.breakpoints, g.breakpoints[1:],
                                g.values, g.values[1:]):
            knots.append(a)
            vals.append(self(ga))
            i = bisect_right(self.breakpoints, min(ga, gb))
            j = bisect_left(self.breakpoints, max(ga, gb))
            for k in (range(i, j) if ga < gb else range(j - 1, i - 1, -1)):
                knots.append(a + (self.breakpoints[k] - ga) * (b - a) / (gb - ga))
                vals.append(self.values[k])
        knots.append(g.breakpoints[-1])
        vals.append(self(g.values[-1]))
        return PiecewiseLinearFn(tuple(knots), tuple(vals))

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


def _union_values(fns) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The ascending union of the functions' knots, and each function's
    values there, read in one walk along it."""
    knots = sorted(set().union(*[f.breakpoints for f in fns]))
    return knots, [f._values_at(knots) for f in fns]


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
    the slope it follows changes: the canonical knots. Each entry's values
    at the base knots are read in one walk along it. Each base interval
    scales its entries' end values to one common denominator, so all the
    keys, values and slopes above are integers.
    """
    entries = [(f, int(m)) for f, m in entries if m != 0]
    if not entries:
        raise ValueError("empty multiset")
    if any(m < 0 for _, m in entries):
        raise ValueError("multiplicities must be positive")
    fns = [f for f, _ in entries]
    mults = [m for _, m in entries]
    base, cols = _union_values(fns)
    base_vals = list(zip(*cols))
    # per piece between cuts: its left cut, the values there (at an inner
    # cut, of the entries meeting there) and the slopes, each as integer
    # numerators over one denominator, and the entry order
    pieces = []
    order = range(len(fns))
    for a, b, va, vb in zip(base, base[1:], base_vals, base_vals[1:]):
        den = math.lcm(*(v.denominator for v in va + vb))
        A = [v.numerator * (den // v.denominator) for v in va]
        B = [v.numerator * (den // v.denominator) for v in vb]
        (an, ad), (bn, bd) = _ints((a, b))
        wn, wd = bn * ad - an * bd, ad * bd
        slope, slope_den = [(y - x) * wd for x, y in zip(A, B)], den * wn
        order = sorted(order, key=lambda e: (A[e], B[e], e))
        pieces.append((a, A, den, slope, slope_den, order))
        meets: dict[tuple[int, int], set[int]] = {}
        seen_v, seen_e = [], []
        for j in order:
            pos = bisect_right(seen_v, B[j])
            for i in seen_e[pos:]:
                # i and j meet at a + (b - a)·p/q, the key p/q in lowest terms
                p = A[j] - A[i]
                q = p + B[i] - B[j]
                g = math.gcd(p, q)
                meets.setdefault((p // g, q // g), set()).update((i, j))
            seen_v.insert(pos, B[j])
            seen_e.insert(pos, j)
        for t, p, q in sorted((Fraction(an * wd * q + wn * p * ad, ad * wd * q), p, q)
                              for p, q in meets):
            # the entries meeting at t hold adjacent places in the order;
            # their values there are row[e] / (den·q)
            row = {e: A[e] * (q - p) + B[e] * p for e in meets[p, q]}
            order = order.copy()
            for k, e in zip(sorted(map(order.index, row)),
                            sorted(row, key=lambda e: (row[e], slope[e], e))):
                order[k] = e
            pieces.append((t, row, den * q, slope, slope_den, order))
    cums = [list(accumulate(map(mults.__getitem__, order), initial=0))
            for *_, order in pieces]
    total = cums[0][-1]
    rank_cuts = sorted(set().union(*cums))
    if rank_cuts[0] != 0 or rank_cuts[-1] != total:
        raise AssertionError("rank cuts do not span 0..total multiplicity")
    out: list[tuple[PiecewiseLinearFn, int]] = []
    for lo, hi in zip(rank_cuts, rank_cuts[1:]):
        knots, values = [], []
        e = s = s_den = None
        for (t, row, den, slope, slope_den, order), cum in zip(pieces, cums):
            # the order-part containing ranks (lo, hi]
            part = bisect_right(cum, lo) - 1
            if not (cum[part] <= lo and hi <= cum[part + 1]):
                raise AssertionError("rank range straddles two sorted entries")
            prev, e = e, order[part]
            if prev is not None and prev != e and row[prev] != row[e]:
                # continuity of the k-th lowest across the cut
                raise AssertionError("sorted branch discontinuity")
            # within one base interval the slopes share their denominator
            if prev is None or (slope[e] != s if slope_den is s_den
                                else slope[e] * s_den != s * slope_den):
                knots.append(t)
                values.append(Fraction(row[e], den))
            s, s_den = slope[e], slope_den
        knots.append(base[-1])
        values.append(base_vals[-1][e])
        out.append((PiecewiseLinearFn(tuple(knots), tuple(values)), hi - lo))
    return out


# ---------------------------------------------------------------------------
# Eigenvalue lists and symbolic elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueListField:
    """Ordered exact branch functions h_1 <= ... <= h_k.

    Construction checks the order: two piecewise-linear functions compare
    pointwise iff they compare at every knot of either, so each knot of one
    branch of an adjacent pair is compared with the other's piece there
    (`_against`, on integers) and a pair out of order there is rejected.
    """

    exact: tuple[PiecewiseLinearFn, ...]

    def __post_init__(self):
        knots = [(_ints(h.breakpoints), _ints(h.values)) for h in self.exact]
        for lo, hi in zip(knots, knots[1:]):
            if not (all(a <= b for a, b in _against(lo, hi))
                    and all(a <= b for b, a in _against(hi, lo))):
                raise ValueError("branches must be pointwise sorted")


def _against(f, g):
    """f's value and g's at each knot of f, as integer numerators over one
    positive denominator; f and g are their knots' and values' `_ints`."""
    (fb, fv), (_, gv) = f, g
    for (vn, vd), (i, at) in zip(fv, _walk(*g, fb)):
        n, d = gv[i] if at is None else at
        yield vn * d, n * vd


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
        once at the union of the entries' knots, one walk per entry."""
        knots, cols = _union_values([f for f, _ in self.entries])
        cols = [[m * v for v in col] for (_, m), col in zip(self.entries, cols)]
        return PiecewiseLinearFn(tuple(knots), tuple(map(sum, zip(*cols))))

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

def _integer_shifts(mins, maxs, two, total: int | None = None) -> list[int]:
    """Integer shifts k_j for branches with ranges [mins[j], maxs[j]] in a
    unit of which `two` is one turn (Fraction(2) for pi units, 2*pi for
    radians, 1 for turns). Shift k moves a branch to alpha - k*two, of sup
    norm max(M - k*two, k*two - m), least near the midpoint (m + M)/2.

    With no total, each branch gets its least minimizing shift c. With an
    integer total, the shifts sum to it: the least cap on the largest norm,
    then the lexicographically smallest vector under it. That cap is the
    norm of some branch's shift within |total - sum(c)| of its c (under it
    every other branch reaches its own c), so any total is solved;
    ArithmeticError for a nonzero total with no branches. Exact: each input
    (int, float or Fraction) is read by as_integer_ratio, scaled to one
    common denominator and compared as an integer; callers compute norms in
    their own arithmetic.
    """
    ratios = [x.as_integer_ratio() for x in (two, *mins, *maxs)]
    d = math.lcm(*(q for _, q in ratios))
    t, *ends = [p * (d // q) for p, q in ratios]
    ranges = list(zip(ends[:len(mins)], ends[len(mins):]))
    # floor(mid) + 1 has the smaller norm only past the half turn between
    best = [a + (r > t) for a, r in (divmod(m + M, 2 * t) for m, M in ranges)]
    if total is None:
        return best
    delta = abs(total - sum(best))
    # with no branches, cap 0 admits exactly the empty sum 0
    caps = sorted({max(M - k * t, k * t - m)
                   for (m, M), c in zip(ranges, best)
                   for k in range(c - delta, c + delta + 1)} or {0})
    for cap in caps:
        least = [-((cap - M) // t) for _, M in ranges]
        most = [(cap + m) // t for m, _ in ranges]
        if (all(a <= b for a, b in zip(least, most))
                and sum(least) <= total <= sum(most)):
            break
    else:
        raise ArithmeticError("no feasible integer shift vector")
    shifts, left, room = [], total, sum(most)
    for a, b in zip(least, most):
        room -= b
        shifts.append(max(a, left - room))
        left -= shifts[-1]
    if left != 0:
        raise AssertionError(f"shift vector misses its total by {left}")
    return shifts


def _max_over_branches(mins, maxs, two):
    """The branch with ranges [mins[j], maxs[j]] of largest scalar min-max:
    (first such j, its value max(M - k*two, k*two - m) in the inputs' own
    arithmetic, its least minimizing shift k)."""
    per = [(max(M - two * k, two * k - m), k)
           for m, M, k in zip(mins, maxs, _integer_shifts(mins, maxs, two))]
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
        return _max_over_branches(
            [alpha.min_value()], [alpha.max_value()], Fraction(2))[1:]
    import numpy as np
    from .numerics import TWO_PI

    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sampled alpha must be one-dimensional")
    return _max_over_branches(
        [float(arr.min())], [float(arr.max())], TWO_PI)[1:]


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
