from fractions import Fraction

import numpy as np
import pytest

from cellab.config import DEFAULT_TOLERANCES
from cellab.funalg import PiecewiseLinearFn
from cellab.numerics import (
    SampledMatrixField,
    adjoint,
    jacobi_eigh,
    jitter_spectrum,
    normal_unitary_eig,
    random_hermitian,
    unitary_exp,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCES


def constant_field(matrix: np.ndarray, grid_size: int, flavor: str = "general",
                   **kw) -> SampledMatrixField:
    """The field that takes the value matrix at every grid point."""
    m = np.asarray(matrix, dtype=np.complex128)
    return SampledMatrixField(np.tile(m, (grid_size, 1, 1)), flavor, **kw)


def identity_field(dim: int, grid_size: int) -> SampledMatrixField:
    return constant_field(np.eye(dim), grid_size, "unitary")


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A seeded random n x n unitary: the eigenbasis of a random hermitian."""
    return jacobi_eigh(random_hermitian(rng, n))[1]


def jitter_unitary(field: SampledMatrixField) -> tuple[SampledMatrixField, float]:
    """Multiply the j-th (angle-sorted) eigenvalue by e^{i j eps} pointwise.

    Rebuilds the field from jitter_spectrum's output in its own eigenbasis,
    so the result is within n*eps of the input in operator norm. A field
    that jitter_spectrum finds gapped comes back as is, with eps 0.0.
    """
    lam, v, _ = normal_unitary_eig(field.samples)
    lam2, eps = jitter_spectrum(lam)
    if eps == 0.0:
        return field, eps
    samples = np.einsum("bij,bj,bkj->bik", v, lam2, np.conjugate(v))
    return SampledMatrixField(samples, "unitary"), eps


def conjugated_field(field: SampledMatrixField, seed: int) -> SampledMatrixField:
    """W u W* for W(t) = exp(i(tA + t^2 B)), with A and B seeded random
    hermitian matrices: a smooth, non-constant change of eigenbasis that
    keeps every eigenvalue, so a diagonal witness field keeps its exact
    value while the eigensolver has real work to do."""
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, field.dim), random_hermitian(rng, field.dim)
    ts = np.linspace(0.0, 1.0, field.grid_size)[:, None, None]
    w = unitary_exp(SampledMatrixField(ts * a + ts ** 2 * b, "selfadjoint")).samples
    return SampledMatrixField(w @ field.samples @ adjoint(w), "unitary")


def random_plf(rng: np.random.Generator, *, n_knots: int = 4, lo=-2, hi=2,
               denom: int = 64) -> PiecewiseLinearFn:
    """A seeded piecewise-linear function with n_knots knots on the grid
    1/denom and values in [lo, hi] on the same grid."""
    ts = sorted(rng.choice(np.arange(1, denom), size=n_knots - 2,
                           replace=False).tolist())
    bps = [Fraction(0)] + [Fraction(int(t), denom) for t in ts] + [Fraction(1)]
    vals = [Fraction(int(rng.integers(lo * denom, hi * denom + 1)), denom)
            for _ in bps]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


def clamp01(f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """f rescaled affinely onto [0, 1] unless its range already lies there;
    a constant outside [0, 1] becomes the constant 1/2."""
    lo, hi = f.range()
    if lo >= 0 and hi <= 1:
        return f
    span = hi - lo
    if span == 0:
        return PiecewiseLinearFn.constant(Fraction(1, 2))
    return PiecewiseLinearFn(
        f.breakpoints, tuple((v - lo) / span for v in f.values))


def random_patterns(rng: np.random.Generator) -> list[tuple[PiecewiseLinearFn, int]]:
    """One to three seeded point patterns into [0, 1], each a dyadic
    constant l/2^r or a dyadic step t |-> (l + t)/2^r, with multiplicity
    1 to 3."""
    out = []
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(1, 4))
        if rng.integers(0, 2):
            l = int(rng.integers(1, (1 << r)))
            out.append((PiecewiseLinearFn.constant(Fraction(l, 1 << r)),
                        int(rng.integers(1, 4))))
        else:
            l = int(rng.integers(0, (1 << r)))
            out.append((PiecewiseLinearFn.from_pairs(
                [(0, Fraction(l, 1 << r)), (1, Fraction(l + 1, 1 << r))]),
                int(rng.integers(1, 4))))
    return out
