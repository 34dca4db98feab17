import numpy as np
import pytest

from cellab.config import DEFAULT_TOLERANCES, Tolerances
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


def jitter_unitary(field: SampledMatrixField, tol: Tolerances = DEFAULT_TOLERANCES
                   ) -> tuple[SampledMatrixField, float]:
    """Multiply the j-th (angle-sorted) eigenvalue by e^{i j eps} pointwise.

    Rebuilds the field from jitter_spectrum's output in its own eigenbasis,
    so the result is within n*eps of the input in operator norm. A field
    that jitter_spectrum finds gapped comes back as is, with eps 0.0.
    """
    lam, v, _ = normal_unitary_eig(field.samples, tol)
    lam2, eps = jitter_spectrum(lam, tol)
    if eps == 0.0:
        return field, eps
    samples = np.einsum("bij,bj,bkj->bik", v, lam2, np.conjugate(v))
    return SampledMatrixField(samples, "unitary", tol=tol), eps


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
