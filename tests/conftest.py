import numpy as np
import pytest

from cellab.config import DEFAULT_TOLERANCES, Tolerances
from cellab.numerics import (
    SampledMatrixField,
    jacobi_eigh,
    jitter_spectrum,
    normal_unitary_eig,
    random_hermitian,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCES


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
