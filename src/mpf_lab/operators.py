"""Dense complex linear algebra for desk-scale quantum operators.

An operator is a plain square complex ndarray. Everything downstream
(product formulas, linear-combination schemes, the commutator machinery)
funnels through the handful of primitives collected here: the
eigendecomposition matrix exponential (hermitian_evolution) and the
spectral norm. Commutators of dense matrices are formed where they are
used (bch) or in the test oracles.

Producers return the array they built, without a copy and never as a view
into caller data. The functions that take an array from a caller check
that it is square (NonSquareError): matrix_exponential, spectral_norm and
bch.dyson_expansion.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimMismatchError",
    "NonSquareError",
    "NotAntiHermitianError",
    "hermitian_evolution",
    "matrix_exponential",
    "spectral_norm",
]

#: Absolute tolerance for the anti-Hermitian check. Double precision leaves
#: ample headroom for dims up to 2**10.
STRUCTURAL_TOL = 1e-10


class NonSquareError(ValueError):
    """Matrix input is not square."""


class NotAntiHermitianError(ValueError):
    """Input fails the entrywise anti-Hermitian check."""


class DimMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")


def _check_anti_hermitian(a: np.ndarray) -> None:
    """The entrywise check on a square array: a + a^dagger within
    STRUCTURAL_TOL of zero."""
    _check_square(a)
    if np.max(np.abs(a + a.conj().T)) > STRUCTURAL_TOL:
        raise NotAntiHermitianError(
            f"input is not anti-Hermitian within {STRUCTURAL_TOL:g}"
        )


def hermitian_evolution(w: np.ndarray, v: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t H) = V diag(exp(-i t w)) V^dagger from the eigendecomposition
    (w, v) = np.linalg.eigh(H) of a Hermitian H."""
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Exponential of an anti-Hermitian operator, exactly unitary.

    Computed through the Hermitian eigendecomposition of ``i*A`` rather than
    a truncated series, so the result is unitary up to roundoff; everything
    built on top relies on the reference exponential not drifting.

    Args:
        a: Square anti-Hermitian array (entrywise deviation at most
            STRUCTURAL_TOL).

    Returns:
        ``exp(A)``.

    Raises:
        NonSquareError: If the input is not square.
        NotAntiHermitianError: If ``A + A^dagger`` deviates from zero by more
            than the structural tolerance.

    Examples:
        >>> z = np.diag([1.0, -1.0])
        >>> u = matrix_exponential(-1j * (np.pi / 2) * z)
        >>> np.allclose(u, np.diag([-1j, 1j]))
        True
    """
    _check_anti_hermitian(a)
    return hermitian_evolution(*np.linalg.eigh(1j * a))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, via full SVD.

    Exact SVD is affordable at desk scale (dim <= 1024) and serves as the
    verification anchor for every error measurement in the package. The
    error paths call it once per invariant block they measure
    (HamiltonianSum.error_blocks), so that bound is on the block dimension:
    a 12-qubit periodic chain has two error blocks, each of dim 462.

    Args:
        a: Square 2-D array.

    Returns:
        The spectral norm as a nonnegative float.

    Raises:
        NonSquareError: If the input is not square.
    """
    m = np.asarray(a)
    _check_square(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])
