"""Dense complex linear algebra for desk-scale quantum operators.

Everything downstream (product formulas, linear-combination schemes, the
commutator machinery) funnels through the handful of primitives collected
here: the dense operator wrapper, the eigendecomposition matrix
exponential and the spectral norm. Commutators of dense matrices are
formed where they are used (bch) or in the test oracles.

All operations are pure functions on immutable inputs; returned arrays are
never views into caller data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseOperator",
    "DimMismatchError",
    "NonSquareError",
    "NotAntiHermitianError",
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


@dataclass(frozen=True)
class DenseOperator:
    """A square complex matrix.

    Args:
        matrix: Square 2-D complex array; copied and frozen on construction.

    Raises:
        NonSquareError: If ``matrix`` is not a square 2-D array.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        """Matrix dimension (the operator acts on C^dim)."""
        return self.matrix.shape[0]


def _check_anti_hermitian(a: np.ndarray) -> None:
    """The entrywise check: a + a^dagger within STRUCTURAL_TOL of zero."""
    if np.max(np.abs(a + a.conj().T)) > STRUCTURAL_TOL:
        raise NotAntiHermitianError(
            f"input is not anti-Hermitian within {STRUCTURAL_TOL:g}"
        )


def _expm_anti_hermitian(a: np.ndarray) -> np.ndarray:
    """exp of an anti-Hermitian array via eigendecomposition of i*a.

    Internal fast path shared with the formula modules; assumes the input
    has already been checked.
    """
    herm = 1j * a
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(-1j * w)) @ v.conj().T


def matrix_exponential(a: DenseOperator) -> DenseOperator:
    """Exponential of an anti-Hermitian operator, exactly unitary.

    Computed through the Hermitian eigendecomposition of ``i*A`` rather than
    a truncated series, so the result is unitary up to roundoff; everything
    built on top relies on the reference exponential not drifting.

    Args:
        a: Anti-Hermitian operator (entrywise deviation at most
            STRUCTURAL_TOL).

    Returns:
        ``exp(A)``.

    Raises:
        NotAntiHermitianError: If ``A + A^dagger`` deviates from zero by more
            than the structural tolerance.

    Examples:
        >>> z = DenseOperator(np.diag([1.0, -1.0]))
        >>> u = matrix_exponential(DenseOperator(-1j * (np.pi / 2) * z.matrix))
        >>> np.allclose(u.matrix, np.diag([-1j, 1j]))
        True
    """
    _check_anti_hermitian(a.matrix)
    return DenseOperator(_expm_anti_hermitian(a.matrix))


def spectral_norm(a: DenseOperator | np.ndarray) -> float:
    """Largest singular value, via full SVD.

    Exact SVD is affordable at desk scale (dim <= 1024) and serves as the
    verification anchor for every error measurement in the package. The
    error paths call it once per symmetry sector of the model
    (HamiltonianSum.sectors), so that bound is on the sector dimension:
    a 12-qubit periodic chain splits into four sectors of dim 1024.

    Args:
        a: Square operator or raw 2-D array.

    Returns:
        The spectral norm as a nonnegative float.

    Raises:
        NonSquareError: If the input is not square.
    """
    m = a.matrix if isinstance(a, DenseOperator) else np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])
