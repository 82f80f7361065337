import numpy as np
import pytest
import scipy.linalg

from conftest import commutator, nested_commutator, rand_anti_hermitian
from mpf_lab.operators import (
    NonSquareError,
    NotAntiHermitianError,
    matrix_exponential,
    spectral_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_expm_zero_is_identity():
    v = matrix_exponential(np.zeros((2, 2), dtype=complex))
    assert np.allclose(v, np.eye(2), atol=1e-14)


def test_expm_pauli_z_quarter_period():
    v = matrix_exponential(-1j * (np.pi / 2) * Z)
    assert np.allclose(v, np.diag([-1j, 1j]), atol=1e-12)


def test_expm_random_unitary_and_scipy_agree():
    rng = np.random.default_rng(7)
    a = rand_anti_hermitian(rng, 8)
    v = matrix_exponential(a)
    assert spectral_norm(v.conj().T @ v - np.eye(8)) <= 1e-10
    assert spectral_norm(v - scipy.linalg.expm(a)) <= 1e-10


def test_expm_rejects_non_anti_hermitian():
    with pytest.raises(NotAntiHermitianError):
        matrix_exponential(np.diag([1.0 + 0j, 2.0]))


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_expm_inverse_pair(dim):
    rng = np.random.default_rng(dim)
    a = rand_anti_hermitian(rng, dim)
    v = matrix_exponential(a)
    w = matrix_exponential(-a)
    assert spectral_norm(v @ w - np.eye(dim)) <= 1e-9


def test_spectral_norm_identity_and_diagonal():
    assert spectral_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(np.diag([1.0 + 0j, -3.0])) == pytest.approx(3.0, abs=1e-12)


def _power_iteration_norm(mat, steps=500, seed=0):
    # independent oracle: iterate A^H A on a random start vector
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    gram = mat.conj().T @ mat
    for _ in range(steps):
        v = gram @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert abs(spectral_norm(mat) - _power_iteration_norm(mat)) <= 1e-6


# The commutator checks below pin the conventions of the test oracles in
# conftest (right-nested, depth-1 identity) that other tests compare against.


def test_commutator_pinned_xz():
    assert np.allclose(commutator(X, Z), np.array([[0, -2], [2, 0]]), atol=1e-14)


def test_commutator_antisymmetry_and_self():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.max(np.abs(commutator(a, b) + commutator(b, a))) <= 1e-12
    assert spectral_norm(commutator(a, a)) == 0.0


def test_commutator_of_commuting_diagonals_is_zero():
    a = np.diag([1.0 + 0j, 2.0, 3.0])
    b = np.diag([4.0 + 0j, 5.0, 6.0])
    assert spectral_norm(commutator(a, b)) == 0.0


def test_nested_commutator_depth_conventions():
    assert np.array_equal(nested_commutator([Z]), Z)
    assert np.allclose(nested_commutator([X, Z]), commutator(X, Z))
    # right-nested: (Z, X, Z) means [Z, [X, Z]]
    explicit = commutator(Z, commutator(X, Z))
    assert np.allclose(nested_commutator([Z, X, Z]), explicit, atol=1e-14)


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9


def test_jacobi_identity_residual():
    rng = np.random.default_rng(17)
    a, b, c = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(3))
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert spectral_norm(total) <= 1e-9 * spectral_norm(a) * spectral_norm(b) * spectral_norm(c)


def test_array_inputs_must_be_square():
    for shape in ((2, 3), (4,), (2, 2, 2)):
        bad = np.zeros(shape, dtype=complex)
        with pytest.raises(NonSquareError):
            matrix_exponential(bad)
        with pytest.raises(NonSquareError):
            spectral_norm(bad)
