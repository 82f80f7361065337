import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import commutator, fit_loglog, rand_anti_hermitian
from mpf_lab.bch import (
    ConvergenceRiskError,
    DepthCapError,
    _log_product_terms,
    dyson_expansion,
    effective_generator,
    symmetric_bch_term,
    symmetric_bch_terms,
)
from mpf_lab.formulas import build_spec, evaluate_spec
from mpf_lab.hamiltonians import heisenberg_1d
from mpf_lab.operators import (
    DimMismatchError,
    NonSquareError,
    NotAntiHermitianError,
    matrix_exponential,
    spectral_norm,
)

PHI_DEPTH_CAP = 8


def descent_count(sigma) -> int:
    """Number of positions i with sigma(i+1) < sigma(i), sigma in one-line
    notation."""
    return sum(1 for a, b in zip(sigma, sigma[1:]) if b < a)


def _permutation_weights(k: int) -> list:
    """(index permutation, (-1)^d / C(k-1, d)) for all sigma in S_k."""
    out = []
    for p in itertools.permutations(range(k)):
        d = descent_count(p)
        out.append((p, (-1.0) ** d / math.comb(k - 1, d)))
    return out


def phi_k(ys):
    """Degree-k component functional of the log-of-product expansion, the
    descent-weight oracle: (1/k^2) sum_sigma (-1)^d / C(k-1, d) *
    [Y_s1,[...,Y_sk]] over the k = len(ys) <= 8 square arrays; k = 1
    returns the array itself."""
    k = len(ys)
    if k < 1:
        raise ValueError("need at least one operator")
    if k > PHI_DEPTH_CAP:
        raise DepthCapError(f"k = {k} exceeds the cap {PHI_DEPTH_CAP}")
    dim = ys[0].shape[0]
    if any(y.shape != (dim, dim) for y in ys):
        raise DimMismatchError("operators must share one square shape")
    if k == 1:
        return ys[0]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for p, w in _permutation_weights(k):
        nested = ys[p[-1]]
        for i in p[-2::-1]:
            nested = ys[i] @ nested - nested @ ys[i]
        total += w * nested
    return total / k**2


def _u2(h, s):
    """The symmetric second-order splitting formula at step s."""
    return evaluate_spec(h, s, build_spec(2, h.gamma))


def _log_unitary(u):
    """Principal-branch logarithm of a unitary via eigendecomposition,
    symmetrized back to exactly anti-Hermitian: the reference the
    truncated series is checked against."""
    w, v = np.linalg.eig(u)
    if np.max(np.abs(np.abs(w) - 1.0)) > 1e-8:
        raise ArithmeticError("input is not unitary to working precision")
    phases = np.angle(w)
    if np.max(np.abs(phases)) > math.pi - 1e-6:
        raise ConvergenceRiskError("eigenphase too close to the branch cut")
    log = (v * (1j * phases)) @ np.linalg.inv(v)
    log = 0.5 * (log - log.conj().T)
    defect = spectral_norm(matrix_exponential(log) - u)
    if defect > 1e-9:
        raise ArithmeticError(f"log residual {defect:.3e} too large")
    return log


def bch_two_term_check(x, y, k_max):
    """|| log(e^X e^Y) - truncated expansion || for anti-Hermitian X, Y.

    Requires ||X|| + ||Y|| <= 1/4 so both the series and the principal
    branch are safe; the residual decays geometrically in k_max."""
    for m in (x, y):
        if np.max(np.abs(m + m.conj().T)) > 1e-10:
            raise NotAntiHermitianError("inputs must be anti-Hermitian")
    if spectral_norm(x) + spectral_norm(y) > 0.25:
        raise ConvergenceRiskError("norm premise ||X|| + ||Y|| <= 1/4 violated")
    if k_max > PHI_DEPTH_CAP:
        raise DepthCapError(f"k_max = {k_max} exceeds {PHI_DEPTH_CAP}")
    letters = [x, y]
    z = _log_product_terms(letters, k_max).sum(axis=0)
    reference = _log_unitary(
        matrix_exponential(letters[0]) @ matrix_exponential(letters[1])
    )
    return float(spectral_norm(z - reference))


def test_descent_count_pinned():
    assert descent_count((1, 2, 3)) == 0
    assert descent_count((2, 1)) == 1
    assert descent_count((3, 1, 2)) == 1


def _rand_ops(rng, count, dim=4, norm=1.0):
    return [rand_anti_hermitian(rng, dim, norm) for _ in range(count)]


def test_phi_1_is_identity_map():
    rng = np.random.default_rng(0)
    (y,) = _rand_ops(rng, 1)
    assert np.allclose(phi_k([y]), y, atol=1e-14)


def test_phi_2_is_half_commutator():
    rng = np.random.default_rng(1)
    y1, y2 = _rand_ops(rng, 2)
    want = 0.5 * commutator(y1, y2)
    assert np.allclose(phi_k([y1, y2]), want, atol=1e-12)


def test_phi_k_commuting_inputs_vanish():
    diags = [np.diag(1j * np.arange(1.0, 4.0) * c) for c in (1.0, 2.0, -0.5)]
    assert spectral_norm(phi_k(diags)) <= 1e-14


def test_phi_k_multilinearity():
    rng = np.random.default_rng(2)
    y1, y2, y3 = _rand_ops(rng, 3)
    scaled = 2.5 * y2
    lhs = phi_k([y1, scaled, y3])
    rhs = 2.5 * phi_k([y1, y2, y3])
    assert spectral_norm(lhs - rhs) <= 1e-10


def test_phi_k_caps_and_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(DepthCapError):
        phi_k(_rand_ops(rng, 9, dim=2))
    with pytest.raises(DimMismatchError):
        phi_k([np.zeros((2, 2), dtype=complex), np.zeros((4, 4), dtype=complex)])


def _oracle_log_product_term(letters, k):
    """Degree-k term of log(e^(W_1) ... e^(W_L)) from phi_k: the sum over
    compositions i of k of phi_k(W_1 x i_1, ..., W_L x i_L) / prod(i!)."""
    dim = letters[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for comp in itertools.product(range(k + 1), repeat=len(letters)):
        if sum(comp) != k:
            continue
        args = [w for w, count in zip(letters, comp) for _ in range(count)]
        weight = 1.0 / math.prod(math.factorial(c) for c in comp)
        total += weight * phi_k(args)
    return total


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=4),
    st.integers(1, 5),
)
def test_log_product_terms_match_phi_oracle(seed, dim, pool_size, picks, k):
    # letters are drawn with repetition from a small pool, as the same array
    # (aliased) or as an equal copy
    rng = np.random.default_rng(seed)
    pool = [rand_anti_hermitian(rng, dim, 0.3 * rng.random()) for _ in range(pool_size)]
    letters = [pool[i % pool_size].copy() if copy else pool[i % pool_size] for i, copy in picks]
    terms = _log_product_terms(letters, k)
    for degree in range(1, k + 1):
        want = _oracle_log_product_term(letters, degree)
        assert np.max(np.abs(terms[degree] - want)) <= 1e-12, degree


@pytest.mark.parametrize("s", [0.05, 0.3])
@pytest.mark.parametrize("n, distinct", [(3, 2), (4, 4), (5, 6)])
def test_log_unitary_degenerate_heisenberg_spectra(n, distinct, s):
    h = heisenberg_1d(n).dense()
    assert len(np.unique(np.round(np.linalg.eigvalsh(h), 8))) == distinct
    log = _log_unitary(scipy.linalg.expm(-1j * s * h))
    assert np.max(np.abs(log + 1j * s * h)) <= 1e-12


def test_two_term_check_trivial_cases():
    rng = np.random.default_rng(4)
    x = rand_anti_hermitian(rng, 4, 0.1)
    zero = np.zeros((4, 4), dtype=complex)
    assert bch_two_term_check(x, zero, 1) <= 1e-10

    a = np.diag(1j * np.array([0.05, 0.1, -0.12, 0.02]))
    b = np.diag(1j * np.array([-0.02, 0.04, 0.08, 0.0]))
    assert bch_two_term_check(a, b, 1) <= 1e-10


def test_two_term_check_residual_decay_and_scipy_oracle():
    rng = np.random.default_rng(5)
    x = rand_anti_hermitian(rng, 4, 0.05)
    y = rand_anti_hermitian(rng, 4, 0.05)
    r2 = bch_two_term_check(x, y, 2)
    r4 = bch_two_term_check(x, y, 4)
    assert r4 / r2 <= 1e-2

    # the k_max=2 truncation is X + Y + [X,Y]/2; check the residual
    # against an entirely external log
    log = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
    manual = x + y + 0.5 * commutator(x, y)
    assert abs(r2 - np.linalg.norm(log - manual, 2)) <= 1e-10


def test_two_term_check_norm_premise():
    rng = np.random.default_rng(6)
    x = rand_anti_hermitian(rng, 4, 0.2)
    y = rand_anti_hermitian(rng, 4, 0.2)
    with pytest.raises(ConvergenceRiskError):
        bch_two_term_check(x, y, 3)


def test_symmetric_term_even_depth_structurally_zero(xz1):
    rep = symmetric_bch_term(xz1, 4, 0.1)
    assert rep.structurally_zero
    assert rep.norm == 0.0
    assert np.count_nonzero(rep.phi_value) == 0


def test_symmetric_term_commuting_vanishes(commuting3):
    assert symmetric_bch_term(commuting3, 3, 0.1).norm <= 1e-14


@pytest.mark.parametrize("k", [3, 5])
def test_symmetric_term_bound_xz_and_heis3(k, xz1, heis3):
    for h, s in ((xz1, 0.1), (heis3, 0.05)):
        rep = symmetric_bch_term(h, k, s)
        assert rep.converged_premise
        assert rep.norm <= rep.bound + 1e-9


@pytest.mark.parametrize("k", [3, 5])
def test_symmetric_term_homogeneity(k, xz1):
    lo = symmetric_bch_term(xz1, k, 0.02).norm
    hi = symmetric_bch_term(xz1, k, 0.04).norm
    assert hi / lo == pytest.approx(2.0**k, rel=0.01)


def test_symmetric_term_depth_cap(xz1):
    with pytest.raises(DepthCapError):
        symmetric_bch_term(xz1, 9, 0.1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        symmetric_bch_terms(xz1, [0], 0.1)


def test_effective_generator_k1_is_scaled_hamiltonian(xz1):
    z = effective_generator(xz1, 0.1, 1)
    assert np.allclose(z, -1j * 0.1 * xz1.dense(), atol=1e-14)


@pytest.mark.parametrize("big_k, order", [(1, 3), (3, 5), (5, 7)])
def test_effective_generator_residual_slopes(big_k, order, xz1):
    ss = [0.2 * 0.75**i for i in range(6)]
    errs = [
        spectral_norm(_u2(xz1, s) - matrix_exponential(effective_generator(xz1, s, big_k)))
        for s in ss
    ]
    assert fit_loglog(ss, errs) >= order - 0.4


def test_effective_generator_deep_truncation_is_tiny(xz1):
    z = effective_generator(xz1, 0.1, 7)
    res = spectral_norm(_u2(xz1, 0.1) - matrix_exponential(z))
    assert res <= 1e-10


def test_effective_generator_premise_gate(xz1):
    with pytest.raises(ConvergenceRiskError):
        effective_generator(xz1, 0.5, 3)


def test_e3_reexponentiated_order_five(xz1):
    # the degree-3 term at s = 1 is the coefficient operator of s^3
    e3 = symmetric_bch_term(xz1, 3, 1.0).phi_value
    h = xz1.dense()
    ss = (0.2, 0.1, 0.05, 0.025)
    errs = []
    for s in ss:
        gen = -1j * h * s + e3 * s**3
        errs.append(spectral_norm(_u2(xz1, s) - matrix_exponential(gen)))
    assert fit_loglog(ss, errs) == pytest.approx(5.0, abs=0.3)


def test_dyson_expansion_trivial_cases():
    rng = np.random.default_rng(7)
    a = rand_anti_hermitian(rng, 4, 0.5)
    zero = np.zeros((4, 4), dtype=complex)
    approx, remainder = dyson_expansion(a, zero, 3)
    assert remainder == 0.0
    assert spectral_norm(approx - scipy.linalg.expm(a)) <= 1e-12

    b = rand_anti_hermitian(rng, 4, 0.3)
    approx, remainder = dyson_expansion(a, b, 1)
    assert remainder == pytest.approx(0.3, abs=1e-12)
    assert spectral_norm(approx - scipy.linalg.expm(a)) <= 1e-12


def test_dyson_expansion_certified_defect():
    rng = np.random.default_rng(8)
    a = rand_anti_hermitian(rng, 4, 0.8)
    b = rand_anti_hermitian(rng, 4, 0.1)
    approx, remainder = dyson_expansion(a, b, 3)
    truth = scipy.linalg.expm(a + b)
    assert remainder == pytest.approx(0.1**3 / 6, abs=1e-15)
    assert spectral_norm(truth - approx) <= 1e-3 / 6 + 1e-9


def test_dyson_expansion_input_validation():
    rng = np.random.default_rng(9)
    a = rand_anti_hermitian(rng, 4, 0.5)
    with pytest.raises(NotAntiHermitianError):
        dyson_expansion(a, np.eye(4, dtype=complex), 2)
    with pytest.raises(DimMismatchError):
        dyson_expansion(a, np.zeros((2, 2), dtype=complex), 2)
    for bad in (np.zeros((4, 2), dtype=complex), np.zeros(4, dtype=complex)):
        with pytest.raises(NonSquareError):
            dyson_expansion(a, bad, 2)
        with pytest.raises(NonSquareError):
            dyson_expansion(bad, a, 2)
    with pytest.raises(ValueError):
        dyson_expansion(a, a, 0)
