"""Nested-commutator expansion machinery.

Homogeneous terms of the multi-letter log-of-product expansion, effective
generators for the symmetric splitting formula, and the high-order
variation-of-parameters expansion with a certified remainder. Operators
are plain complex arrays.

Conventions. phi_k(Y_1..Y_k) = (1/k^2) sum_sigma (-1)^d / C(k-1, d) *
[Y_s1,[...,Y_sk]] with d the descent count of sigma. The degree-k term of
log(e^(W_1) ... e^(W_L)) is sum over compositions i of k into L slots of
phi_k(W_1 x i_1, ..., W_L x i_L) / prod(i!), letters ordered as the
exponentials. The library computes every such term up to a depth K at once
from truncated matrix power series; phi_k with its descent-statistic
weights is the independent oracle the tests compare against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import commutators
from .formulas import build_spec
from .hamiltonians import HamiltonianSum
from .operators import (
    DimMismatchError,
    _check_anti_hermitian,
    hermitian_evolution,
    spectral_norm,
)

__all__ = [
    "BchTermReport",
    "ConvergenceRiskError",
    "DepthCapError",
    "dyson_expansion",
    "effective_generator",
    "symmetric_bch_term",
    "symmetric_bch_terms",
]

WORD_DEPTH_CAP = 7


class DepthCapError(ValueError):
    """Requested expansion depth exceeds the depth cap."""


class ConvergenceRiskError(ValueError):
    """Inputs violate the expansion's convergence premise."""


@dataclass(frozen=True)
class BchTermReport:
    '''One homogeneous term of the symmetric-word expansion with its bound.'''

    k: int
    phi_value: np.ndarray
    norm: float
    bound: float
    converged_premise: bool
    structurally_zero: bool = False


def _log_product_terms(letters: list, big_k: int) -> np.ndarray:
    '''Homogeneous terms of degree 0..K of log(e^(W_1) ... e^(W_L)),
    stacked so that entry k is the degree-k term.

    The product of the exponentials is a matrix power series in a formal
    scale (W_i -> t W_i) truncated at degree K, and log(I + X) is the
    truncated sum_{m<=K} (-1)^(m+1) X^m / m: O(L K^2 + K^3) matmuls for
    every degree at once (Casas & Murua, J. Math. Phys. 50 (2009)). L
    counts the letters, so the symmetric formula passes one per fused run
    (_symmetric_word), not one per stage.'''
    dim = letters[0].shape[0]
    terms = np.zeros((big_k + 1, dim, dim), dtype=np.complex128)
    if all(
        np.array_equal(a @ b, b @ a) for a, b in itertools.combinations(letters, 2)
    ):
        # exact zeros above degree 1; the series would leave rounding there
        terms[1] = sum(letters)
        return terms
    x = np.zeros_like(terms)  # the product minus I, by degree
    for w in letters:
        powers = [None, w]  # w^j / j!
        for j in range(2, big_k + 1):
            powers.append(powers[-1] @ w / j)
        for d in range(big_k, 0, -1):  # descending: x[d - j] is still old
            acc = x[d] + powers[d]
            for j in range(1, d):
                acc += x[d - j] @ powers[j]
            x[d] = acc
    terms += x
    power = x
    for m in range(2, big_k + 1):
        nxt = np.zeros_like(x)
        for d in range(m, big_k + 1):
            for j in range(m - 1, d):
                nxt[d] += power[j] @ x[d - j]
        power = nxt
        terms += ((-1) ** (m + 1) / m) * power
    return terms


def _symmetric_word(h: HamiltonianSum, s: float) -> list:
    '''Letters of the order-2 stage sequence scaled by -i s, one per
    maximal group of consecutive stages on one run (HamiltonianSum.runs):
    the sum of the group's scaled terms, added in stage order from the
    whole space's phase table (Block.entries) with np.add.at, as
    HamiltonianSum.dense() adds the sum. A run's terms commute, so the
    group's exponentials are the letter's, and each degree of the truncated
    series is unchanged (binomial theorem). The two middle groups are one
    letter; mirror letters are separate, equal arrays.'''
    dim, entries = h.dim, h.whole.entries
    cols = np.arange(dim)
    x = np.array([t.masks()[0] for t in h.terms])
    run_of = {t: i for i, run in enumerate(h.runs) for t in run}
    stages = itertools.groupby(build_spec(2, h.gamma).stages, lambda g_c: run_of[g_c[0]])
    letters = []
    for _, group in stages:
        g, c = map(np.array, zip(*group))
        letter = np.zeros((dim, dim), dtype=np.complex128)
        np.add.at(letter, (cols ^ x[g, None], cols), (-1j * s * c)[:, None] * entries[g])
        letters.append(letter)
    return letters


def symmetric_bch_terms(
    h: HamiltonianSum, ks, s: float, big_k: int | None = None
) -> tuple:
    '''Degree-k terms of the log of the symmetric splitting formula for
    each k in ks and, when big_k is given, the effective generator Z_K,
    all from one truncated series as deep as the deepest odd degree asked.

    Returns (reports, generator); generator is None without big_k. Even k
    is structurally zero (symmetry) and needs no series. A report's bound
    column is s^k * alpha_comm_k / k^2 and its convergence flag the
    heuristic radius certificate from the depth-max(k, 3) commutator
    table. Z_K = -i s H + the odd terms of degree 3..K; exp(Z_K) tracks the
    splitting formula to order K+2, and it needs s inside the radius of the
    depth-max(K, 3) table (ConvergenceRiskError otherwise).'''
    ks = list(ks)
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    asked = ks if big_k is None else [*ks, big_k]
    if max(asked, default=0) > WORD_DEPTH_CAP:
        raise DepthCapError(f"k = {max(asked)} exceeds the cap {WORD_DEPTH_CAP}")
    # deepest first: its DP run is cached for the shallower tables
    depths = sorted({max(k, 3) for k in asked}, reverse=True)
    tables = {d: commutators.build_table(h, d) for d in depths}
    radius = {d: commutators.convergence_radius(t) for d, t in tables.items()}
    if big_k is not None and abs(s) > radius[max(big_k, 3)]:
        raise ConvergenceRiskError(
            "step size exceeds the heuristic convergence radius"
        )
    depth = max([k for k in ks if k % 2] + [big_k or 0])
    terms = _log_product_terms(_symmetric_word(h, s), depth) if depth else None
    reports = []
    for k in ks:
        bound = abs(s) ** k * tables[max(k, 3)].alpha[k] / k**2
        premise_ok = abs(s) <= radius[max(k, 3)]
        if k % 2 == 0:
            zero = np.zeros((h.dim, h.dim), dtype=np.complex128)
            reports.append(BchTermReport(k, zero, 0.0, bound, premise_ok, True))
        else:
            reports.append(BchTermReport(
                k, terms[k], float(spectral_norm(terms[k])),
                bound, premise_ok,
            ))
    if big_k is None:
        return reports, None
    z = -1j * s * h.dense()
    for k in range(3, big_k + 1, 2):
        z = z + terms[k]
    return reports, z


def symmetric_bch_term(h: HamiltonianSum, k: int, s: float) -> BchTermReport:
    '''Degree-k term of the log of the symmetric splitting formula, with
    its bound and convergence flag (see symmetric_bch_terms).'''
    return symmetric_bch_terms(h, [k], s)[0][0]


def effective_generator(h: HamiltonianSum, s: float, big_k: int) -> np.ndarray:
    '''Z_K = -i s H + sum of the odd expansion terms up to depth K;
    exp(Z_K) tracks the splitting formula to order K+2.'''
    return symmetric_bch_terms(h, [], s, big_k)[1]


def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _simplex_integral(a_eig, b: np.ndarray, l: int, order: int) -> np.ndarray:
    '''Iterated integral of e^(A(1-s1)) B ... B e^(A sl) over the ordered
    simplex, by the map s_i = u_1...u_i (Jacobian prod u_i^(l-i)) and
    tensorized Gauss-Legendre.'''
    w_eig, v_eig = a_eig
    dim = b.shape[0]
    nodes, gl_weights = _gauss_nodes(order)
    grids = np.meshgrid(*([nodes] * l), indexing="ij")
    us = np.stack([g.reshape(-1) for g in grids], axis=1)  # (N, l)
    wgrids = np.meshgrid(*([gl_weights] * l), indexing="ij")
    weight = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
    for i in range(l):
        weight = weight * us[:, i] ** (l - 1 - i)
    s = np.cumprod(us, axis=1)  # (N, l), s_1 >= ... >= s_l
    gaps = np.empty((s.shape[0], l + 1))
    gaps[:, 0] = 1.0 - s[:, 0]
    for i in range(1, l):
        gaps[:, i] = s[:, i - 1] - s[:, i]
    gaps[:, l] = s[:, l - 1]
    phases = np.exp(-1j * np.multiply.outer(gaps, w_eig))  # (N, l+1, dim)
    vh = v_eig.conj().T
    exps = (v_eig[None, None, :, :] * phases[:, :, None, :]) @ vh
    chain = exps[:, 0]
    for i in range(1, l + 1):
        chain = chain @ b
        chain = np.matmul(chain, exps[:, i])
    return np.tensordot(weight, chain, axes=(0, 0))


def dyson_expansion(a: np.ndarray, b: np.ndarray, p: int):
    '''e^A plus the first p-1 iterated-integral corrections in B.

    Returns (approximation, remainder_bound) with remainder_bound =
    ||B||^p / p!; quadrature order is escalated until two successive orders
    agree to 1e-10 * ||B||^l / l! per correction, so the certified defect is
    the remainder bound plus quadrature tolerance. A and B must be square
    anti-Hermitian arrays of one shape (NonSquareError,
    NotAntiHermitianError, DimMismatchError).'''
    if p < 1:
        raise ValueError("p must be >= 1")
    for op in (a, b):
        _check_anti_hermitian(op)
    if a.shape != b.shape:
        raise DimMismatchError("dims differ")
    # eigh of iA gives e^(A g) = V diag(e^(-i w g)) V^H
    a_eig = np.linalg.eigh(1j * a)
    b_norm = spectral_norm(b)
    approx = hermitian_evolution(*a_eig)
    for l in range(1, p):
        tol = 1e-10 * max(b_norm**l / math.factorial(l), 1e-300)
        prev = None
        for order in range(6, 31, 4):
            cur = _simplex_integral(a_eig, b, l, order)
            if prev is not None and spectral_norm(cur - prev) <= tol:
                break
            prev = cur
        approx = approx + cur
    remainder = b_norm**p / math.factorial(p)
    return approx, float(remainder)
