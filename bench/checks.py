"""Correctness checks on the program's CLI outputs.

Every reference value here is computed apart from the program: Pauli
algebra on (x, z) bitmasks, dense Hamiltonians from Kronecker products,
stage exponentials and logarithms from scipy, and closed-form Lagrange
weights. This module never imports mpf_lab. Each check raises CheckError
naming the first value that disagrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# The program's search certifies error <= eps; its errors come from a
# differently rounded product of the same unitaries.
ERROR_RTOL = 1e-7
# alpha values are sums of positive terms; only the summation order differs.
ALPHA_RTOL = 1e-9
# Chain-length fit tolerance of the repository's acceptance test.
EXPONENT_TOL = 0.5
# Richardson extrapolation of logm leaves O(s^6) and roundoff of ~1e-9.
BCH3_RTOL = 1e-6


class CheckError(AssertionError):
    """An output disagrees with its reference or breaks a required property."""


@dataclass(frozen=True)
class Term:
    """coefficient * Pauli string on n qubits, sites -> letters."""

    coefficient: float
    paulis: dict

    def masks(self) -> tuple:
        x = z = 0
        for site, letter in self.paulis.items():
            bx, bz = _LETTER_BITS[letter]
            x |= bx << site
            z |= bz << site
        return x, z


def heisenberg_terms(n: int) -> list:
    """Periodic Heisenberg chain, bond by bond, letters X, Y, Z."""
    return [
        Term(1.0, {j: letter, (j + 1) % n: letter})
        for j in range(n)
        for letter in "XYZ"
    ]


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- Pauli algebra ----------------------------------------------------------


def _anticommute(a: tuple, b: tuple) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 1


def alpha_two(terms: list) -> float:
    """2 * sum of |c_a c_b| over ordered anticommuting pairs."""
    masks = [t.masks() for t in terms]
    total = 0.0
    for a, ta in zip(masks, terms):
        for b, tb in zip(masks, terms):
            if _anticommute(a, b):
                total += abs(ta.coefficient * tb.coefficient)
    return 2.0 * total


def alpha_recurrence(terms: list, n: int, depth: int) -> list:
    """alpha_1..alpha_depth by a frontier recurrence over Pauli strings.

    [c P, Q] is 2c PQ when P and Q anticommute and 0 otherwise, so the
    depth-(j+1) norms are the depth-j weights of each string Q, moved to the
    string PQ and scaled by 2|c|, summed over anticommuting pairs. Only
    strings with nonzero weight are visited; bincount reduces the moves.
    """
    size = 4**n
    low = (1 << n) - 1
    keys = np.array([(x << n) | z for x, z in (t.masks() for t in terms)])
    xs_t = keys >> n
    zs_t = keys & low
    mags = np.array([abs(t.coefficient) for t in terms])
    weights = np.bincount(keys, weights=mags, minlength=size)
    alphas = [math.fsum(weights)]
    for _ in range(depth - 1):
        live = np.flatnonzero(weights)
        live_x = live >> n
        live_z = live & low
        live_w = weights[live]
        nxt = np.zeros(size)
        for key, tx, tz, mag in zip(keys, xs_t, zs_t, mags):
            odd = (np.bitwise_count(live_x & tz) + np.bitwise_count(live_z & tx)) & 1
            hit = odd.astype(bool)
            nxt += np.bincount(
                live[hit] ^ key, weights=2.0 * mag * live_w[hit], minlength=size
            )
        weights = nxt
        alphas.append(math.fsum(weights))
    return alphas


# --- dense reference ----------------------------------------------------------


def term_matrix(term: Term, n: int) -> np.ndarray:
    """Dense matrix with site 0 as the least significant bit."""
    out = np.array([[1.0 + 0j]])
    for site in range(n - 1, -1, -1):
        out = np.kron(out, _PAULI[term.paulis.get(site, "I")])
    return term.coefficient * out


def u2_reference(mats: list, t: float) -> np.ndarray:
    """Symmetric splitting: reversed half sweep, then forward half sweep."""
    halves = [scipy.linalg.expm(-0.5j * t * m) for m in mats]
    out = np.eye(mats[0].shape[0], dtype=np.complex128)
    for g in list(range(len(mats) - 1, -1, -1)) + list(range(len(mats))):
        out = out @ halves[g]
    return out


def lagrange_weights(powers: list) -> list:
    """Extrapolation-to-zero weights on the nodes k^-2."""
    return [
        math.prod(kj**2 / (kj**2 - ki**2) for ki in powers if ki != kj)
        for kj in powers
    ]


def powered_error(mats: list, target: np.ndarray, t_total: float, r: int,
                  powers: list) -> float:
    """|| (sum_j a_j U2(delta/k_j)^k_j)^r - target || with delta = T/r."""
    delta = t_total / r
    step = sum(
        a * np.linalg.matrix_power(u2_reference(mats, delta / k), k)
        for a, k in zip(lagrange_weights(powers), powers)
    )
    return float(np.linalg.norm(np.linalg.matrix_power(step, r) - target, 2))


# --- commutators --------------------------------------------------------------


def check_commutators(text: str, terms: list, n: int, j_cap: int) -> None:
    """`commutators` output: an exact table that matches the recurrence."""
    body = json.loads(text)
    table = body["table"]
    depth = j_cap + 1
    _require(table["mode"] == "exact", f"table mode is {table['mode']!r}")
    _require(table["gamma"] == len(terms), f"gamma {table['gamma']}")
    _require(table["j_cap"] == depth, f"table depth {table['j_cap']}")
    alpha = {int(j): float(v) for j, v in table["alpha"].items()}
    _require(sorted(alpha) == list(range(1, depth + 1)), "alpha depths")
    one_norm = math.fsum(abs(t.coefficient) for t in terms)
    _require(_close(alpha[1], one_norm, 1e-12),
             f"alpha_1 = {alpha[1]!r}, sum |c| = {one_norm!r}")
    pairs = alpha_two(terms)
    _require(_close(alpha[2], pairs, 1e-12),
             f"alpha_2 = {alpha[2]!r}, pair sum = {pairs!r}")
    for j, ref in enumerate(alpha_recurrence(terms, n, depth), start=1):
        _require(_close(alpha[j], ref, ALPHA_RTOL),
                 f"alpha_{j} = {alpha[j]!r}, recurrence = {ref!r}")
    mu = body["mu"]
    _require(0.0 < mu["mu_m"] <= mu["mu_upper"],
             f"mu_m = {mu['mu_m']!r}, mu_upper = {mu['mu_upper']!r}")
    radius = body["radius"]
    _require(radius is not None and radius > 0.0, f"radius {radius!r}")
    for j in range(2, depth + 1):
        if alpha[j] > 0.0:
            limit = alpha[j] ** (-1.0 / j)
            _require(radius <= limit * (1.0 + 1e-12),
                     f"radius {radius!r} above alpha_{j}^(-1/{j}) = {limit!r}")


# --- chain scaling ------------------------------------------------------------


def check_chain(text: str, n_list: list, m_list: list, eps: float,
                rebuild_n: tuple) -> None:
    """`benchmark --format json` output.

    Every cell meets eps with queries = r * ||k||_1; cells with n in
    rebuild_n are recomputed, at r and at r - 1; the query-count fit
    recomputes and tracks 4/3 + 2/(3m), falling with m.
    """
    results = json.loads(text)["results"]
    _require([res["m"] for res in results] == sorted(m_list), "m values")
    fitted = []
    for res in results:
        m = res["m"]
        powers = list(range(1, m + 1))
        cells = res["cells"]
        _require([c["n"] for c in cells] == sorted(n_list), f"m={m}: n values")
        for c in cells:
            where = f"cell n={c['n']} m={m}"
            r = c["r"]
            _require(isinstance(r, int) and r >= 1, f"{where}: r = {r!r}")
            _require(0.0 < c["error"] <= eps, f"{where}: error {c['error']!r}")
            _require(c["queries"] == float(r * sum(powers)),
                     f"{where}: queries {c['queries']!r} for r = {r}")
            if c["n"] in rebuild_n:
                _check_cell(c, powers, eps, where)
        slope = float(np.polyfit(np.log(res["n_values"]),
                                 np.log(res["query_counts"]), 1)[0])
        _require(_close(res["fitted_exponent"], slope, 1e-9),
                 f"m={m}: exponent {res['fitted_exponent']!r}, refit {slope!r}")
        theory = 4.0 / 3.0 + 2.0 / (3.0 * m)
        _require(_close(res["theory_exponent"], theory, 1e-12),
                 f"m={m}: theory exponent {res['theory_exponent']!r}")
        _require(abs(slope - theory) < EXPONENT_TOL,
                 f"m={m}: exponent {slope!r} against theory {theory!r}")
        fitted.append(slope)
    _require(all(a > b for a, b in zip(fitted, fitted[1:])),
             f"exponents do not fall with m: {fitted}")


def _check_cell(cell: dict, powers: list, eps: float, where: str) -> None:
    n, r = cell["n"], cell["r"]
    mats = [term_matrix(t, n) for t in heisenberg_terms(n)]
    t_total = float(n)
    target = scipy.linalg.expm(-1j * t_total * sum(mats))
    error = powered_error(mats, target, t_total, r, powers)
    _require(_close(cell["error"], error, ERROR_RTOL),
             f"{where}: error {cell['error']!r}, recomputed {error!r}")
    if r > 1:
        before = powered_error(mats, target, t_total, r - 1, powers)
        _require(before > eps, f"{where}: r - 1 = {r - 1} already meets eps "
                 f"({before!r})")


# --- BCH terms ----------------------------------------------------------------


def bch_third_order_norm(terms: list, n: int, s: float) -> float:
    """s^3 ||E_3|| from log U2(sigma) = -i sigma H + sigma^3 E_3 + ...

    C(sigma) = (logm U2(sigma) + i sigma H) / sigma^3 = E_3 + sigma^2 E_5
    + sigma^4 E_7 + ..., since the logarithm of the symmetric splitting
    is odd in sigma; two Richardson steps over s, s/2, s/4 remove the
    sigma^2 and sigma^4 terms.
    """
    mats = [term_matrix(t, n) for t in terms]
    h = sum(mats)

    def c_of(sigma: float) -> np.ndarray:
        log = scipy.linalg.logm(u2_reference(mats, sigma))
        return (log + 1j * sigma * h) / sigma**3

    c = [c_of(s / 2**i) for i in range(3)]
    r1 = [(4.0 * c[i + 1] - c[i]) / 3.0 for i in range(2)]
    e3 = (16.0 * r1[1] - r1[0]) / 15.0
    return s**3 * float(np.linalg.norm(e3, 2))


def check_bch(text: str, terms: list, n: int, k_max: int, s: float) -> None:
    """`bch-verify` output: zero even terms, odd norms within bounds whose
    alpha_k is recomputed, and the k = 3 norm against scipy logm."""
    body = json.loads(text)
    reported = body["terms"]
    _require([t["k"] for t in reported] == list(range(2, k_max + 1)), "k values")
    alphas = alpha_recurrence(terms, n, k_max)
    for t in reported:
        k = t["k"]
        bound = abs(s) ** k * alphas[k - 1] / k**2
        _require(_close(t["bound"], bound, ALPHA_RTOL),
                 f"k={k}: bound {t['bound']!r}, recomputed {bound!r}")
        if k % 2 == 0:
            _require(t["norm"] == 0.0 and t["structurally_zero"],
                     f"k={k}: even term norm {t['norm']!r}")
        else:
            _require(0.0 < t["norm"] <= bound,
                     f"k={k}: norm {t['norm']!r} above bound {bound!r}")
        if k == 3:
            ref = bch_third_order_norm(terms, n, s)
            _require(_close(t["norm"], ref, BCH3_RTOL),
                     f"k=3: norm {t['norm']!r}, logm reference {ref!r}")
    _require(body["K"] == (k_max if k_max % 2 else k_max - 1), f"K {body['K']}")
    _require(math.isfinite(body["generator_residual"])
             and body["generator_residual"] >= 0.0,
             f"generator residual {body['generator_residual']!r}")
