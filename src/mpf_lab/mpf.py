"""Linear-combination schemes over powered splitting formulas.

The order condition cancels the leading powers of the base formula's error
series (formulas.error_series). For bases 1 and 2 it is a Vandermonde system
in the nodes k_j^-step; closed-form Lagrange weights are the primary solver
because explicit Vandermonde solves are notoriously ill-conditioned, and
every solution is checked by its order-condition residual. Conditioning is
always observable through ||a||_1 and ||k||_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formulas import build_spec, error_series, evaluate_spec
from .hamiltonians import HamiltonianSum

__all__ = [
    "DuplicatePowersError",
    "MpfScheme",
    "NonPositiveError",
    "SizeMismatchError",
    "mpf_evolve",
    "mpf_operator",
    "power_schedule",
    "query_count",
    "required_steps",
    "solve_order_condition",
]


class DuplicatePowersError(ValueError):
    """Power list contains repeats."""


class SizeMismatchError(ValueError):
    """Power list length does not match the order condition's row count."""


class NonPositiveError(ValueError):
    """Argument required to be positive was not."""


@dataclass(frozen=True)
class MpfScheme:
    """Coefficients a_j and powers k_j of a linear-combination scheme.

    half_order m cancels the powers j < m * step of the base formula's error
    series (formulas.error_series), leaving local order max(first, m*step)+1.
    """

    base_order: int
    half_order: int
    powers: tuple
    coefficients: tuple

    @property
    def a_norm(self) -> float:
        return float(sum(abs(a) for a in self.coefficients))

    @property
    def k_norm(self) -> float:
        return float(sum(self.powers))

    def residual(self) -> float:
        """Max deviation of the order-condition rows, scaled by ||a||_1."""
        rows = _condition_exponents(self.half_order, self.base_order)
        worst = 0.0
        for q, target in rows:
            s = sum(
                a * float(k) ** (-q)
                for a, k in zip(self.coefficients, self.powers)
            )
            worst = max(worst, abs(s - target))
        return worst


def _condition_exponents(m: int, base_order: int) -> list[tuple[int, float]]:
    """(exponent, right-hand side) pairs of the order condition: e = 0 and
    the error-series powers the combination cancels."""
    if m < 1:
        raise NonPositiveError("m must be >= 1")
    first, step = error_series(base_order)
    return [(0, 1.0)] + [(e, 0.0) for e in range(first, m * step, step)]


def _lagrange_weights(powers: tuple, node_power: int) -> list[float]:
    # weights of Lagrange interpolation at 0 with nodes k^-node_power
    out = []
    for j, kj in enumerate(powers):
        w = 1.0
        for i, ki in enumerate(powers):
            if i != j:
                w *= float(kj) ** node_power / (
                    float(kj) ** node_power - float(ki) ** node_power
                )
        out.append(w)
    return out


def solve_order_condition(
    powers: list[int] | tuple, m: int, base_order: int = 2
) -> MpfScheme:
    """Coefficients solving the order condition for the given powers.

    Where the rows are 0, step, 2 step, ... (bases 1 and 2) the closed-form
    Lagrange weights in the nodes k^-step are used; the gapped systems of
    higher even bases are solved directly. Residual is checked against
    1e-8 * ||a||_1 either way.

    Raises:
        DuplicatePowersError: If powers repeat.
        SizeMismatchError: If the power count differs from the row count.
        NonPositiveError: For m < 1 or nonpositive powers.
    """
    powers = tuple(int(k) for k in powers)
    if any(k < 1 for k in powers):
        raise NonPositiveError("powers must be positive integers")
    if len(set(powers)) != len(powers):
        raise DuplicatePowersError(f"duplicate powers in {powers}")
    rows = _condition_exponents(m, base_order)
    if len(powers) != len(rows):
        raise SizeMismatchError(
            f"{len(rows)} rows need {len(rows)} powers, got {len(powers)}"
        )
    first, step = error_series(base_order)
    if first == step:
        coeffs = _lagrange_weights(powers, step)
    else:
        matrix = np.array(
            [[float(k) ** (-e) for k in powers] for e, _ in rows]
        )
        rhs = np.array([target for _, target in rows])
        coeffs = list(np.linalg.solve(matrix, rhs))
    scheme = MpfScheme(base_order, m, powers, tuple(float(c) for c in coeffs))
    if scheme.residual() > 1e-8 * scheme.a_norm:
        raise ArithmeticError(
            f"order-condition residual {scheme.residual():.3e} too large"
        )
    return scheme


def power_schedule(
    m: int, strategy: str = "natural", base_order: int = 2
) -> tuple:
    """Power list for a target half-order.

    M is the order condition's row count (_condition_exponents, from
    formulas.error_series). ``natural`` is 1..M. ``min_a_norm`` searches
    M-subsets of [1, 8m] for the smallest ||a||_1 by deterministic
    single-swap descent from the natural schedule, stopping at a subset no
    single swap improves. Ties break toward smaller ||k||_1, then
    lexicographic order.
    """
    size = len(_condition_exponents(m, base_order))
    natural = tuple(range(1, size + 1))
    if strategy == "natural":
        return natural
    if strategy != "min_a_norm":
        raise ValueError(f"unknown strategy {strategy!r}")
    cap = 8 * m

    def score(subset: tuple) -> tuple:
        scheme = solve_order_condition(subset, m, base_order)
        return (scheme.a_norm, scheme.k_norm, subset)

    current = score(natural)
    improved = True
    while improved:
        improved = False
        subset = current[2]
        for pos in range(size):
            for candidate in range(1, cap + 1):
                if candidate in subset:
                    continue
                trial = tuple(sorted(subset[:pos] + (candidate,) + subset[pos + 1:]))
                trial_score = score(trial)
                if trial_score < current:
                    current = trial_score
                    improved = True
    return current[2]


def mpf_operator(h: HamiltonianSum, delta: float, scheme: MpfScheme) -> np.ndarray:
    """sum_j a_j (U_base(delta/k_j))^(k_j) as an exact dense combination.

    Classical stand-in for the linear-combination-of-unitaries step;
    generally non-unitary. Summation order is fixed (ascending j) so output
    is bit-stable. The one-term scheme solve_order_condition([1], 1, q) is
    the order-q product formula itself.
    """
    base = build_spec(scheme.base_order, h.gamma)
    out = np.zeros((h.dim, h.dim), dtype=np.complex128)
    for a, k in zip(scheme.coefficients, scheme.powers):
        u = evaluate_spec(h, delta / k, base)
        out = out + a * np.linalg.matrix_power(u, k)
    return out


def mpf_evolve(
    h: HamiltonianSum, t_total: float, r: int, scheme: MpfScheme
) -> np.ndarray:
    """(U_MP(T/r))^r for long-time evolution: the powered step whose
    error the benchmark's r search measures (r = 1: the step itself)."""
    if r < 1:
        raise NonPositiveError("r must be >= 1")
    return np.linalg.matrix_power(mpf_operator(h, t_total / r, scheme), r)


def required_steps(mu_m: float, t_total: float, eps: float, m: int, a_norm: float) -> int:
    """Segment count r = ceil(2 mu T (2 mu T ||a||_1 / eps)^(1/2m))."""
    if mu_m <= 0 or t_total <= 0 or not 0 < eps < 1 or m < 1 or a_norm <= 0:
        raise NonPositiveError("all arguments must be positive (eps in (0,1))")
    base = 2.0 * mu_m * t_total
    return int(math.ceil(base * (base * a_norm / eps) ** (1.0 / (2 * m))))


def query_count(r: int, scheme: MpfScheme, include_amplification: bool = False) -> float:
    """Base-formula invocations for r segments: r * ||k||_1, times
    ceil(||a||_1) when amplification rounds are counted."""
    q = r * scheme.k_norm
    if include_amplification:
        q *= math.ceil(scheme.a_norm)
    return float(q)
