"""Stage lists of the splitting formulas and their dense evaluation.

A formula is held as a flat stage list [(term index, time fraction), ...]
unrolled at construction; evaluation walks the list left to right, matching
the operator-product notation. Flat lists make the stage-count invariant
checkable and keep evaluation order deterministic.

Evaluation builds the transpose of the product, one row per basis state.
Right multiplication by a Pauli string P then maps rows: row b takes
phases[b] times row b ^ x. Viewed with one axis per qubit, row b ^ x is
the array with the axes of the bits x sets reversed, so every stage is
three in-place passes over a free strided view, with one buffer per
evaluation and no gather (HamiltonianSum.stage_actions).

Every stage list of order 2 and up is an even-length palindrome (Suzuki's
recursion is symmetric). When every term is real symmetric, so is every
stage, and the product of B + reversed(B) is G G^T for G the product over
B: evaluation sweeps the first half and ends with one matmul.

A product formula of order q is the one-term linear-combination scheme
mpf.solve_order_condition([1], 1, q), evaluated by mpf.mpf_operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianSum

__all__ = [
    "ProductFormulaSpec",
    "build_spec",
    "error_series",
    "evaluate_spec",
    "suzuki_coefficient",
]


def suzuki_coefficient(p: int) -> float:
    """s_p = (4 - 4^(1/(2p+1)))^-1, decreasing toward 1/3."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * p + 1)))


@dataclass(frozen=True)
class ProductFormulaSpec:
    """Unrolled stage list for a splitting formula of the given order."""

    order: int
    stages: tuple  # ((gamma, coefficient), ...) applied left to right


def _u1_stages(gamma: int) -> tuple:
    return tuple((g, 1.0) for g in range(gamma))


def _u2_stages(gamma: int) -> tuple:
    back = [(g, 0.5) for g in range(gamma - 1, -1, -1)]
    forth = [(g, 0.5) for g in range(gamma)]
    return tuple(back + forth)


def error_series(order: int) -> tuple[int, int]:
    """(first, step): U(t) - exp(-iHt) for the order-q formula has only the
    terms t^(j+1) with j = first, first + step, ...; (1, 1) for order 1 and
    (q, 2) for a symmetric formula of even order q. An m-term combination
    (mpf) cancels the powers j < m * step. This fixes the order-condition
    rows, the compositions of the commutator metrics and the r search's
    error law. Any other order raises ValueError."""
    if order == 1:
        return 1, 1
    if order < 2 or order % 2:
        raise ValueError(f"order must be 1 or even, got {order}")
    return order, 2


def build_spec(order: int, gamma: int) -> ProductFormulaSpec:
    """Stage list for order 1, 2, or any even order via the recursion
    U_{2p+2}(t) = U_2p(s_p t)^2 U_2p((1-4 s_p) t) U_2p(s_p t)^2."""
    error_series(order)
    if order == 1:
        return ProductFormulaSpec(1, _u1_stages(gamma))
    stages = _u2_stages(gamma)
    for p in range(1, order // 2):
        s_p = suzuki_coefficient(p)
        outer = tuple((g, c * s_p) for g, c in stages)
        middle = tuple((g, c * (1.0 - 4.0 * s_p)) for g, c in stages)
        stages = outer + outer + middle + outer + outer
    return ProductFormulaSpec(order, stages)


def evaluate_spec(h: HamiltonianSum, t: float, spec: ProductFormulaSpec) -> np.ndarray:
    """Dense product over the stage list, left to right.

    A stage exp(-i theta P), theta = fraction * t * coefficient, is built
    into the transposed product y, viewed with shape (2,)*n + (dim,), as
    y <- cos(theta) y - i sin(theta) phases * y[flip], y[flip] being the
    view with the bit axes of P's x mask reversed
    (HamiltonianSum.stage_actions).

    When every term is real symmetric (HamiltonianSum.real_symmetric), so
    is every stage, and an even-length palindrome B + reversed(B) has the
    product G G^T, G the product over B: only B is swept, into y = G^T,
    and the result is y^T y. Any other list is swept whole.
    """
    stages = spec.stages
    half = len(stages) // 2
    mirrored = h.real_symmetric and stages[half:] == stages[:half][::-1]
    y = np.eye(h.dim, dtype=np.complex128)
    rows = y.reshape((2,) * h.n_qubits + (h.dim,))
    buf = np.empty_like(rows)
    for g, c in stages[:half] if mirrored else stages:
        theta = c * t * h.terms[g].coefficient
        if theta == 0.0:
            continue
        flip, phases = h.stage_actions[g]
        np.multiply(rows[flip], (-1j * math.sin(theta)) * phases, out=buf)
        rows *= math.cos(theta)
        rows += buf
    return y.T @ y if mirrored else np.ascontiguousarray(y.T)
