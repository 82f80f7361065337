"""Stage lists of the splitting formulas and their dense evaluation.

A formula is held as a flat stage list [(term index, time fraction), ...]
unrolled at construction; evaluation walks the list left to right, matching
the operator-product notation. Flat lists make the stage-count invariant
checkable and keep evaluation order deterministic.

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


def build_spec(order: int, gamma: int) -> ProductFormulaSpec:
    """Stage list for order 1, 2, or any even order via the recursion
    U_{2p+2}(t) = U_2p(s_p t)^2 U_2p((1-4 s_p) t) U_2p(s_p t)^2."""
    if order == 1:
        return ProductFormulaSpec(1, _u1_stages(gamma))
    if order == 2:
        return ProductFormulaSpec(2, _u2_stages(gamma))
    if order < 1 or order % 2:
        raise ValueError(f"order must be 1 or even, got {order}")
    stages = _u2_stages(gamma)
    for p in range(1, order // 2):
        s_p = suzuki_coefficient(p)
        outer = tuple((g, c * s_p) for g, c in stages)
        middle = tuple((g, c * (1.0 - 4.0 * s_p)) for g, c in stages)
        stages = outer + outer + middle + outer + outer
    return ProductFormulaSpec(order, stages)


def _apply_stage(
    out: np.ndarray, h: HamiltonianSum, g: int, scaled_t: float
) -> np.ndarray:
    """out @ exp(-i * scaled_t * H_g) for the Pauli term H_g = c P:
    cos(theta) out - i sin(theta) out @ P with theta = scaled_t * c, where
    right-multiplication by P is the column gather
    (out @ P)[:, b] = phases[b] * out[:, perm[b]]."""
    theta = scaled_t * h.terms[g].coefficient
    if theta == 0.0:
        return out
    perm, phases = h.stage_actions[g]
    return math.cos(theta) * out - (1j * math.sin(theta)) * (out[:, perm] * phases)


def evaluate_spec(h: HamiltonianSum, t: float, spec: ProductFormulaSpec) -> np.ndarray:
    """Dense product over the stage list, left to right."""
    out = np.eye(h.dim, dtype=np.complex128)
    for g, c in spec.stages:
        out = _apply_stage(out, h, g, c * t)
    return out
