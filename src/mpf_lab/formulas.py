"""Stage lists of the splitting formulas and their dense evaluation.

A formula is held as a flat stage list [(term index, time fraction), ...]
unrolled at construction; evaluation walks the list left to right, matching
the operator-product notation. Flat lists make the stage-count invariant
checkable and keep evaluation order deterministic.

Evaluation (evaluate_spec) sweeps one Block: an invariant block
(HamiltonianSum.blocks) or the whole space (HamiltonianSum.whole), with one
gather per run of commuting stages; a palindrome of real symmetric stages
is swept over its first half only.

A product formula of order q is the one-term linear-combination scheme
mpf.solve_order_condition([1], 1, q), evaluated by mpf.mpf_operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hamiltonians import Block, HamiltonianSum

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


def evaluate_spec(h, t: float, spec: ProductFormulaSpec) -> np.ndarray:
    """Dense product over the stage list, left to right, on a Block (a
    HamiltonianSum stands for its whole space, HamiltonianSum.whole), built
    into the transposed product y: each run of stages on one run of terms
    is one gate y <- alpha * y + beta * y[idx] (_gates), cached on the
    block per stage list.

    When every term is real symmetric (HamiltonianSum.real_symmetric), so
    is every stage, and an even-length palindrome B + reversed(B) has the
    product G G^T, G the product over B: only B is swept, into y = G^T,
    and the result is y^T y. Any other list is swept whole.
    """
    block = h.whole if isinstance(h, HamiltonianSum) else h
    stages = spec.stages
    half = len(stages) // 2
    mirrored = block.real_symmetric and stages[half:] == stages[:half][::-1]
    sweep = stages[:half] if mirrored else stages
    if sweep not in block.gates:
        block.gates[sweep] = _gates(block, sweep)
    d, omega, v, idx = block.gates[sweep]
    phase, angle = np.exp((-1j * t) * d), t * omega
    alpha, beta = phase * np.cos(angle), (-1j * phase) * np.sin(angle) * v
    y = np.eye(block.dim, dtype=np.complex128)
    buf = np.empty_like(y)
    for a, b, i in zip(alpha[..., None], beta[..., None], idx):
        y.take(i, axis=0, out=buf, mode="clip")
        buf *= b
        y *= a
        y += buf
    return y.T @ y if mirrored else np.ascontiguousarray(y.T)


def _gates(block: Block, stages: tuple) -> tuple:
    """(w d, w |o|, o / |o|, idx) stacked over the gates, one per maximal
    run of stages on one run k of terms: exp(-i t w H_k), exact as the
    stages commute, w each term's summed fraction (ValueError if they
    differ). H_k pairs vector j with idx[j] as [[d_j, conj(o_j)],
    [o_j, d_j]] (Block.generators; the diagonal terms commute with the moving
    ones, so both diagonal entries are d_j), whose exponential has
    alpha = e^(-i t w d) cos(t w |o|) and beta = -i e^(-i t w d)
    sin(t w |o|) o / |o| (0 where |o| is 0 or subnormal).
    """
    runs = block.runs
    run_of = {t: k for k, run in enumerate(runs) for t in run}
    ks, ws = [], []
    for k, group in itertools.groupby(stages, key=lambda stage: run_of[stage[0]]):
        weights: dict = {}
        for g, c in group:
            weights[g] = weights.get(g, 0.0) + c
        if len(w := {weights.get(t, 0.0) for t in runs[k]}) > 1:
            raise ValueError(f"stages weight the terms of run {k} unequally")
        ks.append(k)
        ws.append(w.pop())
    d, o, idx = (a[ks] for a in block.generators)
    omega = np.abs(o)
    v = np.divide(o, omega, out=np.zeros_like(o), where=omega > np.finfo(float).tiny)
    return (w := np.array(ws)[:, None]) * d, w * omega, v, idx
