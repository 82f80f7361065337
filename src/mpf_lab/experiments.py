"""Convergence studies, error-bound evaluation, and the spin-chain
scaling benchmark.

Every error is a spectral norm ||V - exp(-iHt)|| of a formula or
multi-product operator V, measured sector by sector: each term of H
commutes with H's Pauli symmetries, so V and exp(-iHt) are block diagonal
in their joint eigenspaces (HamiltonianSum.sectors) and the norm is the
largest block norm, exactly. The error paths never form a full-space
product.

A convergence study fits the one-step error against the step size on a
log-log scale; given no grid it picks its own, one measurement per step.

The benchmark measures, for each chain length, the segment count r at
which the powered multi-product step crosses the target accuracy over
total time T = n, certified by err(r) <= eps < err(r - 1) with both
evaluated (the minimal r when the error falls with r), then fits the
query count r * ||k||_1 against n on a log-log scale, next to the
exponent theory_exponent(m) predicts for the well-conditioned MPF of Low,
Kliuchnikov & Wiebe (arXiv:1907.11679). Bounds are evaluated from a
commutator table truncated at a depth cap; a tail flag says whether the
truncated series was still falling at the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutators import (
    PARTITION_J_CAP,
    CommutatorTable,
    build_table,
    composition_scan,
    convergence_radius,
    mu_m,
)
from .formulas import error_series
from .hamiltonians import HamiltonianSum, heisenberg_1d
from .mpf import (
    MpfScheme,
    mpf_evolve,
    power_schedule,
    query_count,
    solve_order_condition,
)
from .operators import hermitian_evolution, spectral_norm

__all__ = [
    "BenchmarkCell",
    "ConvergenceStudy",
    "DegenerateGridError",
    "ErrorBudget",
    "InfeasibleError",
    "LIMIT_EXPONENT",
    "PremiseViolatedError",
    "ScalingResult",
    "convergence_study",
    "error_bound_evaluate",
    "exact_evolution",
    "heisenberg_benchmark",
    "report_emit",
    "theory_exponent",
]

NOISE_FLOOR = 1e-11  # 10x the 1e-12 working-precision floor
R_CAP = 10**6
# the benchmark's predicted query-count exponent in n as m grows
LIMIT_EXPONENT = 4.0 / 3.0


class DegenerateGridError(ValueError):
    """Step grid unusable for a slope fit."""


class PremiseViolatedError(ValueError):
    """Step size outside the heuristic convergence radius."""


class InfeasibleError(RuntimeError):
    """Segment count exceeded the search cap."""


@dataclass(frozen=True)
class ConvergenceStudy:
    """Log-log order fit of one-step errors on a decreasing step grid.

    exact marks studies where every error sat at the noise floor (commuting
    models); slope and r_squared are zeroed there.
    """

    dt_grid: tuple
    errors: tuple
    fitted_slope: float
    r_squared: float
    exact: bool


@dataclass(frozen=True)
class ErrorBudget:
    """Evaluated right-hand sides of the truncated error bounds."""

    e_tilde_bounds: dict
    f_tilde_bound: float
    thm_bound: float
    truncation_depth: int
    tail_clear: bool


@dataclass(frozen=True)
class BenchmarkCell:
    """One (n, m) benchmark measurement."""

    n: int
    m: int
    r: int
    queries: float
    queries_amplified: float
    error: float


@dataclass(frozen=True)
class ScalingResult:
    """Query-count scaling fit for one m across chain lengths."""

    m: int
    n_values: tuple
    query_counts: tuple
    fitted_exponent: float
    theory_exponent: float
    cells: tuple

    def __post_init__(self) -> None:
        if len(self.n_values) < 3:
            raise ValueError("need at least 3 chain lengths for a fit")
        if not math.isfinite(self.fitted_exponent):
            raise ValueError("fitted exponent must be finite")


def exact_evolution(h: HamiltonianSum, t: float) -> np.ndarray:
    """exp(-iHt) from the model's Hermitian eigendecomposition
    (HamiltonianSum.eigh, computed once per model)."""
    return hermitian_evolution(*h.eigh, t)


def _sector_targets(h: HamiltonianSum, t: float) -> tuple:
    """exp(-iHt) of each of h.sectors, in sector order: the targets of
    _powered_error."""
    return tuple(exact_evolution(s, t) for s in h.sectors)


def _loglog_fit(xs, ys):
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def convergence_study(
    h: HamiltonianSum,
    scheme: MpfScheme,
    dt_grid=None,
    points: int = 6,
    ratio: float = 2.0,
    start: float = 0.8,
) -> ConvergenceStudy:
    """One-step error order fit for a linear-combination scheme; the
    one-term scheme solve_order_condition([1], 1, q) is the order-q product
    formula.

    With no dt_grid the grid is geometric: points steps, each ratio times
    the next, under a top step halved from start until the one-step error
    drops below 0.1. That error is errors[0] and is not measured again;
    when 60 probes never get there the top step is start / 2**60 and is
    measured with the rest. points, ratio and start are read only then.

    Points at the noise floor are dropped from the fit; a study whose
    points all sit there is returned with the exact flag instead.
    """
    errors = []
    if dt_grid is None:
        if points < 4 or ratio <= 1.0 or start <= 0.0:
            raise DegenerateGridError("need points >= 4, ratio > 1, start > 0")
        top = start
        for _ in range(60):
            error = _powered_error(h, top, 1, scheme, _sector_targets(h, top))
            if error < 0.1:
                errors.append(error)
                break
            top /= 2.0
        dt_grid = [top * ratio**-i for i in range(points)]
    grid = tuple(float(dt) for dt in dt_grid)
    if len(grid) < 4:
        raise DegenerateGridError("need at least 4 grid points")
    if any(dt <= 0 for dt in grid) or any(
        a <= b for a, b in zip(grid, grid[1:])
    ):
        raise DegenerateGridError("grid must be positive, strictly decreasing")
    errors += [
        _powered_error(h, dt, 1, scheme, _sector_targets(h, dt))
        for dt in grid[len(errors):]
    ]
    usable = [(dt, e) for dt, e in zip(grid, errors) if e > NOISE_FLOOR]
    if not usable:
        return ConvergenceStudy(grid, tuple(errors), 0.0, 0.0, True)
    if len(usable) < 2:
        raise DegenerateGridError("only one grid point above the noise floor")
    slope, r_squared = _loglog_fit([u[0] for u in usable], [u[1] for u in usable])
    return ConvergenceStudy(grid, tuple(errors), slope, r_squared, False)


def error_bound_evaluate(
    h: HamiltonianSum,
    delta: float,
    scheme: MpfScheme,
    table: CommutatorTable,
    j_cap: int | None = None,
):
    """Truncated error bound for a second-order-based MPF step, next to the
    measured error.

    Returns (ErrorBudget, measured). The bound is the coefficient 1-norm
    times the sum over the slices j of commutators.composition_scan (the
    second-order series: even j in [2m, j_cap]) and l in [1, m] of the
    terms delta^(j+l)/l! * composition_sum(j, l). Each term is computed
    once; per-j they also split into the correction-term bounds (l < m)
    and the remainder bound (l = m).
    tail_clear certifies the neglected tail is summable: either the last
    j slice already decreased, or delta sits strictly inside the radius
    estimate, making the slice ratio geometric below one (the composition
    count adds only a polynomial factor). The truncated sum lower-bounds
    the full series, so dominance checks stay sound either way. Requires
    delta inside the heuristic convergence radius.
    """
    if scheme.base_order != 2:
        raise ValueError("bound is stated for the second-order base")
    if delta <= 0:
        raise ValueError("delta must be positive")
    m = scheme.half_order
    # scan.sums[l][j]: the composition_sum(table, j, l) of every cell
    scan = composition_scan(table, m, j_cap)
    radius = convergence_radius(table)
    if delta > radius:
        raise PremiseViolatedError(
            f"delta = {delta} exceeds heuristic radius {radius:.6g}"
        )
    e_tilde, f_tilde, slice_totals = {}, 0.0, []
    for j in scan.js:
        terms = [
            delta ** (j + l) / math.factorial(l) * scan.sums[l][j]
            for l in range(1, m + 1)
        ]
        e_tilde[j] = sum(terms[:-1], 0.0)
        f_tilde += terms[-1]
        slice_totals.append(sum(terms))
    trend_clear = len(slice_totals) >= 2 and slice_totals[-1] <= slice_totals[-2]
    tail_clear = trend_clear or delta < radius
    budget = ErrorBudget(
        e_tilde_bounds=e_tilde,
        f_tilde_bound=f_tilde,
        thm_bound=scheme.a_norm * sum(slice_totals),
        truncation_depth=scan.j_cap,
        tail_clear=tail_clear,
    )
    return budget, _powered_error(h, delta, 1, scheme, _sector_targets(h, delta))


def _powered_error(
    h: HamiltonianSum, big_t: float, r: int, scheme: MpfScheme, targets: tuple
) -> float:
    """||U_MP(T/r)^r - exp(-iHT)||: the largest error over h.sectors,
    targets holding each sector's exp(-iHT) in sector order
    (_sector_targets). Every error the module reports is this one; r = 1
    is the one-step error of studies and bounds."""
    return max(
        float(spectral_norm(mpf_evolve(s, big_t, r, scheme) - target))
        for s, target in zip(h.sectors, targets)
    )


def _error_order(scheme: MpfScheme) -> int:
    """p of the powered step's error law err ~ r^-p: the first power
    k^-p in the base formula's error series (formulas.error_series) that
    the order condition leaves (a one-term scheme is the base formula
    itself)."""
    first, step = error_series(scheme.base_order)
    return max(first, scheme.half_order * step)


def _search_minimal_r(err, eps: float, r_hint: int, order: int) -> tuple:
    """Smallest r with err(r) <= eps, with the certificate bisection ends on.

    lo is the largest r seen with err(r) > eps (0 at the start) and hi the
    smallest seen with err(r) <= eps; every probe lands strictly between
    them, so it becomes the new lo or hi. A probe predicts the crossing
    from the error law err ~ r^-p (p = order until two points give a
    log-log slope, see _predict_crossing), clamped into (lo, hi); with no
    hi yet it is clamped into [lo + stride, R_CAP], the stride doubling
    with every probe that falls short. A bracket that has not halved
    within two probes is bisected, which keeps the worst case logarithmic. The search
    ends at hi - lo == 1: err(hi) <= eps and err(hi - 1) > eps have both
    been evaluated (unless hi == 1). On a monotone profile that is the r
    bisection returns. Returns (r, err(r), {r: err(r)} of every probe).

    Raises:
        InfeasibleError: If err(R_CAP) > eps.
    """
    r_cap = R_CAP
    evals: dict = {}
    lo, hi = 0, None
    stride, width, stalled = 1, 0, 0
    r = max(1, min(r_hint, r_cap))
    while True:
        evals[r] = err(r)
        if evals[r] <= eps:
            hi = r
        else:
            lo = r
        if hi is None:
            if lo >= r_cap:
                raise InfeasibleError(f"no r <= {r_cap} reaches eps = {eps}")
            low, high = lo + stride, r_cap
            stride *= 2
        else:
            if hi - lo == 1:
                return hi, evals[hi], evals
            if width and hi - lo > (width + 1) // 2:
                stalled += 1
            else:
                width, stalled = hi - lo, 0
            if stalled >= 2:
                r = (lo + hi) // 2
                continue
            low, high = lo + 1, hi - 1
        r = min(max(_predict_crossing(evals, eps, order, r_cap), low), high)


def _predict_crossing(evals: dict, eps: float, order: int, r_cap: int) -> int:
    """ceil(r * (err(r) / eps)^(1/p)), capped at r_cap, from the evaluated
    point nearest the crossing in log error; p is the log-log slope through
    the two nearest points, or order while that is not a positive number."""
    points = sorted(
        (abs(math.log(e / eps)), math.log(r), math.log(e))
        # an exact zero error has no logarithm
        for r, e in ((r, max(e, 1e-300)) for r, e in evals.items())
    )
    _, log_r, log_e = points[0]
    p = float(order)
    if len(points) > 1:
        _, log_r1, log_e1 = points[1]
        slope = (log_e1 - log_e) / (log_r - log_r1)
        if slope > 0.0 and math.isfinite(slope):
            p = slope
    log_x = log_r + (log_e - math.log(eps)) / p
    if log_x >= math.log(r_cap):
        return r_cap
    return math.ceil(math.exp(log_x))


def theory_exponent(m: int) -> float:
    """4/3 + 2/(3m): the predicted exponent of the query count against
    chain length for the m-term MPF on the second-order base, the scaling
    the benchmark fits; it falls to LIMIT_EXPONENT as m grows."""
    return LIMIT_EXPONENT + 2.0 / (3.0 * m)


def heisenberg_benchmark(
    n_list,
    m_list,
    eps: float,
    periodic: bool = True,
) -> list:
    """Minimal-segment query counts for spin chains over total time
    T = n, fitted against chain length per m.

    Each chain is built once for every m: the exact evolution of each of
    its symmetry sectors, and one exact commutator table deep enough for
    the largest m. Each cell runs one search for r (_search_minimal_r),
    seeded at ceil(mu_hat * T) and predicting the crossing from the
    scheme's error law, and reports the r it certified: err(r) <= eps and
    err(r - 1) > eps, both evaluated. On an error profile that crosses
    eps more than once that r is a certified crossing, not necessarily
    the smallest.

    Raises:
        ValueError: Fewer than 3 chain lengths, eps outside (0, 1), or an
            m whose hint would scan past commutators.PARTITION_J_CAP
            (2m + 2 > PARTITION_J_CAP), checked before any chain is built.
    """
    n_values = sorted(set(int(n) for n in n_list))
    if len(n_values) < 3:
        raise ValueError("need at least 3 chain lengths")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    m_values = sorted(set(int(m) for m in m_list))
    too_deep = [m for m in m_values if 2 * m + 2 > PARTITION_J_CAP]
    if too_deep:
        raise ValueError(
            f"m = {too_deep[0]} beyond {(PARTITION_J_CAP - 2) // 2}: the r"
            f" hint scans compositions to j = 2m + 2 <= {PARTITION_J_CAP}"
        )
    schemes = {m: solve_order_condition(power_schedule(m), m) for m in m_values}
    cells: dict = {m: [] for m in m_values}
    for n in n_values:
        h = heisenberg_1d(n, periodic=periodic)
        big_t = float(n)
        targets = _sector_targets(h, big_t)
        table = build_table(h, 2 * max(m_values) + 3, budget=10**8)
        for m in m_values:
            cells[m].append(_benchmark_cell(h, big_t, eps, schemes[m], targets, table))
    results = []
    for m in m_values:
        exponent, _ = _loglog_fit(n_values, [c.queries for c in cells[m]])
        results.append(
            ScalingResult(
                m=m,
                n_values=tuple(n_values),
                query_counts=tuple(c.queries for c in cells[m]),
                fitted_exponent=exponent,
                theory_exponent=theory_exponent(m),
                cells=tuple(cells[m]),
            )
        )
    return results


def _benchmark_cell(
    h: HamiltonianSum,
    big_t: float,
    eps: float,
    scheme: MpfScheme,
    targets: tuple,
    table: CommutatorTable,
) -> BenchmarkCell:
    """One (n, m) cell on the chain's shared sector targets and commutator
    table."""
    m = scheme.half_order
    hint = mu_m(table, m, j_cap=2 * m + 2).mu_m
    r, error, _ = _search_minimal_r(
        lambda r: _powered_error(h, big_t, r, scheme, targets),
        eps,
        max(1, math.ceil(hint * big_t)),
        _error_order(scheme),
    )
    return BenchmarkCell(
        n=h.n_qubits,
        m=m,
        r=r,
        queries=float(query_count(r, scheme)),
        queries_amplified=float(query_count(r, scheme, True)),
        error=error,
    )


CSV_HEADER = "n,m,r,queries,queries_amplified,error"


def report_emit(results) -> str:
    """Benchmark results as CSV, one row per (n, m) cell in scan order."""
    lines = [CSV_HEADER]
    for res in results:
        for c in res.cells:
            lines.append(
                f"{c.n},{c.m},{c.r},{c.queries!r},"
                f"{c.queries_amplified!r},{c.error!r}"
            )
    return "\n".join(lines) + "\n"
