"""Commutator-scaling metrics.

alpha[j] is the sum over all Gamma^j ordered index tuples of the spectral
norm of the depth-j nested commutator of the Hamiltonian terms; depth 1 is
the plain term-norm sum. mu_m is the sup of lambda_{j,l}, the sum over
compositions of j into l admissible parts of prod alpha[part+1] to the
power 1/(j+l), with the sums from one pass, composition_scan. The variant
names the base formula's order (first_order, second_order, order_N for
even N >= 4); its error series (first, step) (formulas.error_series)
gives the parts first, first + step, ... and, for half-order m, the
slices j = m*step, m*step + step, ... that composition_scan checks and
scans for mu_m and the error bounds. The supremum over j is truncated at
a cap and the report says whether the last slices were still raising it.

Exact alpha values come from one dynamic program over weighted Pauli
strings (commutators of Pauli strings are again single strings, so norms
add with no cancellation), run once per table (its accumulators and its
lumping of translation orbits: pauli.commutator_weight_table); the tests
check it against the dense tuple enumeration. Depths past the work
budget are capped at a product-of-norms upper bound.
Composition sums, largest composition products and the compositions
attaining them come from one DP pass over (parts, j, last part) instead of
enumerating compositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .formulas import error_series
from .hamiltonians import HamiltonianSum, one_norm

__all__ = [
    "AlphaEstimate",
    "BudgetExceededError",
    "CommutatorTable",
    "CompositionScan",
    "MissingAlphaError",
    "MuReport",
    "PartitionBlowupError",
    "alpha_comm",
    "build_table",
    "check_scan",
    "composition_scan",
    "convergence_radius",
    "mu_m",
]

DEFAULT_BUDGET = 10**7
PARTITION_J_CAP = 24


class BudgetExceededError(ValueError):
    """An alpha depth lies past the work budget and the caller refuses the
    capped table."""


class MissingAlphaError(KeyError):
    """Table lacks an alpha depth the formula needs."""


class PartitionBlowupError(ValueError):
    """Composition index j beyond the supported range."""


@dataclass(frozen=True)
class AlphaEstimate:
    """One alpha value with its provenance ("exact" or "capped")."""

    j: int
    value: float
    mode: str


@dataclass(frozen=True)
class CommutatorTable:
    """alpha values for depths 1..j_cap.

    mode is "exact" when every entry was computed exactly, "capped" when
    any entry lies past the work budget and holds the upper bound
    alpha[j0] * (2 ||H||_1)^(j - j0), "analytic" for synthetic tables.
    """

    gamma: int
    mode: str
    j_cap: int
    alpha: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gamma < 1 or self.j_cap < 1:
            raise ValueError("gamma and j_cap must be positive")
        if self.mode not in ("exact", "capped", "analytic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        cleaned = {}
        for j in range(1, self.j_cap + 1):
            if j not in self.alpha:
                raise MissingAlphaError(f"alpha[{j}] missing below j_cap")
            value = float(self.alpha[j])
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"alpha[{j}] = {value} invalid")
            cleaned[j] = value
        object.__setattr__(self, "alpha", cleaned)

    def require(self, depth: int) -> None:
        if depth > self.j_cap:
            raise MissingAlphaError(
                f"need alpha to depth {depth}, table stops at {self.j_cap}"
            )


@dataclass(frozen=True)
class MuReport:
    """Truncated mu supremum with the attaining indices.

    argmax is (j, l, partition) with partition the largest-product
    composition at that (j, l), sorted descending. tail_clear is False when
    either of the last two scanned j-slices still raised the supremum.
    """

    m: int
    mu_m: float
    argmax: tuple
    mu_upper: float
    variant: str
    tail_clear: bool
    j_cap: int


@dataclass(frozen=True)
class CompositionScan:
    """composition_scan's result: the slices js = m*step, m*step + step,
    ... <= j_cap, and _composition_tables' [l][j] tables for l <= m."""

    variant: str
    j_cap: int
    js: range
    sums: list
    best: list
    choice: list


def _variant_base(variant: str) -> int:
    """The base order a variant names: first_order, second_order, or
    order_N for an order N >= 4 that formulas.error_series accepts."""
    if variant == "first_order":
        return 1
    if variant == "second_order":
        return 2
    if isinstance(variant, str) and variant.startswith("order_"):
        try:
            base = int(variant[6:])
            # int() also reads "4_0", "04" and "+4"; only the canonical name passes
            if base >= 4 and error_series(base) and variant == f"order_{base}":
                return base
        except ValueError:
            pass
    raise ValueError(f"unknown variant {variant!r}")


# --- alpha ---------------------------------------------------------------


def build_table(
    h: HamiltonianSum, depth: int, budget: int = DEFAULT_BUDGET
) -> CommutatorTable:
    """alpha table for depths 1..depth from one Pauli DP run (kept by the
    model, see HamiltonianSum.commutator_weights): exact as deep as the
    budget reaches, then capped, with mode "capped" if any entry is.

    Depth 1 is always exact. Past the last exact depth j0 each entry is
    alpha[j0] * (2 ||H||_1)^(j - j0), an upper bound because
    ||[H_g, C]|| <= 2 ||H_g|| ||C|| gives alpha[j] <= 2 ||H||_1 alpha[j-1].
    """
    if depth < 1:
        raise ValueError("depth j must be >= 1")
    exact = h.commutator_weights(depth, budget)
    growth = 2.0 * one_norm(h)
    capped = [exact[-1] * growth ** k for k in range(1, depth - len(exact) + 1)]
    return CommutatorTable(
        gamma=h.gamma,
        mode="capped" if capped else "exact",
        j_cap=depth,
        alpha=dict(enumerate(exact + capped, start=1)),
    )


def alpha_comm(h: HamiltonianSum, j: int, budget: int = DEFAULT_BUDGET) -> AlphaEstimate:
    """Sum of depth-j nested-commutator norms over all Gamma^j tuples: the
    deepest entry of build_table(h, j, budget).

    `budget` bounds the DP's work units (Gamma * |frontier| per depth
    step). A depth past the budget is returned flagged "capped", as the
    upper bound alpha[j0] * (2 ||H||_1)^(j - j0) from the last exact depth
    j0.
    """
    table = build_table(h, j, budget)
    return AlphaEstimate(j, table.alpha[j], table.mode)


# --- lambda and mu -------------------------------------------------------


def _composition_tables(table: CommutatorTable, j_max: int, l_max: int, base: int):
    """One pass over the compositions of j <= j_max into exactly l <= l_max
    admissible parts, with products prod alpha[part+1]: returns
    (sums, best, choice) where sums[l][j] is the sum of the products,
    best[l][j] the largest product (-inf when there is no composition) and
    choice[l][j] the last part of the first composition attaining it, parts
    tried in ascending order (ties resolve toward smaller leading parts)."""
    alpha = table.alpha
    sums = [[0.0] * (j_max + 1) for _ in range(l_max + 1)]
    best = [[-math.inf] * (j_max + 1) for _ in range(l_max + 1)]
    choice = [[0] * (j_max + 1) for _ in range(l_max + 1)]
    sums[0][0] = best[0][0] = 1.0
    first, step = error_series(base)
    parts = range(first, j_max + 1, step)
    for l in range(1, l_max + 1):
        for j in range(1, j_max + 1):
            s = 0.0
            for p in parts:
                if p > j:
                    break
                a, prev = alpha[p + 1], best[l - 1][j - p]
                s += a * sums[l - 1][j - p]
                if prev > -math.inf and a * prev > best[l][j]:
                    best[l][j], choice[l][j] = a * prev, p
            sums[l][j] = s
    return sums, best, choice


def _best_composition(best: list, choice: list, j: int, l: int) -> tuple:
    """Parts of the composition attaining best[l][j], sorted descending;
    empty when there is none."""
    if best[l][j] == -math.inf:
        return ()
    comp = []
    while l > 0:
        comp.append(choice[l][j])
        j -= choice[l][j]
        l -= 1
    return tuple(sorted(comp, reverse=True))


def check_scan(m: int, j_cap: int | None = None, variant="second_order") -> tuple:
    """(base order, j_cap) of a composition scan, j_cap defaulting to 2m+8,
    checked without a table: a known variant, m >= 1 and
    2m <= j_cap <= PARTITION_J_CAP."""
    base = _variant_base(variant)
    if m < 1:
        raise ValueError("m must be >= 1")
    if j_cap is None:
        j_cap = 2 * m + 8
    if j_cap < 2 * m:
        raise ValueError("j_cap must be >= 2m")
    if j_cap > PARTITION_J_CAP:
        raise PartitionBlowupError(f"j_cap = {j_cap} beyond {PARTITION_J_CAP}")
    return base, j_cap


def composition_scan(
    table: CommutatorTable, m: int, j_cap: int | None = None, variant="second_order"
) -> CompositionScan:
    """The composition pass over j <= j_cap and l <= m that mu_m and the
    error bounds read: check_scan, then table.require(j_cap + 1)
    (MissingAlphaError), then _composition_tables."""
    base, j_cap = check_scan(m, j_cap, variant)
    table.require(j_cap + 1)
    step = error_series(base)[1]
    return CompositionScan(
        variant, j_cap, range(m * step, j_cap + 1, step),
        *_composition_tables(table, j_cap, m, base),
    )


def mu_m(
    table: CommutatorTable, m: int, j_cap: int | None = None, variant="second_order"
) -> MuReport:
    """Truncated sup of lambda_{j,l} = scan.sums[l][j]^(1/(j+l)) over the
    variant's index set.

    Scans composition_scan's slices j <= j_cap (default 2m+8) and l up
    to m; the supremum runs over an infinite index set, so tail_clear
    reports whether the last two slices left the running sup alone.  When
    several cells attain the sup to within 1e-12 relative, the reported
    argmax is the tied cell with the most commutator factors. On geometric
    alpha tables the ties are exact among the (4l, l) cells under order_4
    (second_order starts its scan at j = 2m, so of its (2l, l) cells only
    (2m, m) is scanned). mu_upper is 2 * sup of best[l][j]^(1/(j+l)) over
    the same cells; it dominates mu_m because composition counts stay
    below 2^(j-1).
    """
    scan = composition_scan(table, m, j_cap, variant)
    best = -1.0
    arg = (0, 0)
    improved = []
    top = 0.0
    for j in scan.js:
        moved = False
        for l in range(1, m + 1):
            top = max(top, max(scan.best[l][j], 0.0) ** (1.0 / (j + l)))
            value = scan.sums[l][j] ** (1.0 / (j + l))
            if value > best * (1.0 + 1e-12):
                best = max(best, value)
                arg = (j, l)
                moved = True
            elif value > 0.0 and value >= best * (1.0 - 1e-12) and l > arg[1]:
                # numerical tie: report the attaining cell with the most parts
                arg = (j, l)
        improved.append(moved)
    tail_clear = not any(improved[-2:])
    partition = _best_composition(scan.best, scan.choice, arg[0], arg[1])
    return MuReport(
        m=m,
        mu_m=float(best),
        argmax=(arg[0], arg[1], partition),
        mu_upper=2.0 * top,
        variant=scan.variant,
        tail_clear=tail_clear,
        j_cap=scan.j_cap,
    )


def convergence_radius(table: CommutatorTable) -> float:
    """Heuristic step-size radius inf_j alpha[j]^(-1/j) over depths >= 2.

    The true premise is an infimum over an unbounded tail; this takes the
    computed depths and, when the sequence is still falling monotonically,
    one Aitken extrapolation toward its limit. Commuting families give
    infinity.
    """
    rs = []
    for j in range(2, table.j_cap + 1):
        a = table.alpha.get(j, 0.0)
        if a > 0.0:
            rs.append(a ** (-1.0 / j))
    if not rs:
        return math.inf
    radius = min(rs)
    if len(rs) >= 3:
        r2, r1, r0 = rs[-3], rs[-2], rs[-1]
        d1 = r1 - r2
        d0 = r0 - r1
        if d0 < 0.0 and d1 < 0.0 and abs(d0 - d1) > 1e-15:
            aitken = r0 - d0 * d0 / (d0 - d1)
            if math.isfinite(aitken) and 0.0 < aitken < radius:
                radius = aitken
    return float(radius)

