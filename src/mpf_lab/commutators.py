"""Commutator-scaling metrics.

alpha[j] is the sum over all Gamma^j ordered index tuples of the spectral
norm of the depth-j nested commutator of the Hamiltonian terms; depth 1 is
the plain term-norm sum. lambda and mu homogenize composition products of
alpha values; the variant picks the admissible compositions: any positive
parts with any j >= m for a first-order base, even parts >= 2 with even
j >= 2m for the second-order base, even parts >= 2p for a 2p-th-order base.
The supremum over j is truncated at a cap and the report says whether the
last slices were still raising it.

Exact alpha values come from one dynamic program over weighted Pauli
strings (commutators of Pauli strings are again single strings, so norms
add with no cancellation), run once per table; a dense tuple enumeration
is kept as the oracle path. Depths past the work budget are capped at a
product-of-norms upper bound.
Composition sums reuse suffix subtotals through the DP recurrence instead
of enumerating compositions.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from . import pauli
from .hamiltonians import HamiltonianSum, one_norm
from .operators import spectral_norm

__all__ = [
    "AlphaEstimate",
    "BadRegimeError",
    "BudgetExceededError",
    "CommutatorTable",
    "MissingAlphaError",
    "MuReport",
    "PartitionBlowupError",
    "alpha_comm",
    "analytic_mu",
    "build_table",
    "composition_sum",
    "convergence_radius",
    "lambda_jl",
    "mu_m",
    "mu_upper_bound",
    "table_from_json",
    "table_to_json",
]

DEFAULT_BUDGET = 10**7
PARTITION_J_CAP = 24


class BudgetExceededError(ValueError):
    """An alpha depth lies past the work budget (strict mode, or a capped
    table the caller refuses)."""


class MissingAlphaError(KeyError):
    """Table lacks an alpha depth the formula needs."""


class PartitionBlowupError(ValueError):
    """Composition index j beyond the supported range."""


class BadRegimeError(ValueError):
    """Analytic scaling requested outside its validity regime."""


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


def _variant_base(variant) -> int:
    if variant == "first_order" or variant == 1:
        return 1
    if variant == "second_order" or variant == 2:
        return 2
    if isinstance(variant, str) and variant.startswith("order_"):
        try:
            variant = int(variant[6:])
        except ValueError:
            raise ValueError(f"unknown variant {variant!r}") from None
    if isinstance(variant, int) and variant >= 4 and variant % 2 == 0:
        return variant
    raise ValueError(f"unknown variant {variant!r}")


def _variant_name(base: int) -> str:
    if base == 1:
        return "first_order"
    if base == 2:
        return "second_order"
    return f"order_{base}"


def _parts(base: int, limit: int) -> range:
    """Admissible composition parts up to limit."""
    if base == 1:
        return range(1, limit + 1)
    return range(base, limit + 1, 2)


def _slice_js(base: int, m: int, j_cap: int) -> range:
    """The j values scanned by the mu supremum."""
    if base == 1:
        return range(m, j_cap + 1)
    return range(2 * m, j_cap + 1, 2)


# --- alpha ---------------------------------------------------------------


def _alpha_pauli(h: HamiltonianSum, depth: int, budget: int) -> list[float]:
    """Exact alpha[1..k] from one DP run, k <= depth as far as budget reaches.

    Cached per budget: a run the budget stopped short answers every deeper
    request at that budget too.
    """
    cache = h._dense_cache.setdefault("alpha_pauli", {})
    alphas, stopped = cache.get(budget, ([], False))
    if len(alphas) < depth and not stopped:
        strings = [t.masks() for t in h.terms]
        coeffs = [t.coefficient for t in h.terms]
        alphas = pauli.commutator_weight_table(
            strings, coeffs, depth, h.n_qubits, budget
        )
        cache[budget] = (alphas, len(alphas) < depth)
    return alphas[:depth]


def _alpha_dense(h: HamiltonianSum, j: int) -> float:
    cache = h._dense_cache.setdefault("alpha_dense", {})
    if j not in cache:
        mats = h.term_matrices()
        total = 0.0
        for tup in itertools.product(range(h.gamma), repeat=j):
            acc = mats[tup[-1]]
            for g in tup[-2::-1]:
                m = mats[g]
                acc = m @ acc - acc @ m
            total += spectral_norm(acc)
        cache[j] = float(total)
    return cache[j]


def _estimates(
    h: HamiltonianSum, depth: int, budget: int, method: str
) -> list[AlphaEstimate]:
    """alpha[1..depth]: exact as deep as the budget reaches, then capped.

    Depth 1 is always exact. Past the last exact depth j0 each entry is
    alpha[j0] * (2 ||H||_1)^(j - j0), an upper bound because
    ||[H_g, C]|| <= 2 ||H_g|| ||C|| gives alpha[j] <= 2 ||H||_1 alpha[j-1].
    """
    if depth < 1:
        raise ValueError("depth j must be >= 1")
    if method not in ("auto", "pauli", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method != "dense":
        exact = _alpha_pauli(h, depth, budget)
    else:
        reach = 1
        while reach < depth and h.gamma ** (reach + 1) <= budget:
            reach += 1
        exact = [_alpha_dense(h, j) for j in range(1, reach + 1)]
    out = [AlphaEstimate(j, v, "exact") for j, v in enumerate(exact, start=1)]
    growth = 2.0 * one_norm(h)
    for j in range(len(exact) + 1, depth + 1):
        bound = exact[-1] * growth ** (j - len(exact))
        out.append(AlphaEstimate(j, bound, "capped"))
    return out


def alpha_comm(
    h: HamiltonianSum,
    j: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    strict: bool = False,
) -> AlphaEstimate:
    """Sum of depth-j nested-commutator norms over all Gamma^j tuples.

    method "auto" and "pauli" run the Pauli string DP (every term is a
    Pauli string); "dense" runs the tuple enumeration it is checked against.
    `budget` bounds the work: DP work units (Gamma * |frontier| per
    depth step) on the Pauli path, Gamma^j tuples on the dense path. A depth
    past the budget is returned flagged "capped", as the upper bound
    alpha[j0] * (2 ||H||_1)^(j - j0) from the last exact depth j0 (or
    BudgetExceededError is raised when strict).
    """
    est = _estimates(h, j, budget, method)[-1]
    if strict and est.mode == "capped":
        raise BudgetExceededError(f"depth {j} is beyond the budget of {budget}")
    return est


def build_table(
    h: HamiltonianSum,
    depth: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> CommutatorTable:
    """alpha table for depths 1..depth from one DP run (the per-model cache
    that alpha_comm reads); mode "capped" if any entry is the upper bound
    past the budget."""
    estimates = _estimates(h, depth, budget, method)
    mode = "exact" if all(e.mode == "exact" for e in estimates) else "capped"
    return CommutatorTable(
        gamma=h.gamma,
        mode=mode,
        j_cap=depth,
        alpha={e.j: e.value for e in estimates},
    )


def table_to_json(table: CommutatorTable) -> str:
    body = {
        "gamma": table.gamma,
        "mode": table.mode,
        "j_cap": table.j_cap,
        "alpha": {str(j): table.alpha[j] for j in sorted(table.alpha)},
    }
    return json.dumps(body, indent=2, sort_keys=True)


def table_from_json(text: str) -> CommutatorTable:
    body = json.loads(text)
    return CommutatorTable(
        gamma=int(body["gamma"]),
        mode=str(body["mode"]),
        j_cap=int(body["j_cap"]),
        alpha={int(j): float(v) for j, v in body["alpha"].items()},
    )


# --- lambda and mu -------------------------------------------------------


def _composition_sums(table: CommutatorTable, j_max: int, l_max: int, base: int):
    """f[l][j] = sum over compositions of j into exactly l admissible parts
    of prod alpha[part+1]."""
    alpha = table.alpha
    f = [[0.0] * (j_max + 1) for _ in range(l_max + 1)]
    f[0][0] = 1.0
    parts = list(_parts(base, j_max))
    for l in range(1, l_max + 1):
        row = f[l]
        prev = f[l - 1]
        for j in range(1, j_max + 1):
            s = 0.0
            for p in parts:
                if p > j:
                    break
                s += alpha[p + 1] * prev[j - p]
            row[j] = s
    return f

def _best_composition(table: CommutatorTable, j: int, l: int, base: int):
    """(max product, attaining composition) over compositions of j into l
    admissible parts; ties resolved toward smaller leading parts."""
    alpha = table.alpha
    neg = -math.inf
    best = [[neg] * (j + 1) for _ in range(l + 1)]
    choice = [[0] * (j + 1) for _ in range(l + 1)]
    best[0][0] = 1.0
    parts = list(_parts(base, j))
    for lev in range(1, l + 1):
        for tot in range(1, j + 1):
            for p in parts:
                if p > tot:
                    break
                prev = best[lev - 1][tot - p]
                if prev == neg:
                    continue
                cand = alpha[p + 1] * prev
                if cand > best[lev][tot]:
                    best[lev][tot] = cand
                    choice[lev][tot] = p
    if best[l][j] == neg:
        return 0.0, ()
    comp = []
    lev, tot = l, j
    while lev > 0:
        p = choice[lev][tot]
        comp.append(p)
        tot -= p
        lev -= 1
    return best[l][j], tuple(sorted(comp, reverse=True))


def composition_sum(
    table: CommutatorTable, j: int, l: int, variant="second_order"
) -> float:
    """Sum over admissible compositions of j into exactly l parts of
    prod alpha[part+1] (the inner sum of lambda and of the error bounds)."""
    base = _variant_base(variant)
    _check_jl(j, l, base)
    table.require(j + 1)
    return _composition_sums(table, j, l, base)[l][j]


def _check_jl(j: int, l: int, base: int) -> None:
    if l < 1:
        raise ValueError("l must be >= 1")
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > PARTITION_J_CAP:
        raise PartitionBlowupError(f"j = {j} beyond supported {PARTITION_J_CAP}")
    if base != 1 and j % 2 != 0:
        raise ValueError("j must be even for symmetric-base variants")


def lambda_jl(
    table: CommutatorTable, j: int, l: int, variant="second_order"
) -> float:
    """( sum over admissible compositions of j into l parts of
    prod alpha[part+1] )^(1/(j+l))."""
    base = _variant_base(variant)
    _check_jl(j, l, base)
    table.require(j + 1)
    total = _composition_sums(table, j, l, base)[l][j]
    return float(total ** (1.0 / (j + l)))


def mu_m(
    table: CommutatorTable, m: int, j_cap: int | None = None, variant="second_order"
) -> MuReport:
    """Truncated sup of lambda_jl over the variant's index set.

    Scans j up to j_cap (default 2m+8) and l up to m; the supremum runs
    over an infinite index set, so tail_clear reports whether the last
    two slices left the running sup alone.  When several cells attain
    the sup to within 1e-12 relative (exact for geometric alpha tables,
    where every (2l, l) cell ties), the reported argmax is the tied cell
    with the most commutator factors.
    """
    base = _variant_base(variant)
    if m < 1:
        raise ValueError("m must be >= 1")
    if j_cap is None:
        j_cap = 2 * m + 8
    if j_cap < 2 * m:
        raise ValueError("j_cap must be >= 2m")
    if j_cap > PARTITION_J_CAP:
        raise PartitionBlowupError(f"j_cap = {j_cap} beyond {PARTITION_J_CAP}")
    table.require(j_cap + 1)
    sums = _composition_sums(table, j_cap, m, base)
    best = -1.0
    arg = (0, 0)
    improved = []
    for j in _slice_js(base, m, j_cap):
        moved = False
        for l in range(1, m + 1):
            value = sums[l][j] ** (1.0 / (j + l))
            if value > best * (1.0 + 1e-12):
                best = max(best, value)
                arg = (j, l)
                moved = True
            elif value > 0.0 and value >= best * (1.0 - 1e-12) and l > arg[1]:
                # numerical tie: report the attaining cell with the most
                # parts (ties at (2l, l) are exact for geometric tables)
                arg = (j, l)
        improved.append(moved)
    tail_clear = not any(improved[-2:])
    _, partition = _best_composition(table, arg[0], arg[1], base)
    return MuReport(
        m=m,
        mu_m=float(best),
        argmax=(arg[0], arg[1], partition),
        mu_upper=mu_upper_bound(table, m, j_cap, variant),
        variant=_variant_name(base),
        tail_clear=tail_clear,
        j_cap=j_cap,
    )


def mu_upper_bound(
    table: CommutatorTable, m: int, j_cap: int | None = None, variant="second_order"
) -> float:
    """2 * sup over (j, l) of the single best composition product to the
    power 1/(j+l); dominates mu_m because composition counts stay below
    2^(j-1)."""
    base = _variant_base(variant)
    if j_cap is None:
        j_cap = 2 * m + 8
    if j_cap > PARTITION_J_CAP:
        raise PartitionBlowupError(f"j_cap = {j_cap} beyond {PARTITION_J_CAP}")
    table.require(j_cap + 1)
    best = 0.0
    for j in _slice_js(base, m, j_cap):
        for l in range(1, m + 1):
            prod, _ = _best_composition(table, j, l, base)
            best = max(best, prod ** (1.0 / (j + l)))
    return 2.0 * best


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


def analytic_mu(model: str, **params):
    """Closed-form asymptotic mu shapes with all constants set to one.

    Returns (expression, value). For "electronic_structure" and "k_local"
    the value is the mu estimate; for "power_law" it is the gate-count
    exponent of n for the requested regime.
    """
    if model == "electronic_structure":
        n = int(params["n"])
        if n < 1:
            raise BadRegimeError("n must be >= 1")
        return "n", float(n)
    if model == "k_local":
        induced = float(params["induced"])
        total = float(params["one_norm"])
        p = int(params.get("p", 2))
        if induced <= 0 or total <= 0:
            raise BadRegimeError("norms must be positive")
        if p < 1:
            raise BadRegimeError("base order p must be >= 1")
        value = induced ** (p / (p + 1.0)) * total ** (1.0 / (p + 1.0))
        expr = f"induced^({p}/{p + 1}) * one_norm^(1/{p + 1})"
        return expr, float(value)
    if model == "power_law":
        d = int(params["d"])
        alpha = float(params["alpha"])
        regime = params["regime"]
        if d < 1 or alpha < 0:
            raise BadRegimeError("need d >= 1 and alpha >= 0")
        if regime == "alpha_lt_d":
            if not alpha < d:
                raise BadRegimeError("regime alpha_lt_d needs alpha < d")
            value = 10.0 / 3.0 - alpha / d
            return "n^(10/3 - alpha/d) T", value
        if regime == "alpha_ge_d":
            if not alpha >= d:
                raise BadRegimeError("regime alpha_ge_d needs alpha >= d")
            return "n^(7/3) T", 7.0 / 3.0
        if regime == "alpha_gt_2d":
            if not alpha > 2 * d:
                raise BadRegimeError("regime alpha_gt_2d needs alpha > 2d")
            value = 4.0 / 3.0 + d / (alpha - d)
            return "n^(4/3 + d/(alpha - d)) T", value
        raise BadRegimeError(f"unknown regime {regime!r}")
    raise ValueError(f"unknown model {model!r}")
