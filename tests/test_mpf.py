import itertools

import numpy as np
import pytest

from conftest import fit_loglog
from mpf_lab.experiments import exact_evolution
from mpf_lab.formulas import build_spec, error_series, evaluate_spec
from mpf_lab.mpf import (
    DuplicatePowersError,
    NonPositiveError,
    SizeMismatchError,
    _condition_exponents,
    mpf_evolve,
    mpf_operator,
    power_schedule,
    query_count,
    required_steps,
    solve_order_condition,
)
from mpf_lab.operators import spectral_norm

HALVING_GRID = (0.2, 0.1, 0.05, 0.025)


def test_pinned_coefficients_m1_m2_m3():
    assert solve_order_condition((1,), 1).coefficients == (1.0,)

    m2 = solve_order_condition((1, 2), 2)
    assert m2.coefficients == pytest.approx((-1 / 3, 4 / 3), abs=1e-12)

    m3 = solve_order_condition((1, 2, 3), 3)
    assert m3.coefficients == pytest.approx((1 / 24, -16 / 15, 81 / 40), abs=1e-12)
    assert sum(m3.coefficients) == pytest.approx(1.0, abs=1e-10)
    assert m3.residual() <= 1e-8 * m3.a_norm


def test_base1_and_base4_rows():
    # base 1 uses nodes 1/k: [[1,1],[1,1/2]] a = (1,0)
    b1 = solve_order_condition((1, 2), 2, base_order=1)
    assert b1.coefficients == pytest.approx((-1.0, 2.0), abs=1e-12)

    # base 4 uses rows {0, 4}: [[1,1],[1,1/16]] a = (1,0)
    b4 = solve_order_condition((1, 2), 3, base_order=4)
    assert b4.coefficients == pytest.approx((-1 / 15, 16 / 15), abs=1e-12)


# order-condition exponents by base order and m = 1..4, written out by hand:
# the first-order error has every power, a symmetric order-q one the even
# powers from q on, and m terms cancel the powers below m (base 1) or 2m
CONDITION_ROWS = {
    1: ([0], [0, 1], [0, 1, 2], [0, 1, 2, 3]),
    2: ([0], [0, 2], [0, 2, 4], [0, 2, 4, 6]),
    4: ([0], [0], [0, 4], [0, 4, 6]),
    6: ([0], [0], [0], [0, 6]),
}


@pytest.mark.parametrize("base_order", sorted(CONDITION_ROWS))
def test_condition_rows_pinned(base_order):
    for m, exponents in enumerate(CONDITION_ROWS[base_order], start=1):
        rows = _condition_exponents(m, base_order)
        assert rows == [(e, 1.0 if e == 0 else 0.0) for e in exponents]


@pytest.mark.parametrize("order", [0, 3, 5, -2])
def test_orders_outside_the_error_series_rule_are_rejected(order):
    with pytest.raises(ValueError, match="order must be 1 or even"):
        error_series(order)
    with pytest.raises(ValueError, match="order must be 1 or even"):
        build_spec(order, 2)
    with pytest.raises(ValueError, match="order must be 1 or even"):
        solve_order_condition((1,), 1, base_order=order)


def test_error_series_values():
    assert [error_series(q) for q in (1, 2, 4, 6, 8)] == [
        (1, 1), (2, 2), (4, 2), (6, 2), (8, 2)
    ]


def _vandermonde_solve(powers, m):
    # independent oracle: direct solve of the even-exponent system
    nodes = np.array([1.0 / k**2 for k in powers])
    rows = np.array([nodes**q for q in range(m)])
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return np.linalg.solve(rows, rhs)


@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_matches_direct_solve(m):
    powers = tuple(range(1, m + 1))
    scheme = solve_order_condition(powers, m)
    direct = _vandermonde_solve(powers, m)
    assert np.max(np.abs(np.array(scheme.coefficients) - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_solver_input_validation():
    with pytest.raises(DuplicatePowersError):
        solve_order_condition((1, 1), 2)
    with pytest.raises(SizeMismatchError):
        solve_order_condition((1, 2, 3), 2)
    with pytest.raises(NonPositiveError):
        solve_order_condition((0, 1), 2)
    with pytest.raises(NonPositiveError):
        solve_order_condition((1, 2), 0)


def test_power_schedule_natural():
    assert power_schedule(1) == (1,)
    assert power_schedule(3) == (1, 2, 3)


def _exhaustive_min_a_norm(m, base_order):
    size = len(power_schedule(m, base_order=base_order))
    best = None
    for combo in itertools.combinations(range(1, 8 * m + 1), size):
        s = solve_order_condition(combo, m, base_order)
        key = (s.a_norm, s.k_norm, combo)
        if best is None or key < best:
            best = key
    return best[2]


def test_power_schedule_min_a_norm_matches_exhaustive_search():
    # the single-swap descent finds the exhaustive optimum on these sizes
    cases = [(m, base) for base in (1, 2, 4) for m in (1, 2, 3)] + [(4, 2)]
    for m, base_order in cases:
        got = power_schedule(m, "min_a_norm", base_order)
        assert got == _exhaustive_min_a_norm(m, base_order), (m, base_order)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_min_a_norm_never_worse_than_natural(m):
    natural = solve_order_condition(power_schedule(m), m)
    tuned = solve_order_condition(power_schedule(m, strategy="min_a_norm"), m)
    assert tuned.a_norm <= natural.a_norm + 1e-12


def test_mpf_operator_m1_reduces_to_base(heis3):
    scheme = solve_order_condition((1,), 1)
    u = mpf_operator(heis3, 0.3, scheme)
    base = evaluate_spec(heis3, 0.3, build_spec(2, heis3.gamma))
    assert np.allclose(u, base, atol=1e-12)


def test_mpf_operator_commuting_exact(commuting3):
    scheme = solve_order_condition((1, 2), 2)
    exact = exact_evolution(commuting3, 0.5)
    assert spectral_norm(mpf_operator(commuting3, 0.5, scheme) - exact) <= 1e-9


@pytest.mark.parametrize(
    "base_order, m, order",
    [(2, 2, 5), (1, 2, 3), (1, 3, 4)],
    ids=["base2-m2", "base1-m2", "base1-m3"],
)
def test_mpf_local_order(base_order, m, order, heis3):
    scheme = solve_order_condition(power_schedule(m, base_order=base_order), m, base_order=base_order)
    errs = [
        spectral_norm(mpf_operator(heis3, t, scheme) - exact_evolution(heis3, t))
        for t in HALVING_GRID
    ]
    assert fit_loglog(HALVING_GRID, errs) == pytest.approx(order, abs=0.3)


def test_base4_scheme_order_exceeds_five(heis3):
    scheme = solve_order_condition((1, 2), 3, base_order=4)
    errs = [
        spectral_norm(mpf_operator(heis3, t, scheme) - exact_evolution(heis3, t))
        for t in HALVING_GRID
    ]
    assert fit_loglog(HALVING_GRID, errs) > 5.0


def test_unitarity_defect_vanishes_at_order(heis3):
    scheme = solve_order_condition((1, 2), 2)
    defects = []
    for t in HALVING_GRID:
        u = mpf_operator(heis3, t, scheme)
        defects.append(spectral_norm(u.conj().T @ u - np.eye(8)))
    assert fit_loglog(HALVING_GRID, defects) >= 2 * 2 + 1


def test_mpf_evolve_basics(heis3, commuting3):
    scheme = solve_order_condition((1, 2), 2)
    one = mpf_evolve(heis3, 0.4, 1, scheme)
    assert np.allclose(one, mpf_operator(heis3, 0.4, scheme), atol=1e-13)

    exact = exact_evolution(commuting3, 2.0)
    assert spectral_norm(mpf_evolve(commuting3, 2.0, 4, scheme) - exact) <= 1e-8


def test_mpf_evolve_triangle_envelope(heis3):
    scheme = solve_order_condition((1, 2), 2)
    t_total, r = 1.0, 5
    delta = t_total / r
    eps_step = spectral_norm(mpf_operator(heis3, delta, scheme) - exact_evolution(heis3, delta))
    global_err = spectral_norm(mpf_evolve(heis3, t_total, r, scheme) - exact_evolution(heis3, t_total))
    assert global_err <= r * eps_step * (1 + eps_step) ** (r - 1)


def test_required_steps_values():
    assert required_steps(0.5, 1.0, 0.5, 1, 0.5) == 1
    assert required_steps(1.0, 10.0, 1e-3, 2, 5 / 3) == 271
    assert required_steps(1.0, 20.0, 1e-3, 2, 5 / 3) > 2 * 271
    with pytest.raises(NonPositiveError):
        required_steps(1.0, 10.0, 1.5, 2, 5 / 3)
    with pytest.raises(NonPositiveError):
        required_steps(-1.0, 10.0, 1e-3, 2, 5 / 3)


def test_query_count_arithmetic():
    m1 = solve_order_condition((1,), 1)
    assert query_count(1, m1) == 1
    m2 = solve_order_condition((1, 2), 2)
    assert query_count(10, m2) == 30
    assert query_count(10, m2, include_amplification=True) == 60

