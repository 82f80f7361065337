"""End-to-end acceptance checks, one test per shipped claim.

Each test is self-contained, states its tolerance inline, and carries a
wall-clock guard so a regression that slows the kernels also fails loudly.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mpf_lab.bch import dyson_expansion, effective_generator, symmetric_bch_term
from mpf_lab.cli import main
from mpf_lab.commutators import (
    CommutatorTable,
    alpha_comm,
    build_table,
    composition_sum,
    mu_m,
)
from mpf_lab.experiments import convergence_study, error_bound_evaluate
from mpf_lab.formulas import build_spec, evaluate_spec
from mpf_lab.hamiltonians import HamiltonianSum, PauliTerm, heisenberg_1d
from mpf_lab.mpf import power_schedule, solve_order_condition
from mpf_lab.operators import matrix_exponential, spectral_norm

from conftest import fit_loglog

GRID = (0.2, 0.1, 0.05, 0.025)


def _scheme(m):
    return solve_order_condition(power_schedule(m), m)


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_01_extrapolation_coefficients(capsys):
    t0 = time.monotonic()
    body2 = json.loads(_cli(capsys, "scheme", "--m", "2"))
    assert body2["coefficients"] == pytest.approx([-1 / 3, 4 / 3], abs=1e-12)
    assert body2["residual"] <= 1e-8
    body3 = json.loads(_cli(capsys, "scheme", "--m", "3"))
    assert body3["coefficients"] == pytest.approx([1 / 24, -16 / 15, 81 / 40], abs=1e-12)
    assert body3["residual"] <= 1e-8
    assert time.monotonic() - t0 < 1.0


def test_02_local_convergence_orders(heis3):
    cases = [
        ("u2", {"scheme": solve_order_condition([1], 1, 2)}, 3.0, 0.2),
        ("u2p", {"scheme": solve_order_condition([1], 1, 4)}, 5.0, 0.2),
        ("mpf", {"scheme": _scheme(1)}, 3.0, 0.3),
        ("mpf", {"scheme": _scheme(2)}, 5.0, 0.3),
        ("mpf", {"scheme": _scheme(3)}, 7.0, 0.4),
    ]
    for evolver, kwargs, order, tol in cases:
        t0 = time.monotonic()
        study = convergence_study(heis3, dt_grid=GRID, **kwargs)
        assert study.fitted_slope == pytest.approx(order, abs=tol), (evolver, kwargs)
        assert time.monotonic() - t0 < 30.0


def test_03_bch_terms_and_generator(xz1):
    t0 = time.monotonic()
    s = 0.1
    for h in (xz1, heisenberg_1d(2)):
        for k in (2, 4):
            report = symmetric_bch_term(h, k, s)
            assert report.structurally_zero and report.norm == 0.0
        for k in (3, 5):
            report = symmetric_bch_term(h, k, s)
            scale_free_bound = alpha_comm(h, k).value / k**2
            assert report.bound == pytest.approx(s**k * scale_free_bound, rel=1e-12)
            assert report.norm <= report.bound + 1e-12
    ss = [0.2 * 0.75**i for i in range(6)]
    for big_k in (1, 3, 5):
        errs = [
            spectral_norm(
                evaluate_spec(xz1, step, build_spec(2, xz1.gamma))
                - matrix_exponential(effective_generator(xz1, step, big_k))
            )
            for step in ss
        ]
        assert fit_loglog(ss, errs) >= big_k + 2 - 0.4
    assert time.monotonic() - t0 < 60.0


def test_04_interaction_picture_defect_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    def rand_anti_hermitian(norm):
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        raw = raw - raw.conj().T
        return raw * (norm / spectral_norm(raw))

    for _ in range(20):
        a = rand_anti_hermitian(1.0)
        b = rand_anti_hermitian(0.01 + 0.19 * rng.random())
        b_norm = spectral_norm(b)
        exact = matrix_exponential(a + b)
        for p in (2, 3, 4):
            approx, remainder = dyson_expansion(a, b, p)
            assert remainder == b_norm**p / math.factorial(p)
            defect = spectral_norm(approx - exact)
            assert defect <= remainder + 1e-8, (p, defect, remainder)
    assert time.monotonic() - t0 < 30.0


def test_05_error_bound_dominance():
    t0 = time.monotonic()
    for n in (2, 3):
        h = heisenberg_1d(n)
        table = build_table(h, 15)
        for m in (1, 2):
            scheme = _scheme(m)
            for delta in (0.1, 0.05, 0.025):
                budget, measured = error_bound_evaluate(
                    h, delta, scheme, table, j_cap=2 * m + 8
                )
                # 1e-10 covers dense roundoff where the bound is exactly zero
                assert measured <= budget.thm_bound + 1e-10, (n, m, delta)
                assert budget.tail_clear, (n, m, delta)
    assert time.monotonic() - t0 < 60.0


def test_06_chain_scaling_exponents(capsys):
    t0 = time.monotonic()
    theory = json.loads(_cli(capsys, "benchmark", "--theory-only"))
    rounded = [round(row["theory_exponent"], 3) for row in theory["theory"]]
    assert rounded == [2.0, 1.667, 1.556, 1.5, 1.467]
    assert round(theory["limit_exponent"], 3) == 1.333

    out = _cli(
        capsys, "benchmark", "--n-list", "4,6,8", "--m-list", "1,2",
        "--eps", "1e-3", "--format", "json",
    )
    results = json.loads(out)["results"]
    fitted = {row["m"]: row["fitted_exponent"] for row in results}
    assert all(math.isfinite(v) for v in fitted.values())
    assert fitted[2] < fitted[1]
    assert abs(fitted[1] - 2.0) < 0.5
    assert abs(fitted[2] - 5.0 / 3.0) < 0.5
    assert time.monotonic() - t0 < 900.0


def _dense_alpha(h, j):
    mats = h.term_matrices()
    total = 0.0
    for tup in itertools.product(mats, repeat=j):
        nested = tup[-1]
        for mat in tup[-2::-1]:
            nested = mat @ nested - nested @ mat
        total += np.linalg.norm(nested, 2)
    return total


def _brute_mu(table, m, j_cap):
    best = 0.0
    for j in range(2, j_cap + 1, 2):
        for l in range(1, m + 1):
            total = 0.0
            for comp in itertools.product(range(2, j + 1, 2), repeat=l):
                if sum(comp) == j:
                    prod = 1.0
                    for part in comp:
                        prod *= table.alpha[part + 1]
                    total += prod
            best = max(best, total ** (1.0 / (j + l)))
    return best


def test_07_commutator_oracle_equivalence(xz1, commuting3):
    t0 = time.monotonic()
    three_term = HamiltonianSum(
        2,
        (
            PauliTerm(2, 0.7, {0: "X", 1: "Z"}),
            PauliTerm(2, -0.4, {0: "Y"}),
            PauliTerm(2, 1.1, {1: "Y"}),
        ),
        grouping=((0, 1), (0,), (1,)),
    )
    for h in (xz1, commuting3, three_term):
        for j in (1, 2, 3, 4):
            fast = alpha_comm(h, j, method="pauli").value
            dense = alpha_comm(h, j, method="dense").value
            assert fast == pytest.approx(dense, abs=1e-9)
            assert fast == pytest.approx(_dense_alpha(h, j), abs=1e-9)
        table = build_table(h, 9)
        for m in (1, 2):
            got = mu_m(table, m, j_cap=8).mu_m
            assert got == pytest.approx(_brute_mu(table, m, 8), abs=1e-9)
    assert time.monotonic() - t0 < 60.0


def test_08_variant_monotonicity_and_argmax(xz1, heis3):
    for h in (xz1, heis3):
        table = build_table(h, 9)
        mu4 = mu_m(table, 2, j_cap=8, variant="order_4").mu_m
        mu2 = mu_m(table, 2, j_cap=8, variant="second_order").mu_m
        mu1 = mu_m(table, 2, j_cap=8, variant="first_order").mu_m
        assert mu4 <= mu2 + 1e-9 <= mu1 + 2e-9

    for beta, level in ((0.5, 3.0), (0.25, 4.0), (1.0, 64.0)):
        for m in (1, 2, 3):
            depth = 2 * m + 9
            table = CommutatorTable(
                gamma=3,
                mode="analytic",
                j_cap=depth,
                alpha={j: beta ** (j - 1) * level for j in range(1, depth + 1)},
            )
            assert mu_m(table, m).argmax[:2] == (2 * m, m)


def test_09_cli_determinism(capsys):
    runs = [
        ("scheme", "--m", "3", "--strategy", "min_a_norm"),
        ("commutators", "--model", "power_law", "--n", "4", "--d", "1",
         "--alpha", "2.0", "--seed", "11"),
        ("convergence", "--model", "heisenberg", "--n", "3",
         "--dt-grid", "0.2,0.1,0.05,0.025"),
        ("benchmark", "--n-list", "3,4,5", "--m-list", "1,2", "--eps", "0.1"),
        ("benchmark", "--theory-only"),
        ("bch-verify", "--model", "heisenberg", "--n", "3", "--k-max", "5"),
    ]
    for argv in runs:
        first = _cli(capsys, *argv)
        second = _cli(capsys, *argv)
        assert first == second, argv[0]
        assert first.strip(), argv[0]
