import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpf_lab.experiments as experiments
from mpf_lab import mpf
from mpf_lab.commutators import build_table, convergence_radius
from mpf_lab.experiments import (
    LIMIT_EXPONENT,
    DegenerateGridError,
    InfeasibleError,
    PremiseViolatedError,
    ScalingResult,
    convergence_study,
    error_bound_evaluate,
    exact_evolution,
    heisenberg_benchmark,
    report_emit,
    theory_exponent,
)
from mpf_lab.hamiltonians import HamiltonianSum, PauliTerm, heisenberg_1d
from mpf_lab.mpf import mpf_operator, power_schedule, query_count, solve_order_condition
from mpf_lab.operators import spectral_norm

GRID = (0.2, 0.1, 0.05, 0.025)


def _scheme(m, base_order=2):
    return solve_order_condition(power_schedule(m, base_order=base_order), m, base_order=base_order)


# the second-order product formula as a scheme
U2 = solve_order_condition([1], 1, 2)


class TestExactEvolution:
    def test_zero_time_is_identity(self, heis3):
        assert spectral_norm(exact_evolution(heis3, 0.0) - np.eye(8)) <= 1e-14

    def test_single_qubit_z_quarter_turn(self, xz1):
        from mpf_lab.hamiltonians import HamiltonianSum, PauliTerm

        hz = HamiltonianSum(1, (PauliTerm(1, 1.0, {0: "Z"}),))
        got = exact_evolution(hz, math.pi / 2)
        assert np.allclose(got, np.diag([-1j, 1j]), atol=1e-12)

    def test_group_property(self, heis3):
        prod = exact_evolution(heis3, 0.3) @ exact_evolution(heis3, 0.45)
        assert spectral_norm(prod - exact_evolution(heis3, 0.75)) <= 1e-9

    def test_unitary(self, heis3):
        u = exact_evolution(heis3, 1.7)
        assert spectral_norm(u @ u.conj().T - np.eye(8)) <= 1e-12

    def test_model_retains_no_term_matrices(self):
        # the model keeps its whole space's eigendecomposition (1 MiB of
        # eigenvectors at n = 8) and phase table, not 24 dense term matrices
        tracemalloc.start()
        try:
            h = heisenberg_1d(8)
            exact_evolution(h, 8.0)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.whole.eigh[1].shape == (256, 256)
        assert retained < 4 * 2**20


class TestConvergenceStudy:
    # a product formula of order q is the one-term scheme
    @pytest.mark.parametrize(
        "name, kwargs, order",
        [
            ("u1", {"base_order": 1}, 2.0),
            ("u2", {"base_order": 2}, 3.0),
            ("u2p", {"base_order": 4}, 5.0),
        ],
    )
    def test_product_formula_slopes(self, heis3, name, kwargs, order):
        scheme = solve_order_condition([1], 1, **kwargs)
        study = convergence_study(heis3, scheme, dt_grid=GRID)
        assert study.fitted_slope == pytest.approx(order, abs=0.2)
        assert study.r_squared > 0.999
        assert not study.exact
        assert study.dt_grid == GRID and len(study.errors) == 4

    def test_mpf_slope(self, heis3):
        study = convergence_study(heis3, _scheme(2), dt_grid=GRID)
        assert study.fitted_slope == pytest.approx(5.0, abs=0.3)

    def test_commuting_model_is_exact(self, commuting3):
        study = convergence_study(commuting3, U2, dt_grid=GRID)
        assert study.exact
        assert study.fitted_slope == 0.0 and study.r_squared == 0.0
        assert max(study.errors) <= 1e-10

    def test_grid_validation(self, heis3):
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, dt_grid=(0.2, 0.1, 0.05))
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, dt_grid=(0.2, 0.2, 0.1, 0.05))
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, dt_grid=(0.2, 0.1, 0.05, -0.025))

    def test_default_grid(self, heis3):
        study = convergence_study(heis3, U2)
        grid = study.dt_grid
        assert len(grid) == 6
        ratios = [a / b for a, b in zip(grid, grid[1:])]
        assert ratios == pytest.approx([2.0] * 5)
        assert study.errors[0] < 0.1
        # the top step's error, measured while the grid was picked, is the
        # one a study on the same grid measures
        assert convergence_study(heis3, U2, dt_grid=grid) == study

    def test_default_grid_options(self, heis3):
        study = convergence_study(heis3, U2, points=5, ratio=3.0, start=0.5)
        grid = study.dt_grid
        assert len(grid) == 5 and grid[0] in [0.5 / 2**k for k in range(60)]
        assert [a / b for a, b in zip(grid, grid[1:])] == pytest.approx([3.0] * 4)
        assert study.errors[0] < 0.1
        assert convergence_study(heis3, U2, dt_grid=grid) == study

    def test_default_grid_without_a_measured_top_step(self):
        # the error never drops below 0.1, so the top step, halved after
        # its last probe, was not measured: the study measures every point
        terms = (PauliTerm(1, 1e30, {0: "X"}), PauliTerm(1, 1e30, {0: "Z"}))
        h = HamiltonianSum(1, terms)
        study = convergence_study(h, U2)
        assert study.dt_grid[0] == 0.8 / 2**60
        assert study.errors == convergence_study(h, U2, study.dt_grid).errors

    def test_default_grid_validation(self, heis3):
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, points=3)
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, ratio=1.0)
        with pytest.raises(DegenerateGridError):
            convergence_study(heis3, U2, start=0.0)
        # a given grid is used as it is; the default grid's options are unread
        study = convergence_study(heis3, U2, GRID, points=3, ratio=1.0, start=0.0)
        assert study == convergence_study(heis3, U2, GRID)


class TestErrorBound:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.025])
    def test_bound_dominates_measurement(self, heis3, m, delta):
        table = build_table(heis3, 15)
        budget, measured = error_bound_evaluate(heis3, delta, _scheme(m), table, j_cap=2 * m + 8)
        assert measured <= budget.thm_bound + 1e-10
        assert budget.tail_clear
        assert budget.truncation_depth == 2 * m + 8

    @pytest.mark.parametrize("m", [1, 2])
    def test_bound_halving_rate(self, heis3, m):
        table = build_table(heis3, 15)
        bounds = [
            error_bound_evaluate(heis3, d, _scheme(m), table, j_cap=2 * m + 8)[0].thm_bound
            for d in (0.1, 0.05, 0.025)
        ]
        # leading term scales as delta^(2m+1)
        for big, small in zip(bounds, bounds[1:]):
            assert big / small >= 2.0 ** (2 * m + 1 - 0.2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_bound_decomposition_identity(self, heis3, m):
        table = build_table(heis3, 15)
        budget, _ = error_bound_evaluate(heis3, 0.05, _scheme(m), table, j_cap=2 * m + 8)
        scheme = _scheme(m)
        parts = sum(budget.e_tilde_bounds.values()) + budget.f_tilde_bound
        assert budget.thm_bound == pytest.approx(scheme.a_norm * parts, rel=1e-12)
        if m == 1:
            # no correction terms below the remainder at half-order one
            assert set(budget.e_tilde_bounds.values()) == {0.0}
        else:
            assert all(v > 0 for v in budget.e_tilde_bounds.values())

    def test_commuting_bound_is_zero(self, commuting3):
        table = build_table(commuting3, 15)
        budget, measured = error_bound_evaluate(commuting3, 0.3, _scheme(2), table)
        assert budget.thm_bound == 0.0
        assert measured <= 1e-10
        assert budget.tail_clear

    def test_premise_violation(self, heis3):
        table = build_table(heis3, 15)
        with pytest.raises(PremiseViolatedError):
            error_bound_evaluate(heis3, 0.2, _scheme(1), table)

    def test_tail_flag_clears_only_inside_radius(self, xz1):
        table = build_table(xz1, 15)
        radius = convergence_radius(table)
        budget, _ = error_bound_evaluate(xz1, radius, _scheme(1), table, j_cap=10)
        assert not budget.tail_clear
        budget, _ = error_bound_evaluate(xz1, 0.9 * radius, _scheme(1), table, j_cap=10)
        assert budget.tail_clear

    def test_input_validation(self, heis3):
        table = build_table(heis3, 15)
        with pytest.raises(ValueError):
            error_bound_evaluate(heis3, 0.05, _scheme(2, base_order=1), table)
        with pytest.raises(ValueError):
            error_bound_evaluate(heis3, -0.1, _scheme(1), table)
        with pytest.raises(ValueError):
            error_bound_evaluate(heis3, 0.05, _scheme(2), table, j_cap=2)


@pytest.fixture(scope="module")
def small_run():
    return heisenberg_benchmark((3, 4, 5), (1, 2), eps=0.05)


class TestBenchmark:
    def test_cells_meet_target(self, small_run):
        for res in small_run:
            for cell in res.cells:
                assert cell.error <= 0.05

    def test_r_is_minimal(self, small_run):
        for res in small_run:
            for cell in res.cells:
                h = heisenberg_1d(cell.n, periodic=True)
                target = exact_evolution(h, float(cell.n))
                scheme = _scheme(cell.m)

                # built here rather than through mpf_evolve, the path the
                # search itself measures
                def err(r):
                    step = mpf_operator(h, float(cell.n) / r, scheme)
                    return spectral_norm(np.linalg.matrix_power(step, r) - target)

                assert err(cell.r) <= 0.05
                assert cell.r == 1 or err(cell.r - 1) > 0.05

    def test_query_accounting(self, small_run):
        for res in small_run:
            scheme = _scheme(res.m)
            for cell in res.cells:
                assert cell.queries == query_count(cell.r, scheme)
                assert cell.queries == cell.r * scheme.k_norm
                assert cell.queries_amplified == cell.queries * math.ceil(scheme.a_norm)

    def test_theory_exponent_is_the_stated_formula(self):
        # bit for bit with the formula bench/checks.py restates at 1e-12
        assert LIMIT_EXPONENT == 4.0 / 3.0
        for m in range(1, 12):
            assert theory_exponent(m) == 4.0 / 3.0 + 2.0 / (3.0 * m)

    def test_theory_exponents_and_fit(self, small_run):
        assert [res.theory_exponent for res in small_run] == pytest.approx([2.0, 5.0 / 3.0])
        for res in small_run:
            assert math.isfinite(res.fitted_exponent)
            assert res.query_counts == tuple(c.queries for c in res.cells)

    def test_n_list_normalized(self):
        res = heisenberg_benchmark((4, 3, 5, 3), (1,), eps=0.3)
        assert res[0].n_values == (3, 4, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            heisenberg_benchmark((3, 4), (1,), eps=0.05)
        with pytest.raises(ValueError):
            heisenberg_benchmark((3, 4, 5), (1,), eps=1.5)

    def test_infeasible_search_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "R_CAP", 4)
        with pytest.raises(InfeasibleError):
            heisenberg_benchmark((3, 4, 5), (1,), eps=1e-6)

    def test_bench_config_r_values_and_evaluation_count(self, monkeypatch):
        calls = collections.Counter()
        powered = experiments._powered_error

        def counted(h, big_t, r, scheme, target):
            calls[h.n_qubits, scheme.half_order] += 1
            return powered(h, big_t, r, scheme, target)

        monkeypatch.setattr(experiments, "_powered_error", counted)
        results = heisenberg_benchmark((4, 6, 8), (1, 2, 3), eps=1e-3)
        assert [[c.r for c in res.cells] for res in results] == [
            [508, 1074, 2053],
            [38, 64, 103],
            [14, 21, 32],
        ]
        assert len(calls) == 9 and max(calls.values()) <= 5

    def test_errors_are_measured_in_blocks_only(self, monkeypatch):
        # every product and exact evolution is formed on an error block
        # (HamiltonianSum.error_blocks), none on a full 7- or 8-qubit space
        # and none away from popcount floor(n/2): dims 20 (n = 6), 35 (n = 7)
        # and 35, 35 (n = 8)
        dims = collections.Counter()
        evaluate, eigh = mpf.evaluate_spec, np.linalg.eigh

        def recorded(h, t, spec):
            dims[h.dim] += 1
            return evaluate(h, t, spec)

        monkeypatch.setattr(mpf, "evaluate_spec", recorded)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: dims.update([len(a)]) or eigh(a))
        heisenberg_benchmark((6, 7, 8), (1,), eps=1e-2)
        assert set(dims) == {20, 35}

    def test_one_search_per_cell(self, monkeypatch):
        eps = 0.01

        def bumpy(h, big_t, r, scheme, target):
            # the error grows with r up to the drop at r = 4000
            return 0.1 * eps if r >= 4000 else 10.0 * eps * (1.0 + r / 1000.0)

        searches = []
        search = experiments._search_minimal_r

        def recorded(err, eps_, r_hint, order):
            out = search(err, eps_, r_hint, order)
            searches.append(out[0])
            return out

        monkeypatch.setattr(experiments, "_powered_error", bumpy)
        monkeypatch.setattr(experiments, "_search_minimal_r", recorded)
        cells = heisenberg_benchmark((3, 4, 5), (1,), eps=eps)[0].cells
        # the probed errors rise before the drop; the cell still runs one
        # search and reports the crossing it certified
        assert searches == [4000, 4000, 4000]
        for cell in cells:
            assert cell.r == 4000 and cell.error == 0.1 * eps

    def test_half_order_beyond_the_hint_scan_builds_no_chain(self, monkeypatch):
        built = []

        def counted(n, periodic=True):
            built.append(n)
            raise RuntimeError("chain built")

        monkeypatch.setattr(experiments, "heisenberg_1d", counted)
        with pytest.raises(ValueError, match=r"m = 12 beyond 11"):
            heisenberg_benchmark((3, 4, 5), (1, 12), eps=0.1)
        assert built == []
        # 2m + 2 = 24 is still in range: the run gets as far as the chain
        with pytest.raises(RuntimeError, match="chain built"):
            heisenberg_benchmark((3, 4, 5), (11,), eps=0.1)
        assert built == [3]

    def test_scaling_result_validation(self):
        with pytest.raises(ValueError):
            ScalingResult(1, (3, 4), (1.0, 2.0), 2.0, 2.0, ())
        with pytest.raises(ValueError):
            ScalingResult(1, (3, 4, 5), (1.0, 2.0, 3.0), float("nan"), 2.0, ())


def _bisection(err, eps, r_cap):
    lo, hi = 0, r_cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if err(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


class _Profile:
    """err(r) = min(2, C r^-p), held at a pre-asymptotic plateau below r1,
    optionally times a multiplicative wiggle; counts evaluations."""

    def __init__(self, c, p, r1=1, plateau=0.0, wiggle=0.0):
        self.c, self.p, self.r1, self.plateau, self.wiggle = c, p, r1, plateau, wiggle
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        # a logarithmic search needs far fewer; fail fast instead of crawling
        assert self.calls <= 100, "too many evaluations"
        e = self.c * r ** -self.p
        if r < self.r1:
            e = max(e, self.plateau)
        return min(2.0, e) * (1.0 + self.wiggle * math.sin(7.3 * r))


_profiles = st.builds(
    _Profile,
    c=st.floats(1e-2, 1e8),
    p=st.floats(1.0, 8.0),
    r1=st.integers(1, 5000),
    plateau=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
)
_eps = st.floats(1e-7, 0.5)


class TestSearch:
    @settings(max_examples=200, deadline=None)
    @given(_profiles, _eps, st.integers(1, 10**6), st.sampled_from([2, 4, 6]))
    def test_matches_bisection_on_monotone_profiles(self, err, eps, hint, order):
        if err(experiments.R_CAP) > eps:
            with pytest.raises(InfeasibleError):
                experiments._search_minimal_r(err, eps, hint, order)
            return
        expected = _bisection(err, eps, experiments.R_CAP)
        err.calls = 0
        r, error, evals = experiments._search_minimal_r(err, eps, hint, order)
        assert err.calls == len(evals) <= 4 * experiments.R_CAP.bit_length()
        assert r == expected
        assert error == evals[r] == err(r)
        assert r == 1 or r - 1 in evals

    @settings(max_examples=200, deadline=None)
    @given(
        _profiles, st.floats(0.05, 0.9), _eps, st.integers(1, 10**6),
        st.sampled_from([2, 4, 6]),
    )
    def test_certified_on_non_monotone_profiles(self, err, wiggle, eps, hint, order):
        err.wiggle = wiggle
        try:
            r, error, evals = experiments._search_minimal_r(err, eps, hint, order)
        except InfeasibleError:
            assert err(experiments.R_CAP) > eps
            return
        assert error == evals[r] <= eps
        assert r == 1 or evals[r - 1] > eps
        assert len(evals) <= 4 * experiments.R_CAP.bit_length()

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "R_CAP", 50)
        with pytest.raises(InfeasibleError):
            experiments._search_minimal_r(_Profile(1e4, 2.0), 1.0, 3, 2)
        r, _, evals = experiments._search_minimal_r(_Profile(2500.0, 2.0), 1.0, 3, 2)
        assert r == 50 and 49 in evals
        r, _, _ = experiments._search_minimal_r(_Profile(2500.0, 2.0), 1.0, 10**6, 2)
        assert r == 50

    @pytest.mark.parametrize("hint", [101, 400, 10**5, 10**7])
    def test_hint_above_the_crossing(self, hint):
        err = _Profile(1e4, 2.0)  # crossing at r = 100 for eps = 1
        r, _, evals = experiments._search_minimal_r(err, 1.0, hint, 2)
        assert r == 100 and 99 in evals
        assert min(hint, experiments.R_CAP) in evals

    # p of err ~ r^-p by base order for m = 1..4, written out by hand: the
    # first power the order condition leaves, m on a first-order base and
    # the larger of q and 2m on a symmetric order-q one
    @pytest.mark.parametrize("base_order, orders", [
        (1, (1, 2, 3, 4)), (2, (2, 4, 6, 8)), (4, (4, 4, 6, 8)), (6, (6, 6, 6, 8)),
    ])
    def test_error_order_pinned(self, base_order, orders):
        for m, p in enumerate(orders, start=1):
            assert experiments._error_order(_scheme(m, base_order)) == p

    @pytest.mark.parametrize("scheme, p", [
        (solve_order_condition([1], 1, 4), 4),
        (solve_order_condition([1], 1, 6), 6),
        (solve_order_condition([1], 1, 1), 1),
        (_scheme(3), 6),
        (_scheme(2, base_order=1), 2),
    ], ids=["u4", "u6", "u1", "mpf-m3", "mpf-m2-base1"])
    def test_first_prediction_uses_the_scheme_order(self, monkeypatch, heis3, scheme, p):
        predictions = []
        predict = experiments._predict_crossing

        def recorded(evals, eps, order, r_cap):
            predictions.append((len(evals), order))
            return predict(evals, eps, order, r_cap)

        monkeypatch.setattr(experiments, "_predict_crossing", recorded)
        # one probe certifies nothing unless it is r = 1, so the search predicts
        targets = experiments._block_targets(heis3, 3.0)
        experiments._benchmark_cell(
            heis3, 3.0, 1e-3, scheme, targets, build_table(heis3, 9)
        )
        assert predictions[0] == (1, p)


class TestReport:
    def test_empty_csv_is_header_only(self):
        assert report_emit([]) == "n,m,r,queries,queries_amplified,error\n"

    def test_csv_rows(self):
        results = heisenberg_benchmark((3, 4, 5), (1,), eps=0.3)
        text = report_emit(results)
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,r,queries,queries_amplified,error"
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "3" and first[1] == "1"
