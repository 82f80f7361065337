import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nested_commutator
from mpf_lab.commutators import (
    CommutatorTable,
    MissingAlphaError,
    PartitionBlowupError,
    alpha_comm,
    build_table,
    composition_sum,
    convergence_radius,
    lambda_jl,
    mu_m,
)
from mpf_lab.hamiltonians import (
    HamiltonianSum,
    PauliTerm,
    heisenberg_1d,
    one_norm,
    power_law_lattice,
)

XZ_ALPHA = [2.0, 4.0, 16.0, 32.0, 128.0, 256.0, 1024.0, 2048.0]


def test_alpha_trivial_depths(xz1, commuting3):
    assert alpha_comm(commuting3, 2).value == 0.0
    assert alpha_comm(commuting3, 1).value == pytest.approx(one_norm(commuting3))
    assert alpha_comm(xz1, 1).value == pytest.approx(2.0)
    with pytest.raises(ValueError):
        alpha_comm(xz1, 1, method="auto")


def test_alpha_xz_pinned_table(xz1):
    table = build_table(xz1, 8)
    assert table.mode == "exact"
    assert [table.alpha[j] for j in range(1, 9)] == pytest.approx(XZ_ALPHA)


def _dense_alpha(h, j):
    # brute-force oracle straight from the definition
    mats = h.term_matrices()
    total = 0.0
    for tup in itertools.product(mats, repeat=j):
        total += np.linalg.norm(nested_commutator(tup), 2)
    return total


@pytest.mark.parametrize("j", [1, 2, 3])
def test_alpha_matches_definition_oracle(j, xz1):
    assert alpha_comm(xz1, j).value == pytest.approx(_dense_alpha(xz1, j), abs=1e-9)


def _random_two_qubit():
    return HamiltonianSum(
        2,
        (
            PauliTerm(2, 0.7, {0: "X", 1: "Z"}),
            PauliTerm(2, -0.4, {0: "Y"}),
            PauliTerm(2, 1.1, {1: "Y"}),
        ),
        grouping=((0, 1), (0,), (1,)),
    )


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_pauli_and_dense_paths_agree(j, xz1):
    for h in (xz1, heisenberg_1d(2, periodic=False), _random_two_qubit()):
        fast = alpha_comm(h, j, method="pauli").value
        dense = alpha_comm(h, j, method="dense").value
        assert fast == pytest.approx(dense, abs=1e-9)


def test_alpha_budget_and_capped_envelope(heis3):
    est = alpha_comm(heis3, 4, budget=10)
    assert est.mode == "capped"
    envelope = one_norm(heis3) * (2 * one_norm(heis3)) ** 3
    assert est.value == pytest.approx(envelope)
    assert est.value >= alpha_comm(heis3, 4).value


def test_capped_alpha_is_an_upper_bound():
    assert alpha_comm(heisenberg_1d(8), 4, budget=1).value >= 46080.0
    plaw = power_law_lattice(7, 1, 2.0)
    assert alpha_comm(plaw, 3, budget=1).mode == "capped"
    assert alpha_comm(plaw, 3, budget=1).value >= alpha_comm(plaw, 3).value
    # caps from every last exact depth j0, not only from depth 1
    h = heisenberg_1d(8)
    exact = build_table(h, 8)
    assert exact.mode == "exact"
    for budget in (1, 1000, 2000, 20000, 10**5):
        table = build_table(h, 8, budget=budget)
        assert table.mode == "capped"
        for j in range(1, 9):
            assert table.alpha[j] >= exact.alpha[j]


def test_twelve_qubit_register(xz1):
    # X + Z on qubit 11 of a 12-qubit register: two reachable strings out
    # of 4^12, so the default budget reaches any depth; past
    # pauli.DENSE_KEY_BITS the DP sorts its levels, with no 4^12 array
    h = HamiltonianSum(12, (PauliTerm(12, 1.0, {11: "X"}), PauliTerm(12, 1.0, {11: "Z"})))
    tracemalloc.start()
    try:
        table = build_table(h, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.mode == "exact"
    assert [table.alpha[j] for j in range(1, 7)] == [build_table(xz1, 6).alpha[j] for j in range(1, 7)]
    assert peak < 2**20


_letters = st.dictionaries(st.integers(0, 2), st.sampled_from("XYZ"), max_size=3)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(st.floats(-2.0, 2.0), _letters), min_size=1, max_size=5),
    st.integers(1, 4),
)
def test_pauli_dp_matches_dense_oracle(n, specs, j):
    terms = []
    for coefficient, letters in specs:
        terms.append(PauliTerm(n, coefficient, {s % n: p for s, p in letters.items()}))
    h = HamiltonianSum(n, tuple(terms))
    fast = alpha_comm(h, j, method="pauli").value
    dense = alpha_comm(h, j, method="dense").value
    assert fast == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_table_construction_and_json(heis3):
    table = build_table(heis3, 5)
    assert table.alpha[1] == pytest.approx(one_norm(heis3))
    assert table.gamma == heis3.gamma
    assert (table.mode, table.j_cap) == ("exact", 5)
    assert sorted(table.alpha) == [1, 2, 3, 4, 5]


def test_table_validation():
    with pytest.raises(MissingAlphaError):
        CommutatorTable(gamma=1, mode="exact", j_cap=3, alpha={1: 1.0, 3: 2.0})
    with pytest.raises(ValueError):
        CommutatorTable(gamma=1, mode="exact", j_cap=2, alpha={1: 1.0, 2: -2.0})
    with pytest.raises(ValueError):
        CommutatorTable(gamma=1, mode="banana", j_cap=1, alpha={1: 1.0})
    with pytest.raises(ValueError, match="gamma and j_cap must be positive"):
        CommutatorTable(gamma=0, mode="exact", j_cap=1, alpha={1: 1.0})


def _table(values, gamma=2):
    return CommutatorTable(gamma=gamma, mode="analytic", j_cap=len(values), alpha={j + 1: v for j, v in enumerate(values)})


def _brute_composition_sum(table, j, l, base):
    if base == 1:
        parts = range(1, j + 1)
    else:
        parts = range(max(2, base), j + 1, 2)
    total = 0.0
    for comp in itertools.product(parts, repeat=l):
        if sum(comp) == j:
            prod = 1.0
            for part in comp:
                prod *= table.alpha[part + 1]
            total += prod
    return total


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 4.0), min_size=9, max_size=9),
    st.integers(2, 8),
    st.integers(1, 3),
    st.sampled_from(
        [("first_order", 1), ("second_order", 2), ("order_4", 4), ("order_6", 6)]
    ),
)
def test_composition_sum_matches_brute_force(values, j, l, variant_base):
    variant, base = variant_base
    if base != 1 and j % 2:
        j += 1
    table = _table(values)
    got = composition_sum(table, j, l, variant=variant)
    assert got == pytest.approx(_brute_composition_sum(table, j, l, base), rel=1e-12, abs=1e-12)


def _brute_best_products(table, j, l, base):
    """{composition: product} over the admissible compositions of j into l parts."""
    parts = range(1, j + 1) if base == 1 else range(max(2, base), j + 1, 2)
    out = {}
    for comp in itertools.product(parts, repeat=l):
        if sum(comp) == j:
            out[comp] = float(np.prod([table.alpha[p + 1] for p in comp]))
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 4.0), min_size=11, max_size=11),
    st.integers(1, 3),
    st.sampled_from(
        [("first_order", 1), ("second_order", 2), ("order_4", 4), ("order_6", 6)]
    ),
)
def test_mu_upper_and_argmax_partition_match_brute_force(values, m, variant_base):
    # mu_m reads the upper bound and the argmax partition off the same
    # composition pass as the sums; both are checked here by enumeration
    variant, base = variant_base
    table = _table(values)
    j_cap = 2 * m + 4
    report = mu_m(table, m, j_cap=j_cap, variant=variant)
    js = range(m, j_cap + 1) if base == 1 else range(2 * m, j_cap + 1, 2)
    top = 0.0
    for j in js:
        for l in range(1, m + 1):
            products = _brute_best_products(table, j, l, base)
            top = max([top] + [v ** (1.0 / (j + l)) for v in products.values()])
    assert report.mu_upper == pytest.approx(2.0 * top, rel=1e-12, abs=1e-300)
    j, l, partition = report.argmax
    products = _brute_best_products(table, j, l, base)
    if not products:
        assert partition == ()
    else:
        assert tuple(sorted(partition, reverse=True)) == partition
        assert sorted(partition) in [sorted(c) for c in products]
        want = max(products.values())
        got = float(np.prod([table.alpha[p + 1] for p in partition]))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_composition_sum_infeasible_is_zero():
    table = _table([1.0] * 9)
    assert composition_sum(table, 2, 2) == 0.0  # two even parts cannot sum to 2
    assert composition_sum(table, 4, 1, variant="order_4") == pytest.approx(table.alpha[5])
    assert composition_sum(table, 2, 1, variant="order_4") == 0.0  # parts start at 4


def test_lambda_identities(xz1, commuting3):
    table = build_table(xz1, 8)
    for j in (2, 4, 6):
        assert lambda_jl(table, j, 1) == pytest.approx(table.alpha[j + 1] ** (1 / (j + 1)))
    # even compositions of 4 into 2 parts: only (2, 2)
    assert lambda_jl(table, 4, 2) == pytest.approx((table.alpha[3] ** 2) ** (1 / 6))

    ct = build_table(commuting3, 6)
    assert lambda_jl(ct, 4, 2) == 0.0


def test_lambda_input_validation(xz1):
    table = build_table(xz1, 4)
    with pytest.raises(MissingAlphaError):
        lambda_jl(table, 6, 1)
    with pytest.raises(ValueError):
        lambda_jl(table, 3, 1)
    with pytest.raises(PartitionBlowupError):
        lambda_jl(table, 26, 1)


def test_mu_commuting_is_zero(commuting3):
    table = build_table(commuting3, 12)
    assert mu_m(table, 2, j_cap=10).mu_m == 0.0


def _brute_mu(table, m, j_cap):
    best = -1.0
    for j in range(2, j_cap + 1, 2):
        for l in range(1, m + 1):
            value = _brute_composition_sum(table, j, l, 2) ** (1.0 / (j + l))
            best = max(best, value)
    return best


def test_mu_heisenberg4_matches_brute_force():
    table = build_table(heisenberg_1d(4), 9)
    report = mu_m(table, 1, j_cap=8)
    assert report.mu_m == pytest.approx(_brute_mu(table, 1, 8), abs=1e-9)
    assert report.mu_m == pytest.approx(13.035985777750769, abs=1e-9)
    assert report.mu_upper >= report.mu_m - 1e-9


def test_mu_sanity_bound_against_one_norm():
    for h in (heisenberg_1d(3), heisenberg_1d(4)):
        table = build_table(h, 9)
        for m in (1, 2):
            assert mu_m(table, m, j_cap=8).mu_m <= 2 * one_norm(h)


def _synthetic_local(beta, level, depth):
    return _table([beta ** (j - 1) * level for j in range(1, depth + 1)], gamma=3)


@pytest.mark.parametrize("beta, level", [(0.5, 3.0), (0.25, 4.0), (1.0, 64.0)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_synthetic_local_argmax_at_2m_m(beta, level, m):
    table = _synthetic_local(beta, level, 2 * m + 9)
    report = mu_m(table, m)
    assert report.argmax[:2] == (2 * m, m)
    # the (2m, m) value, which every (2l, l) cell shares
    assert report.mu_m == pytest.approx((beta**2 * level) ** (1 / 3), rel=1e-9)


def test_mu_tie_reports_the_cell_with_more_parts():
    # under order_4 a geometric table ties the (4l, l) cells bit for bit;
    # the tie goes to the cell with more commutator factors
    table = _synthetic_local(0.5, 3.0, 13)
    assert lambda_jl(table, 4, 1, "order_4") == lambda_jl(table, 8, 2, "order_4")
    report = mu_m(table, 2, variant="order_4")
    assert report.mu_m == 0.7154845405526278
    assert report.argmax == (8, 2, (4, 4))


def test_geometric_table_base_parameter():
    a = 1.3
    table = _table([a**j for j in range(1, 14)])
    report = mu_m(table, 3, j_cap=12)
    assert report.mu_upper == pytest.approx(2 * a, abs=1e-12)
    assert report.mu_m <= 2 * a + 1e-9


def test_variant_monotonicity(xz1, heis3):
    for h, depth in ((xz1, 9), (heis3, 9)):
        table = build_table(h, 9)
        mu4 = mu_m(table, 2, j_cap=8, variant="order_4").mu_m
        mu2 = mu_m(table, 2, j_cap=8, variant="second_order").mu_m
        mu1 = mu_m(table, 2, j_cap=8, variant="first_order").mu_m
        assert mu4 <= mu2 + 1e-9
        assert mu2 <= mu1 + 1e-9


def test_variant_parsing(xz1):
    table = build_table(xz1, 6)
    for variant in ("first_order", "second_order", "order_4", "order_6"):
        assert mu_m(table, 1, j_cap=4, variant=variant).variant == variant
    # variants are named, not numbered; order_2 is spelled second_order
    # nor spelled any other way int() reads
    for variant in (2, "order_2", "order_3", "order_x", "order_1",
                    "order_4_0", "order_04", "order_+4", "order_ 4"):
        with pytest.raises(ValueError, match="unknown variant"):
            mu_m(table, 1, j_cap=4, variant=variant)


def test_mu_input_validation(xz1):
    table = build_table(xz1, 6)
    with pytest.raises(PartitionBlowupError):
        mu_m(_table([1.0] * 27), 1, j_cap=26)
    with pytest.raises(MissingAlphaError):
        mu_m(table, 1, j_cap=8)
    with pytest.raises(ValueError):
        mu_m(table, 1, j_cap=1)


def test_convergence_radius_values(xz1, heis3, commuting3):
    assert convergence_radius(build_table(commuting3, 6)) == float("inf")
    assert convergence_radius(build_table(xz1, 8)) == pytest.approx(0.3714985722842371, abs=1e-12)
    assert convergence_radius(build_table(heis3, 12)) == pytest.approx(0.1029, abs=5e-4)
