from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import (
    anticommute,
    block_basis,
    fit_loglog,
    gather_stage_product,
    sites,
    stage_product_times,
)
from mpf_lab import pauli
from mpf_lab.experiments import exact_evolution
from mpf_lab.formulas import (
    ProductFormulaSpec,
    build_spec,
    evaluate_spec,
    suzuki_coefficient,
)
from mpf_lab.hamiltonians import Block, HamiltonianSum, PauliTerm, heisenberg_1d
from mpf_lab.mpf import MpfScheme, mpf_operator, solve_order_condition
from mpf_lab.operators import spectral_norm

HALVING_GRID = (0.2, 0.1, 0.05, 0.025)


def _formula(order):
    """The order-q product formula: mpf_operator on the one-term scheme."""
    scheme = solve_order_condition([1], 1, order)
    return lambda h, t: mpf_operator(h, t, scheme)


U1, U2, U4 = _formula(1), _formula(2), _formula(4)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_one_term_scheme_is_the_stage_product(order, heis3):
    # exactly, not to a tolerance: a_1 = 1 and k_1 = 1 add no arithmetic
    want = evaluate_spec(heis3, 0.3, build_spec(order, heis3.gamma))
    assert np.array_equal(_formula(order)(heis3, 0.3), want)


# Pauli sums on up to 6 qubits, zero coefficients included; the sum always
# holds one string with a single Y, so an odd Y count and its phase i
pauli_sums = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        lambda raw, y_coefficient: HamiltonianSum(
            n,
            tuple(PauliTerm(n, c, letters) for c, letters in raw)
            + (PauliTerm(n, y_coefficient, {n - 1: "Y"}),),
        ),
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=n),
            ),
            max_size=5,
        ),
        st.floats(-2.0, 2.0),
    )
)


@settings(deadline=None, max_examples=150)
@given(pauli_sums, st.floats(-1.5, 1.5), st.sampled_from([1, 2, 4]))
def test_stage_product_matches_column_gather_oracle(h, t, order):
    # the whole space's fused run gates round apart from the single stages
    spec = build_spec(order, h.gamma)
    got = evaluate_spec(h, t, spec)
    assert np.abs(got - gather_stage_product(h, t, spec)).max() <= 1e-14


def _even_y(letters):
    """letters with its lowest Y turned into Z if the Y count is odd."""
    ys = sorted(site for site, letter in letters.items() if letter == "Y")
    return {**letters, ys[0]: "Z"} if len(ys) % 2 else letters


# Pauli sums on up to 6 qubits with an even number of Y letters in every
# string, so every term and stage is real symmetric; zero coefficients
# included
real_pauli_sums = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        lambda raw: HamiltonianSum(
            n, tuple(PauliTerm(n, c, _even_y(letters)) for c, letters in raw)
        ),
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=n),
            ),
            min_size=1,
            max_size=6,
        ),
    )
)


@settings(deadline=None, max_examples=150)
@given(real_pauli_sums, st.floats(-1.5, 1.5), st.sampled_from([2, 4]))
def test_mirrored_product_matches_oracle_on_real_sums(h, t, order):
    assert h.real_symmetric
    spec = build_spec(order, h.gamma)
    got = evaluate_spec(h, t, spec)
    assert np.abs(got - gather_stage_product(h, t, spec)).max() <= 1e-14


# the invariant blocks of the chains (HamiltonianSum.blocks): n = 8 has
# four, of dim 37, 56, 35 and 35; n = 10 block 1 is the popcount-2 one
CHAIN_BLOCKS = [*heisenberg_1d(8).blocks, heisenberg_1d(10).blocks[1]]
CHAIN_BLOCK_IDS = [f"heis8-block{c}" for c in range(4)] + ["heis10-block1"]


def _on_block(block, t, spec):
    """The whole-space stage product restricted to the block."""
    basis = block_basis(block)
    model = HamiltonianSum(block.terms[0].n_qubits, block.terms)
    return basis.T @ stage_product_times(model, t, spec, basis)


@pytest.mark.parametrize("block", CHAIN_BLOCKS, ids=CHAIN_BLOCK_IDS)
def test_stage_product_matches_oracle_in_chain_blocks(block):
    # the first half of U2 is not a palindrome, so it is swept whole; its
    # fused bond gates match the single stages to rounding
    stages = build_spec(2, block.gamma).stages
    half = ProductFormulaSpec(2, stages[: len(stages) // 2])
    got = evaluate_spec(block, 0.37, half)
    assert np.abs(got - _on_block(block, 0.37, half)).max() <= 1e-14


# this test's ids keep the older name "sector" for a block
@pytest.mark.parametrize("block", CHAIN_BLOCKS,
                         ids=[i.replace("block", "sector") for i in CHAIN_BLOCK_IDS])
@pytest.mark.parametrize("order", [2, 4])
def test_mirrored_product_matches_oracle_in_chain_sectors(block, order):
    assert block.real_symmetric
    spec = build_spec(order, block.gamma)
    got = evaluate_spec(block, 0.37, spec)
    assert np.abs(got - _on_block(block, 0.37, spec)).max() <= 1e-14


def test_half_sweep_applies_one_gate_per_bond():
    # each bond's XX, YY and ZZ stages are one gate: the n = 8 half sweep
    # of U2 applies 8 gates per block, not 24 stages
    h = heisenberg_1d(8)
    spec = build_spec(2, h.gamma)
    for block in h.blocks:
        evaluate_spec(block, 0.3, spec)
        [gates] = block.gates.values()
        assert all(len(a) == 8 for a in gates)


@st.composite
def commuting_runs(draw):
    """(n, terms): Pauli strings on up to 5 qubits whose x masks are 0 or
    one shared mask, each commuting with the ones before it, with
    coefficients in [-2, 2]."""
    n = draw(st.integers(1, 5))
    shared = draw(st.integers(0, 2**n - 1))
    terms = []
    for coefficient, moves, z in draw(st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.booleans(), st.integers(0, 2**n - 1)),
        min_size=1, max_size=6,
    )):
        string = (shared if moves else 0, z)
        if string != (0, 0) and not any(anticommute(string, s) for _, s in terms):
            terms.append((coefficient, string))
    return n, terms or [(1.0, (0, 1))]


@settings(deadline=None, max_examples=150)
@given(commuting_runs(), st.floats(-1.5, 1.5), st.sampled_from([1, 2, 4]))
def test_fused_commuting_run_matches_the_unfused_product(spec, t, order):
    n, raw = spec
    h = HamiltonianSum(n, tuple(PauliTerm(n, c, sites(*s)) for c, s in raw))
    assert h.runs == (tuple(range(h.gamma)),)
    # on the whole space every sweep of the run is one gate
    formula = build_spec(order, h.gamma)
    got = evaluate_spec(h.whole, t, formula)
    assert np.abs(got - gather_stage_product(h, t, formula)).max() <= 1e-14


def test_stage_lists_must_weight_each_run_evenly():
    h = heisenberg_1d(4)
    block = h.blocks[0]
    with pytest.raises(ValueError, match="unequally"):
        evaluate_spec(block, 0.3, ProductFormulaSpec(1, ((0, 1.0), (1, 0.5), (2, 1.0))))


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_mirrored_evaluation_applies_half_the_stages(heis3, order):
    # the whole space caches the gates of the stages it sweeps: the first
    # half of a palindrome of real symmetric stages, the whole list otherwise
    odd_y = HamiltonianSum(3, heis3.terms + (PauliTerm(3, 0.5, {0: "Y"}),))
    assert heis3.real_symmetric and not odd_y.real_symmetric
    for h, share in ((heis3, 0.5 if order > 1 else 1.0), (odd_y, 1.0)):
        spec = build_spec(order, h.gamma)
        evaluate_spec(h, 0.3, spec)
        [sweep] = h.whole.gates
        assert sweep == spec.stages[: int(len(spec.stages) * share)]


def test_real_symmetric_is_built_once_per_model(monkeypatch, heis3):
    spec = build_spec(2, heis3.gamma)
    evaluate_spec(heis3, 0.3, spec)
    built = []
    masks = pauli.masks_from_sites

    def recorded(sites):
        built.append(sites)
        return masks(sites)

    monkeypatch.setattr(pauli, "masks_from_sites", recorded)
    evaluate_spec(heis3, -0.2, spec)
    assert built == []


def test_phase_table_is_built_once_per_model(monkeypatch, heis3):
    # the gates, the eigendecomposition and the dense sum all read the
    # whole space's table
    built = []
    table = Block.entries.func
    counted = cached_property(lambda block: built.append(block) or table(block))
    counted.__set_name__(Block, "entries")
    monkeypatch.setattr(Block, "entries", counted)
    spec = build_spec(2, heis3.gamma)
    evaluate_spec(heis3, 0.3, spec)
    evaluate_spec(heis3, -0.2, spec)
    exact_evolution(heis3, 0.3)
    heis3.dense()
    assert built == [heis3.whole]


def test_suzuki_coefficient_values():
    assert suzuki_coefficient(1) == pytest.approx(0.41449077179, abs=1e-11)
    assert suzuki_coefficient(2) == pytest.approx(0.37306582774, abs=1e-11)
    values = [suzuki_coefficient(p) for p in range(1, 201)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1 / 3 for v in values)
    assert values[-1] - 1 / 3 < 0.01
    with pytest.raises(ValueError):
        suzuki_coefficient(0)


def test_stage_counts_follow_recursion():
    for gamma in (2, 5):
        assert len(build_spec(2, gamma).stages) == 2 * gamma
        for p in (2, 3):
            assert len(build_spec(2 * p, gamma).stages) == gamma * 2 * 5 ** (p - 1)


def test_order_two_stages_palindromic():
    stages = build_spec(2, 4).stages
    assert stages == tuple(reversed(stages))
    assert all(c == 0.5 for _, c in stages)
    for order in (2, 4, 6):
        for gamma in (1, 3, 4):
            stages = build_spec(order, gamma).stages
            assert len(stages) % 2 == 0
            assert stages == tuple(reversed(stages))


def test_build_spec_rejects_odd_orders():
    with pytest.raises(ValueError):
        build_spec(3, 2)


@pytest.mark.parametrize(
    "fn",
    [U1, U2, U4],
    ids=["u1", "u2", "u4"],
)
def test_zero_time_is_identity(fn, heis3):
    assert np.allclose(fn(heis3, 0.0), np.eye(8), atol=1e-14)


def test_u1_matches_ordered_exponential_product(heis3):
    # pins the factor order: the first term's exponential is leftmost
    t = 0.3
    product = np.eye(8, dtype=complex)
    for mat in heis3.term_matrices():
        product = product @ scipy.linalg.expm(-1j * t * mat)
    assert spectral_norm(U1(heis3, t) - product) <= 1e-12


def test_u2_matches_reversed_then_forward_sweep(heis3):
    t = 0.3
    half = [scipy.linalg.expm(-1j * t * mat / 2) for mat in heis3.term_matrices()]
    rev = np.eye(8, dtype=complex)
    for mat in reversed(half):
        rev = rev @ mat
    fwd = np.eye(8, dtype=complex)
    for mat in half:
        fwd = fwd @ mat
    assert spectral_norm(U2(heis3, t) - rev @ fwd) <= 1e-12


def test_u1_single_term_is_exact():
    h = heisenberg_1d(2, periodic=False)
    single = type(h)(h.n_qubits, h.terms[:1])
    u = U1(single, 0.7)
    assert spectral_norm(u - exact_evolution(single, 0.7)) <= 1e-12


@pytest.mark.parametrize("order", [2, 4, 8])
def test_time_reversal_symmetry(order, heis3):
    u = _formula(order)(heis3, 0.3)
    v = _formula(order)(heis3, -0.3)
    assert spectral_norm(u @ v - np.eye(8)) <= 1e-9


def test_u2_xz_slope_is_three(xz1):
    ts = (0.1, 0.05, 0.025)
    errs = [spectral_norm(U2(xz1, t) - exact_evolution(xz1, t)) for t in ts]
    assert fit_loglog(ts, errs) == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize(
    "fn, order",
    [(U1, 1), (U2, 2), (U4, 4)],
    ids=["u1", "u2", "u4"],
)
def test_one_step_error_order(fn, order, heis3):
    errs = [
        spectral_norm(fn(heis3, t) - exact_evolution(heis3, t))
        for t in HALVING_GRID
    ]
    assert fit_loglog(HALVING_GRID, errs) == pytest.approx(order + 1, abs=0.25)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_commuting_family_exact_all_orders(k, commuting3):
    exact = exact_evolution(commuting3, 0.4)
    for fn in (U1, U2, U4):
        assert spectral_norm(fn(commuting3, 0.4) - exact) <= 1e-9
    powered = mpf_operator(commuting3, 0.4, _powered(k))
    assert spectral_norm(powered - exact) <= 1e-9


def _powered(k):
    # the one-term scheme is the powered formula U_2(delta/k)^k
    return MpfScheme(2, 1, (k,), (1.0,))


def test_powered_formula_k1_and_naive_product(heis3):
    # the second-order sweep, independently of mpf_operator
    u2 = evaluate_spec(heis3, 0.3, build_spec(2, heis3.gamma))
    assert np.allclose(mpf_operator(heis3, 0.3, _powered(1)), u2, atol=1e-12)

    step = evaluate_spec(heis3, 0.3 / 4, build_spec(2, heis3.gamma))
    naive = step @ step @ step @ step
    assert spectral_norm(mpf_operator(heis3, 0.3, _powered(4)) - naive) <= 1e-10


def test_unit_determinant(heis3):
    for fn in (U1, U2, U4):
        det = np.linalg.det(fn(heis3, 0.45))
        assert abs(abs(det) - 1.0) <= 1e-8
