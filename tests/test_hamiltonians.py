import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (
    BAD_MODEL_FILES,
    anticommute,
    block_basis,
    dense_sum,
    gather_stage_product,
    sites,
    z_model,
)
from mpf_lab import hamiltonians
from mpf_lab.experiments import exact_evolution
from mpf_lab.formulas import build_spec, evaluate_spec
from mpf_lab.hamiltonians import (
    HamiltonianSum,
    NotLatticeError,
    PauliTerm,
    TooSmallError,
    from_model_json,
    heisenberg_1d,
    one_norm,
    power_law_lattice,
    to_model_json,
)
from mpf_lab.mpf import mpf_evolve, power_schedule, solve_order_condition
from mpf_lab.operators import spectral_norm


def test_heisenberg_n3_periodic_counts_and_norm():
    h = heisenberg_1d(3)
    assert h.gamma == 9
    assert one_norm(h) == pytest.approx(9.0)
    assert np.allclose(h.dense(), dense_sum(h), atol=1e-14)


def test_heisenberg_n4_open_counts():
    assert heisenberg_1d(4, periodic=False).gamma == 9


def test_heisenberg_n4_periodic_norms():
    h = heisenberg_1d(4)
    assert one_norm(h) == pytest.approx(12.0)


def test_heisenberg_n2_periodic_keeps_wrap_copy():
    h = heisenberg_1d(2)
    assert h.gamma == 6
    assert one_norm(h) == pytest.approx(6.0)


def test_heisenberg_term_ordering():
    # bond-major, then X, Y, Z within each bond
    h = heisenberg_1d(3)
    assert [t.paulis for t in h.terms[:3]] == [
        {0: "X", 1: "X"},
        {0: "Y", 1: "Y"},
        {0: "Z", 1: "Z"},
    ]


def test_heisenberg_too_small():
    with pytest.raises(TooSmallError):
        heisenberg_1d(1)


def test_power_law_1d_distance_two_coefficient():
    h = power_law_lattice(4, 1, 2.0)
    pairs = {tuple(sorted(t.paulis)): t for t in h.terms if len(t.paulis) == 2}
    assert pairs[(1, 3)].norm == pytest.approx(0.25)


def test_power_law_2d_euclidean_distance():
    h = power_law_lattice(9, 2, 1.0)
    pairs = {tuple(sorted(t.paulis)): t for t in h.terms if len(t.paulis) == 2}
    # lattice points (0,0) and (1,1) flatten to sites 0 and 4
    assert pairs[(0, 4)].norm == pytest.approx(1 / np.sqrt(2))


def test_power_law_large_alpha_limit():
    h = power_law_lattice(4, 1, 200.0)
    for t in h.terms:
        if len(t.paulis) == 2:
            lo, hi = sorted(t.paulis)
            assert t.norm == pytest.approx(1.0 if hi - lo == 1 else 0.0, abs=1e-30)


def test_power_law_rejects_non_lattice():
    with pytest.raises(NotLatticeError):
        power_law_lattice(5, 2, 1.0)
    for d, alpha in ((0, 2.0), (1, -1.0)):
        with pytest.raises(NotLatticeError, match="need d >= 1 and alpha >= 0"):
            power_law_lattice(4, d, alpha)


def test_power_law_seed_determinism():
    a = to_model_json(power_law_lattice(8, 1, 1.5, seed=3))
    b = to_model_json(power_law_lattice(8, 1, 1.5, seed=3))
    assert a == b


def test_one_norm_basics():
    h = HamiltonianSum(2, (PauliTerm(2, 2.0, {0: "X"}),))
    assert one_norm(h) == pytest.approx(2.0)

    zero = HamiltonianSum(2, (PauliTerm(2, 0.0, {0: "X"}), PauliTerm(2, 0.0, {1: "Z"})))
    assert one_norm(zero) == 0.0


@pytest.mark.parametrize(
    "h",
    [
        heisenberg_1d(3),
        heisenberg_1d(5, periodic=False),
        power_law_lattice(8, 1, 1.5),
        power_law_lattice(9, 2, 2.0),
    ],
    ids=["heis3", "heis5-open", "pl-1d", "pl-2d"],
)
def test_dense_is_hermitian(h):
    d = h.dense()
    assert np.max(np.abs(d - d.conj().T)) <= 1e-12


pauli_sums = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0),
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=n),
            ),
            min_size=1,
            max_size=8,
        ),
    )
)


@settings(deadline=None, max_examples=100)
@given(pauli_sums, st.data())
def test_dense_matches_term_sum_and_kron_oracle(spec, data):
    n, raw = spec
    # repeat some strings so that terms land on the same entries
    repeats = data.draw(st.lists(st.sampled_from(raw), max_size=4))
    terms = tuple(PauliTerm(n, c, letters) for c, letters in raw + repeats)
    h = HamiltonianSum(n, terms)
    # the kron-built term matrices summed in term order, exactly
    assert np.array_equal(h.dense(), dense_sum(h))


# a model file with Y letters, odd and even Y counts and mixed signs
_Y_MODEL = json.dumps({"n": 3, "terms": [
    {"n_qubits": 3, "coefficient": 0.7, "paulis": {"0": "Y"}},
    {"n_qubits": 3, "coefficient": -1.3, "paulis": {"0": "X", "2": "Y"}},
    {"n_qubits": 3, "coefficient": 0.25, "paulis": {"1": "Y", "2": "Y"}},
    {"n_qubits": 3, "coefficient": 2.0, "paulis": {"0": "Z", "1": "Y", "2": "X"}},
    {"n_qubits": 3, "coefficient": -0.5, "paulis": {"1": "Z"}},
]})


@pytest.mark.parametrize(
    "h",
    [heisenberg_1d(5), power_law_lattice(5, 1, 1.5, seed=3), from_model_json(_Y_MODEL)],
    ids=["heis5", "pl-1d", "model-file"],
)
def test_dense_equals_kron_sum_exactly(h):
    assert np.array_equal(h.dense(), dense_sum(h))


def test_model_json_round_trips(xz1):
    for h in (heisenberg_1d(4), power_law_lattice(4, 1, 2.0), xz1):
        back = from_model_json(to_model_json(h))
        assert to_model_json(back) == to_model_json(h)
        assert np.allclose(back.dense(), h.dense(), atol=1e-14)


def test_model_file_integer_coefficient_is_widened():
    # a JSON integer is a number: it loads as a float and is written back as one
    body = {"n": 1, "terms": [{"n_qubits": 1, "coefficient": 1, "paulis": {"0": "Z"}}]}
    h = from_model_json(json.dumps(body))
    assert type(h.terms[0].coefficient) is float and h.terms[0].coefficient == 1.0
    assert '"coefficient": 1.0' in to_model_json(h)


@pytest.mark.parametrize("body, field", [
    *BAD_MODEL_FILES,
    (z_model({"n_qubits": 2.0}), "n_qubits"),
    (z_model({"paulis": {"a": "Z"}}), "paulis site"),
    (z_model(alpha=2.0), "model keys"),
    (z_model({"weight": 1}), "term keys"),
    (z_model(terms=[5]), "term must be an object"),
    (z_model(grouping=[[0.5]]), "grouping"),
    ({"n": 2}, "terms"),
])
def test_model_file_fields_are_checked_not_cast(body, field):
    with pytest.raises(ValueError, match=field):
        from_model_json(json.dumps(body))


def test_bench_model_file_loads_with_its_grouping_dropped(bench_model_files):
    with_grouping, without = (from_model_json(p.read_text()) for p in bench_model_files)
    assert with_grouping == without
    assert "grouping" not in to_model_json(with_grouping)


def test_sum_rejects_terms_of_another_width():
    # Z on qubit 2 would alias qubit 0 in a 2-qubit sum's packed masks
    wide = (PauliTerm(3, 1.0, {2: "Z"}), PauliTerm(3, 1.0, {0: "Z"}))
    with pytest.raises(ValueError, match="3 qubits in a 2-qubit sum"):
        HamiltonianSum(2, wide)
    with pytest.raises(ValueError, match="1 qubits in a 2-qubit sum"):
        HamiltonianSum(2, (PauliTerm(2, 1.0, {1: "X"}), PauliTerm(1, 1.0, {0: "X"})))


def test_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(2, float("nan"), {0: "X"})
    with pytest.raises(ValueError):
        PauliTerm(2, 1.0, {5: "X"})
    with pytest.raises(ValueError):
        PauliTerm(2, 1.0, {0: "Q"})
    with pytest.raises(ValueError):
        HamiltonianSum(2, ())
    # a dense Hermitian matrix is not a term: every kernel reads Pauli masks
    with pytest.raises(TypeError):
        HamiltonianSum(1, (PauliTerm(1, 1.0, {0: "X"}), np.eye(2)))


@st.composite
def planted_sums(draw):
    """(n, planted, terms): terms commuting with every planted string, the
    planted strings independent and commuting with each other."""
    n = draw(st.integers(1, 5))
    string = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    planted, span = [], {(0, 0)}
    for g in draw(st.lists(string, max_size=3)):
        if g not in span and not any(anticommute(g, p) for p in planted):
            planted.append(g)
            span |= {(g[0] ^ x, g[1] ^ z) for x, z in span}
    raw = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), string), min_size=1, max_size=8))
    terms = [(c, s) for c, s in raw if not any(anticommute(s, p) for p in planted)]
    return n, planted, terms or [(1.0, planted[0])]


@pytest.fixture
def full_split(monkeypatch):
    """Keep every block however small: none is packed into a bin."""
    monkeypatch.setattr(hamiltonians, "MIN_BLOCK_DIM", 1)


def _check_blocks(h):
    """What the blocks claim, against dense whole-space oracles: with their
    copies they partition the space, every run's generator and so every
    formula and exp(-iHt) keep them, the block results are the whole-space
    ones restricted, the block spectra with copies are the full spectrum,
    and the norm of an error is the largest block norm."""
    blocks = h.blocks
    bases = [block_basis(b) for b in blocks]
    stacked = np.hstack(bases)
    assert np.allclose(stacked.T @ stacked, np.eye(stacked.shape[1]), atol=1e-12)
    assert sum(b.dim * b.copies for b in blocks) == h.dim
    dense = dense_sum(h)
    spectrum = np.concatenate([np.repeat(b.eigh[0], b.copies) for b in blocks])
    assert np.allclose(np.sort(spectrum), np.linalg.eigvalsh(dense), atol=1e-10)
    exact = scipy.linalg.expm(-1.3j * dense)
    runs = [sum(dense_sum(HamiltonianSum(h.n_qubits, (h.terms[t],))) for t in run)
            for run in h.runs]
    for order in (1, 2, 4):
        spec = build_spec(order, h.gamma)
        full = gather_stage_product(h, 1.3, spec)
        for b, basis in zip(blocks, bases):
            for op in (*runs, full, exact):
                leak = op @ basis - basis @ (basis.T @ op @ basis)
                assert np.abs(leak).max() <= 1e-12
            assert np.abs(evaluate_spec(b, 1.3, spec) - basis.T @ full @ basis).max() <= 1e-12
            assert np.abs(exact_evolution(b, 1.3) - basis.T @ exact @ basis).max() <= 1e-12
    scheme = solve_order_condition(power_schedule(2), 2)
    whole = spectral_norm(mpf_evolve(h, 1.5, 3, scheme) - exact_evolution(h, 1.5))
    largest = max(
        spectral_norm(mpf_evolve(b, 1.5, 3, scheme) - exact_evolution(b, 1.5))
        for b in blocks
    )
    assert abs(largest - whole) <= 1e-12 + 1e-12 * whole


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(planted_sums())
def test_blocks_split_every_error_exactly(full_split, spec):
    n, planted, raw = spec
    h = HamiltonianSum(n, tuple(PauliTerm(n, c, sites(*s)) for c, s in raw))
    if any(x == 0 or z == 0 for x, z in planted):
        # a Z-string symmetry separates components; an X-string pairs or
        # splits them
        assert h.blocks[0] is not h.whole
    _check_blocks(h)


@st.composite
def conserving_sums(draw):
    """Sums on up to 5 qubits of XX + YY pairs with one coefficient, ZZ
    and Z terms: every run conserves the number of set bits."""
    n = draw(st.integers(2, 5))
    site = st.integers(0, n - 1)
    terms = []
    for kind, i, j, c in draw(st.lists(
        st.tuples(st.sampled_from(["flip", "zz", "z"]), site, site, st.floats(-2.0, 2.0)),
        min_size=1, max_size=8,
    )):
        if kind == "flip" and i != j:
            terms += [PauliTerm(n, c, {i: "X", j: "X"}), PauliTerm(n, c, {i: "Y", j: "Y"})]
        elif kind == "zz" and i != j:
            terms.append(PauliTerm(n, c, {i: "Z", j: "Z"}))
        elif kind == "z":
            terms.append(PauliTerm(n, c, {i: "Z"}))
    return HamiltonianSum(n, tuple(terms) or (PauliTerm(n, 1.0, {0: "Z"}),))


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(conserving_sums())
def test_blocks_of_conserving_sums_match_the_whole_space(full_split, h):
    # the all-zero state is a block of its own
    assert h.blocks[0] is not h.whole
    _check_blocks(h)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pauli_sums)
def test_blocks_of_any_sum_match_the_whole_space(full_split, spec):
    n, raw = spec
    _check_blocks(HamiltonianSum(n, tuple(PauliTerm(n, c, letters) for c, letters in raw)))


def test_symmetry_free_model_is_one_block(full_split):
    h = power_law_lattice(4, 1, 2.0)
    strings = [t.masks() for t in h.terms]
    every = [(x, z) for x in range(16) for z in range(16) if (x, z) != (0, 0)]
    # every string but the identity anticommutes with some term
    assert all(any(anticommute(s, t) for t in strings) for s in every)
    # its one block is the whole space, the Block every kernel takes
    assert h.blocks == (h.whole,) and h.error_blocks == (h.whole,)
    assert h.whole.dim == h.dim and h.whole.copies == 1
    _check_blocks(h)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("periodic", [True, False])
def test_chain_blocks_from_the_product_strings(full_split, n, periodic):
    # the bond gates conserve the number k of set bits and X^n maps k onto
    # n - k: the blocks are k < n/2, two copies each, and for even n the
    # k = n/2 states split by the parity of X^n
    h = heisenberg_1d(n, periodic)
    pairs = [math.comb(n, k) for k in range((n + 1) // 2)]
    halves = [math.comb(n, n // 2) // 2] * 2 if n % 2 == 0 else []
    assert [b.dim for b in h.blocks] == pairs + halves
    assert [b.copies for b in h.blocks] == [2] * len(pairs) + [1] * len(halves)
    _check_blocks(h)


@pytest.mark.parametrize("h, dims", [
    (heisenberg_1d(4), [5, 6]),
    (heisenberg_1d(6), [22, 20]),
    (heisenberg_1d(7), [64]),
    (heisenberg_1d(8), [37, 56, 35, 35]),
    (heisenberg_1d(9), [46, 84, 126]),
    (HamiltonianSum(8, tuple(PauliTerm(8, 1.0, {q: "Z"}) for q in range(8))), [32] * 8),
], ids=["heis4", "heis6", "heis7", "heis8", "heis9", "commuting8"])
def test_blocks_stop_at_the_smallest_worthwhile_dim(h, dims):
    # blocks of equal copies share a bin until it holds MIN_BLOCK_DIM
    # states, and no bin outgrows BIN_DIM: a complex SVD above dim 64 can
    # change its bits with the BLAS thread count. Heisenberg n = 8 is
    # popcount 0, 1 and 2 in one bin, then 3, then popcount 4 split by the
    # parity of X^n.
    assert [b.dim for b in h.blocks] == dims
    assert max(dims) <= hamiltonians.BIN_DIM or h.n_qubits > 8


@st.composite
def exchange_sums(draw):
    """Isotropic exchange J (XX + YY + ZZ) on random pairs of up to 8
    qubits, one run per pair: sites can be idle and the pairs can fall
    apart into pieces."""
    n = draw(st.integers(2, 8))
    site = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(site, site, st.floats(-2.0, 2.0)), min_size=1,
                          max_size=2 * n))
    bonds = [(i, j, c) for i, j, c in pairs if i != j] or [(0, 1, 1.0)]
    return HamiltonianSum(n, tuple(PauliTerm(n, c, {i: a, j: a})
                                   for i, j, c in bonds for a in "XYZ"))


def _largest_error(h, blocks, scheme):
    return max(
        spectral_norm(mpf_evolve(b, 0.9, 2, scheme) - exact_evolution(b, 0.9))
        for b in blocks
    )


@settings(deadline=None, max_examples=60)
@given(exchange_sums(), st.integers(1, 3))
# commuting bonds whose errors are rounding, 1.03e-15 and 1.29e-14: 1.19e-14
# apart, within the run's rounding scale 6.6e-14
@example(HamiltonianSum(2, tuple(PauliTerm(2, c, {0: a, 1: a})
                                 for c in (9.9e-10, -0.8125, 2.0) for a in "XYZ")), 3)
def test_error_blocks_of_spin_invariant_sums_keep_the_largest_error(h, m):
    # every run commutes with total spin, so the blocks reaching popcount
    # floor(n/2) hold the error on every total spin
    assert h.error_blocks is not h.blocks
    assert sum(b.dim for b in h.error_blocks) <= sum(b.dim for b in h.blocks)
    scheme = solve_order_condition(power_schedule(m), m)
    whole = _largest_error(h, h.blocks, scheme)
    # the run's rounding scale: the step sum_j a_j U_j^(k_j), squared,
    # applies 2 k_j S rotation stages to U_j (S those of the second-order
    # step), each rounding by about eps. An error within it is rounding on
    # both sides (a sum of commuting bonds); above it the floor is at most
    # 1e-14
    stages = len(build_spec(2, h.gamma).stages)
    rounding = np.finfo(np.float64).eps * 2 * stages * sum(
        abs(a) * k for a, k in zip(scheme.coefficients, scheme.powers))
    floor = rounding if whole <= rounding else min(rounding, 1e-14)
    assert abs(_largest_error(h, h.error_blocks, scheme) - whole) <= floor + 1e-12 * whole


def _heisenberg_with(n, extra=(), delta=1.0, yy=1.0):
    """heisenberg_1d(n) with ZZ scaled by delta, YY by yy, extra terms
    appended."""
    scale = {"X": 1.0, "Y": yy, "Z": delta}
    terms = [PauliTerm(n, scale[t.paulis[min(t.paulis)]], t.paulis)
             for t in heisenberg_1d(n).terms]
    return HamiltonianSum(n, (*terms, *extra))


@pytest.mark.parametrize("h", [
    _heisenberg_with(6, extra=[PauliTerm(6, 0.5, {2: "Z"})]),
    _heisenberg_with(6, extra=[PauliTerm(6, 0.5, {q: "X"}) for q in range(6)]),
    _heisenberg_with(6, delta=0.5),
    _heisenberg_with(5, yy=math.nextafter(1.0, 2.0)),
    power_law_lattice(4, 1, 2.0),
    HamiltonianSum(8, tuple(PauliTerm(8, 1.0, {q: "Z"}) for q in range(8))),
], ids=["z-field", "x-field", "xxz", "unequal-couplings", "power-law", "commuting8"])
def test_error_blocks_are_the_blocks_without_spin_symmetry(h):
    assert h.error_blocks is h.blocks


@pytest.mark.parametrize("n, dims", [
    (4, [6]), (5, [10]), (6, [20]), (7, [35]), (8, [35, 35]), (9, [126]),
    (10, [126, 126]),
])
def test_chain_error_blocks(n, dims):
    # popcount floor(n/2) only, split by the parity of X^n for even n and
    # packed below MIN_BLOCK_DIM
    assert [b.dim for b in heisenberg_1d(n).error_blocks] == dims
    assert [b.dim for b in heisenberg_1d(n, periodic=False).error_blocks] == dims
