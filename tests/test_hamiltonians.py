import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import BAD_MODEL_FILES, anticommute, dense_sum, z_model
from mpf_lab import hamiltonians, pauli
from mpf_lab.experiments import exact_evolution
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


def test_power_law_seed_determinism():
    a = to_model_json(power_law_lattice(8, 1, 1.5, seed=3))
    b = to_model_json(power_law_lattice(8, 1, 1.5, seed=3))
    assert a == b


def test_one_norm_basics():
    h = HamiltonianSum(2, (PauliTerm(2, 2.0, {0: "X"}),), grouping=((0,),))
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
    d = h.dense()
    assert np.array_equal(d, sum(h.term_matrices()))
    assert np.allclose(d, dense_sum(h), rtol=0.0, atol=1e-12)


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
    with pytest.raises(ValueError):
        HamiltonianSum(2, (PauliTerm(2, 1.0, {0: "X"}),), grouping=((0,), (1,)))
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
    """Split a sum however small its sectors get."""
    monkeypatch.setattr(hamiltonians, "MIN_SECTOR_DIM", 1)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(planted_sums())
def test_sectors_split_every_error_exactly(full_split, spec):
    n, planted, raw = spec
    terms = tuple(PauliTerm(n, c, pauli.sites_from_masks(*s)) for c, s in raw)
    h = HamiltonianSum(n, terms, tuple((g,) for g in range(len(terms))))
    sectors = h.sectors
    assert len(sectors) >= 2 ** len(planted)
    assert sum(s.dim for s in sectors) == h.dim
    for s in sectors:
        assert s.grouping == h.grouping
        assert [abs(t.coefficient) for t in s.terms] == [t.norm for t in h.terms]
    gens = pauli.symmetry_generators([t.masks() for t in terms], n)
    dense = dense_sum(h)
    for c, s in enumerate(sectors):
        # sector c is H on the eigenspace where generator i has eigenvalue (-1)^c_i
        proj = np.eye(h.dim)
        for i, g in enumerate(gens):
            proj = proj @ (np.eye(h.dim) + (-1) ** (c >> i & 1) * pauli.dense_string(*g, n)) / 2
        w, v = np.linalg.eigh(proj)
        basis = v[:, w > 0.5]
        assert np.allclose(np.linalg.eigvalsh(basis.conj().T @ dense @ basis),
                           np.linalg.eigvalsh(dense_sum(s)), atol=1e-10)
    scheme = solve_order_condition(power_schedule(2), 2)
    full = spectral_norm(mpf_evolve(h, 1.5, 3, scheme) - exact_evolution(h, 1.5))
    largest = max(
        spectral_norm(mpf_evolve(s, 1.5, 3, scheme) - exact_evolution(s, 1.5))
        for s in sectors
    )
    assert abs(largest - full) <= 1e-12 + 1e-12 * full


def test_symmetry_free_model_is_one_sector(full_split):
    h = power_law_lattice(4, 1, 2.0)
    strings = [t.masks() for t in h.terms]
    every = [(x, z) for x in range(16) for z in range(16) if (x, z) != (0, 0)]
    # every string but the identity anticommutes with some term
    assert all(any(anticommute(s, t) for t in strings) for s in every)
    assert h.sectors == (h,) and h.sectors[0] is h


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("periodic", [True, False])
def test_chain_sectors_from_the_product_strings(full_split, n, periodic):
    # prod X and prod Z commute with every bond term; for odd n they
    # anticommute with each other, so only one of them splits the space
    k = 1 if n % 2 else 2
    h = heisenberg_1d(n, periodic)
    assert [s.n_qubits for s in h.sectors] == [n - k] * 2**k
    spectrum = np.concatenate([s.eigh[0] for s in h.sectors])
    assert np.allclose(np.sort(spectrum), h.eigh[0], atol=1e-10)


@pytest.mark.parametrize("h, dims", [
    (heisenberg_1d(4), [16]),
    (heisenberg_1d(6), [32, 32]),
    (heisenberg_1d(8), [64] * 4),
    (heisenberg_1d(9), [256] * 2),
    (HamiltonianSum(8, tuple(PauliTerm(8, 1.0, {q: "Z"}) for q in range(8))), [32] * 8),
], ids=["heis4", "heis6", "heis8", "heis9", "commuting8"])
def test_sectors_stop_at_the_smallest_worthwhile_dim(h, dims):
    assert [s.dim for s in h.sectors] == dims
