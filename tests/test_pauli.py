"""Symplectic Pauli-string algebra against dense 2x2 kron oracles."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import NO_LUMP, anticommute, count_lumps, kron_string, sites
from mpf_lab import pauli
from mpf_lab.commutators import alpha_comm
from mpf_lab.hamiltonians import HamiltonianSum, PauliTerm, heisenberg_1d, power_law_lattice
from mpf_lab.pauli import (
    PAULI_MATRICES,
    dense_string,
    masks_from_sites,
    string_action,
    x_symmetries,
)

site_maps = st.dictionaries(st.integers(0, 3), st.sampled_from("XYZ"), max_size=4)


@given(site_maps)
def test_dense_string_matches_kron(paulis):
    x, z = masks_from_sites(paulis)
    assert np.allclose(dense_string(x, z, 4), kron_string(4, paulis), atol=1e-14)


def test_string_action_matches_kron_for_every_three_qubit_string():
    cols = np.arange(8)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for letters in itertools.product("IXYZ", repeat=3):
        # letters[0] is site 2, the leftmost kron factor
        explicit = reduce(np.kron, [PAULI_MATRICES[c] for c in letters])
        x, z = masks_from_sites({2 - i: c for i, c in enumerate(letters) if c != "I"})
        perm, phases = string_action(x, z, 3)
        p = np.zeros((8, 8), dtype=complex)
        p[perm, cols] = phases
        assert np.array_equal(p, explicit), letters
        assert np.array_equal(dense_string(x, z, 3), explicit), letters
        assert np.allclose(m[:, perm] * phases, m @ explicit, atol=1e-14), letters


def _span(strings):
    out = {(0, 0)}
    for x, z in strings:
        out |= {(x ^ a, z ^ b) for a, b in out}
    return out


term_strings = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
            min_size=1,
            max_size=6,
        ),
    )
)


@settings(deadline=None, max_examples=80)
@given(term_strings)
def test_x_symmetries_are_every_x_string_commuting_with_the_terms(spec):
    n, strings = spec
    xs = x_symmetries(strings, n)
    commuting = {x for x in range(2**n) if not any(anticommute((x, 0), t) for t in strings)}
    # an independent basis of exactly those masks
    assert {x for x, _ in _span([(x, 0) for x in xs])} == commuting
    assert len(commuting) == 2 ** len(xs)


# a few strings drawn with repeats, coefficients with signed zeros
weighted_sums = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
            min_size=1,
            max_size=4,
        ).flatmap(
            lambda pool: st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
                ),
                min_size=1,
                max_size=8,
            )
        ),
    )
)


@settings(deadline=None, max_examples=150)
@given(
    weighted_sums,
    st.integers(1, 8),
    st.sampled_from([1, 10, 100, 1000, 10**9]),
    st.sampled_from([1, 5, 1 << 18]),
)
def test_dense_and_sorted_pauli_dp_are_equal(spec, depth, budget, fold):
    # the dense accumulator and the sort fold add the same contributions
    # in the same order, so they agree exactly, list length included
    n, terms = spec
    strings = [s for s, _ in terms]
    coefficients = [c for _, c in terms]
    dense = _table("dense", strings, coefficients, depth, n, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pauli, "_FOLD", fold)
        folded = _table("fold", strings, coefficients, depth, n, budget)
    assert dense == folded


def _table(path, strings, coefficients, depth, n, budget):
    """The table with every level summed by the one accumulator: the 4^n
    array ("dense") or the sort fold ("fold")."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pauli, "_dense_level", lambda n_qubits, moves: path == "dense")
        return pauli.commutator_weight_table(strings, coefficients, depth, n, budget)


@settings(deadline=None, max_examples=150)
@given(
    weighted_sums,
    st.integers(1, 8),
    st.sampled_from([1, 10, 100, 1000, 10**9]),
    st.sampled_from(["dense", "fold"]),
)
def test_deepest_level_sum_matches_the_built_level(spec, depth, budget, path):
    # table(depth) sums its last level; table(depth + 1) builds that level
    # as a frontier and sums its weights, an independent way to the value
    n, terms = spec
    strings = [s for s, _ in terms]
    coefficients = [c for _, c in terms]
    summed = _table(path, strings, coefficients, depth, n, budget)
    built = _table(path, strings, coefficients, depth + 1, n, budget)
    k = len(summed)
    if k < depth:  # the budget stops both tables at the same depth
        assert built == summed
    assert summed[:-1] == built[: k - 1]
    # a relative bound does not hold among subnormals, hence the floor
    tiny = np.finfo(np.float64).tiny
    assert abs(summed[-1] - built[k - 1]) <= 1e-14 * abs(built[k - 1]) + tiny


def _power_law(n, alpha, seed):
    h = power_law_lattice(n, 1, alpha, seed)
    return n, [(t.masks(), t.coefficient) for t in h.terms]


# the weighted sums; all-to-all power-law models, where many terms move
# strings onto one key with weights that round; or strings of Z letters
# only, a commuting model, whose frontier is empty after depth 1
batch_models = st.one_of(
    weighted_sums,
    st.builds(_power_law, st.integers(2, 4), st.floats(0.5, 3.0), st.integers(0, 99)),
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.tuples(st.just(0), st.integers(0, 2**n - 1)), st.floats(-2.0, 2.0)
                ),
                min_size=1,
                max_size=6,
            ),
        )
    ),
)


@settings(deadline=None, max_examples=100)
@given(
    batch_models,
    st.integers(1, 8),
    st.sampled_from([1, 10, 100, 1000, 10**9]),
    st.sampled_from([1, 5, 1 << 18]),
)
@example(_power_law(3, 0.7, 2), 7, 10**9, 1 << 18)
def test_pauli_dp_is_independent_of_the_batch_size(spec, depth, budget, fold):
    # a batch adds its moved pairs term-major, so each key still sums its
    # contributions in term order: every batch size gives the same list
    n, terms = spec
    strings = [s for s, _ in terms]
    coefficients = [c for _, c in terms]
    tables = []
    for path in ("dense", "fold"):
        for batch in (1, 3, 1 << 14, 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pauli, "_BATCH", batch)
                mp.setattr(pauli, "_FOLD", fold)
                tables.append(_table(path, strings, coefficients, depth, n, budget))
    assert all(table == tables[0] for table in tables)


def _deepest_fills(monkeypatch, n):
    """Spy on pauli._summed_level: the list it appends each summed
    frontier's share of the 4^n strings to."""
    fills = []
    original = pauli._summed_level

    def spy(keys, *args):
        fills.append(keys.size / 4**n)
        return original(keys, *args)

    monkeypatch.setattr(pauli, "_summed_level", spy)
    return fills


@settings(deadline=None, max_examples=150)
@given(batch_models, st.integers(2, 8), st.sampled_from(["dense", "fold"]))
# the deepest frontier holds 16 of the 4^3 strings: exactly on the gate
@example(_power_law(3, 0.7, 1), 7, "dense")
@example(_power_law(3, 0.7, 1), 7, "fold")
def test_product_summed_level_matches_the_term_loop(spec, depth, path):
    n, terms = spec
    strings = [s for s, _ in terms]
    coefficients = [c for _, c in terms]
    gate = pauli._PRODUCT_FILL
    with pytest.MonkeyPatch.context() as mp:
        fills = _deepest_fills(mp, n)
        default = _table(path, strings, coefficients, depth, n, 10**9)
        mp.setattr(pauli, "_PRODUCT_FILL", 0.0)  # every frontier
        product = _table(path, strings, coefficients, depth, n, 10**9)
        mp.setattr(pauli, "_PRODUCT_FILL", 2.0)  # none
        loop = _table(path, strings, coefficients, depth, n, 10**9)
    assert len(fills) == 3 and len(product) == len(loop) == depth
    assert product[:-1] == loop[:-1]
    # both sum non-negative addends; the floor as for the built level
    tiny = np.finfo(np.float64).tiny
    assert abs(product[-1] - loop[-1]) <= 1e-14 * abs(loop[-1]) + tiny
    # the product from a quarter of the strings on, the loop below
    assert default == (product if fills[0] >= gate else loop)


@pytest.mark.parametrize("n, alpha, seed, depth", [(4, 1.0, 0, 6), (6, 2.0, 3, 7)])
def test_dense_and_fold_paths_both_take_the_product(monkeypatch, n, alpha, seed, depth):
    # all-to-all frontiers fill 35 % of 4^4 and 69 % of 4^6 before the
    # deepest level: both paths sum it by the product, to equal lists
    _, terms = _power_law(n, alpha, seed)
    strings = [s for s, _ in terms]
    coefficients = [c for _, c in terms]
    fills = _deepest_fills(monkeypatch, n)
    dense = _table("dense", strings, coefficients, depth, n, 10**9)
    folded = _table("fold", strings, coefficients, depth, n, 10**9)
    assert len(fills) == 2 and fills[0] == fills[1] >= pauli._PRODUCT_FILL
    assert dense == folded and len(dense) == depth


@pytest.mark.parametrize("batch", [1, 3, 1 << 14, 1 << 30])
@pytest.mark.parametrize("path", ["dense", "fold"])
def test_zero_weight_strings_stay_in_the_frontier(monkeypatch, path, batch):
    monkeypatch.setattr(pauli, "_BATCH", batch)
    # 0 * X + Z on one qubit: depth 1 holds X at weight 0 and Z; both move to
    # Y at weight 0, which is kept and charged: steps cost 2 * 2, then 2 * 1
    strings, coefficients = [(1, 0), (0, 1)], [0.0, 1.0]
    for budget, want in ((3, [1.0]), (5, [1.0, 0.0]), (6, [1.0, 0.0, 0.0])):
        assert _table(path, strings, coefficients, 3, 1, budget) == want
    # Z letters commute: depth 2 is empty and the steps after it are free
    strings, coefficients = [(0, 1), (0, 2), (0, 3)], [1.0, 1.0, 0.5]
    for budget, want in ((8, [2.5]), (9, [2.5, 0.0, 0.0, 0.0])):
        assert _table(path, strings, coefficients, 4, 2, budget) == want


@pytest.mark.parametrize("path, builder", [("dense", "_reached"), ("fold", "_fold")])
def test_deepest_level_is_not_built(monkeypatch, path, builder):
    # depth 1 and each middle level build a frontier; the deepest does not
    calls = []
    original = getattr(pauli, builder)

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pauli, builder, spy)
    h = heisenberg_1d(4)
    strings = [t.masks() for t in h.terms]
    coefficients = [t.coefficient for t in h.terms]
    for depth in (2, 3, 6):
        calls.clear()
        alphas = _table(path, strings, coefficients, depth, 4, 10**9)
        assert len(alphas) == depth
        assert len(calls) == depth - 1


@pytest.mark.parametrize("path", ["dense", "fold"])
def test_heisenberg_nine_qubit_table_is_pinned(path):
    # integer values, so the summed deepest level is exact too
    h = heisenberg_1d(9)
    alphas = _table(
        path, [t.masks() for t in h.terms], [t.coefficient for t in h.terms], 11, 9, 10**12
    )
    assert alphas == [
        27.0, 216.0, 3456.0, 51840.0, 953856.0, 17528832.0, 362299392.0,
        7724630016.0, 178635276288.0, 4298203201536.0, 109491586596864.0,
    ]


def _ring_sum(n, cell):
    """(strings, coefficients) of the cell's terms, each an (offset ->
    letter, coefficient) pair, repeated on every site of an n-site ring:
    a translation-invariant sum."""
    terms = [
        (masks_from_sites({(site + o) % n: p for o, p in letters.items()}), c)
        for site in range(n)
        for letters, c in cell
    ]
    return [s for s, _ in terms], [c for _, c in terms]


ring_sums = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"),
                                min_size=1, max_size=3),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0)),
            ),
            min_size=1,
            max_size=3,
        ),
    )
)


def _lumped_table(lump, path, strings, coefficients, depth, n, budget=10**9):
    """(table, whether any frontier was lumped) with pauli._LUMP = lump."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pauli, "_LUMP", lump)
        lumps = count_lumps(mp)
        return _table(path, strings, coefficients, depth, n, budget), bool(lumps)


@settings(deadline=None, max_examples=80)
@given(ring_sums, st.integers(2, 8), st.sampled_from(["dense", "fold"]),
       st.sampled_from([0, 100]))
def test_lumped_pauli_dp_matches_the_plain_dp(spec, depth, path, lump):
    # a lumped level sums each orbit's weights in another order, so the
    # tables agree to rounding: the worst of 3,000 random sums was 1.0e-15
    n, cell = spec
    strings, coefficients = _ring_sum(n, cell)
    lumped, moved = _lumped_table(lump, path, strings, coefficients, depth, n)
    plain, unmoved = _lumped_table(NO_LUMP, path, strings, coefficients, depth, n)
    assert (moved or lump) and not unmoved  # _LUMP = 0 lumps from depth 2 on
    assert len(lumped) == len(plain) == depth
    tiny = np.finfo(np.float64).tiny
    assert all(abs(a - b) <= 1e-14 * b + tiny for a, b in zip(lumped, plain))
    if n <= 4:  # the dense tuple enumeration, from the definition
        h = HamiltonianSum(n, tuple(
            PauliTerm(n, c, sites(*s)) for s, c in zip(strings, coefficients)))
        for j in range(1, min(depth, 3) + 1):
            oracle = alpha_comm(h, j, method="dense").value
            assert lumped[j - 1] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n, alphas", [
    (10, [30.0, 240.0, 3840.0, 57600.0, 1059840.0, 19476480.0, 402554880.0,
          8582922240.0, 198817873920.0, 4808198062080.0, 123942689832960.0]),
    (12, [36.0, 288.0, 4608.0, 69120.0, 1271808.0, 23371776.0, 483065856.0,
          10299506688.0, 238581448704.0, 5773065191424.0, 149129401466880.0]),
])
def test_heisenberg_lumped_tables_are_pinned(n, alphas):
    # integer values, so the lumped sums are exact: equal to the plain DP's
    h = heisenberg_1d(n)
    strings = [t.masks() for t in h.terms]
    coefficients = [t.coefficient for t in h.terms]
    path = "dense" if n <= 10 else "fold"
    assert _lumped_table(pauli._LUMP, path, strings, coefficients, 11, n, 10**12) == (
        alphas, True)


def _one_ulp_off(n):
    h = heisenberg_1d(n)
    coefficients = [t.coefficient for t in h.terms]
    coefficients[5] = math.nextafter(1.0, 2.0)
    return n, [t.masks() for t in h.terms], coefficients


def _model(h):
    return h.n_qubits, [t.masks() for t in h.terms], [t.coefficient for t in h.terms]


@pytest.mark.parametrize("n, strings, coefficients", [
    _model(heisenberg_1d(6, periodic=False)),
    _model(heisenberg_1d(9, periodic=False)),
    _model(power_law_lattice(8, 1, 2.0, 0)),
    _model(power_law_lattice(9, 2, 1.0, 1)),
    _one_ulp_off(8),
], ids=["open6", "open9", "power-law8", "power-law-3x3", "heis8-one-ulp"])
@pytest.mark.parametrize("path", ["dense", "fold"])
def test_only_translation_invariant_sums_are_lumped(n, strings, coefficients, path):
    # _LUMP = 0 lumps from the first step on whenever the test holds; these
    # sums fail it, so they keep the plain DP and its lists exactly
    forced, moved = _lumped_table(0, path, strings, coefficients, 6, n)
    assert not moved
    assert forced == _lumped_table(NO_LUMP, path, strings, coefficients, 6, n)[0]
    # the periodic chain passes it
    assert _lumped_table(0, path, *_model(heisenberg_1d(n))[1:], 3, n)[1]
