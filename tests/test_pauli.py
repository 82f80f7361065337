"""Symplectic Pauli-string algebra against dense 2x2 kron oracles."""

import itertools
from functools import reduce

import numpy as np
from hypothesis import given, strategies as st

from conftest import kron_string
from mpf_lab.pauli import PAULI_MATRICES, dense_string, masks_from_sites, string_action

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
