"""Symplectic Pauli-string algebra against dense 2x2 kron oracles."""

import numpy as np
from hypothesis import given, strategies as st

from conftest import kron_string
from mpf_lab.pauli import dense_string, masks_from_sites

site_maps = st.dictionaries(st.integers(0, 3), st.sampled_from("XYZ"), max_size=4)


@given(site_maps)
def test_dense_string_matches_kron(paulis):
    x, z = masks_from_sites(paulis)
    assert np.allclose(dense_string(x, z, 4), kron_string(4, paulis), atol=1e-14)
