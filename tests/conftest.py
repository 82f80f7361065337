import math

import numpy as np
import pytest

from mpf_lab import pauli
from mpf_lab.hamiltonians import HamiltonianSum, PauliTerm, heisenberg_1d

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_string(n_qubits, paulis):
    # site 0 is the fastest-varying axis
    out = np.array([[1.0 + 0j]])
    for site in range(n_qubits):
        out = np.kron(_PAULI[paulis.get(site, "I")], out)
    return out


def dense_sum(h):
    """Rebuild the dense matrix from term data, bypassing the package's cache."""
    total = np.zeros((2**h.n_qubits, 2**h.n_qubits), dtype=complex)
    for term in h.terms:
        total += term.coefficient * kron_string(h.n_qubits, term.paulis)
    return total


def gather_stage_product(h, t, spec):
    """The stage product built as is, stage by stage, with right
    multiplication by each Pauli string as a column gather from
    pauli.string_action: (out @ P)[:, b] = phases[b] * out[:, perm[b]].
    The oracle of formulas.evaluate_spec, bypassing the package's cache."""
    out = np.eye(h.dim, dtype=np.complex128)
    for g, c in spec.stages:
        theta = c * t * h.terms[g].coefficient
        if theta == 0.0:
            continue
        perm, phases = pauli.string_action(*h.terms[g].masks(), h.n_qubits)
        out = math.cos(theta) * out - (1j * math.sin(theta)) * (out[:, perm] * phases)
    return out


def stage_product_times(h, t, spec, vectors):
    """U @ vectors for U the stage product gather_stage_product builds,
    applied stage by stage from the right without forming U:
    exp(-i theta P) v = cos(theta) v - i sin(theta) P v, (P v)[b ^ x] =
    phases[b] v[b]."""
    out = np.asarray(vectors, dtype=np.complex128)
    for g, c in reversed(spec.stages):
        theta = c * t * h.terms[g].coefficient
        perm, phases = pauli.string_action(*h.terms[g].masks(), h.n_qubits)
        moved = np.empty_like(out)
        moved[perm] = phases[:, None] * out
        out = math.cos(theta) * out - (1j * math.sin(theta)) * moved
    return out


def block_basis(block):
    """The block's orthonormal basis vectors as the columns of a dense
    array, one row per state of the model's space."""
    basis = np.zeros((block.pos.size, block.dim))
    inside = np.flatnonzero(block.pos >= 0)
    basis[inside, block.pos[inside]] = block.sign[inside]
    return basis / np.linalg.norm(basis, axis=0)


def sites(x, z):
    """Site -> letter map of the Pauli string with masks (x, z)."""
    letters = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return {q: letters[x >> q & 1, z >> q & 1] for q in range(max(x, z).bit_length())
            if (x | z) >> q & 1}


def anticommute(a, b):
    """Whether the Pauli strings with masks a = (x, z) and b anticommute."""
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 1


def commutator(a, b):
    """[A, B] = AB - BA of dense arrays."""
    return a @ b - b @ a


def nested_commutator(ops):
    """Right-nested commutator [A1, [A2, ... [A_{n-1}, A_n] ...]] of dense
    arrays; a single operator is returned as is (depth-1 convention)."""
    acc = ops[-1]
    for op in ops[-2::-1]:
        acc = commutator(op, acc)
    return acc


# a pauli._LUMP that no step passes: the Pauli DP with lumping off
NO_LUMP = 1 << 62


def count_lumps(monkeypatch):
    """Spy on pauli._least_rotation: the list it appends to on every call,
    so a lumped DP run leaves it non-empty."""
    calls = []
    original = pauli._least_rotation

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pauli, "_least_rotation", spy)
    return calls


def fit_loglog(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def z_model(term=None, **body):
    """A one-term custom model file body, with fields overridden."""
    spec = {"n_qubits": 2, "coefficient": 1.0, "paulis": {"0": "Z"}, **(term or {})}
    return {"model": "custom", "n": 2, "terms": [spec], **body}


# (model file body, the field its error names): a kind that is not the
# term list, fields of the wrong JSON kind, then malformed shapes
BAD_MODEL_FILES = [
    ({"model": "heisenberg1d", "n": 4, "periodic": "false"}, "model"),
    (z_model(n=2.0), "n"),
    (z_model({"coefficient": "1.5"}), "coefficient"),
    (z_model({"coefficient": True}), "coefficient"),
    ([1], "model"),
    (z_model(terms=5), "terms"),
    (z_model({"paulis": ["Z"]}), "paulis"),
    (z_model(grouping=7), "grouping"),
]


def rand_anti_hermitian(rng, dim, norm=None):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (a - a.conj().T) / 2
    if norm is not None:
        a *= norm / np.linalg.norm(a, 2)
    return a


@pytest.fixture
def xz1():
    # the standard two-term non-commuting toy: H = X + Z on one qubit
    terms = (PauliTerm(1, 1.0, {0: "X"}), PauliTerm(1, 1.0, {0: "Z"}))
    return HamiltonianSum(1, terms, grouping=((0,), (0,)))


@pytest.fixture
def heis3():
    return heisenberg_1d(3)


@pytest.fixture
def commuting3():
    terms = (
        PauliTerm(3, 1.0, {0: "Z"}),
        PauliTerm(3, 0.5, {1: "Z"}),
        PauliTerm(3, 2.0, {2: "Z"}),
    )
    return HamiltonianSum(3, terms, grouping=((0,), (1,), (2,)))
