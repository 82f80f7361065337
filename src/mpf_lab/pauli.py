"""Pauli string algebra on (x, z) bitmasks with phase tracking.

A string is represented as P = i^e * X^x Z^z with x, z n-bit masks and
e an exponent mod 4. Products and commutators stay inside the group up to
phase, which is what makes the commutator-sum fast path exact: a nested
commutator of Pauli strings is either zero or 2^(depth-1) times a single
string.
"""

from __future__ import annotations

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I = np.eye(2, dtype=np.complex128)

PAULI_MATRICES = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}

# single-qubit letter -> (x bit, z bit)
_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def masks_from_sites(paulis: dict[int, str]) -> tuple[int, int]:
    '''Bitmask pair (x, z) for a site->letter map.'''
    x = z = 0
    for site, letter in paulis.items():
        bx, bz = _LETTER_BITS[letter]
        x |= bx << site
        z |= bz << site
    return x, z


def string_action(x: int, z: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    '''(perm, phases) of the Hermitian Pauli string with masks (x, z):
    P|b> = phases[b] |perm[b]> with perm[b] = b ^ x and phases[b] =
    i^y (-1)^(b.z), y the number of Y letters (sites with both bits set).

    So the dense matrix is P[perm, b] = phases, and right multiplication
    is a column gather: (M @ P)[:, b] = phases[b] * M[:, perm[b]].'''
    cols = np.arange(1 << n_qubits)
    signs = np.ones(cols.size, dtype=np.complex128)
    signs[np.bitwise_count(cols & z) & 1 == 1] = -1.0
    return cols ^ x, (1j ** bin(x & z).count("1")) * signs


def dense_string(x: int, z: int, n_qubits: int) -> np.ndarray:
    '''Dense matrix of X^x Z^z phase-corrected to the Hermitian Pauli
    string (Y where both bits are set).'''
    perm, phases = string_action(x, z, n_qubits)
    out = np.zeros((perm.size, perm.size), dtype=np.complex128)
    out[perm, np.arange(perm.size)] = phases
    return out


# (x << n) | z must fit one uint64 key
MAX_QUBITS = 32

# a level folds its moved parts into one sorted array past this many pending
# entries, so it holds O(|frontier| + _FOLD) entries, not Gamma * |frontier|
_FOLD = 1 << 18


def _fold(parts: list) -> tuple:
    """Sorted distinct keys of the (keys, weights) parts, each with the
    summed weight of its copies."""
    keys, slot = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    return keys, np.bincount(slot, np.concatenate([w for _, w in parts]))


def commutator_weight_table(
    strings: list[tuple[int, int]],
    coefficients: list[float],
    depth: int,
    n_qubits: int,
    budget: int,
) -> list[float]:
    """Exact alpha_comm values for depths 1..depth by dynamic programming.

    A level holds, per reachable string, the total weight over suffix
    tuples of prod 2|c_gamma| (each anticommuting extension doubles the
    norm and multiplies by |c|); summing a level's weights gives the sum
    over all ordered tuples of nested-commutator norms, exactly.

    Strings are uint64 keys (x << n) | z, so n_qubits <= MAX_QUBITS. A
    level is a sorted key array with its weights; a step lets every term
    act on the frontier strings it anticommutes with (odd popcount of
    key & ((z_g << n) | x_g)), and sorts the moved keys, summing the
    weights of equal ones, into the next frontier.

    A step costs Gamma * |frontier| work units. The DP stops before the
    step that would take its total past the budget, so the returned list
    can be shorter than depth; depth 1 is free.
    """
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"the Pauli DP packs strings into 64-bit keys: n <= {MAX_QUBITS}, got {n_qubits}"
        )
    gamma = len(strings)
    term_keys = np.array([(x << n_qubits) | z for x, z in strings], dtype=np.uint64)
    swapped = np.array([(z << n_qubits) | x for x, z in strings], dtype=np.uint64)
    norms = np.abs(np.asarray(coefficients, dtype=np.float64))
    keys, weights = _fold([(term_keys, norms)])
    alphas = [float(weights.sum())]
    spent = 0
    while len(alphas) < depth:
        spent += gamma * keys.size
        if spent > budget:
            break
        parts, pending = [], 0
        for key, swap, norm in zip(term_keys, swapped, norms):
            hit = (np.bitwise_count(keys & swap) & 1) == 1
            parts.append((keys[hit] ^ key, 2.0 * norm * weights[hit]))
            pending += parts[-1][0].size
            if pending > _FOLD:
                parts, pending = [_fold(parts)], 0
        keys, weights = _fold(parts)
        alphas.append(float(weights.sum()))
    return alphas
