"""Pauli string algebra on (x, z) bitmasks with phase tracking.

A string is represented as P = i^e * X^x Z^z with x, z n-bit masks and
e an exponent mod 4. Products and commutators stay inside the group up to
phase, which is what makes the commutator-sum fast path exact: a nested
commutator of Pauli strings is either zero or 2^(depth-1) times a single
string. The same masks give the X-strings that commute with a model, a
GF(2) null space that pairs and splits its invariant blocks
(HamiltonianSum.blocks).

The commutator-sum DP carries a translation-invariant model's levels as
one key per orbit, the least rotation, with the orbit's total weight, and
charges its budget for every string of the orbit (commutator_weight_table).
"""

from __future__ import annotations

import numpy as np

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

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
    maps the rows of the transpose: (M @ P).T[b] = phases[b] * M.T[b ^ x].
    Block.entries holds the same phases, times the coefficients, on a
    block's states.'''
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


def x_symmetries(strings: list[tuple[int, int]], n_qubits: int) -> list[int]:
    """A basis of the masks x whose X^x commutes with every string (x_t,
    z_t) given, popcount(x & z_t) even: the GF(2) null space of the z
    masks, reduced in string order and read off by ascending free column."""
    pivots: list = []  # (column, row); no row has another row's column set
    for _, row in strings:
        for col, pivot_row in pivots:
            if row >> col & 1:
                row ^= pivot_row
        if row:
            col = row.bit_length() - 1
            pivots = [(c, p ^ row if p >> col & 1 else p) for c, p in pivots]
            pivots.append((col, row))
    taken = {col for col, _ in pivots}
    return [
        (1 << free) | sum(1 << col for col, row in pivots if row >> free & 1)
        for free in range(n_qubits)
        if free not in taken
    ]


# (x << n) | z must fit one uint64 key
MAX_QUBITS = 32

# a level can be summed into a dense float64 array with one slot per key
# only while keys have at most this many bits (2n, so n <= 10): at n = 11
# the array is 32 MiB whatever the frontier (_dense_level)
DENSE_KEY_BITS = 20

# the sort fold merges a level's moved parts into one sorted array past this
# many pending entries, so it holds O(|frontier| + _FOLD) entries, not
# Gamma * |frontier|
_FOLD = 1 << 18

# a step moves the frontier by as many terms at once as keep the batch's
# anticommutation table within this many entries
_BATCH = 1 << 14

# a translation-invariant model's frontier is lumped by orbits once a step
# makes more than this many moves (Gamma * |frontier|): below it a step's
# cost is per numpy call, and the rotations cost more than they save
_LUMP = 1 << 14

# the deepest level is summed by one matrix product over a 2^n x 2^n array
# of the frontier's weights once the frontier fills at least this share of
# the 4^n strings; a sparser one keeps the loop over terms
_PRODUCT_FILL = 0.25


def _fold(parts: list) -> tuple:
    """Sorted distinct keys of the (keys, weights) parts, each with the
    summed weight of its copies."""
    keys, slot = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    return keys, np.bincount(slot, np.concatenate([w for _, w in parts]))


def _anticommuting(keys: np.ndarray, swap) -> np.ndarray:
    """Bool view of which keys anticommute with the terms whose swapped
    keys are swap: odd popcount of key & swap, a 0/1 uint8 array read as
    bool."""
    return (np.bitwise_count(keys & swap) & 1).view(bool)


def _moves(keys, weights, term_keys, swapped, twice_norms):
    """(moved keys, weights) of each batch of terms acting on the frontier
    (keys, weights), term-major: a term t moves k to k ^ term_keys[t] with
    weight twice_norms[t] * w(k) where it anticommutes with k."""
    batch = max(1, _BATCH // max(1, keys.size))
    for start in range(0, len(term_keys), batch):
        terms = slice(start, start + batch)
        # flat indices into the batch's (term, key) table: 2-D nonzero and
        # boolean masks cost several times more
        hit = np.flatnonzero(_anticommuting(keys, swapped[terms, None]))
        yield (
            (keys ^ term_keys[terms, None]).take(hit),
            (twice_norms[terms, None] * weights).take(hit),
        )


def _summed_level(keys, weights, swapped, twice_norms, n_qubits):
    """Total weight of the level after the frontier (keys, weights),
    sum_k w(k) * sum_t twice_norms[t] * [k anticommutes with t], without
    building it.

    With k = (x << n) | z and term t's swapped key (z_t << n) | x_t, k
    anticommutes with t where a_t(x) = popcount(x & z_t) and b_t(z) =
    popcount(z & x_t) differ in parity. On a frontier filling at least
    _PRODUCT_FILL of 4^n its weights are laid out as W[x, z], and
    V = W @ [1 - B | B], B[z, t] = b_t(z), holds for each row x the weight
    with b_t even and with b_t odd: term t's sum takes the odd column where
    a_t(x) is even and the even column where it is odd. Every addend is
    non-negative, so nothing cancels. A sparser frontier adds g(k), the
    2|c_t| of the terms anticommuting with k in term order, and sums
    w(k) * g(k) by numpy's pairwise sum."""
    if keys.size < _PRODUCT_FILL * 4**n_qubits:
        g = np.zeros(keys.size)
        for swap, t in zip(swapped, twice_norms):
            g += t * _anticommuting(keys, swap)
        return float((weights * g).sum())
    side = 1 << n_qubits
    rows = np.arange(side, dtype=swapped.dtype)[:, None]
    frontier = np.zeros(side * side)
    frontier[keys] = weights
    odd_b = (np.bitwise_count(rows & (swapped & (side - 1))) & 1).astype(np.float64)
    v = frontier.reshape(side, side) @ np.hstack([1.0 - odd_b, odd_b])
    odd_a = (np.bitwise_count(rows & (swapped >> n_qubits)) & 1).view(bool)
    gamma = swapped.size
    per_term = np.where(odd_a, v[:, :gamma], v[:, gamma:]).sum(axis=0)
    return float((per_term * twice_norms).sum())


def _reached(acc: np.ndarray) -> tuple:
    """Ascending keys of the slots some weight was added to (the sum of
    non-negative weights onto -0.0 has no sign bit), with their sums."""
    keys = np.flatnonzero(~np.signbit(acc))
    return keys, acc[keys]


def _rotations(keys, n_qubits: int):
    """The keys' other n - 1 rotations by i -> i + 1 mod n, in one buffer
    that each next one overwrites: both halves of (x << n) | z shift up one
    bit, and each half's top bit wraps to its bottom."""
    key, wrap = keys.copy(), np.empty_like(keys)
    for _ in range(n_qubits - 1):
        np.right_shift(key, n_qubits - 1, out=wrap)
        wrap &= (1 << n_qubits) | 1
        key <<= 1
        key &= (1 << 2 * n_qubits) - 1 - (1 << n_qubits)
        key |= wrap
        yield key


def _least_rotation(keys, n_qubits: int):
    """The least of the n rotations of each key: its orbit's canonical key."""
    least = keys.copy()
    for rotated in _rotations(keys, n_qubits):
        np.minimum(least, rotated, out=least)
    return least


def _dense_level(n_qubits: int, moves: int) -> bool:
    """Whether a level of Gamma * |frontier| moves is summed into the 4^n
    array, not by the sort fold: while the keys have at most DENSE_KEY_BITS
    bits and 4^n is at most a batch or 8 slots a move. Clearing and
    scanning the array costs what sorting 4^n / 16 moved pairs does (n =
    8-10, 2 vCPU), and about half the moves anticommute."""
    return 2 * n_qubits <= DENSE_KEY_BITS and 4**n_qubits <= max(8 * moves, _BATCH)


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

    Strings are keys (x << n) | z, so n_qubits <= MAX_QUBITS. A level is
    an ascending key array with its weights; a step lets every term act
    on the frontier strings it anticommutes with (odd popcount of
    key & ((z_g << n) | x_g)), a batch of terms per numpy pass while the
    batch times the frontier size is at most _BATCH (_moves), the moved
    pairs in term-major order. Each level picks its accumulator from its
    size (_dense_level): the moved weights are added into a 4^n array
    indexed by key with np.add.at, which adds in index order, or the moved
    keys are sorted and equal ones summed (_fold). Both add each key's
    contributions in term order onto zero, whatever the batch size, and
    keep the strings whose sum is zero, so they hold equal frontiers.

    If the ring shift i -> i + 1 mod n keeps the multiset of the terms'
    (key, |c|), every level is translation invariant, so once a level's
    Gamma * |frontier| passes _LUMP it is lumped: one key per orbit, its
    least rotation (_least_rotation), with the orbit's total weight.
    Moved keys are made canonical before they are accumulated. The sums
    are the same in another order: non-integer ones can move in the last
    bits.

    The deepest level is summed, not built (_summed_level): its total is
    sum_t 2|c_t| * sum_k w(k) [k anticommutes with t] over the frontier
    before it, lumped or not. A frontier filling at least _PRODUCT_FILL of
    the 4^n strings gives every term's inner sum from one BLAS product of
    its 2^n x 2^n weight array with a 2^n x 2 Gamma 0/1 table; a sparser one
    loops over the terms. Every addend is non-negative, so neither way
    cancels. The gate reads the frontier and n only, so both accumulators
    take the same branch on their equal frontiers and still return equal
    lists. The total can differ from the sum of the built level in the
    last bits.

    A step costs Gamma * |frontier| work units, a lumped key counting its
    orbit's size, the deepest one included (the product's 2 Gamma * 4^n
    multiply-adds are at most 8 Gamma * |frontier| under its gate). The DP
    stops before the step that would take its total past the budget, at
    the same depth lumped or not, so the returned list can be shorter than
    depth; depth 1 is free.
    """
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"the Pauli DP packs strings into 64-bit keys: n <= {MAX_QUBITS}, got {n_qubits}"
        )
    gamma = len(strings)
    dtype = np.intp if 2 * n_qubits <= DENSE_KEY_BITS else np.uint64
    term_keys = np.array([(x << n_qubits) | z for x, z in strings], dtype=dtype)
    swapped = np.array([(z << n_qubits) | x for x, z in strings], dtype=dtype)
    norms = np.abs(np.asarray(coefficients, dtype=np.float64))
    twice = 2.0 * norms
    # translation invariant: the ring shift keeps the multiset of the terms'
    # (key, |c|) exactly
    shifted = next(_rotations(term_keys, n_qubits), term_keys)
    invariant = n_qubits > 1 and sorted(zip(shifted.tolist(), norms.tolist())) == sorted(
        zip(term_keys.tolist(), norms.tolist()))
    acc, lumped = None, False
    moves, count = [(term_keys, norms)], gamma
    alphas, spent = [], 0
    while True:
        if _dense_level(n_qubits, count):
            acc = np.empty(1 << 2 * n_qubits) if acc is None else acc
            acc.fill(-0.0)
            for moved, added in moves:
                np.add.at(acc, moved, added)
            keys, weights = _reached(acc)
        else:
            parts, pending = [], 0
            for part in moves:
                parts.append(part)
                pending += part[0].size
                if pending > _FOLD:
                    parts, pending = [_fold(parts)], 0
            keys, weights = _fold(parts)
        alphas.append(float(weights.sum()))
        if len(alphas) >= depth:
            break
        if lumped:  # a key stands for its orbit: n over the rotations fixing it
            fixed = 1 + sum(r == keys for r in _rotations(keys, n_qubits))
            spent += gamma * int((n_qubits // fixed).sum())
        else:
            spent += gamma * keys.size
        if spent > budget:
            break
        if invariant and not lumped and gamma * keys.size > _LUMP:
            lumped = True
            keys, weights = _fold([(_least_rotation(keys, n_qubits), weights)])
        if len(alphas) == depth - 1:  # the deepest level: summed, not built
            alphas.append(_summed_level(keys, weights, swapped, twice, n_qubits))
            break
        moves, count = _moves(keys, weights, term_keys, swapped, twice), gamma * keys.size
        if lumped:
            moves = ((_least_rotation(moved, n_qubits), added) for moved, added in moves)
    return alphas
