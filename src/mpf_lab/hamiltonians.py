"""Benchmark Hamiltonian families as explicit ordered term lists.

Builders produce sums of single Pauli-string terms with deterministic term
order (product-formula output depends on it). Every term is a PauliTerm:
the stage kernels, the commutator DP and the model file format all read
its (x, z) masks and coefficient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pauli

__all__ = [
    "Block",
    "HamiltonianSum",
    "NotLatticeError",
    "PauliTerm",
    "TooSmallError",
    "from_model_json",
    "heisenberg_1d",
    "one_norm",
    "power_law_lattice",
    "to_model_json",
]


# Smaller blocks cost more in call overhead than they save, so they share bins
# (HamiltonianSum.blocks). Best of 21 on 2 vCPUs (numpy 2.4, OpenBLAS) at
# 32 / 16 / 8 / 1, measured with the error blocks: `chain-scaling` 35 / 31 / 33 /
# 35 ms, within noise; `convergence --model commuting --n 8` 12 / 13 / 20 / 99 ms.
MIN_BLOCK_DIM = 32
# A complex SVD keeps its bits under 1 and 2 OpenBLAS threads up to dim 65 only
# (numpy 2.4), so no bin is larger than this.
BIN_DIM = 64


class TooSmallError(ValueError):
    """System size below the builder's minimum."""


class NotLatticeError(ValueError):
    """Site count is not a perfect d-th power."""


@dataclass(frozen=True)
class PauliTerm:
    """coefficient * (Pauli string), identity on unlisted sites."""

    n_qubits: int
    coefficient: float
    paulis: dict[int, str]
    _masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        for site, letter in self.paulis.items():
            if not 0 <= site < self.n_qubits:
                raise ValueError(f"site {site} outside [0, {self.n_qubits})")
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")
        object.__setattr__(self, "paulis", dict(self.paulis))
        object.__setattr__(self, "_masks", pauli.masks_from_sites(self.paulis))

    @property
    def norm(self) -> float:
        """Spectral norm; Pauli strings are unitary so it is |coefficient|."""
        return abs(self.coefficient)

    def masks(self) -> tuple[int, int]:
        """The (x, z) masks, computed once at construction."""
        return self._masks


@dataclass(frozen=True)
class HamiltonianSum:
    """Ordered sum H = sum_gamma H_gamma on an n-qubit space.

    The sum also owns every piece of per-model data the kernels reuse:
    whether every term is real symmetric, the runs of terms fused into one
    gate, the whole space as a Block (with its phase table, fused gates and
    eigendecomposition), the invariant blocks and the Pauli DP runs. Each
    is built on first use and lives as long as the model does.
    """

    n_qubits: int
    terms: tuple
    # budget -> (alpha[1..k], whether the budget stopped the run short)
    _dp_runs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.terms) < 1:
            raise ValueError("need at least one term")
        for term in self.terms:
            if not isinstance(term, PauliTerm):
                raise TypeError(f"terms must be PauliTerm, got {type(term).__name__}")
            if term.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term on {term.n_qubits} qubits in a {self.n_qubits}-qubit sum"
                )
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def gamma(self) -> int:
        """Number of terms."""
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def whole(self) -> "Block":
        """The whole space as one Block, each state its own basis vector. A
        HamiltonianSum given to formulas.evaluate_spec or
        experiments.exact_evolution stands for it."""
        every = np.arange(self.dim)
        return Block(self, every, every, np.ones(self.dim), 1)

    @cached_property
    def real_symmetric(self) -> bool:
        """Whether every term is a real symmetric matrix: each Pauli
        string has an even number of Y letters (P^T = (-1)^#Y P), so every
        stage exp(-i theta P) is complex symmetric
        (formulas.evaluate_spec)."""
        strings = (t.masks() for t in self.terms)
        return all((x & z).bit_count() % 2 == 0 for x, z in strings)

    @cached_property
    def runs(self) -> tuple:
        """Term indices in maximal runs of consecutive, mutually commuting
        terms whose x masks are 0 or one shared x: a weighted sum of a run
        maps state b to b and b ^ x only, so its exponential is one gate."""
        out, s = [[]], [t.masks() for t in self.terms]
        for i, (x, z) in enumerate(s):
            if x not in (0, max((s[j][0] for j in out[-1]), default=0) or x) or any(
                ((x & s[j][1]) ^ (z & s[j][0])).bit_count() & 1 for j in out[-1]
            ):
                out.append([])
            out[-1].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def blocks(self) -> tuple:
        """Subspaces every run keeps, so every fused run, formula, U_MP^r
        and exp(-iHt) is block diagonal in them (just self.whole if no
        smaller one is kept): the components of the graph joining b and
        b ^ x where a run with x mask x moves b. An X-string commuting with
        every term (pauli.x_symmetries) maps a component onto one of equal
        norms; the one with the smallest state is kept and split into the
        joint eigenspaces of the X-strings mapping it onto itself. Blocks of
        equal copies share a bin until it holds MIN_BLOCK_DIM states, within
        BIN_DIM."""
        return self._blocks(False)

    @cached_property
    def error_blocks(self) -> tuple:
        """The blocks the error paths measure. If every run's generator
        commutes with sum_i X_i and sum_i Z_i, and so with total spin S, every
        operator they form is (+)_S I_(2S+1) (x) E_S and the states of
        popcount floor(n/2) hold every E_S: only the orbits holding such a
        state are kept. Otherwise these are the blocks. The check is exact:
        on each string R the math.fsum of the +-c with P q = +-iR (P a
        run's term, q a letter on its support) is 0, and an exact sum that
        is not 0 does not round to 0."""
        for run in self.runs:
            parts: dict = {}  # (q, R) -> the +-c
            for term in (self.terms[t] for t in run):
                for site, letter in term.paulis.items():
                    for q in "XZ".replace(letter, ""):  # anticommuting with letter
                        rest = "XYZ".replace(letter, "").replace(q, "")
                        r = frozenset({**term.paulis, site: rest}.items())
                        sign = 1 if letter + q in "XYZX" else -1  # XY = iZ, YX = -iZ
                        parts.setdefault((q, r), []).append(sign * term.coefficient)
            if any(math.fsum(v) for v in parts.values()):
                return self.blocks
        return self._blocks(True)

    def _blocks(self, middle: bool) -> tuple:
        """blocks, or with middle only the orbits holding a state of
        popcount floor(n/2) (error_blocks)."""
        dim, every = self.dim, np.arange(self.dim)
        _, _, moved = self.whole.generators
        label, old = every, None
        while not np.array_equal(label, old):  # to the smallest joined state
            old, label = label, np.minimum(label, label[moved].min(axis=0))
            label = label[label]
        group = np.zeros(1, dtype=label.dtype)
        for x in pauli.x_symmetries([t.masks() for t in self.terms], self.n_qubits):
            group = np.concatenate([group, group ^ x])
        comps, counts = np.unique(label, return_counts=True)
        images = label[comps[:, None] ^ group]  # of each component under each X-string
        members = np.split(np.argsort(label, kind="stable"), np.cumsum(counts)[:-1])
        parts = []  # (states, basis states, basis vector of each, signs, copies)
        keep = images.min(axis=1) == comps
        if middle:  # an image of the component holds a popcount floor(n/2) state
            mid = label[np.bitwise_count(every) == self.n_qubits // 2]
            keep &= np.isin(images, mid).any(axis=1)
        for k in np.flatnonzero(keep).tolist():
            cs, basis = members[k], []  # basis: the stabilizer's, no top bit set twice
            for g in group[images[k] == comps[k]].tolist():
                for b in basis:
                    g = min(g, g ^ b)
                if g:
                    basis = [min(b, b ^ g) for b in basis] + [g]
            copies = len(group) >> len(basis)
            if not basis or len(cs) >> len(basis) < MIN_BLOCK_DIM:
                # one part: no stabilizer, or its parts would be packed again
                parts.append((cs, cs, np.arange(len(cs)), np.ones(len(cs)), copies))
                continue
            tops = [1 << b.bit_length() - 1 for b in basis]
            rep = np.bitwise_xor.reduce(
                [cs, *(np.where(cs & top, b, 0) for b, top in zip(basis, tops))])
            reps = np.unique(rep)
            for char in range(1 << len(basis)):
                a = sum(top for i, top in enumerate(tops) if char >> i & 1)
                signs = 1.0 - 2.0 * (np.bitwise_count(cs & a) & 1)
                parts.append((cs, reps, np.searchsorted(reps, rep), signs, copies))
        bins, sizes, small = [], [], {}  # small: copies -> the bin still filling
        for part in parts:
            size, copies = len(part[1]), part[4]
            i = small.get(copies)
            if i is None or sizes[i] >= MIN_BLOCK_DIM or sizes[i] + size > BIN_DIM:
                i = small[copies] = len(bins)
                bins.append([])
                sizes.append(0)
            bins[i].append(part)
            sizes[i] += size
        if sizes == [dim]:
            return (self.whole,)
        blocks = []
        for packed in bins:
            pos, sign, states = np.full(dim, -1), np.ones(dim), np.zeros(0, dtype=int)
            for cs, reps, local, signs, _ in packed:
                pos[cs], sign[cs] = len(states) + local, signs
                states = np.concatenate([states, reps])
            blocks.append(Block(self, states, pos, sign, packed[0][4]))
        return tuple(blocks)

    def dense(self) -> np.ndarray:
        """Dense matrix of the full sum, accumulated in term order from the
        whole space's phase table (Block.entries) without forming any term
        matrix."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        cols = np.arange(self.dim)
        x = np.array([t.masks()[0] for t in self.terms])[:, None]
        np.add.at(out, (cols ^ x, cols), self.whole.entries)
        return out

    def commutator_weights(self, depth: int, budget: int) -> list[float]:
        """Exact alpha[1..k] from one Pauli DP run
        (pauli.commutator_weight_table), k <= depth as far as the budget
        reaches.

        Runs are kept per budget: a run the budget stopped short answers
        every deeper request at that budget too.
        """
        alphas, stopped = self._dp_runs.get(budget, ([], False))
        if len(alphas) < depth and not stopped:
            alphas = pauli.commutator_weight_table(
                [t.masks() for t in self.terms],
                [t.coefficient for t in self.terms],
                depth,
                self.n_qubits,
                budget,
            )
            self._dp_runs[budget] = (alphas, len(alphas) < depth)
        return alphas[:depth]


class Block:
    """A subspace every run of a sum keeps (HamiltonianSum.blocks), with
    basis vector j = sum sign[c] |c> / sqrt(#) over the states c with
    pos[c] == j (-1 off the block), states[j] one of them. copies, the
    number of equal-norm blocks in its orbit, only steers the packing into
    bins: the error paths take the largest block norm, not a sum.

    It keeps the model's terms and runs, not the model: the model caches
    its blocks, and a reference back would make each model a cycle that
    only the garbage collector frees."""

    def __init__(self, model: HamiltonianSum, states, pos, sign, copies: int) -> None:
        self.terms, self.runs = model.terms, model.runs
        self.real_symmetric = model.real_symmetric
        self.states, self.pos, self.sign = states, pos, sign
        self.copies, self.gates = copies, {}  # gates: stage list -> fused gates

    gamma = property(lambda self: len(self.terms))
    dim = property(lambda self: len(self.states))

    @cached_property
    def entries(self) -> np.ndarray:
        """The phase table, one row per term: H_t |c> = entries[t, j]
        |c ^ x_t> for each state c = states[j], with entries[t, j] =
        c_t i^y_t (-1)^popcount(c & z_t), H_t = c_t P_t and y_t the Y count
        of P_t. It is the package's only statement of a string's action:
        the fused gates (generators), dense() and the BCH letters read it."""
        x, z = np.array([t.masks() for t in self.terms]).T
        coefficients = np.array([t.coefficient for t in self.terms])
        phase = coefficients * np.array([1, 1j, -1, -1j])[np.bitwise_count(x & z) % 4]
        # the sign in float: bitwise_count is uint8, so 1 - 2 * (...) would wrap
        signs = 1.0 - 2.0 * (np.bitwise_count(self.states & z[:, None]) & 1)
        return phase[:, None] * signs

    @cached_property
    def generators(self) -> tuple:
        """(d, o, idx) of every run's generator H_k on the block, stacked
        over the runs: H_k v_j = d_j v_j + o_j v_idx[j], with o_j = 0 and
        idx[j] = j where H_k keeps v_j to itself."""
        cols = np.arange(self.dim)
        starts = [run[0] for run in self.runs]  # runs are consecutive
        x = np.array([t.masks()[0] for t in self.terms])[:, None]
        o = np.add.reduceat(np.where(x > 0, self.entries, 0), starts)
        d = np.add.reduceat(np.where(x > 0, 0, self.entries.real), starts)
        partner = self.states ^ np.maximum.reduceat(x, starts)
        idx, o = self.pos[partner], o * self.sign[partner]
        d += np.where(idx == cols, o.real, 0.0)
        moved = (o != 0) & (idx >= 0) & (idx != cols)
        return d, np.where(moved, o, 0), np.where(moved, idx, cols)

    @cached_property
    def eigh(self) -> tuple:
        """(eigenvalues, eigenvectors) of the sum on the block."""
        d, o, idx = self.generators
        h, cols = np.diag(d.sum(axis=0).astype(np.complex128)), np.arange(self.dim)
        np.add.at(h, (idx, np.broadcast_to(cols, idx.shape)), o)
        return np.linalg.eigh(h)


def heisenberg_1d(n: int, periodic: bool = True) -> HamiltonianSum:
    """1-D Heisenberg chain: XX + YY + ZZ on every bond, unit couplings.

    Bonds run j = 0..n-1 (periodic, indices mod n) or j = 0..n-2 (open);
    term order is by bond then X, Y, Z. Periodic n=2 keeps both bond copies
    as written, so the 1-norm is exactly 3n either way.

    Raises:
        TooSmallError: For n < 2.
    """
    if n < 2:
        raise TooSmallError("Heisenberg chain needs n >= 2")
    bonds = range(n) if periodic else range(n - 1)
    terms = []
    for j in bonds:
        a, b = j, (j + 1) % n
        for letter in "XYZ":
            terms.append(PauliTerm(n, 1.0, {a: letter, b: letter}))
    return HamiltonianSum(n, tuple(terms))


def power_law_lattice(n: int, d: int, alpha: float, seed: int = 0) -> HamiltonianSum:
    """Two-site couplings decaying as distance^-alpha on a d-dim square lattice.

    Every term norm saturates the defining bound exactly: single-site terms
    have coefficient 1, the pair (i, j) term has coefficient
    ||i - j||_2^-alpha. Pauli letters are drawn deterministically from the
    seed; only the norms carry meaning.

    Raises:
        NotLatticeError: If n is not a perfect d-th power.
    """
    if d < 1 or alpha < 0:
        raise NotLatticeError("need d >= 1 and alpha >= 0")
    side = round(n ** (1.0 / d))
    if side**d != n:
        raise NotLatticeError(f"{n} is not a perfect {d}-th power")
    coords = [
        tuple((s // side**axis) % side for axis in range(d)) for s in range(n)
    ]
    rng = np.random.default_rng(seed)
    letters = "XYZ"
    terms = []
    for i in range(n):
        terms.append(PauliTerm(n, 1.0, {i: letters[rng.integers(3)]}))
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(
                np.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[j])))
            )
            coeff = dist ** (-alpha) if alpha > 0 else 1.0
            terms.append(
                PauliTerm(
                    n,
                    coeff,
                    {i: letters[rng.integers(3)], j: letters[rng.integers(3)]},
                )
            )
    return HamiltonianSum(n, tuple(terms))


def one_norm(h: HamiltonianSum) -> float:
    """Sum of per-term spectral norms."""
    return float(sum(t.norm for t in h.terms))


def to_model_json(h: HamiltonianSum) -> str:
    """Serialize as the model file's term list; round-trips losslessly."""
    body = {"model": "custom", "n": h.n_qubits, "terms": [
        {
            "n_qubits": t.n_qubits,
            "coefficient": t.coefficient,
            "paulis": {str(k): v for k, v in sorted(t.paulis.items())},
        }
        for t in h.terms
    ]}
    return json.dumps(body, indent=2, sort_keys=True)


_JSON_KINDS = {int: "an integer", float: "a number", list: "a list", dict: "an object"}


def _field(body: dict, key: str, kind, where: str):
    """body[key] if it has the JSON kind asked for: an integer is widened
    where a number is asked for, and true/false is neither."""
    if key not in body:
        raise ValueError(f"{where} has no {key!r}")
    value = body[key]
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


def _object(value, keys: tuple, where: str) -> dict:
    """value if it is a JSON object with no key outside keys."""
    if type(value) is not dict:
        raise ValueError(f"{where} must be an object, got {json.dumps(value)}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return value


def _site(key: str) -> int:
    # "00" would alias "0" and drop a letter; only the canonical decimal passes
    if not (key.isascii() and key.isdigit() and key == str(int(key))):
        raise ValueError(f"paulis site must be a qubit index, got {json.dumps(key)}")
    return int(key)


def from_model_json(text: str) -> HamiltonianSum:
    """Build a HamiltonianSum from the term list to_model_json writes.

    ``model`` is absent or ``"custom"``; ``n`` and every term's ``n_qubits``
    are JSON integers, ``coefficient`` a number, ``paulis`` an object from
    qubit index (canonical decimal) to letter, and the optional
    ``grouping`` one list of integer labels per term, checked and dropped
    (no kernel reads it). Every field is checked, none is cast.

    Raises:
        ValueError: Naming the first field that is missing, unknown or of
            another kind.
    """
    body = json.loads(text)
    if type(body) is dict and body.get("model", "custom") != "custom":
        raise ValueError(
            f"model must be \"custom\" (a term list), got {json.dumps(body['model'])}"
        )
    body = _object(body, ("model", "n", "terms", "grouping"), "model")
    terms = []
    for spec in _field(body, "terms", list, "model"):
        spec = _object(spec, ("n_qubits", "coefficient", "paulis"), "term")
        terms.append(
            PauliTerm(
                _field(spec, "n_qubits", int, "term"),
                _field(spec, "coefficient", float, "term"),
                {_site(k): v for k, v in _field(spec, "paulis", dict, "term").items()},
            )
        )
    grouping = None
    if "grouping" in body:
        grouping = _field(body, "grouping", list, "model")
        for labels in grouping:
            if type(labels) is not list or any(type(q) is not int for q in labels):
                raise ValueError(
                    "grouping entry must be a list of integers, "
                    f"got {json.dumps(labels)}"
                )
    h = HamiltonianSum(_field(body, "n", int, "model"), tuple(terms))
    if grouping is not None and len(grouping) != h.gamma:
        raise ValueError("grouping length must match term count")
    return h
