"""Benchmark Hamiltonian families as explicit ordered term lists.

Builders produce sums of single Pauli-string terms with deterministic term
order (product-formula output depends on it). Every term is a PauliTerm:
the stage kernels, the commutator DP and the model file format all read
its (x, z) masks and coefficient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pauli

__all__ = [
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

    def __post_init__(self) -> None:
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        for site, letter in self.paulis.items():
            if not 0 <= site < self.n_qubits:
                raise ValueError(f"site {site} outside [0, {self.n_qubits})")
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")
        object.__setattr__(self, "paulis", dict(self.paulis))

    @property
    def norm(self) -> float:
        """Spectral norm; Pauli strings are unitary so it is |coefficient|."""
        return abs(self.coefficient)

    def masks(self) -> tuple[int, int]:
        return pauli.masks_from_sites(self.paulis)

    def dense(self) -> np.ndarray:
        x, z = self.masks()
        return self.coefficient * pauli.dense_string(x, z, self.n_qubits)


@dataclass(frozen=True)
class HamiltonianSum:
    """Ordered sum H = sum_gamma H_gamma on an n-qubit space.

    ``grouping`` holds one label tuple per term (site multi-indices); it is
    part of the model file format.

    The sum also owns every piece of per-model data the kernels reuse:
    the terms' stage actions, the eigendecomposition of the dense sum and
    the Pauli DP runs. Each is built on first use and lives as long as the
    model does.
    """

    n_qubits: int
    terms: tuple
    grouping: tuple | None = None
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
        if self.grouping is not None and len(self.grouping) != len(self.terms):
            raise ValueError("grouping length must match term count")
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.grouping is not None:
            object.__setattr__(
                self, "grouping", tuple(tuple(g) for g in self.grouping)
            )

    @property
    def gamma(self) -> int:
        """Number of terms."""
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def stage_actions(self) -> tuple:
        """(perm, phases) of every term's Pauli string, in term order
        (pauli.string_action): P|b> = phases[b] |perm[b]>."""
        return tuple(pauli.string_action(*t.masks(), self.n_qubits) for t in self.terms)

    @cached_property
    def eigh(self) -> tuple:
        """(eigenvalues, eigenvectors) of the dense sum."""
        return np.linalg.eigh(self.dense())

    def term_matrices(self) -> list[np.ndarray]:
        """Dense matrices of the terms, built on every call."""
        return [t.dense() for t in self.terms]

    def dense(self) -> np.ndarray:
        """Dense matrix of the full sum, accumulated in term order from the
        stage actions without forming any term matrix."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        cols = np.arange(self.dim)
        for term, (perm, phases) in zip(self.terms, self.stage_actions):
            out[perm, cols] += term.coefficient * phases
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
    labels = []
    for j in bonds:
        a, b = j, (j + 1) % n
        for letter in "XYZ":
            terms.append(PauliTerm(n, 1.0, {a: letter, b: letter}))
            labels.append((a, b))
    return HamiltonianSum(n, tuple(terms), tuple(labels))


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
    labels = []
    for i in range(n):
        terms.append(PauliTerm(n, 1.0, {i: letters[rng.integers(3)]}))
        labels.append((i,))
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
            labels.append((i, j))
    return HamiltonianSum(n, tuple(terms), tuple(labels))


def one_norm(h: HamiltonianSum) -> float:
    """Sum of per-term spectral norms."""
    return float(sum(t.norm for t in h.terms))


def to_model_json(h: HamiltonianSum, meta: dict | None = None) -> str:
    """Serialize as a model descriptor; round-trips losslessly."""
    body: dict = {"model": "custom", "n": h.n_qubits}
    if meta:
        body.update(meta)
    body["terms"] = [
        {
            "n_qubits": t.n_qubits,
            "coefficient": t.coefficient,
            "paulis": {str(k): v for k, v in sorted(t.paulis.items())},
        }
        for t in h.terms
    ]
    if h.grouping is not None:
        body["grouping"] = [list(g) for g in h.grouping]
    return json.dumps(body, indent=2, sort_keys=True)


def from_model_json(text: str) -> HamiltonianSum:
    """Build a HamiltonianSum from a model descriptor.

    Named models (``heisenberg1d``, ``power_law``) are rebuilt from their
    parameters; ``custom`` models carry explicit terms.
    """
    body = json.loads(text)
    kind = body.get("model", "custom")
    if kind == "heisenberg1d":
        return heisenberg_1d(int(body["n"]), bool(body.get("periodic", True)))
    if kind == "power_law":
        return power_law_lattice(
            int(body["n"]),
            int(body.get("d", 1)),
            float(body.get("alpha", 0.0)),
            int(body.get("seed", 0)),
        )
    if kind != "custom":
        raise ValueError(f"unknown model kind {kind!r}")
    terms = tuple(
        PauliTerm(
            int(spec["n_qubits"]),
            float(spec["coefficient"]),
            {int(k): str(v) for k, v in spec["paulis"].items()},
        )
        for spec in body["terms"]
    )
    grouping = None
    if "grouping" in body:
        grouping = tuple(tuple(g) for g in body["grouping"])
    return HamiltonianSum(int(body["n"]), terms, grouping)
