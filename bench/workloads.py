"""The benchmark's workloads: the CLI call of one round, and its check.

A round is one `mpf_lab.cli.main` call; `check` receives its stdout.
Inputs depend on the seed only where the README says so (alpha-dense).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

CHAIN_N = [4, 6, 8]
CHAIN_M = [1, 2, 3]
CHAIN_EPS = 1e-3
CHAIN_REBUILD_N = (4, 6)

SPARSE_N = 9
SPARSE_J_CAP = 10

DENSE_N = 9
DENSE_ALPHA = 2.0
DENSE_J_CAP = 6

BCH_N = 3
BCH_K_MAX = 5
BCH_S = 0.05

# High enough that no table above is capped by the tuple-equivalent budget.
BUDGET = "1000000000"


@dataclass(frozen=True)
class Round:
    argv: list
    check: Callable[[str], None]


def power_law_terms(n: int, alpha: float, seed: int) -> tuple:
    """All-to-all chain: unit single-site terms and |i - j|^-alpha pair
    terms, Pauli letters drawn from the seed. Returns (terms, grouping)."""
    rng = np.random.default_rng(seed)
    terms, grouping = [], []
    for i in range(n):
        terms.append(checks.Term(1.0, {i: "XYZ"[rng.integers(3)]}))
        grouping.append([i])
    for i in range(n):
        for j in range(i + 1, n):
            letters = rng.integers(3, size=2)
            terms.append(checks.Term(float(j - i) ** -alpha,
                                     {i: "XYZ"[letters[0]], j: "XYZ"[letters[1]]}))
            grouping.append([i, j])
    return terms, grouping


def write_model(path: str, n: int, terms: list, grouping: list) -> None:
    """Model file in the CLI's custom term-list format."""
    body = {
        "model": "custom",
        "n": n,
        "terms": [
            {
                "n_qubits": n,
                "coefficient": t.coefficient,
                "paulis": {str(k): v for k, v in sorted(t.paulis.items())},
            }
            for t in terms
        ],
        "grouping": grouping,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)


def chain_scaling(seed: int, scratch: str) -> Round:
    argv = ["benchmark", "--n-list", ",".join(map(str, CHAIN_N)),
            "--m-list", ",".join(map(str, CHAIN_M)), "--eps", repr(CHAIN_EPS),
            "--format", "json"]
    return Round(argv, lambda text: checks.check_chain(
        text, CHAIN_N, CHAIN_M, CHAIN_EPS, CHAIN_REBUILD_N))


def alpha_sparse(seed: int, scratch: str) -> Round:
    argv = ["commutators", "--model", "heisenberg", "--n", str(SPARSE_N),
            "--j-cap", str(SPARSE_J_CAP), "--budget", BUDGET]
    terms = checks.heisenberg_terms(SPARSE_N)
    return Round(argv, lambda text: checks.check_commutators(
        text, terms, SPARSE_N, SPARSE_J_CAP))


def alpha_dense(seed: int, scratch: str) -> Round:
    terms, grouping = power_law_terms(DENSE_N, DENSE_ALPHA, seed)
    path = os.path.join(scratch, f"power-law-seed{seed}.json")
    write_model(path, DENSE_N, terms, grouping)
    argv = ["commutators", "--model-file", path, "--j-cap", str(DENSE_J_CAP),
            "--budget", BUDGET]
    return Round(argv, lambda text: checks.check_commutators(
        text, terms, DENSE_N, DENSE_J_CAP))


def bch_terms(seed: int, scratch: str) -> Round:
    argv = ["bch-verify", "--model", "heisenberg", "--n", str(BCH_N),
            "--k-max", str(BCH_K_MAX), "--s", repr(BCH_S)]
    terms = checks.heisenberg_terms(BCH_N)
    return Round(argv, lambda text: checks.check_bch(
        text, terms, BCH_N, BCH_K_MAX, BCH_S))


WORKLOADS = {
    "chain-scaling": chain_scaling,
    "alpha-sparse": alpha_sparse,
    "alpha-dense": alpha_dense,
    "bch-terms": bch_terms,
}
