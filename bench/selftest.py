"""Self-test of the benchmark's checks, on tiny inputs, in a few seconds.

    python3 bench/selftest.py

Each check must accept the program's real output and reject the same
output with one value perturbed: a check that cannot fail proves nothing.
Each rejection must come from the check the case targets, matched by its
message. Last, a traced call must yield every per-layer metric that
BENCHMARK.json declares.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import numpy as np
import scipy.linalg

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from mpf_lab import cli  # noqa: E402

CHAIN_N, CHAIN_M, CHAIN_EPS = [3, 4, 5], [1, 2], 1e-2


def run_cli(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
    return json.loads(out.getvalue())


def expect(name: str, check, body: dict, rejects: str | None) -> None:
    """Run check on body; rejects is None for must-pass, else a substring
    of the CheckError message the case must raise."""
    try:
        check(json.dumps(body))
    except checks.CheckError as exc:
        if rejects is not None and rejects in str(exc):
            print(f"ok   {name}: rejected ({exc})")
            return
        raise SystemExit(f"FAIL {name}: unexpected rejection: {exc}") from None
    if rejects is not None:
        raise SystemExit(f"FAIL {name}: perturbed output accepted")
    print(f"ok   {name}: accepted")


def perturbed(body: dict, edit) -> dict:
    out = copy.deepcopy(body)
    edit(out)
    return out


def commutator_cases(tmp: str) -> None:
    heis = checks.heisenberg_terms(4)
    power, grouping = workloads.power_law_terms(4, 2.0, seed=3)
    path = os.path.join(tmp, "power-law.json")
    workloads.write_model(path, 4, power, grouping)
    for label, argv, terms in (
        ("heisenberg", ["--model", "heisenberg", "--n", "4"], heis),
        ("power-law", ["--model-file", path], power),
    ):
        j_cap = 6
        body = run_cli(["commutators", *argv, "--j-cap", str(j_cap)])

        def check(text, terms=terms):
            checks.check_commutators(text, terms, 4, j_cap)

        def scale(j, factor):
            def edit(b):
                b["table"]["alpha"][str(j)] *= factor
            return edit

        expect(f"{label} table", check, body, None)
        expect(f"{label} alpha_1 +1e-6", check,
               perturbed(body, scale(1, 1 + 1e-6)), "sum |c|")
        expect(f"{label} alpha_2 -1e-6", check,
               perturbed(body, scale(2, 1 - 1e-6)), "pair sum")
        expect(f"{label} alpha_{j_cap + 1} +1e-6", check,
               perturbed(body, scale(j_cap + 1, 1 + 1e-6)), "recurrence")
        expect(f"{label} capped mode", check,
               perturbed(body, lambda b: b["table"].update(mode="capped")),
               "mode")
        expect(f"{label} mu_m above mu_upper", check,
               perturbed(body, lambda b: b["mu"].update(
                   mu_m=1.01 * b["mu"]["mu_upper"])), "mu_upper")
        alpha = body["table"]["alpha"]
        limit = min(alpha[str(j)] ** (-1.0 / j) for j in range(2, j_cap + 2))
        expect(f"{label} radius outside", check,
               perturbed(body, lambda b: b.update(radius=1.01 * limit)),
               "radius")


def _set_r(body: dict, m: int, n: int, r: int, error: float | None) -> None:
    """Give one cell segment count r, keeping queries and the fit consistent."""
    res = next(x for x in body["results"] if x["m"] == m)
    for cell in res["cells"]:
        if cell["n"] == n:
            cell["r"] = r
            cell["queries"] = float(r * m * (m + 1) // 2)
            if error is not None:
                cell["error"] = error
    res["query_counts"] = [c["queries"] for c in res["cells"]]
    res["fitted_exponent"] = float(np.polyfit(
        np.log(res["n_values"]), np.log(res["query_counts"]), 1)[0])


def chain_cases() -> None:
    body = run_cli(["benchmark", "--n-list", ",".join(map(str, CHAIN_N)),
                    "--m-list", ",".join(map(str, CHAIN_M)),
                    "--eps", repr(CHAIN_EPS), "--format", "json"])

    def check(text):
        checks.check_chain(text, CHAIN_N, CHAIN_M, CHAIN_EPS, tuple(CHAIN_N))

    expect("chain", check, body, None)
    m, n = 2, 4
    cell = next(c for res in body["results"] if res["m"] == m
                for c in res["cells"] if c["n"] == n)
    r = cell["r"]
    expect("chain r - 1, error kept", check,
           perturbed(body, lambda b: _set_r(b, m, n, r - 1, None)),
           "recomputed")
    mats = [checks.term_matrix(t, n) for t in checks.heisenberg_terms(n)]
    target = scipy.linalg.expm(-1j * n * sum(mats))
    above = checks.powered_error(mats, target, float(n), r + 1, [1, 2])
    expect("chain r + 1, error recomputed", check,
           perturbed(body, lambda b: _set_r(b, m, n, r + 1, above)),
           "already meets eps")
    expect("chain error above eps", check,
           perturbed(body, lambda b: _set_r(b, m, n, r, 1.01 * CHAIN_EPS)),
           "error")
    expect("chain queries off by one segment", check,
           perturbed(body, lambda b: b["results"][0]["cells"][0].update(
               queries=b["results"][0]["cells"][0]["queries"] + 1.0)),
           "queries")
    expect("chain fitted exponent shifted", check,
           perturbed(body, lambda b: b["results"][0].update(
               fitted_exponent=b["results"][0]["fitted_exponent"] + 1e-6)),
           "refit")


def bch_cases(tmp: str) -> None:
    n, k_max, s = 2, 5, 0.05
    terms, grouping = workloads.power_law_terms(n, 2.0, seed=5)
    path = os.path.join(tmp, "bch-model.json")
    workloads.write_model(path, n, terms, grouping)
    body = run_cli(["bch-verify", "--model-file", path, "--k-max", str(k_max),
                    "--s", repr(s)])

    def check(text):
        checks.check_bch(text, terms, n, k_max, s)

    def term(b, k):
        return next(t for t in b["terms"] if t["k"] == k)

    expect("bch", check, body, None)
    expect("bch k=5 norm above bound", check,
           perturbed(body, lambda b: term(b, 5).update(
               norm=1.01 * term(b, 5)["bound"])), "above bound")
    expect("bch k=3 norm +1e-5", check,
           perturbed(body, lambda b: term(b, 3).update(
               norm=(1 + 1e-5) * term(b, 3)["norm"])), "logm")
    expect("bch k=4 nonzero", check,
           perturbed(body, lambda b: term(b, 4).update(norm=1e-12)),
           "even term")
    expect("bch k=3 bound +1e-6", check,
           perturbed(body, lambda b: term(b, 3).update(
               bound=(1 + 1e-6) * term(b, 3)["bound"])), "bound")


def layer_names_case() -> None:
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = layers.Tracer()
    tracer.install()
    run_cli(["commutators", "--model", "heisenberg", "--n", "3", "--j-cap", "4"])
    counters = tracer.take_round()
    missing = [name for name in declared if name not in counters]
    if missing:
        raise SystemExit(f"FAIL traced metrics missing: {missing}")
    if counters["pauli.commutator_weight_table.levels"] != 15:
        raise SystemExit("FAIL levels counter: "
                         f"{counters['pauli.commutator_weight_table.levels']}")
    print(f"ok   traced run reports all {len(declared)} per-layer metrics")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        commutator_cases(tmp)
        chain_cases()
        bch_cases(tmp)
    layer_names_case()
    return 0


if __name__ == "__main__":
    sys.exit(main())
