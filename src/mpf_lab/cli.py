"""Command-line front end.

Subcommands: scheme, commutators, convergence, benchmark, bch-verify.
Flags can also be supplied through --config (a JSON object with the same
long option names, underscores for dashes); explicit flags win over config
values, config values win over defaults, and unknown config keys are
usage errors. Exit codes: 0 success, 2 usage, 3 resource or budget,
4 numeric premise violation.

All outputs are deterministic byte-for-byte for a fixed configuration:
reductions are ordered sums and serialization sorts its keys, so repeated
runs diff clean.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import bch, commutators, experiments, formulas, mpf, operators
from .hamiltonians import (
    HamiltonianSum,
    PauliTerm,
    from_model_json,
    heisenberg_1d,
    power_law_lattice,
)

__all__ = ["RunConfig", "main"]


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters for one subcommand run."""

    command: str
    params: dict
    seed: int
    output_path: str | None


# Long option names (underscored) each subcommand accepts, with defaults.
# None means "must be provided" only where validation below says so.
_COMMON = {
    "seed": 0,
    "output": None,
    "config": None,
}
_MODEL = {
    "model": "heisenberg",
    "model_file": None,
    "n": 3,
    "periodic": True,
    "d": 1,
    "alpha": 1.0,
}
_SCHEMAS = {
    "scheme": {**_COMMON, "m": None, "base": 2, "strategy": "natural"},
    "commutators": {
        **_COMMON,
        **_MODEL,
        "m": 1,
        "j_cap": None,
        "variant": "second_order",
        "budget": commutators.DEFAULT_BUDGET,
        "method": "pauli",
        "allow_capped": False,
    },
    "convergence": {
        **_COMMON,
        **_MODEL,
        "evolver": "u2",
        "p": None,
        "m": 1,
        "dt_grid": None,
        "points": 6,
        "ratio": 2.0,
        "start": 0.8,
    },
    "benchmark": {
        **_COMMON,
        "n_list": "",
        "m_list": "1,2,3,4,5",
        "eps": 1e-3,
        "format": "csv",
        "theory_only": False,
        "periodic": True,
    },
    "bch-verify": {**_COMMON, **_MODEL, "k_max": 5, "s": 0.05},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpf-lab",
        description="Numerical laboratory for multi-product formula simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--config", default=None, help="JSON file with these options")

    def add_model(p):
        p.add_argument(
            "--model",
            choices=["heisenberg", "power_law", "commuting"],
            default=None,
        )
        p.add_argument("--model-file", default=None, help="model JSON file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument(
            "--periodic", action=argparse.BooleanOptionalAction, default=None
        )
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("scheme", help="solve the order condition")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--strategy", choices=["natural", "min_a_norm"], default=None)
    add_common(p)

    p = sub.add_parser("commutators", help="alpha table and mu report")
    add_model(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--j-cap", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--method", choices=["auto", "pauli", "dense"], default=None)
    p.add_argument(
        "--allow-capped", action=argparse.BooleanOptionalAction, default=None
    )
    add_common(p)

    p = sub.add_parser("convergence", help="one-step order study")
    add_model(p)
    p.add_argument("--evolver", choices=["u1", "u2", "u2p", "mpf"], default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--dt-grid", default=None, help="comma-separated steps")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--start", type=float, default=None)
    add_common(p)

    p = sub.add_parser("benchmark", help="chain-length scaling benchmark")
    p.add_argument("--n-list", default=None, help="comma-separated lengths")
    p.add_argument("--m-list", default=None, help="comma-separated half-orders")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument(
        "--theory-only", action=argparse.BooleanOptionalAction, default=None
    )
    p.add_argument(
        "--periodic", action=argparse.BooleanOptionalAction, default=None
    )
    add_common(p)

    p = sub.add_parser("bch-verify", help="expansion terms and bounds")
    add_model(p)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--s", type=float, default=None)
    add_common(p)

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    schema = _SCHEMAS[command]
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(file_values) - set(schema)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for key, default in schema.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            params[key] = cli_value
        elif key in file_values:
            params[key] = file_values[key]
        else:
            params[key] = default
    seed = int(params.pop("seed"))
    output = params.pop("output")
    params.pop("config")
    return RunConfig(command, params, seed, output)


def _build_model(config: RunConfig) -> HamiltonianSum:
    p = config.params
    if p.get("model_file"):
        try:
            with open(p["model_file"], "r", encoding="utf-8") as fh:
                return from_model_json(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"cannot load model file: {exc}") from exc
    n = int(p["n"])
    kind = p["model"]
    if kind == "heisenberg":
        return heisenberg_1d(n, periodic=bool(p["periodic"]))
    if kind == "power_law":
        return power_law_lattice(n, int(p["d"]), float(p["alpha"]), config.seed)
    if kind == "commuting":
        if n < 1:
            raise UsageError("commuting model needs n >= 1")
        terms = [PauliTerm(n, 1.0, {i: "Z"}) for i in range(n)]
        return HamiltonianSum(n, tuple(terms), tuple((i,) for i in range(n)))
    raise UsageError(f"unknown model {kind!r}")


def _dump(body) -> str:
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def cmd_scheme(config: RunConfig) -> str:
    p = config.params
    if p["m"] is None:
        raise UsageError("scheme needs --m")
    m, base = int(p["m"]), int(p["base"])
    if m < 1:
        raise UsageError("m must be >= 1")
    powers = mpf.power_schedule(m, p["strategy"], base)
    scheme = mpf.solve_order_condition(powers, m, base)
    body = json.loads(mpf.scheme_to_json(scheme))
    body["residual"] = scheme.residual()
    return _dump(body)


def cmd_commutators(config: RunConfig) -> str:
    p = config.params
    m = int(p["m"])
    if m < 1:
        raise UsageError("m must be >= 1")
    j_cap = p["j_cap"] if p["j_cap"] is not None else 2 * m + 8
    j_cap = int(j_cap)
    h = _build_model(config)
    # "auto" is kept as a spelling of the Pauli DP, the only fast path
    method = "pauli" if p["method"] == "auto" else p["method"]
    table = commutators.build_table(h, j_cap + 1, budget=int(p["budget"]), method=method)
    if table.mode == "capped" and not p["allow_capped"]:
        raise commutators.BudgetExceededError(
            "table is capped; pass --allow-capped to accept the envelope"
        )
    report = commutators.mu_m(table, m, j_cap=j_cap, variant=p["variant"])
    radius = commutators.convergence_radius(table)
    body = {
        "table": json.loads(commutators.table_to_json(table)),
        "mu": asdict(report),
        # strict JSON has no Infinity; a commuting family has no finite radius
        "radius": radius if math.isfinite(radius) else None,
    }
    return _dump(body)


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc


def cmd_convergence(config: RunConfig) -> str:
    p = config.params
    h = _build_model(config)
    evolver = p["evolver"]
    scheme = None
    if evolver == "mpf":
        m = int(p["m"])
        if m < 1:
            raise UsageError("m must be >= 1")
        scheme = mpf.solve_order_condition(mpf.power_schedule(m), m)
    grid = _parse_grid(p["dt_grid"]) if p["dt_grid"] else None
    try:
        if grid is None:
            grid = experiments.default_dt_grid(
                h,
                evolver,
                p["p"],
                scheme,
                points=int(p["points"]),
                ratio=float(p["ratio"]),
                start=float(p["start"]),
            )
        study = experiments.convergence_study(h, evolver, grid, p["p"], scheme)
    except experiments.DegenerateGridError as exc:
        raise UsageError(str(exc)) from exc
    lines = ["dt,error,fitted_slope,r_squared,exact"]
    for dt, err in zip(study.dt_grid, study.errors):
        lines.append(
            f"{dt!r},{err!r},{study.fitted_slope!r},"
            f"{study.r_squared!r},{int(study.exact)}"
        )
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}") from exc


def cmd_benchmark(config: RunConfig) -> str:
    p = config.params
    m_list = _parse_int_list(p["m_list"], "m list")
    if not m_list or any(m < 1 for m in m_list):
        raise UsageError("m list must be positive integers")
    if p["theory_only"]:
        theory = [
            {"m": m, "theory_exponent": 4.0 / 3.0 + 2.0 / (3.0 * m)}
            for m in sorted(set(m_list))
        ]
        return _dump({"limit_exponent": 4.0 / 3.0, "theory": theory})
    n_list = _parse_int_list(p["n_list"], "n list")
    if len(n_list) < 3:
        raise UsageError("need at least 3 chain lengths")
    eps = float(p["eps"])
    if not 0 < eps < 1:
        raise UsageError("eps must be in (0,1)")
    results = experiments.heisenberg_benchmark(
        n_list, m_list, eps, periodic=bool(p["periodic"])
    )
    if p["format"] == "json":
        payload = {
            "limit_exponent": 4.0 / 3.0,
            "results": [asdict(r) for r in results],
        }
        return _dump(payload)
    return experiments.report_emit(results)


def cmd_bch_verify(config: RunConfig) -> str:
    p = config.params
    h = _build_model(config)
    k_max = int(p["k_max"])
    s = float(p["s"])
    if k_max < 1 or k_max > bch.WORD_DEPTH_CAP:
        raise UsageError(f"k_max must be in [1, {bch.WORD_DEPTH_CAP}]")
    if s <= 0:
        raise UsageError("s must be positive")
    big_k = k_max if k_max % 2 == 1 else k_max - 1
    reports, generator = bch.symmetric_bch_terms(h, range(2, k_max + 1), s, big_k)
    terms = [
        {
            "k": report.k,
            "norm": report.norm,
            "bound": report.bound,
            "structurally_zero": report.structurally_zero,
            "converged_premise": report.converged_premise,
            "bound_satisfied": report.norm <= report.bound + 1e-9,
        }
        for report in reports
    ]
    residual = operators.spectral_norm(
        formulas.trotter_u2(h, s).matrix
        - operators.matrix_exponential(generator).matrix
    )
    body = {
        "K": big_k,
        "s": s,
        "generator_residual": float(residual),
        "terms": terms,
    }
    return _dump(body)


_DISPATCH = {
    "scheme": cmd_scheme,
    "commutators": cmd_commutators,
    "convergence": cmd_convergence,
    "benchmark": cmd_benchmark,
    "bch-verify": cmd_bch_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        output = _DISPATCH[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (commutators.BudgetExceededError, experiments.InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        bch.ConvergenceRiskError,
        experiments.PremiseViolatedError,
        operators.NotAntiHermitianError,
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
