"""Command-line front end.

Subcommands: scheme, commutators, convergence, benchmark, bch-verify.
Flags can also be supplied through --config (a JSON object with the same
long option names, underscores for dashes); explicit flags win over config
values, config values win over defaults. Unknown config keys, values the
flag would not accept and options, given by flag or config key, that the
run would not read are usage errors. Exit codes: 0 success, 2 usage,
3 resource or budget, 4 numeric premise violation.

Each handler takes the resolved options as one dict and hands the values
it reads to the library; convergence_study picks its own grid when no
--dt-grid is given.

All outputs are deterministic byte-for-byte for a fixed configuration:
reductions are ordered sums and serialization sorts its keys, so repeated
runs diff clean.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

from . import bch, commutators, experiments, formulas, mpf, operators
from .hamiltonians import (
    HamiltonianSum,
    PauliTerm,
    from_model_json,
    heisenberg_1d,
    power_law_lattice,
)

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _finite(text) -> float:
    """The kind of every real option, for flag text and --config numbers
    alike: a float that is neither nan nor infinite."""
    try:
        number = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {json.dumps(number)}"
        )
    return number


_JSON_TYPES = {
    bool: "true or false", int: "an integer", _finite: "a number", str: "a string"
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="mpf-lab",
        description="Numerical laboratory for multi-product formula simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, (kind, _, choices, text) in options.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=kind, choices=choices, help=text)
    return parser


def _config_value(key: str, value, kind, choices):
    """A --config value, checked as its flag would be: a JSON boolean for a
    switch, an integer for an int option, any finite number for a real
    option, and one of the flag's choices where it has them."""
    if kind is _finite and type(value) in (int, float):
        try:
            return kind(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config {key} {exc}") from exc
    if type(value) is not kind or (choices and value not in choices):
        expected = f"one of {list(choices)}" if choices else _JSON_TYPES[kind]
        raise UsageError(f"config {key} must be {expected}, got {json.dumps(value)}")
    return value


def _resolve_config(args: argparse.Namespace) -> tuple:
    """(command, params, output path): the run's options, each from its
    flag, its config key or its default, checked as its flag would be."""
    command = args.command
    options = _COMMANDS[command][2]
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(file_values) - set(options)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    params, given = {}, {}
    for key, (kind, default, choices, _) in options.items():
        if key in file_values:
            default = _config_value(key, file_values[key], kind, choices)
            given[key] = f"config key {key}"
        cli_value = getattr(args, key)
        if cli_value is not None:
            given[key] = "--" + key.replace("_", "-")
        params[key] = default if cli_value is None else cli_value
    unread = sorted(given[key] for key in _unread(command, params) if key in given)
    if unread:
        raise UsageError(f"not read by this run: {', '.join(unread)}")
    output = params.pop("output")
    params.pop("config")
    return command, params, output


# the model options each built-in model reads; a model file reads none
_MODEL_READS = {
    "heisenberg": {"n", "periodic"},
    "power_law": {"n", "d", "alpha", "seed"},
    "commuting": {"n"},
}


def _unread(command: str, p: dict) -> set:
    """The options a run with these values does not read."""
    unread = set()
    if "model" in p:
        reads = {"model_file"} if p["model_file"] else {"model", *_MODEL_READS[p["model"]]}
        unread |= set(_MODEL) - reads
    if command == "convergence":
        if p["dt_grid"]:
            unread |= {"points", "ratio", "start"}
        if p["evolver"] != "mpf":
            unread.add("m")
        if p["evolver"] != "u2p":
            unread.add("p")
    if command == "benchmark" and p["theory_only"]:
        unread |= {"n_list", "eps", "format", "periodic"}
    return unread


def _build_model(p: dict) -> HamiltonianSum:
    if p.get("model_file"):
        try:
            with open(p["model_file"], "r", encoding="utf-8") as fh:
                return from_model_json(fh.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load model file: {exc}") from exc
    n = p["n"]
    if p["model"] == "heisenberg":
        return heisenberg_1d(n, periodic=p["periodic"])
    if p["model"] == "power_law":
        return power_law_lattice(n, p["d"], p["alpha"], p["seed"])
    if n < 1:
        raise UsageError("commuting model needs n >= 1")
    terms = [PauliTerm(n, 1.0, {i: "Z"}) for i in range(n)]
    return HamiltonianSum(n, tuple(terms))


def _dump(body) -> str:
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def cmd_scheme(p: dict) -> str:
    if p["m"] is None:
        raise UsageError("scheme needs --m")
    powers = mpf.power_schedule(p["m"], p["strategy"], p["base"])
    scheme = mpf.solve_order_condition(powers, p["m"], p["base"])
    return _dump({
        "base_order": scheme.base_order,
        "m": scheme.half_order,
        "powers": list(scheme.powers),
        "coefficients": list(scheme.coefficients),
        "a_norm": scheme.a_norm,
        "k_norm": scheme.k_norm,
        "residual": scheme.residual(),
    })


def cmd_commutators(p: dict) -> str:
    # mu_m's checks, run before the table's DP
    _, j_cap = commutators.check_scan(p["m"], p["j_cap"], p["variant"])
    h = _build_model(p)
    table = commutators.build_table(h, j_cap + 1, budget=p["budget"])
    if table.mode == "capped" and not p["allow_capped"]:
        raise commutators.BudgetExceededError(
            "table is capped; pass --allow-capped to accept the envelope"
        )
    report = commutators.mu_m(table, p["m"], j_cap=j_cap, variant=p["variant"])
    radius = commutators.convergence_radius(table)
    alpha = {str(j): a for j, a in table.alpha.items()}
    return _dump({
        "table": {**asdict(table), "alpha": alpha},
        "mu": asdict(report),
        # strict JSON has no Infinity; a commuting family has no finite radius
        "radius": radius if math.isfinite(radius) else None,
    })


def _parse_grid(text: str) -> tuple:
    try:
        grid = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc
    if not all(math.isfinite(dt) for dt in grid):
        raise UsageError(f"dt_grid must be finite numbers, got {text!r}")
    return grid


def cmd_convergence(p: dict) -> str:
    h = _build_model(p)
    evolver = p["evolver"]
    if evolver == "mpf":
        scheme = mpf.solve_order_condition(mpf.power_schedule(p["m"]), p["m"])
    else:
        if evolver == "u2p" and p["p"] is None:
            raise UsageError("u2p evolver needs p")
        if evolver == "u2p" and p["p"] < 1:
            raise UsageError("p must be >= 1")
        # a product formula of order q is the one-term scheme
        order = 2 * p["p"] if evolver == "u2p" else {"u1": 1, "u2": 2}[evolver]
        scheme = mpf.solve_order_condition([1], 1, order)
    grid = _parse_grid(p["dt_grid"]) if p["dt_grid"] else None
    try:
        study = experiments.convergence_study(
            h, scheme, grid, points=p["points"], ratio=p["ratio"], start=p["start"]
        )
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


def cmd_benchmark(p: dict) -> str:
    m_list = _parse_int_list(p["m_list"], "m list")
    if not m_list or any(m < 1 for m in m_list):
        raise UsageError("m list must be positive integers")
    if p["theory_only"]:
        theory = [
            {"m": m, "theory_exponent": experiments.theory_exponent(m)}
            for m in sorted(set(m_list))
        ]
        return _dump({"limit_exponent": experiments.LIMIT_EXPONENT, "theory": theory})
    n_list = _parse_int_list(p["n_list"], "n list")
    results = experiments.heisenberg_benchmark(
        n_list, m_list, p["eps"], periodic=p["periodic"]
    )
    if p["format"] == "json":
        return _dump({
            "limit_exponent": experiments.LIMIT_EXPONENT,
            "results": [asdict(r) for r in results],
        })
    return experiments.report_emit(results)


def cmd_bch_verify(p: dict) -> str:
    h = _build_model(p)
    k_max, s = p["k_max"], p["s"]
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
    u2 = formulas.evaluate_spec(h, s, formulas.build_spec(2, h.gamma))
    residual = operators.spectral_norm(u2 - operators.matrix_exponential(generator))
    body = {
        "K": big_k,
        "s": s,
        "generator_residual": float(residual),
        "terms": terms,
    }
    return _dump(body)


# Each subcommand's handler, help line and options: underscored long name
# -> (type, default, choices, help). The parser is built from these tables
# and --config values pass the same type and choice checks as flags. A None
# default means "must be provided" only where a handler above says so.
_COMMON = {
    "output": (str, None, None, "write here instead of stdout"),
    "config": (str, None, None, "JSON file with these options"),
}
_MODEL = {
    "model": (str, "heisenberg", ("heisenberg", "power_law", "commuting"), None),
    "model_file": (str, None, None, "model JSON file"),
    "n": (int, 3, None, None),
    "periodic": (bool, True, None, None),
    "d": (int, 1, None, None),
    "alpha": (_finite, 1.0, None, None),
    "seed": (int, 0, None, None),
}
_COMMANDS = {
    "scheme": (cmd_scheme, "solve the order condition", {
        "m": (int, None, None, None),
        "base": (int, 2, None, None),
        "strategy": (str, "natural", ("natural", "min_a_norm"), None),
        **_COMMON,
    }),
    "commutators": (cmd_commutators, "alpha table and mu report", {
        **_MODEL,
        "m": (int, 1, None, None),
        "j_cap": (int, None, None, None),
        "variant": (str, "second_order", None, None),
        "budget": (int, commutators.DEFAULT_BUDGET, None, None),
        "allow_capped": (bool, False, None, None),
        **_COMMON,
    }),
    "convergence": (cmd_convergence, "one-step order study", {
        **_MODEL,
        "evolver": (str, "u2", ("u1", "u2", "u2p", "mpf"), None),
        "p": (int, None, None, None),
        "m": (int, 1, None, None),
        "dt_grid": (str, None, None, "comma-separated steps"),
        "points": (int, 6, None, None),
        "ratio": (_finite, 2.0, None, None),
        "start": (_finite, 0.8, None, None),
        **_COMMON,
    }),
    "benchmark": (cmd_benchmark, "chain-length scaling benchmark", {
        "n_list": (str, "", None, "comma-separated lengths"),
        "m_list": (str, "1,2,3,4,5", None, "comma-separated half-orders"),
        "eps": (_finite, 1e-3, None, None),
        "format": (str, "csv", ("csv", "json"), None),
        "theory_only": (bool, False, None, None),
        "periodic": (bool, True, None, None),
        **_COMMON,
    }),
    "bch-verify": (cmd_bch_verify, "expansion terms and bounds", {
        **_MODEL,
        "k_max": (int, 5, None, None),
        "s": (_finite, 0.05, None, None),
        **_COMMON,
    }),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        command, params, output_path = _resolve_config(args)
        output = _COMMANDS[command][0](params)
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
    if not output_path:
        sys.stdout.write(output)
        return 0
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
