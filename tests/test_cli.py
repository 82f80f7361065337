import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import BAD_MODEL_FILES, NO_LUMP, count_lumps
from mpf_lab import bch, cli, mpf, pauli
from mpf_lab.cli import main
from mpf_lab.commutators import build_table
from mpf_lab.hamiltonians import (
    heisenberg_1d,
    one_norm,
    power_law_lattice,
    to_model_json,
)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestScheme:
    def test_pinned_m2(self, run):
        code, out, _ = run("scheme", "--m", "2")
        assert code == 0
        body = json.loads(out)
        assert body["m"] == 2 and body["base_order"] == 2
        assert body["powers"] == [1, 2]
        assert body["coefficients"] == pytest.approx([-1 / 3, 4 / 3])
        assert body["a_norm"] == pytest.approx(5 / 3)
        assert body["k_norm"] == 3.0
        assert body["residual"] <= 1e-12

    def test_min_a_norm_strategy(self, run):
        code, out, _ = run("scheme", "--m", "3", "--strategy", "min_a_norm")
        assert code == 0
        assert json.loads(out)["powers"] == [1, 2, 24]

    def test_usage_errors(self, run):
        assert run("scheme")[0] == 2
        assert run("scheme", "--m", "0")[0] == 2


class TestCommutators:
    def test_table_matches_library(self, run):
        code, out, _ = run("commutators", "--model", "heisenberg", "--n", "4", "--j-cap", "6")
        assert code == 0
        body = json.loads(out)
        table = build_table(heisenberg_1d(4), 7)
        assert (body["table"]["gamma"], body["table"]["mode"], body["table"]["j_cap"]) == (
            table.gamma, table.mode, table.j_cap
        )
        assert {int(j): a for j, a in body["table"]["alpha"].items()} == table.alpha
        assert body["mu"]["mu_m"] > 0
        assert body["mu"]["j_cap"] == 6
        assert body["radius"] > 0

    def test_commuting_model(self, run):
        code, out, _ = run("commutators", "--model", "commuting", "--n", "3")
        assert code == 0
        body = json.loads(out)
        assert body["radius"] is None  # no finite radius
        assert body["mu"]["mu_m"] == 0.0
        assert body["table"]["alpha"]["2"] == 0.0

    def test_power_law_seeded(self, run):
        code, out, _ = run(
            "commutators", "--model", "power_law", "--n", "4", "--d", "1", "--alpha", "2.0"
        )
        assert code == 0
        body = json.loads(out)
        assert body["table"]["alpha"]["1"] == pytest.approx(
            one_norm(power_law_lattice(4, 1, 2.0, 0))
        )

    def test_default_budget_reaches_deep_tables(self, run):
        code, out, _ = run("commutators", "--model", "heisenberg", "--n", "8", "--j-cap", "10")
        assert code == 0
        assert json.loads(out)["table"]["mode"] == "exact"

    def test_twelve_and_thirty_two_qubit_chains(self, run):
        code, out, _ = run("commutators", "--model", "heisenberg", "--n", "12")
        assert code == 0
        table = json.loads(out)["table"]
        assert table["mode"] == "exact"
        assert [table["alpha"][str(j)] for j in range(1, 5)] == [36.0, 288.0, 4608.0, 69120.0]
        code, out, _ = run("commutators", "--model", "heisenberg", "--n", "32", "--allow-capped")
        assert code == 0
        table = json.loads(out)["table"]
        assert [table["alpha"][str(j)] for j in range(1, 4)] == [96.0, 768.0, 12288.0]
        # 33 qubits no longer fit the DP's 64-bit string keys
        code, _, err = run("commutators", "--model", "heisenberg", "--n", "33", "--allow-capped")
        assert code == 2 and "n <= 32" in err

    @pytest.mark.parametrize("argv", [
        ("--model", "power_law", "--n", "8", "--d", "1", "--alpha", "2.0", "--seed", "3",
         "--j-cap", "6"),
        ("--model", "heisenberg", "--n", "9", "--j-cap", "10"),
    ])
    def test_dense_and_sorted_pauli_dp_print_the_same_bytes(self, run, monkeypatch, argv):
        argv = ("commutators", *argv, "--budget", "1000000000")
        default = run(*argv)
        assert default[0] == 0
        for dense in (True, False):  # every level by the one accumulator
            monkeypatch.setattr(pauli, "_dense_level", lambda n, moves: dense)
            assert run(*argv) == default

    @pytest.mark.parametrize("argv", [
        ("--n", "32", "--allow-capped"),
        ("--n", "12", "--budget", "2000000", "--allow-capped"),
        ("--n", "9", "--j-cap", "12", "--budget", "3000000", "--allow-capped"),
        ("--n", "16", "--allow-capped"),
    ])
    def test_lumped_and_plain_pauli_dp_print_the_same_bytes(self, run, monkeypatch, argv):
        # the budget charges a lumped key its orbit's size, so capped
        # tables stop at the same depth with the same envelope
        lumps = count_lumps(monkeypatch)
        argv = ("commutators", "--model", "heisenberg", *argv)
        lumped = run(*argv)
        assert lumped[0] == 0 and lumps
        assert json.loads(lumped[1])["table"]["mode"] == "capped"
        monkeypatch.setattr(pauli, "_LUMP", NO_LUMP)
        assert run(*argv) == lumped

    def test_budget_exit_and_capped_escape(self, run):
        code, _, err = run("commutators", "--model", "heisenberg", "--n", "4", "--budget", "50")
        assert code == 3
        assert "allow-capped" in err
        code, out, _ = run(
            "commutators", "--model", "heisenberg", "--n", "4", "--budget", "50", "--allow-capped"
        )
        assert code == 0
        assert json.loads(out)["table"]["mode"] == "capped"

    @pytest.mark.parametrize("extra, message", [
        (("--j-cap", "30"), "j_cap = 30 beyond 24"),
        (("--j-cap", "30", "--allow-capped"), "j_cap = 30 beyond 24"),
        (("--j-cap", "3", "--m", "2"), "j_cap must be >= 2m"),
        (("--m", "0"), "m must be >= 1"),
        (("--variant", "order_3"), "unknown variant 'order_3'"),
        (("--variant", "order_2"), "unknown variant 'order_2'"),
        # int() reads these as 40, 4 and 4; only canonical names are variants
        (("--variant", "order_4_0"), "unknown variant 'order_4_0'"),
        (("--variant", "order_04"), "unknown variant 'order_04'"),
        (("--variant", "order_+4"), "unknown variant 'order_+4'"),
    ])
    def test_options_checked_before_the_table(self, run, monkeypatch, extra, message):
        # a bad m, j_cap or variant is a usage error before any DP level
        def no_dp(*args, **kwargs):
            raise AssertionError("the Pauli DP ran")

        monkeypatch.setattr(pauli, "commutator_weight_table", no_dp)
        argv = ("commutators", "--model", "heisenberg", "--n", "10", *extra)
        assert run(*argv) == (2, "", f"error: {message}\n")

    def test_model_file(self, run, tmp_path, xz1):
        path = tmp_path / "model.json"
        path.write_text(to_model_json(xz1))
        code, out, _ = run("commutators", "--model-file", str(path), "--j-cap", "4")
        assert code == 0
        assert json.loads(out)["table"]["alpha"]["1"] == 2.0
        assert run("commutators", "--model-file", str(tmp_path / "nope.json"))[0] == 2


class TestConvergence:
    def test_csv_slope(self, run):
        code, out, _ = run(
            "convergence", "--model", "heisenberg", "--n", "3",
            "--dt-grid", "0.2,0.1,0.05,0.025",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dt,error,fitted_slope,r_squared,exact"
        assert len(lines) == 5
        dt, err, slope, r2, exact = lines[1].split(",")
        assert float(dt) == 0.2
        assert float(slope) == pytest.approx(3.0, abs=0.2)
        assert float(r2) > 0.999
        assert exact == "0"

    def test_commuting_exact_flag(self, run):
        code, out, _ = run("convergence", "--model", "commuting", "--n", "3")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[-1] == "1" and float(row[2]) == 0.0

    def test_mpf_evolver(self, run):
        code, out, _ = run(
            "convergence", "--model", "heisenberg", "--n", "3",
            "--evolver", "mpf", "--m", "2", "--dt-grid", "0.2,0.1,0.05,0.025",
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[2]) == pytest.approx(5.0, abs=0.3)

    def test_bad_grid_is_usage_error(self, run):
        assert run("convergence", "--n", "3", "--dt-grid", "0.2,0.1")[0] == 2
        assert run("convergence", "--n", "3", "--dt-grid", "a,b,c,d")[0] == 2

    def test_u2p_p_messages(self, run):
        for extra in ((), ("--dt-grid", "0.2,0.1,0.05,0.025")):
            assert run("convergence", "--evolver", "u2p", *extra) == (
                2, "", "error: u2p evolver needs p\n")
            for p in ("0", "-3"):
                assert run("convergence", "--evolver", "u2p", "--p", p, *extra) == (
                    2, "", "error: p must be >= 1\n")

    @pytest.mark.parametrize("extra, calls", [
        (("--n", "3"), 8),  # steps 0.8, 0.4 and 0.2 to find the grid, then 5 more
        (("--n", "6", "--evolver", "mpf", "--m", "3"), 7),  # 1 error block
    ])
    def test_default_grid_measures_each_step_once(self, run, monkeypatch, extra, calls):
        counted = []
        operator = mpf.mpf_operator

        def recorded(h, delta, scheme):
            counted.append(delta)
            return operator(h, delta, scheme)

        monkeypatch.setattr(mpf, "mpf_operator", recorded)
        assert run("convergence", "--model", "heisenberg", *extra)[0] == 0
        assert len(counted) == calls

    def test_evolver_names_are_schemes(self, run):
        # u2, u2p with p = 1 and mpf with m = 1 all name the one-term
        # second-order scheme
        argv = ("convergence", "--n", "3", "--dt-grid", "0.2,0.1,0.05,0.025")
        u2 = run(*argv, "--evolver", "u2")
        assert u2[0] == 0
        assert run(*argv, "--evolver", "u2p", "--p", "1") == u2
        assert run(*argv, "--evolver", "mpf", "--m", "1") == u2


class TestBenchmark:
    def test_theory_only(self, run):
        code, out, _ = run("benchmark", "--theory-only")
        assert code == 0
        body = json.loads(out)
        assert body["limit_exponent"] == pytest.approx(4 / 3)
        expected = [2.0, 5 / 3, 14 / 9, 1.5, 22 / 15]
        assert [t["m"] for t in body["theory"]] == [1, 2, 3, 4, 5]
        assert [t["theory_exponent"] for t in body["theory"]] == pytest.approx(expected)

    def test_missing_n_list(self, run):
        assert run("benchmark", "--m-list", "1")[0] == 2

    def test_csv_run(self, run):
        code, out, _ = run("benchmark", "--n-list", "3,4,5", "--m-list", "1", "--eps", "0.3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,r,queries,queries_amplified,error"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["3", "4", "5"]
        assert all(float(row.split(",")[-1]) <= 0.3 for row in lines[1:])

    def test_json_run(self, run):
        code, out, _ = run(
            "benchmark", "--n-list", "3,4,5", "--m-list", "1", "--eps", "0.3",
            "--format", "json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["limit_exponent"] == pytest.approx(4 / 3)
        assert body["results"][0]["m"] == 1
        assert [set(res) for res in body["results"]] == [{
            "m", "n_values", "query_counts", "fitted_exponent",
            "theory_exponent", "cells",
        }]
        assert [set(cell) for cell in body["results"][0]["cells"]] == 3 * [
            {"n", "m", "r", "queries", "queries_amplified", "error"}
        ]

    def test_bad_eps(self, run):
        assert run("benchmark", "--n-list", "3,4,5", "--eps", "2.0")[0] == 2


class TestBchVerify:
    def test_custom_model_file(self, run, tmp_path, xz1):
        path = tmp_path / "xz.json"
        path.write_text(to_model_json(xz1))
        code, out, _ = run("bch-verify", "--model-file", str(path), "--k-max", "5", "--s", "0.1")
        assert code == 0
        body = json.loads(out)
        assert body["K"] == 5 and body["s"] == 0.1
        assert body["generator_residual"] <= 1e-8
        by_k = {t["k"]: t for t in body["terms"]}
        assert by_k[2]["structurally_zero"] and by_k[4]["structurally_zero"]
        assert not by_k[3]["structurally_zero"] and by_k[3]["norm"] > 0
        assert all(t["bound_satisfied"] for t in body["terms"])
        assert all(t["converged_premise"] for t in body["terms"])

    def test_commuting_terms_vanish(self, run):
        code, out, _ = run("bch-verify", "--model", "commuting", "--n", "3", "--k-max", "4")
        assert code == 0
        body = json.loads(out)
        assert body["K"] == 3  # even cap rounds down to the last odd depth
        assert [t["norm"] for t in body["terms"]] == [0.0, 0.0, 0.0]
        assert body["generator_residual"] <= 1e-12

    def test_depth_cap_runs_in_seconds(self, run):
        t0 = time.monotonic()
        code, out, _ = run("bch-verify", "--model", "heisenberg", "--n", "3",
                           "--k-max", "7", "--s", "0.05")
        assert time.monotonic() - t0 < 10.0
        assert code == 0
        body = json.loads(out)
        assert body["K"] == 7
        assert [t["k"] for t in body["terms"]] == [2, 3, 4, 5, 6, 7]
        assert all(t["bound_satisfied"] for t in body["terms"])

    def test_one_pauli_dp_per_run(self, run, monkeypatch):
        depths = []
        dp = pauli.commutator_weight_table

        def counted(strings, coeffs, depth, *args):
            depths.append(depth)
            return dp(strings, coeffs, depth, *args)

        monkeypatch.setattr(pauli, "commutator_weight_table", counted)
        code, _, _ = run("bch-verify", "--model", "heisenberg", "--n", "3",
                         "--k-max", "5", "--s", "0.05")
        assert code == 0
        assert depths == [5]

    @pytest.mark.parametrize("k_max, deepest", [(5, 5), (6, 5), (7, 7)])
    def test_one_series_per_run(self, run, monkeypatch, k_max, deepest):
        depths = []
        series = bch._log_product_terms

        def counted(letters, big_k):
            depths.append(big_k)
            return series(letters, big_k)

        monkeypatch.setattr(bch, "_log_product_terms", counted)
        code, _, _ = run("bch-verify", "--model", "heisenberg", "--n", "3",
                         "--k-max", str(k_max), "--s", "0.05")
        assert code == 0
        assert depths == [deepest]

    def test_premise_exit(self, run):
        code, _, err = run("bch-verify", "--model", "heisenberg", "--n", "3", "--s", "0.5")
        assert code == 4
        assert "radius" in err

    def test_usage_errors(self, run):
        assert run("bch-verify", "--n", "3", "--k-max", "0")[0] == 2
        assert run("bch-verify", "--n", "3", "--s", "-0.1")[0] == 2


class TestConfigAndIo:
    def test_config_supplies_and_flags_win(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2}))
        assert run("scheme", "--config", str(cfg))[1] == run("scheme", "--m", "2")[1]
        assert run("scheme", "--config", str(cfg), "--m", "3")[1] == run("scheme", "--m", "3")[1]

    def test_config_rejections(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "banana": 1}))
        code, _, err = run("scheme", "--config", str(cfg))
        assert code == 2 and "banana" in err
        cfg.write_text("not json")
        assert run("scheme", "--config", str(cfg))[0] == 2
        cfg.write_text(json.dumps([1, 2]))
        assert run("scheme", "--config", str(cfg))[0] == 2
        assert run("scheme", "--config", str(tmp_path / "nope.json"))[0] == 2

    @pytest.mark.parametrize("command, key, value, extra", [
        ("commutators", "allow_capped", "no", ()),
        ("commutators", "periodic", "false", ()),
        ("benchmark", "theory_only", "no", ()),
        ("benchmark", "format", "xml", ("--n-list", "3,4,5", "--m-list", "1", "--eps", "0.1")),
        ("commutators", "n", 4.7, ()),
        ("scheme", "m", "2", ()),
    ])
    def test_config_values_checked_like_flags(self, run, tmp_path, command, key, value, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(command, "--config", str(cfg), *extra)
        assert code == 2 and out == ""
        assert key in err

    @pytest.mark.parametrize("model, model_values, model_flags", [
        ("heisenberg", {"periodic": False}, ("--no-periodic",)),
        ("power_law", {"d": 1, "alpha": 2, "seed": 7},
         ("--d", "1", "--alpha", "2", "--seed", "7")),
    ], ids=["heisenberg", "power_law"])
    def test_config_round_trips_every_commutators_option(
        self, run, tmp_path, model, model_values, model_flags
    ):
        # model_file and the model options this model does not read are
        # left out: giving them is a usage error
        values = {
            "model": model, "n": 4, **model_values,
            "m": 2, "j_cap": 6, "variant": "first_order", "budget": 10**6,
            "allow_capped": False,
            "output": str(tmp_path / "from_config.json"),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run("commutators", "--config", str(cfg)) == (0, "", "")
        flags = ("--model", model, "--n", "4", *model_flags,
                 "--m", "2", "--j-cap", "6", "--variant", "first_order", "--budget", "1000000",
                 "--no-allow-capped",
                 "--output", str(tmp_path / "from_flags.json"))
        assert run("commutators", *flags) == (0, "", "")
        text = (tmp_path / "from_config.json").read_text()
        assert text and text == (tmp_path / "from_flags.json").read_text()

    @pytest.mark.parametrize("argv, extra, config, unread", [
        (("commutators", "--model", "heisenberg", "--n", "4"),
         ("--seed", "9", "--d", "2", "--alpha", "0.5"), {}, ["--alpha", "--d", "--seed"]),
        (("commutators", "--model", "commuting", "--n", "4"), (), {"periodic": False},
         ["config key periodic"]),
        (("bch-verify", "--model-file", "{model}"), ("--n", "3"), {"model": "power_law"},
         ["--n", "config key model"]),
        (("convergence", "--n", "3", "--dt-grid", "0.2,0.1,0.05,0.025"), ("--points", "5"),
         {"ratio": 3.0, "start": 0.5}, ["--points", "config key ratio", "config key start"]),
        (("convergence", "--n", "3"), ("--m", "2"), {"p": 2}, ["--m", "config key p"]),
        (("convergence", "--n", "3", "--evolver", "u2p", "--p", "2"), ("--m", "2"), {},
         ["--m"]),
        (("benchmark", "--theory-only"), ("--eps", "0.1"), {"n_list": "3,4,5"},
         ["--eps", "config key n_list"]),
    ], ids=["model-options", "commuting", "model-file", "dt-grid", "evolver", "u2p",
            "theory-only"])
    def test_options_the_run_does_not_read_exit_2(
        self, run, tmp_path, argv, extra, config, unread
    ):
        path = tmp_path / "model.json"
        path.write_text(to_model_json(heisenberg_1d(3)))
        argv = [a.replace("{model}", str(path)) for a in argv]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(*argv, *extra, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"not read by this run: {', '.join(unread)}" in err
        # left at their defaults, the same options stay silent
        assert run(*argv)[0] == 0

    @pytest.mark.parametrize("command", ["commutators", "convergence", "bch-verify"])
    def test_model_file_terms_wider_than_model(self, run, tmp_path, command):
        terms = [{"n_qubits": 3, "coefficient": 1.0, "paulis": {str(q): "Z"}} for q in (2, 0)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"model": "custom", "n": 2, "terms": terms}))
        code, out, err = run(command, "--model-file", str(path))
        assert code == 2 and out == ""
        assert "3 qubits in a 2-qubit sum" in err

    @pytest.mark.parametrize("argv, model, message", [
        (("scheme", "--m", "2", "--seed", "3"), None, "unrecognized arguments: --seed"),
        (("benchmark", "--theory-only", "--seed", "3"), None, "unrecognized arguments: --seed"),
        (("commutators", "--method", "pauli"), None, "unrecognized arguments: --method"),
        *[(("commutators",), body, "cannot load model file") for body, _ in BAD_MODEL_FILES],
        (("scheme", "--m", "2", "--output", "{tmp}/no/such/dir/x.json"), None,
         "cannot write output"),
        (("scheme", "--m", "2", "--output", "{tmp}"), None, "cannot write output"),
        (("benchmark", "--n-list", "3,4,5", "--m-list", "12", "--eps", "0.1"), None,
         "m = 12 beyond 11"),
        (("benchmark", "--n-list", "4,x,8"), None, "bad n list"),
        (("benchmark", "--n-list", "3,4,5", "--m-list", "0,1"), None,
         "m list must be positive integers"),
        (("commutators", "--model", "commuting", "--n", "0"), None,
         "commuting model needs n >= 1"),
        (("convergence", "--model", "heisenberg", "--n", "3", "--dt-grid",
          "0.2,1e-6,1e-7,1e-8"), None, "only one grid point above the noise floor"),
        (("benchmark", "--n-list", "3,4,5", "--eps", "abc"), None, "invalid float value"),
    ])
    def test_exits_2_with_empty_stdout(self, capsys, tmp_path, argv, model, message):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if model is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            argv += ["--model-file", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an unknown option
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, config, option", [
        (("bch-verify", "--s", "nan"), None, "--s"),
        (("bch-verify", "--s", "inf"), None, "--s"),
        (("convergence", "--ratio", "nan"), None, "--ratio"),
        (("convergence", "--start", "inf"), None, "--start"),
        (("convergence", "--start=-inf"), None, "--start"),
        (("convergence", "--dt-grid", "nan,0.1,0.05,0.02"), None, "dt_grid"),
        (("benchmark", "--n-list", "3,4,5", "--eps", "nan"), None, "--eps"),
        (("bch-verify",), '{"s": NaN}', "config s"),
        (("convergence",), '{"ratio": Infinity}', "config ratio"),
        (("commutators", "--model", "power_law"), '{"alpha": -Infinity}', "config alpha"),
    ])
    def test_non_finite_reals_exit_2(self, capsys, tmp_path, argv, config, option):
        argv = list(argv)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)  # json.load reads NaN and Infinity
            argv += ["--config", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag value
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert option in captured.err and "finite number" in captured.err

    def test_output_file(self, run, tmp_path):
        ref = run("scheme", "--m", "2")[1]
        path = tmp_path / "out.json"
        code, out, _ = run("scheme", "--m", "2", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == ref

    def test_repeat_runs_byte_identical(self, run):
        argv = ("commutators", "--model", "power_law", "--n", "4", "--d", "1",
                "--alpha", "2.0", "--seed", "7")
        assert run(*argv)[1] == run(*argv)[1]
        argv = ("convergence", "--model", "heisenberg", "--n", "3",
                "--dt-grid", "0.2,0.1,0.05,0.025")
        assert run(*argv)[1] == run(*argv)[1]

    def test_one_parser_serves_every_call(self, run, capsys):
        assert cli._build_parser() is cli._build_parser()

        def refused(argv):  # argparse exits; returns (code, stdout, stderr)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            return exc.value.code, *capsys.readouterr()

        help_before = refused(["bch-verify", "--help"])
        assert help_before[0] == 0 and "--k-max" in help_before[1]
        argv = ("bch-verify", "--model", "heisenberg", "--n", "3", "--k-max", "5")
        first = run(*argv)
        assert first[0] == 0
        assert refused(["scheme", "--m", "2", "--seed", "3"])[0] == 2
        assert run("scheme")[0] == 2  # the handler's usage error
        assert run("benchmark", "--n-list", "3,4,5", "--m-list", "1", "--eps", "0.1")[0] == 0
        assert run(*argv) == first
        assert refused(["bch-verify", "--help"]) == help_before

    @pytest.mark.parametrize("argv", [
        ("commutators", "--model", "heisenberg", "--n", "4"),
        ("benchmark", "--n-list", "3,4,5", "--m-list", "1,2", "--eps", "0.1"),
        ("bch-verify", "--model", "heisenberg", "--n", "3", "--k-max", "7"),
        ("benchmark", "--n-list", "4,6,8", "--m-list", "1,2", "--eps", "1e-3",
         "--format", "json"),
        ("convergence", "--model", "heisenberg", "--n", "6"),
        ("convergence", "--model", "heisenberg", "--n", "8", "--evolver", "u2p",
         "--p", "2"),
        # the deepest alpha of a power-law model is not an integer
        ("commutators", "--model", "power_law", "--n", "6", "--d", "1",
         "--alpha", "2.0", "--seed", "7"),
        # a deepest frontier filling 60 % of 4^9, summed by a BLAS product
        ("commutators", "--model", "power_law", "--n", "9", "--d", "1",
         "--alpha", "2.0", "--seed", "3", "--j-cap", "6", "--budget", "1000000000"),
        # the benchmark's chain-scaling call: every block is of dim <= 64
        ("benchmark", "--n-list", "4,6,8", "--m-list", "1,2,3", "--eps", "0.001",
         "--format", "json"),
        # an odd chain: one error block of dim 35
        ("convergence", "--model", "heisenberg", "--n", "7", "--evolver", "mpf",
         "--m", "2"),
    ])
    def test_output_independent_of_blas_threads(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "mpf_lab.cli", *argv],
                env=env, capture_output=True, check=True, timeout=300,
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]
