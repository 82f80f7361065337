"""The benchmark's layer trace still finds every name it reports.

bench/layers.py wraps mpf_lab's public functions by name, and
BENCHMARK.json lists the per-layer metrics built from those names. A
rename in the package would drop a metric without failing the benchmark,
so this test traces two small CLI rounds and checks the list. The tracer
runs in a subprocess: its wrappers replace module attributes and must not
leak into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROUNDS = [
    ["commutators", "--model", "heisenberg", "--n", "3", "--j-cap", "4"],
    ["convergence", "--model", "heisenberg", "--n", "3",
     "--dt-grid", "0.2,0.1,0.05,0.025"],
]

TRACE = """
import contextlib, io, json, sys
import layers
tracer = layers.Tracer()
tracer.install()
from mpf_lab import cli
rounds = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    rounds.append({"code": code, "layers": tracer.take_round()})
print(json.dumps(rounds))
"""


def test_traced_rounds_report_every_per_layer_metric():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, json.dumps(ROUNDS)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    rounds = json.loads(proc.stdout)
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for argv, result in zip(ROUNDS, rounds):
        assert result["code"] == 0, argv
        missing = [name for name in names if name not in result["layers"]]
        assert not missing, (argv[0], missing)
    commutators, convergence = (r["layers"] for r in rounds)
    assert commutators["pauli.commutator_weight_table.calls"] > 0
    assert convergence["formulas.stage_applications"] > 0
    assert convergence["mpf.mpf_operator.calls"] > 0
