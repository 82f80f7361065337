"""mpf-lab benchmark: one workload, timed, checked and reported.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the `src` directory next
to `bench`. The workload's rounds run in a fresh worker interpreter
(bench/worker.py) so that its peak RSS excludes the checks, which run here
afterwards on every output. With --trace 0 the metrics are the
`end_to_end` ones of BENCHMARK.json, with --trace 1 the `per_layer` ones,
from a run whose mpf_lab functions are wrapped by bench/layers.py. The
last stdout line is the JSON result; a result file with the machine
details goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Fresh interpreters timed per run for setup_s, after one untimed start that
# fills the page cache and the bytecode cache.
SETUP_STARTS = 9
SETUP_CODE = "import numpy, mpf_lab.cli"
WORKER_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts: the program
    from src, BLAS limited to the CPUs this process may use."""
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(env: dict) -> float:
    """Median time for a fresh interpreter to import numpy and mpf_lab."""
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       stdin=subprocess.DEVNULL, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_rounds(rounds: list, check) -> tuple:
    """(failed, correct): an operation that exited nonzero failed; the
    others must repeat the first successful output byte for byte, and
    that output must pass the workload's check."""
    failed = 0
    reference = None
    correct = True
    for number, rnd in enumerate(rounds):
        if rnd["code"] != 0:
            failed += 1
            message = rnd["stderr"].rstrip()
            print(f"round {number}: exit {rnd['code']}: {message}",
                  file=sys.stderr)
        elif reference is None:
            reference = rnd["stdout"]
            try:
                check(reference)
            except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
                print(f"check failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                correct = False
        elif rnd["stdout"] != reference:
            print(f"round {number}: output differs from the first",
                  file=sys.stderr)
            correct = False
    return failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpf_lab", "cli.py")):
        print(f"error: no mpf_lab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = child_env()
    rnd = workloads.WORKLOADS[args.workload](args.seed, OUT)

    values = {}
    if not args.trace:
        values["setup_s"] = measure_setup(env)
    spec = {"argv": rnd.argv, "seconds": args.seconds, "trace": bool(args.trace),
            "spans_path": stem + "-spans.json" if args.trace else None}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout)
    rounds = report["rounds"]
    failed, correct = check_rounds(rounds, rnd.check)

    values["wall_s"] = statistics.median(r["wall_s"] for r in rounds)
    values["peak_rss_mb"] = report["peak_rss_mb"]
    if args.trace:
        for name in rounds[0]["layers"]:
            per_round = [r["layers"][name] for r in rounds]
            # counts repeat exactly from round to round; times take the median
            values[name] = (per_round[0] if len(set(per_round)) == 1
                            else statistics.median(per_round))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": correct, "attempted": len(rounds), "failed": failed,
              "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), **report["blas"]},
        "argv": rnd.argv,
        "rounds": [{"wall_s": r["wall_s"], "code": r["code"],
                    "layers": r["layers"]} for r in rounds],
        "values": values,
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
