"""Runs one workload's rounds in a fresh interpreter and reports them.

Usage: python3 bench/worker.py SPEC_JSON, with SPEC_JSON an object holding
"argv" (the CLI arguments of the round's one operation), "seconds",
"trace" and "spans_path". The load is a closed loop: one operation at a
time, each `mpf_lab.cli.main` call starting when the previous one has
returned. Rounds repeat while the next one is predicted to end within
"seconds"; at least one round runs. Prints one JSON object: per round the
wall time, exit code and output, and with tracing the layer counters;
then peak RSS and the BLAS set-up.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np


def blas_info() -> dict:
    """OpenBLAS version and the thread count it reports, where it can be
    asked; otherwise the thread count the environment requested."""
    info = {"blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = None
    return info


def run_op(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash in the program is a failed operation
            traceback.print_exc()
            code = -1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    from mpf_lab import cli

    rounds = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        op = run_op(cli, spec["argv"])
        end = time.perf_counter()
        rounds.append({"wall_s": end - start, **op,
                       "layers": tracer.take_round() if tracer else None})
        elapsed = end - begin
        if elapsed * (len(rounds) + 1) / len(rounds) > spec["seconds"]:
            break
    if tracer and spec["spans_path"]:
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"columns": ["round", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    json.dump({"rounds": rounds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "blas": blas_info()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
