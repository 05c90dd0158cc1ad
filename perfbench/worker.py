"""One measured process of a benchmark run: set up, warm up, run timed ops.

Started by ``run.py``, never by hand.  Writes one JSON result file and
nothing to stdout.  The process starts fresh, so its peak resident set and
gradlab's module-level caches belong to this workload alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gradlab.solver  # noqa: E402
from gradlab.model.families import PowerHamiltonian  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 2  # timed ops per process, so every process yields a median


def payload_counts(results) -> dict:
    """Exact counts every op reports in its payload."""
    points = [
        {
            "eps": r.payload["parameters"]["eps"],
            "cells": r.payload["parameters"]["cells"],
            "stages": len(r.payload["solve"]["stages"]),
            "iterations": r.payload["solve"]["total_iterations"],
        }
        for r in results
    ]
    return {
        "newton_iters": sum(p["iterations"] for p in points),
        "stages": sum(p["stages"] for p in points),
        "points": points,
    }


def jacobian_nnz(config, results) -> int:
    """nnz of the public Jacobian at each variant's final iterate, maximised."""
    base = config.build_problem()
    nnz = 0
    for r in results:
        eps = r.payload["parameters"]["eps"]
        problem = dataclasses.replace(
            base, eps=eps, hamiltonian=PowerHamiltonian(base.gamma, eps)
        )
        nnz = max(nnz, gradlab.solver.jacobian(problem, r.u).nnz)
    return nnz


def record_bytes(results) -> int:
    return sum(
        f.stat().st_size for r in results if r.path is not None for f in r.path.iterdir()
    )


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    state = wl.prepare(args.seed, args.work)
    tracer = layertrace.Tracer()
    ops = []

    def one_op(i: int, traced: bool) -> None:
        out_dir = args.work / f"ops-{args.index}-{i}"
        record = {"index": i, "traced": traced}
        start = time.perf_counter()
        try:
            if traced:
                results = tracer.run_op(i, wl.op, state, out_dir)
            else:
                results = wl.op(state, out_dir)
            record["seconds"] = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
            record["seconds"] = time.perf_counter() - start
            record["problems"] = ["raised: " + traceback.format_exc(limit=4)]
        else:
            record["problems"] = workloads.check_op(
                args.workload, args.seed, results, state, refs
            )
            record["counts"] = payload_counts(results)
            if traced:
                spans = [s for s in tracer.spans if s.op == i]
                layers = layertrace.op_metrics(spans, tracer.absent)
                layers["solver.jacobian_nnz"] = jacobian_nnz(state["config"], results)
                layers["harness.record_bytes"] = record_bytes(results)
                record["layers"] = layers
        shutil.rmtree(out_dir, ignore_errors=True)
        ops.append(record)

    # the warm-up op is checked like any other but timed as set-up
    one_op(0, traced=False)
    ops[-1]["warmup"] = True
    setup_s = time.monotonic() - args.spawned

    begin = time.perf_counter()
    i = 1
    while i <= MIN_OPS or time.perf_counter() - begin < args.seconds:
        # in a traced run ops alternate, so the same process also gives the
        # untraced times the tracing overhead is measured against
        one_op(i, traced=bool(args.trace) and (i + args.index) % 2 == 1)
        i += 1

    if args.trace:
        with open(args.spans, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    args.result.write_text(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops": ops,
                "absent": sorted(tracer.absent),
                "environment": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
