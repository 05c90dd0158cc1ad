"""gradlab benchmark: time to a verified answer, per workload.

    python3 perfbench/run.py --workload eps_sweep_2d --seed 0 --seconds 10 --trace 0

Run from the repository root.  Each run starts ``CHILDREN`` fresh worker
processes one after another; each sets up, runs one untimed warm-up op and
then timed ops in a closed loop for its share of ``--seconds`` (at least two
ops).  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
CHILDREN = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, fixture and all workers included

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# counts that must repeat exactly across ops, processes and runs
EXACT_COUNTS = (
    "solver.newton_iters",
    "solver.stages",
    "solver.linear_solves",
    "solver.residual_evals",
    "bernstein.bundle_calls",
)
LAYER_UNITS = {
    "solver.linear_solves": "count",
    "solver.jacobian_nnz": "count",
    "solver.newton_iters": "count",
    "solver.stages": "count",
    "solver.damping_events": "count",
    "solver.full_step_ratio": "ratio",
    "solver.residual_evals": "count",
    "solver.linesearch_evals": "count",
    "bernstein.bundle_calls": "count",
    "grid.stencil_calls": "count",
    "harness.record_bytes": "bytes",
    "harness.sweep_parallelism": "ratio",
    "trace.overhead": "ratio",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_hash() -> str:
    """sha256 over the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(HERE.glob("*.py"))
    files.append(HERE / "references.json")
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values: list) -> tuple | None:
    """The highest whole percentile with at least ten samples beyond it."""
    k = int(100 * (1 - 10 / len(values)))
    if k < 51:
        return None
    return k, statistics.quantiles(values, n=100)[k - 1]


def run_worker(args, index: int, work: Path, deadline: float) -> dict:
    result = work / f"worker-{index}.json"
    spans = WORK / "reports" / f"{args.workload}-seed{args.seed}-worker{index}-spans.jsonl"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / CHILDREN),
        "--trace", str(args.trace),
        "--index", str(index),
        "--spawned", repr(time.monotonic()),
        "--work", str(work),
        "--result", str(result),
        "--spans", str(spans),
    ]
    try:
        # worker output goes to stderr so the last stdout line stays the result
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(f"worker {index} passed the {DEADLINE_S:.0f} s deadline", 1)
    if proc.returncode != 0:
        fail(f"worker {index} exited with code {proc.returncode}", 1)
    return json.loads(result.read_text())


def check_counts(args, ops: list, code: str) -> list:
    """Exact counts must repeat across ops here and across earlier runs."""
    problems = []
    seen: dict = {}
    for op in ops:
        found = {"payload": op.get("counts")}
        if "layers" in op:
            found["traced"] = {k: op["layers"][k] for k in EXACT_COUNTS if k in op["layers"]}
        for key, value in found.items():
            if value is None:
                continue
            if key in seen and seen[key] != value:
                problems.append(f"{key} counts differ between ops: {seen[key]} vs {value}")
            seen.setdefault(key, value)
    path = WORK / "counts" / f"{args.workload}-seed{args.seed}-{code[:16]}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for key, value in seen.items():
        if key in stored and stored[key] != value:
            problems.append(f"{key} counts differ from an earlier run of this code: "
                            f"{stored[key]} vs {value}")
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**stored, **seen}, sort_keys=True, indent=1))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "gradlab" / "__init__.py").is_file():
        fail("run from the root of a gradlab checkout: src/gradlab is missing")

    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402 - needs the checkout's src on the path

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    code = source_hash()
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl.make_fixture(args.seed, work)
        workers = [run_worker(args, i, work, deadline) for i in range(CHILDREN)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for w in workers for op in w["ops"]]
    timed = [op for op in ops if not op.get("warmup")]
    untraced = [op["seconds"] for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    failed = [op for op in ops if op["problems"]]
    problems = check_counts(args, ops, code)
    for op in failed:
        print(f"FAILED op {op['index']}: " + "; ".join(op["problems"]), file=sys.stderr)
    for p in problems:
        print(f"EXACT COUNT MISMATCH: {p}", file=sys.stderr)

    e2e = {
        "op_s": statistics.median(untraced),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    env = {**workers[0]["environment"], "git_commit": git_commit(), "source_sha256": code}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{CHILDREN} fresh processes, {len(ops)} ops checked ({len(timed)} timed)")
    print("environment " + json.dumps(env, sort_keys=True))
    lo, hi = quartiles(untraced)
    tail = tail_percentile(untraced)
    tail_text = f", p{tail[0]} {tail[1]:.4f}" if tail else ""
    print(f"op_s        {e2e['op_s']:.4f} s   median of {len(untraced)} untraced ops, "
          f"quartiles {lo:.4f} .. {hi:.4f}{tail_text}; "
          f"samples {[round(s, 4) for s in untraced]}")
    print(f"setup_s     {e2e['setup_s']:.4f} s   median of {CHILDREN} set-ups "
          f"{[round(w['setup_s'], 4) for w in workers]}")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  median of {CHILDREN} processes")
    print(f"fail_frac   {len(failed) / len(ops):.4f}     {len(failed)} of {len(ops)} ops failed")
    for pt in timed[0]["counts"]["points"] if timed and "counts" in timed[0] else []:
        print(f"point eps={pt['eps']!r} cells={pt['cells']}: "
              f"{pt['stages']} stages, {pt['iterations']} Newton iterations")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "end_to_end": e2e,
        "op_samples_s": untraced,
        "op_tail_percentile_s": tail,
        "fail_frac": len(failed) / len(ops),
        "count_problems": problems,
        "workers": workers,
    }
    if args.trace:
        layers: dict = {}
        for op in traced:
            for k, v in op["layers"].items():
                layers.setdefault(k, []).append(v)
        metrics = {
            k: {"value": statistics.median(v), "unit": LAYER_UNITS.get(k, "s")}
            for k, v in sorted(layers.items())
        }
        traced_s = statistics.median(op["seconds"] for op in traced)
        metrics["trace.overhead"] = {"value": traced_s / e2e["op_s"] - 1.0, "unit": "ratio"}
        absent = sorted(set().union(*(w["absent"] for w in workers)))
        if absent:
            print(f"absent spans (metrics left out): {absent}")
        print(f"tracing overhead {metrics['trace.overhead']['value']:+.4f} "
              f"(traced op_s {traced_s:.4f} over untraced {e2e['op_s']:.4f}, minus 1)")
        for k, m in metrics.items():
            print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    report["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "reports" / name).write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
