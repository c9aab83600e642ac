#!/usr/bin/env python3
"""semwalk benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload lopo-sembed-bow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is imported from `src/`.
Inputs are generated from `--seed` under `.perfbench/` and removed at
the end.  With `--trace 0` the last stdout line is a JSON object with
the end-to-end metrics, with `--trace 1` the per-layer metrics of a
traced pass (spans are written to `.perfbench/`).  `--workload all`
runs every workload untraced and traced, each in its own process,
prints every metric with its unit and writes `.perfbench/results-seed<N>.json`.
See perfbench/README.md for the metrics and how to compare two commits.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One run of a workload must finish well inside this; `all` enforces it.
RUN_TIMEOUT_S = 180


def environment() -> dict:
    """Interpreter, library and thread facts a result depends on."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    threads = None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def run_one(args: argparse.Namespace) -> int:
    import bench_workloads as bw

    env = environment()
    print(f"workload {args.workload}: {bw.WORKLOADS[args.workload]}")
    print("environment " + json.dumps(env, sort_keys=True))
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        run = bw.run_workload(args.workload, work_dir, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if env["blas_threads"] is None or env["blas_threads"] > env["nproc"]:
        run.problems.append(f"BLAS threads {env['blas_threads']} not <= nproc {env['nproc']}")
    absent = run.tracer.absent if run.tracer is not None else []
    if run.tracer is not None:
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans, {"workload": args.workload, "seed": args.seed, "absent": absent})
        print(f"spans written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name} = {value!r} {unit}")
    if not args.trace:
        print("  pass_s = " + " ".join(f"{t:.3f}" for t in run.pass_s))
        print("  setups_s = " + " ".join(f"{t:.3f}" for t in run.setup_s))
        print(f"  ungated: latency_p99_ms = {bw.percentile(bw.latencies_ms(run.ops), 0.99)!r} "
              f"ms over {len(run.ops)} operations")
    print(f"untimed input generation and preparation: {run.prepare_s:.2f} s")
    print(f"attempted={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / run.attempted!r}")
    print(f"predictions_sha256={run.digests[0][0]} distributions_sha256={run.digests[0][1]}")
    if absent:
        print("absent: " + ", ".join(absent))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in run.metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, one process at a time."""
    import bench_workloads as bw

    results: dict[str, dict] = {}
    correct = True
    for name in bw.WORKLOADS:
        results[name] = {"why": bw.WORKLOADS[name]}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited {done.returncode}")
                return 1
            result = json.loads(lines[-1])
            digests = next(ln for ln in lines if ln.startswith("predictions_sha256="))
            result.update(kv.split("=") for kv in digests.split())
            correct = correct and result["correct"]
            results[name]["traced" if trace else "untraced"] = result
    results["environment"] = environment()
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n{'workload':18} {'metric':38} value")
    for name in bw.WORKLOADS:
        for key in ("untraced", "traced"):
            for metric, entry in results[name][key]["metrics"].items():
                print(f"{name:18} {metric:38} {entry['value']:.6g} {entry['unit']}")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "workloads": list(bw.WORKLOADS)}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semwalk" / "__init__.py").is_file():
        print(f"error: no semwalk sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: every workload is single-threaded Python around small
    # matrix products, where a second OpenBLAS thread gains no wall time and
    # spins on the other CPU.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(["all", *bw.WORKLOADS]))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
