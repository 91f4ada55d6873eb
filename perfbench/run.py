"""circulab benchmark: one workload per process, driven through ``circulab.cli.dispatch``.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout; the package is imported from ``src`` without installing.
``--trace 0`` times whole passes of the workload and prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run (see tracing.py), which
covers every workload.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Outputs and results go to
``perfbench/out``.  BLAS thread variables are left as the caller set them.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def dispatch(cli, argv, out: Path) -> int:
    """One CLI command as a user runs it; its printed report is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(["--out", str(out), *argv])
    except Exception:  # a crash counts as a failed operation; the run goes on
        traceback.print_exc()
        return -1


def timed_passes(cli, workload, seed: int, seconds: float, work: Path):
    """Whole passes until ``seconds`` have gone by (and at least MIN_PASSES)."""
    passes, done = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        calls = workload.calls(seed, len(passes))
        out = work / f"pass{len(passes):03d}"
        out.mkdir()
        w0, c0 = time.perf_counter(), time.process_time()
        codes = [dispatch(cli, call.argv, out) for call in calls]
        passes.append((time.perf_counter() - w0, time.process_time() - c0))
        done += [(call, out, code) for call, code in zip(calls, codes)]
    return passes, done


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from circulab import cli
        import numpy as np
        import tracing
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import circulab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        names = list(wl.WORKLOADS) if args.trace else [args.workload]
        for name in names:
            for argv in wl.WORKLOADS[name].warmup:
                if dispatch(cli, argv, work / "warmup") != 0:
                    print(f"perfbench: warm-up {' '.join(argv)} failed", file=sys.stderr)
                    return 1
        setup_s = time.perf_counter() - T0
        ck = wl.Checker()
        rng = np.random.default_rng(args.seed)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(), "setup_s": setup_s}
        if args.trace:
            metrics, attempted, failed = tracing.traced_run(args.seed, work, ck, rng, OUT / f"spans-{stem}.jsonl")
        else:
            passes, done = timed_passes(cli, wl.WORKLOADS[args.workload], args.seed, args.seconds, work)
            # peak memory of the workload itself, before the checks allocate theirs
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for call, out, code in done:
                if code == 0:
                    call.verify(ck, out, rng)
            attempted, failed = len(done), sum(code != 0 for _, _, code in done)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "run_s": {"value": statistics.median(w for w, _ in passes), "unit": "s"},
                "cpu_s": {"value": statistics.median(c for _, c in passes), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            record["passes"] = [{"wall_s": w, "cpu_s": c} for w, c in passes]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not ck.problems
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  problems=ck.problems[:50])
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    for problem in ck.problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"checks {'passed' if correct else 'FAILED'}; environment {json.dumps(record['environment'])}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench:   {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


def run_all(args, names) -> int:
    """Each workload in its own process, one after another; prints a table and a combined result."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            if not lines:
                continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        rows.append((name, res))
    print(f"{'workload':<10} {'setup_s':>8} {'run_s':>8} {'cpu_s':>8} {'peak_rss_mb':>11} "
          f"{'attempted':>9} {'failed':>6} correct")
    for name, res in rows:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name:<10} {m['setup_s']:8.3f} {m['run_s']:8.3f} {m['cpu_s']:8.3f} {m['peak_rss_mb']:11.1f} "
              f"{res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] and not combined["failed"] else 1


def main() -> int:
    names = ("table1", "interlace", "tails", "census")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*names, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all" and not args.trace:
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
