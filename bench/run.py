"""Benchmark of the affgraph pipeline; run it from the repository root.

    python3 bench/run.py --workload embed-60 --seed 0 --seconds 10 --trace 0

The workload's inputs are built from ``--seed`` (seed 0 is the acceptance
corpus) under ``.bench_work/``; the op, the user's CLI path called in-process
through ``affgraph.cli.main``, is then repeated in fresh output directories,
at least twice and until ``--seconds`` have passed, and every op's outputs
are checked.  An op that exits non-zero or fails a check counts as failed;
the run goes on.

Stdout gives the environment, each op's seconds, the fail ratio and every
metric with its unit; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (``run_s`` is the median op; no tail percentile, as a run
has too few ops for one); ``--trace 1`` wraps the public functions each layer
is called through (see ``tracer.py``), reports the per-layer metrics instead,
and writes the spans to ``.bench_work/trace-<workload>.json``.  Workloads,
the reason for each and the metric list are in ``BENCHMARK.json``.

The program comes from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# outputs that must be byte-identical across the ops of one run
STABLE_ARTIFACTS = ("clusters.tsv", "dendrogram.json")
# imports of the program timed in every run: the one in this process and the
# rest in fresh interpreters; setup_s counts their median
IMPORT_REPS = 5
# ops timed in every run, however long they take: the byte-identity check
# needs two, and run_s is their median
MIN_OPS = 2


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC, "cpu": cpu, "blas": blas,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
    }


def import_seconds() -> float:
    """Seconds ``import affgraph.cli`` takes in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import affgraph.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_op(workload, state: dict, out: str, timed) -> dict:
    """One op in a fresh directory: time the CLI calls, then check the outputs."""
    from affgraph import cli

    os.makedirs(out)
    stdouts: list[str] = []
    errors: list[str] = []
    gc.collect()  # every op starts free of the garbage set-up and earlier ops left
    start = time.perf_counter()
    with timed():
        for argv in workload.calls(state, out):
            buf, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a failed run
                code = f"raised {type(exc).__name__}: {exc}"
            stdouts.append(buf.getvalue())
            if code != 0:
                errors.append(f"affgraph {argv[0]}: exit {code} {err.getvalue().strip()}")
                break
    seconds = time.perf_counter() - start
    quality = {}
    if not errors:
        try:
            quality, errors = workload.check(state, stdouts, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    artifacts = {}
    for name in STABLE_ARTIFACTS:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                artifacts[name] = fh.read()
    size = sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out) for f in files)
    shutil.rmtree(out)
    return {"seconds": seconds, "errors": errors, "quality": quality,
            "artifacts": artifacts, "bytes": size}


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: str,
                  import_s: float = 0.0) -> tuple[dict, dict]:
    """Set up, run ops for ``seconds``, and return (result, details)."""
    tracer = tr.Tracer()
    before = tr.module_state()
    setups = []
    setup_figs = None
    for rep in range(workload.setup_reps):
        start = time.perf_counter()
        where = os.path.join(work, f"setup-{rep}")
        if trace and rep == 0:
            with tracer.installed(), tracer.span("setup") as idx:
                state = workload.setup(seed, where)
            setup_figs = tr.setup_figures(tracer, idx)
        else:
            state = workload.setup(seed, where)
        setups.append(time.perf_counter() - start)

    ops = []
    if trace:
        # one untraced op first: the base for the tracing overhead
        ops.append(run_op(workload, state, os.path.join(work, "op-base"),
                          contextlib.nullcontext))
    op_spans = []

    def traced():
        op_spans.append(len(tracer.spans))  # the op span opens next
        return tracer.span("op")

    timed_ops = []
    start = time.perf_counter()
    with tracer.installed() if trace else contextlib.nullcontext():
        while len(timed_ops) < MIN_OPS or time.perf_counter() - start < seconds:
            timed_ops.append(run_op(workload, state, os.path.join(work, f"op-{len(ops)}"),
                                    traced if trace else contextlib.nullcontext))
            ops.append(timed_ops[-1])

    reference = next((op["artifacts"] for op in ops if not op["errors"]), None)
    for op in ops:
        if not op["errors"] and op["artifacts"] != reference:
            op["errors"].append("artifacts differ from the run's first op")
    failed = [op for op in ops if op["errors"]]
    good = [op for op in ops if not op["errors"]]
    quality = good[0]["quality"] if good else {}
    problems = [e for op in failed for e in op["errors"]]

    if trace:
        unrestored = tr.changed_attributes(before, tr.module_state())
        problems += [f"tracer left {name} replaced" for name in unrestored]
        rows = [tr.layer_figures(tracer, idx) for idx in op_spans]
        for row, op in zip(rows, timed_ops):
            row["pipeline.artifact_bytes"] = op["bytes"]
        figures = tr.median_figures(rows)
        figures.update(setup_figs)
        figures["trace.overhead_s"] = (
            statistics.median(op["seconds"] for op in timed_ops) - ops[0]["seconds"])
        metrics = figures
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "run_s": statistics.median(op["seconds"] for op in timed_ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key in ("v_measure", "homogeneity", "completeness"):
            metrics[key] = float(quality.get(key, 0.0))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    details = {"setups_s": setups, "ops_s": [op["seconds"] for op in ops],
               "problems": problems, "tracer": tracer}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "affgraph", "__init__.py")):
        print(f"error: no affgraph sources under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS threads to the cores before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import affgraph.cli  # noqa: F401  (import time is part of setup_s)

    import_s = statistics.median([time.perf_counter() - start]
                                 + [import_seconds() for _ in range(IMPORT_REPS - 1)])
    if not os.path.abspath(affgraph.cli.__file__).startswith(SRC + os.sep):
        print(f"error: affgraph imported from {affgraph.cli.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        result, details = run_benchmark(WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    extra = {"workload": args.workload, "seed": args.seed, "env": env,
             "setups_s": details["setups_s"], "ops_s": details["ops_s"]}
    if args.trace:
        trace_path = os.path.join(WORK, f"trace-{args.workload}.json")
        details["tracer"].dump(trace_path, extra)
        print(f"trace: {trace_path}")
    print("env: " + json.dumps(env, sort_keys=True))
    ops = result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {ops} ops, "
          f"fail_ratio {result['failed'] / ops:g} ({result['failed']}/{ops})")
    print("op seconds: " + " ".join(f"{t:.4f}" for t in details["ops_s"]))
    for problem in details["problems"]:
        print(f"check failed: {problem}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value} {units[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
