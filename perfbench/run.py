"""Benchmark of the scattershot command line on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload certify|exact|sweep --seed N --seconds S --trace 0|1

The benchmark builds nothing: it puts ./src first on sys.path and drives
`scattershot.cli.main(argv)` in this process, one process per workload, so
peak RSS is the workload's own. Inputs are generated from --seed (see
workloads.py) and every output is checked.

--trace 0 repeats the workload's CLI calls for about --seconds seconds with
tracing off and reports the end-to-end metrics: median wall and CPU seconds
per iteration, the median of several cold set-ups (a fresh interpreter that
imports the package and runs a tiny version of the workload), and peak RSS.

--trace 1 runs one iteration untraced, the same iteration traced (spans at
each layer's public entry points, see tracer.py), and a third pass under
tracemalloc for per-layer peak bytes; it reports the per-layer metrics and
writes the spans to .perfbench_out/.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.util
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
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from layers import PER_LAYER, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, Checker

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# set-up as a user pays it: a fresh interpreter imports the package and runs
# the workload's tiny warm-up calls; the child times itself, so interpreter
# teardown (where idle BLAS threads are joined) stays out of the figure
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import contextlib, io, json, sys\n"
    "sys.path.insert(0, 'src')\n"
    "from scattershot.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(repr(time.perf_counter() - t0))\n"
    "sys.exit(max(codes))\n"
)


@dataclass
class Result:
    code: int | None
    stdout: str
    wall: float


def _blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }


def invoke(cli, argv: list) -> Result:
    """One in-process CLI call with stdout captured; a crash is a failed call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = None
    return Result(code, buf.getvalue(), time.perf_counter() - t0)


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_calls(cli, calls, tracer: Tracer | None = None):
    """Run calls back to back: results, wall s, CPU s (all threads), s per subcommand."""
    results = []
    cmd_s: dict = defaultdict(float)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for j, call in enumerate(calls):
        span = tracer.span("cli", sub=call.sub, call=j) if tracer else contextlib.nullcontext({})
        with span as attrs:
            res = invoke(cli, call.argv)
        attrs["bytes_read"] = sum(_size(p) for p in call.reads)
        attrs["bytes_written"] = sum(_size(p) for p in call.writes) + len(res.stdout)
        cmd_s[call.sub] += res.wall
        results.append(res)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    return results, wall, cpu, dict(cmd_s)


def check_outputs(check, ctx, calls, results, chk: Checker) -> None:
    for call, res in zip(calls, results):
        chk.check(res.code == 0, f"{call.sub}: exit code {res.code}")
    try:
        check(ctx, calls, results, chk)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        chk.check(False, f"outputs unreadable: {exc!r}")


def self_test(check, corrupt, ctx, calls, results) -> bool:
    """Feed one deliberately wrong output to the checks; True if it is caught."""
    probe = Checker()
    corrupt(ctx, calls, results)
    check_outputs(check, ctx, calls, results, probe)
    return probe.failed > 0


def calls_reaching(spans, names: set) -> list[int]:
    """Indices of the CLI calls whose spans contain a span with one of `names`."""
    by_id = {s[0]: s for s in spans}
    hit = set()
    for sid, _parent, name, *_ in spans:
        if name in names:
            while sid is not None and by_id[sid][2] != "cli":
                sid = by_id[sid][1]
            if sid is not None:
                hit.add(by_id[sid][5]["call"])
    return sorted(hit)


def fresh_dir(work: str, name: str) -> str:
    """A new directory for one pass's files. Every pass writes new files:
    ext4 flushes a truncated and rewritten file on close, which would add
    disk waits that have nothing to do with the program."""
    path = os.path.join(work, name)
    os.makedirs(path)
    return path


def measure_setup(warmup, work: str, chk: Checker) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        warm_argvs = warmup(fresh_dir(work, f"setup{i}"))
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, json.dumps(warm_argvs)],
                              stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        if chk.check(proc.returncode == 0, f"set-up probe: exit code {proc.returncode}"):
            samples.append(float(proc.stdout.splitlines()[-1]))
    return samples


def timed_loop(args, cli, work, build, check, corrupt, chk: Checker) -> dict:
    walls, cpus, cmd_runs = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        body = time.perf_counter()
        it_dir = fresh_dir(work, f"it{i}")
        calls, ctx = build(np.random.default_rng([args.seed, i]), it_dir)
        results, wall, cpu, cmd_s = run_calls(cli, calls)
        check_outputs(check, ctx, calls, results, chk)
        if i == 0 and not self_test(check, corrupt, ctx, calls, results):
            raise RuntimeError("self-test: a corrupted output passed the checks")
        shutil.rmtree(it_dir)
        walls.append(wall)
        cpus.append(cpu)
        cmd_runs.append(cmd_s)
        i += 1
        now = time.perf_counter()
        # stop when one more iteration like the last would overrun --seconds
        if now - start + (now - body) > args.seconds:
            break
    print(f"# {i} iterations in {time.perf_counter() - start:.1f} s; "
          f"wall_s per iteration {[round(w, 3) for w in walls]}")
    for sub in sorted({s for run in cmd_runs for s in run}):
        print(f"cmd.{sub}_s = {statistics.median(run.get(sub, 0.0) for run in cmd_runs)!r} s")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, cli, work, build, check, corrupt, facts, chk: Checker) -> dict:
    def iteration0(name):
        return build(np.random.default_rng([args.seed, 0]), fresh_dir(work, name))

    calls, ctx = iteration0("untraced")
    results, wall_untraced, _cpu, cmd_s = run_calls(cli, calls)
    check_outputs(check, ctx, calls, results, chk)

    calls, ctx = iteration0("traced")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("workload"):
            results, wall_traced, _cpu, _cmd = run_calls(cli, calls, tracer)
    finally:
        tracer.uninstall()
    check_outputs(check, ctx, calls, results, chk)
    if not self_test(check, corrupt, ctx, calls, results):
        raise RuntimeError("self-test: a corrupted output passed the checks")

    # peak bytes need tracemalloc, which slows Python-heavy code: measure them
    # in a pass of their own, over the calls that reach the layers reporting them
    reaching = calls_reaching(tracer.spans, {"permanent.batch", "distribution.build"})
    calls, ctx = iteration0("memory")
    heavy = [calls[j] for j in reaching]
    memory = Tracer(memory=True)
    if heavy:
        tracemalloc.start()
        memory.install()
        try:
            run_calls(cli, heavy, memory)
        finally:
            memory.uninstall()
            tracemalloc.stop()

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": facts,
                   "missing_entry_points": tracer.missing,
                   "spans": tracer.spans, "memory_spans": memory.spans}, fh, default=str)
    print(f"# spans written to {path}; entry points missing: {tracer.missing or 'none'}")
    return layer_metrics(tracer.spans, memory.spans, cmd_s, wall_untraced, wall_traced)


def bench(args, work: str) -> int:
    warmup, build, check, corrupt = WORKLOADS[args.workload]
    facts = machine_facts()
    print("# machine: " + json.dumps(facts, sort_keys=True))
    chk = Checker()
    setup = measure_setup(warmup, work, chk)

    from scattershot import cli

    for argv in warmup(fresh_dir(work, "warm")):  # let lazy set-up finish before anything is timed
        chk.check(invoke(cli, argv).code == 0, f"warm-up {argv[0]}: failed")

    if args.trace:
        values = traced_run(args, cli, work, build, check, corrupt, facts, chk)
        declared = PER_LAYER
    else:
        values = timed_loop(args, cli, work, build, check, corrupt, chk)
        values["setup_s"] = statistics.median(setup)
        declared = [(name, unit, None) for name, unit in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"ops_total = {chk.attempted} count")
    print(f"ops_failed_frac = {chk.failed / chk.attempted!r} frac")
    for failure in chk.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/scattershot/cli.py", "configs") if not os.path.exists(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
