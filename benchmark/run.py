"""kerneltower benchmark: the CLI run as users run it, on named workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a kerneltower checkout.  Load model: one closed-
loop client, concurrency 1.  Each CLI invocation is a fresh interpreter
calling ``kerneltower.cli.main`` with the checkout's ``src`` on
PYTHONPATH.  A job is one pass of the workload's invocation sequence
(see workloads.py); jobs repeat until T seconds have passed, and every
timing is a median over the jobs of the run.

Timings are CPU seconds (user + system) of the CLI processes, which with
one client and single-threaded BLAS is the wall time minus waiting for a
processor.  On a shared 2-core VM the wall time of one tree tower
invocation varied by 8-17% between repeats while its CPU time varied by
about 1-5%; wall-clock medians are printed and recorded alongside.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs one untraced job and then traced jobs (tracing.py) and reports the
per-layer metrics, including the tracing overhead.  Every invocation's
output is checked (checks.py); a failed check or an unexpected exit code
fails the invocation.  The last stdout line is the JSON result; the full
record, with the run environment, goes to .bench_runs/.
"""

import os
import sys

BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy loads, so this process matches its children

import argparse
import json
import platform
import re
import shutil
import statistics
import subprocess
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from checks import bundle_digest, check_step
from tracing import span_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 170
# verify prints one line per criterion as it finishes; a stage's verdicts
# are out with the line of its last criterion.
VERIFY_STAGES = (("tower", 3), ("diagonal", 6), ("gaussian", 8), ("boundary", 11))
CRITERION_LINE = re.compile(r"\[(?:PASS|FAIL)\] criterion\s+(\d+)")


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float     # user + system CPU seconds of the child
    maxrss_mib: float
    stdout: str
    stderr: str


def invoke(argv: list, env: dict, base: Path) -> Invocation:
    """Run one child to completion, with stdout and stderr in files at ``base``."""
    out_path, err_path = base.with_suffix(".stdout"), base.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def verify_stage_times(lines: list, stamps: list) -> dict:
    """Per verify stage, the process CPU time when its last criterion's line
    was written: the time to that stage's verdicts."""
    at = {}
    for line, stamp in zip(lines, stamps):
        match = CRITERION_LINE.match(line)
        if match:
            at[int(match.group(1))] = stamp
    return {stage: at[last] for stage, last in VERIFY_STAGES if last in at}


def run_job(workload, k: int, work: Path, env: dict, traced: bool) -> dict:
    job_dir = work / f"job{k}"
    job_dir.mkdir(parents=True)
    job = {"traced": traced, "cpu_s": 0.0, "wall_s": 0.0, "stage_s": {}, "stage_wall_s": {},
           "maxrss_mib": 0.0, "invocations": len(workload.steps), "failures": [],
           "failed": 0, "digests": {}, "values": Counter(), "spans": []}
    for step in workload.steps:
        out = job_dir / step.stage
        side = job_dir / f"{step.stage}.{'spans' if traced else 'stamps'}.json"
        mode = ["trace", str(side), f"job{k}"] if traced else ["cli", str(side)]
        argv = [sys.executable, str(LAUNCHER), *mode, *step.args, "--out", str(out)]
        inv = invoke(argv, env, job_dir / step.stage)
        failures, values = check_step(step, out, inv.exit_code, inv.stderr,
                                      inv.stdout.splitlines())
        job["cpu_s"] += inv.cpu_s
        job["wall_s"] += inv.wall_s
        job["maxrss_mib"] = max(job["maxrss_mib"], inv.maxrss_mib)
        job["stage_wall_s"][step.stage] = inv.wall_s
        if traced:
            if side.is_file():
                job["spans"].append(json.loads(side.read_text()))
            else:
                failures.append(f"{step.stage}: no spans written")
        elif step.stage == "verify":
            stamps = json.loads(side.read_text()) if side.is_file() else []
            job["stage_s"].update(verify_stage_times(inv.stdout.splitlines(), stamps))
        else:
            job["stage_s"][step.stage] = inv.cpu_s
        for name, value in values.items():
            job["values"][name] = max(job["values"][name], value)
        job["values"]["reports.bytes"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0
        job["digests"][step.stage] = bundle_digest(out)
        if failures:
            job["failures"].extend(failures)
            job["failed"] += 1
    return job


def time_setup(workload, env: dict, work: Path) -> tuple[list, list]:
    """CPU seconds of fresh set-up processes; the first, untimed, compiles bytecode."""
    config = str(workload.config) if workload.config else "-"
    argv = [sys.executable, str(LAUNCHER), "setup", config]
    times, failures = [], []
    for k in range(SETUP_REPEATS + 1):
        inv = invoke(argv, env, work / "setup")
        if inv.exit_code != 0:
            failures.append(f"setup: exit {inv.exit_code}: {inv.stderr.strip()[-200:]}")
        elif k:
            times.append(inv.cpu_s)
    return times, failures


def trace_tables(job: dict) -> dict:
    """Span self times, inclusive times and calls by span name, layer self
    times and counts, summed over the invocations of one traced job."""
    self_s, total_s, calls, counts = Counter(), Counter(), Counter(), Counter()
    for dump in job["spans"]:
        s, t, c = span_times(dump["spans"])
        self_s.update(s)
        total_s.update(t)
        calls.update(c)
        counts.update(dump["counts"])
    counts.update(job["values"])
    layers = Counter()
    for name, value in self_s.items():
        layers[name.split(".")[0]] += value
    layers["unaccounted"] = job["cpu_s"] - total_s["cli"]
    return {"self": self_s, "total": total_s, "calls": calls, "counts": counts,
            "layers": layers, "cpu_s": job["cpu_s"]}


def layer_metrics(names: list, tables: list, untraced_job_s: float) -> dict:
    """Per-layer metrics, each a median over the traced jobs.

    ``<layer>.self_s`` sums the self times of the layer's spans; any other
    ``<span>_s`` is the self time of that span; the rest are counts.
    """
    rows = []
    for t in tables:
        row = {}
        for name in names:
            if name == "trace.job_s":
                row[name] = t["cpu_s"]
            elif name == "trace.overhead_s":
                row[name] = t["cpu_s"] - untraced_job_s
            elif name == "trace.unaccounted_s":
                row[name] = t["layers"]["unaccounted"]
            elif name.endswith(".self_s"):
                row[name] = t["layers"][name[: -len(".self_s")]]
            elif name.endswith("_s"):
                row[name] = t["self"][name[:-2]]
            else:
                row[name] = t["counts"][name]
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in names}


def median_table(tables: list, key: str) -> dict:
    names = sorted(set().union(*(t[key] for t in tables)))
    return {name: statistics.median(t[key][name] for t in tables) for name in names}


def end_to_end_metrics(names: list, jobs: list, setup_times: list) -> dict:
    values = {}
    for name in names:
        if name == "setup_s":
            values[name] = statistics.median(setup_times) if setup_times else 0.0
        elif name == "job_s":
            values[name] = statistics.median(job["cpu_s"] for job in jobs)
        elif name == "peak_rss_mb":
            values[name] = max(job["maxrss_mib"] for job in jobs)
        else:
            stage = name[: -len("_s")]
            times = [job["stage_s"][stage] for job in jobs if stage in job["stage_s"]]
            values[name] = statistics.median(times) if times else 0.0
    return values


def _cpu_facts() -> dict:
    facts = {"cpu_model": platform.processor() or platform.machine(), "cache_size": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    facts["cpu_model"] = value.strip()
                elif key.strip() == "cache size":
                    facts["cache_size"] = value.strip()
                    break
    except OSError:
        pass
    return facts


def _blas() -> tuple[dict, int | None]:
    """BLAS library facts and its live thread count, when OpenBLAS reports one."""
    import ctypes

    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lib = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        lib = {"name": None, "version": None}
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return lib, int(fn())
    return lib, None


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    blas, threads = _blas()
    effective = threads if threads is not None else BLAS_THREADS
    return {
        "nproc": nproc,
        **_cpu_facts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_exceed_nproc": effective > nproc,
        "git_commit": _git_commit(root),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "kerneltower" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from the root of a kerneltower checkout "
              "(needs src/kerneltower and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = root / ".bench_runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = runs / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **BLAS_ENV)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup_times, failures = time_setup(workload, env, work)

        jobs = []
        t0 = time.perf_counter()
        while not jobs or time.perf_counter() - t0 < args.seconds or (args.trace and len(jobs) < 2):
            job = run_job(workload, len(jobs), work, env, traced=bool(args.trace and jobs))
            if jobs:
                for stage, digest in job["digests"].items():
                    if digest != jobs[0]["digests"][stage]:
                        job["failures"].append(f"{stage}: bundle differs from job 0's")
                        job["failed"] += 1
                shutil.rmtree(work / f"job{len(jobs)}")
            jobs.append(job)

        final = workload.final_check(work / "job0") if workload.final_check else []
        if final:  # every job wrote job 0's bundles, so every job fails
            for job in jobs:
                job["failures"].extend(final)
                job["failed"] += 1

        attempted = sum(job["invocations"] for job in jobs) + SETUP_REPEATS + 1
        failed = sum(job["failed"] for job in jobs) + len(failures)
        trace = {}
        if args.trace:
            tables = [trace_tables(job) for job in jobs if job["traced"]]
            metrics = layer_metrics(names, tables, jobs[0]["cpu_s"])
            trace = {"layer_self_s": median_table(tables, "layers"),
                     "span_self_s": median_table(tables, "self"),
                     "span_inclusive_s": median_table(tables, "total"),
                     "span_calls": median_table(tables, "calls"),
                     "untraced_job_s": jobs[0]["cpu_s"]}
        else:
            metrics = end_to_end_metrics(names, jobs, setup_times)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(root),
            "setup_s": setup_times, "setup_failures": failures,
            "jobs": [{k: v for k, v in job.items() if k not in ("spans", "digests")}
                     for job in jobs],
            "metrics": metrics,
            "trace": trace,
        }
        (runs / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"workload {args.workload}: {len(jobs)} jobs "
          f"({sum(j['traced'] for j in jobs)} traced); {attempted} invocations "
          f"(set-up included), {failed} failed")
    for job in jobs:
        for failure in job["failures"]:
            print(f"FAILED {failure}")
    for failure in failures:
        print(f"FAILED {failure}")
    known = max((job["values"]["tower.nan_bounds"] for job in jobs), default=0)
    if known:
        print(f"known defect: {known} NaN entries in completion_bounds.csv per tower "
              "invocation (0*inf in the uncertified bound); counted, not failed")
    if trace:
        print("span                          self_s   inclusive_s    calls (medians over traced jobs)")
        for name, value in trace["span_self_s"].items():
            print(f"  {name:26s} {value:10.4f} {trace['span_inclusive_s'][name]:12.4f} "
                  f"{trace['span_calls'][name]:8g}")
        layers = trace["layer_self_s"]
        print("layer self times: " + ", ".join(f"{k} {v:.3f}" for k, v in layers.items())
              + f"; sum {sum(layers.values()):.3f} s = traced job_s "
              f"{metrics.get('trace.job_s', 0.0):.3f} s, untraced job_s "
              f"{trace['untraced_job_s']:.3f} s")
    wall = {"job": statistics.median(job["wall_s"] for job in jobs)}
    for stage in jobs[0]["stage_wall_s"]:
        wall[stage] = statistics.median(job["stage_wall_s"][stage] for job in jobs)
    print("wall-clock medians (reference only): "
          + ", ".join(f"{k} {v:.3f} s" for k, v in wall.items()))
    for name in names:
        print(f"{name:28s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
