"""roblearn benchmark: fixed CLI job mixes, timed end to end and traced by layer.

    python3 perfbench/run.py --workload eval-lp --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload eval-lp --seed 1 --seconds 28 --trace 1

Run from the repository root. Jobs go through roblearn.cli.main(argv) in this
process, one after another (a closed loop with one client), with the numpy
backend. A pass runs every job of the workload once; passes repeat for
--seconds. Every job's output is checked (see checks.py) and must be
byte-identical across passes.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracing.py. The last stdout
line is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3  # per timing series
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="write the workload's inputs under --workdir and exit")
    ap.add_argument("--workdir", default=None)
    return ap.parse_args(argv)


def _prepare_environment() -> None:
    """Pin the backend and the thread cap, then make ./src importable."""
    if not os.path.isfile(os.path.join(SRC, "roblearn", "__init__.py")):
        sys.exit(f"error: no roblearn sources under {SRC}; run from a repository checkout")
    os.environ["ROBLEARN_BACKEND"] = "numpy"
    os.environ.setdefault("ROBLEARN_THREADS", "1")
    sys.path.insert(0, SRC)


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    import numpy
    import roblearn

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": roblearn.active_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "roblearn_threads": os.environ.get("ROBLEARN_THREADS"),
        "commit": _git_commit(),
    }


def _timed_setups(args, workdir: str, repeats: int) -> list:
    """Wall seconds of fresh processes that import roblearn and write the
    workload's inputs: the set-up a user pays before the first job."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait returns the moment the child exits; wait(timeout)
        # would poll in steps of up to 50 ms and quantize the measurement
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            sys.exit(f"error: workload set-up exited {code}")
    return times


class Ledger:
    """Per-job outcome bookkeeping across the passes of one run."""

    def __init__(self):
        self.first: dict = {}  # job name -> (output bytes, problems)
        self.attempted = 0
        self.failures: list = []

    def record(self, job, code) -> None:
        import checks

        self.attempted += 1
        if code != 0:
            self.failures.append(f"{job.name}: exit code {code}")
            return
        try:
            blobs = []
            for path in job.side_files:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
        except OSError as exc:
            self.failures.append(f"{job.name}: missing output ({exc})")
            return
        if job.name not in self.first:
            try:
                problems = job.check(checks.parse_doc(blobs[0].decode("utf-8")))
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            self.first[job.name] = (blobs, problems)
        first_blobs, problems = self.first[job.name]
        if blobs != first_blobs:
            self.failures.append(f"{job.name}: output differs from the first pass")
        elif problems:
            self.failures.append(f"{job.name}: " + "; ".join(problems))


class Calibration:
    """A fixed piece of interpreter and small-numpy work, like the program's
    per-row loops, that does not depend on roblearn. On a shared virtual
    machine the CPU speed swings by half over tens of seconds; this loop,
    timed next to each job, slows down with it, and a pass measured in loop
    units (pass_cal) cancels much of the swing."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.X = rng.standard_normal((256, 5))
        self.w = rng.standard_normal(5)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(80):
            for x in self.X:
                total += float(self.w @ x) / (1.0 + abs(float(x[0])))
            total = len(f"{total:.17g}") / 17.0
        return time.perf_counter() - t0


def run_pass(jobs, ledger: Ledger, tracer=None, calibration=None) -> tuple:
    """Run every job once; return the summed job wall time and, with a
    calibration, the same pass in calibration units: each job's time over the
    mean of the calibration times measured just before and just after it.
    Checks run afterwards, outside the timed region."""
    import roblearn.cli

    codes, times = [], []
    cal = [calibration()] if calibration else []
    if tracer is not None:
        tracer.enter(tracer.ROOT)
    for job in jobs:
        t0 = time.perf_counter()
        try:
            codes.append(roblearn.cli.main(list(job.argv)))
        except Exception:  # an escaped exception is a failed job, not a crashed run
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
        times.append(time.perf_counter() - t0)
        if calibration:
            cal.append(calibration())
    if tracer is not None:
        tracer.exit()
    for job, code in zip(jobs, codes):
        ledger.record(job, code)
    units = sum(t / ((a + b) / 2.0) for t, a, b in zip(times, cal, cal[1:])) if calibration else None
    return sum(times), units


def _quartiles(values) -> tuple:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _fits(start: float, seconds: float, samples: list) -> bool:
    """Whether one more pass of typical length ends inside the window."""
    return time.perf_counter() - start + statistics.median(samples) <= seconds


def _summary(name: str, unit: str, values: list) -> None:
    q1, q3 = _quartiles(values)
    print(f"{name}: median {statistics.median(values):.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
          f"n {len(values)}  samples " + " ".join(f"{v:.4g}" for v in values))


def _untraced(args, jobs, setups) -> tuple:
    ledger = Ledger()
    calibration = Calibration()
    passes, units = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or _fits(start, args.seconds, passes):
        seconds, cal_units = run_pass(jobs, ledger, calibration=calibration)
        passes.append(seconds)
        units.append(cal_units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _summary("setup_s", "s", setups)
    _summary("pass_s", "s", passes)
    _summary("pass_cal", "ratio", units)
    print(f"peak_rss_mb: {rss_mb:.1f} MB")
    # pass_s is printed, not reported: host speed swings move its run median
    # by more than any usable bound, while pass_cal cancels most of them
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_cal": {"value": statistics.median(units), "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return ledger, metrics


def _traced(args, jobs) -> tuple:
    import tracing

    ledger = Ledger()
    plain, tracers, pairs = [], [], []
    start = time.perf_counter()
    while len(pairs) < MIN_PASSES or _fits(start, args.seconds, pairs):
        t0 = time.perf_counter()
        plain.append(run_pass(jobs, ledger)[0])
        tracer = tracing.Tracer()
        with tracing.Instrumented(tracer):
            run_pass(jobs, ledger, tracer)
        tracers.append(tracer)
        pairs.append(time.perf_counter() - t0)
    values = tracing.layer_metrics(tracers, statistics.median(plain))
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    for name, unit, _ in tracing.LAYER_METRICS:
        print(f"{name}: {values[name]:.6g} {unit}")
    print(f"traced passes {len(tracers)}, untraced passes {len(plain)}")
    return ledger, {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _prepare_environment()
    import roblearn  # noqa: F401  (applies the thread cap before numpy loads)

    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        if not args.workdir:
            sys.exit("error: --setup-only needs --workdir")
        workloads.build(args.workload, args.seed, args.workdir, write=True)
        return 0

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = _timed_setups(args, workdir, SETUP_REPEATS if args.trace == 0 else 1)
        jobs = workloads.build(args.workload, args.seed, workdir, write=False)
        print("env: " + json.dumps(environment_stamp(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
              f"closed loop, one client")
        if args.trace:
            ledger, metrics = _traced(args, jobs)
        else:
            ledger, metrics = _untraced(args, jobs, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))
    failed = len(ledger.failures)
    for line in ledger.failures[:20]:
        print("FAILED " + line)
    print(f"failed_ops: {failed}/{ledger.attempted} = {failed / ledger.attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
