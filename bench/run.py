"""Run one frobmat benchmark workload and print its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Workloads are ``catalog``, ``structure`` and ``converse`` (see README.md);
``--workload all`` runs each of them in its own process, one after the other.
The program under test is imported from ``src/`` next to this directory.

With ``--trace 0`` the run sets the workload up several times (reporting the
median as ``setup_s``), then runs the job list in one timed loop that stops
when the list is done or ``--seconds`` have passed, and prints the end-to-end
metrics. With ``--trace 1`` it runs the jobs untraced for half the time, then
the same jobs again under the tracer, and prints the per-layer metrics.
Every job's output is checked against ``reference.json`` after the loop; a
job that raises or whose output differs counts as failed. The last line of
standard output is one JSON object with the run's result.

Times are reported at a reference machine speed: after every job and every
set-up the run times a fixed pure-Python calibration loop, and each time is
scaled by the reference calibration time over the mean of the calibrations
taken around it. The raw times are printed next to them; README.md says why.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# latency estimates average one order statistic on each side per this many jobs
ORDER_WINDOW_PER = 25
# mean calibration time on the reference machine (2 shared cores,
# CPython 3.11); it only sets the scale of the reported times
CALIBRATION_REFERENCE_S = 0.003
# a job is rated by the calibrations taken from this long before it starts
# to this long after it ends
CALIBRATION_WINDOW_S = 0.5


def calibrate() -> float:
    """Time one pass of a fixed loop that builds tuples, frozensets and a
    dict, the kind of work frobmat does; it tracks how fast the machine
    runs right now."""
    t0 = time.perf_counter()
    table: dict = {}
    seen: set = set()
    for i in range(3000):
        key = (i, i * 7 % 13, i % 5)
        table[key] = len(seen)
        seen.add(frozenset(key))
    return time.perf_counter() - t0


@dataclass
class Loop:
    """What one timed loop produced: per job its latency, the digest of its
    canonical output, or the text of the exception it raised; and when each
    job and each calibration ran."""

    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    started: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    calibrated_at: list = field(default_factory=list)
    job_time: float = 0.0

    def scaled(self) -> list[float]:
        """Each job's latency at the reference speed: scaled by the reference
        calibration time over the mean of the calibrations taken within
        CALIBRATION_WINDOW_S of the job."""
        out = []
        for start, latency in zip(self.started, self.latencies):
            lo = bisect.bisect_left(self.calibrated_at, start - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(self.calibrated_at, start + latency + CALIBRATION_WINDOW_S)
            near = self.calibration[lo:hi]
            out.append(latency * CALIBRATION_REFERENCE_S * len(near) / sum(near))
        return out


def import_frobmat() -> None:
    """Import frobmat from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import frobmat
    except ImportError as exc:
        raise SystemExit(f"error: cannot import frobmat from {src}: {exc}")
    if src.resolve() not in Path(frobmat.__file__).resolve().parents:
        raise SystemExit(f"error: frobmat was imported from {frobmat.__file__}, not {src}")


def run_jobs(jobs, seconds: float, tracer=None) -> Loop:
    """Run jobs in order until the list ends or ``seconds`` of job time
    have passed.

    After each job, outside its timing, the output is digested and dropped
    (so the heap does not grow with the run) and the machine is calibrated.
    """
    from workloads import digest

    loop = Loop()
    perf = time.perf_counter
    for i, job in enumerate(jobs):
        if i and loop.job_time >= seconds:
            break
        if tracer is not None:
            tracer.job = i
        t0 = perf()
        try:
            out = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            latency = perf() - t0
            loop.digests.append(None)
            loop.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            latency = perf() - t0
            loop.digests.append(digest(job.canon(out)))
            loop.errors.append(None)
            out = None
        loop.job_time += latency
        loop.latencies.append(latency)
        loop.started.append(t0)
        loop.calibrated_at.append(perf())
        loop.calibration.append(calibrate())
    return loop


def check(jobs, loop: Loop, reference) -> dict[int, str]:
    """Why each failed job failed, by position in the loop."""
    failed = {}
    for i, (job, found, err) in enumerate(zip(jobs, loop.digests, loop.errors)):
        if err is not None:
            failed[i] = f"{job.key}: raised {err}"
        elif found != reference.get(job.key):
            failed[i] = f"{job.key}: output differs from the reference"
    return failed


def order_window(n: int) -> int:
    """How many neighbouring order statistics on each side a latency
    estimate averages: single ones move by the machine's noise on one job."""
    return n // ORDER_WINDOW_PER


def p50(latencies: list[float]) -> float:
    """The median, estimated as the mean of the middle latencies."""
    ordered = sorted(latencies)
    m, w = len(ordered) // 2, order_window(len(ordered))
    return statistics.mean(ordered[max(0, m - w): m + w + 1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with TAIL_BEYOND jobs
    above it, estimated as the mean of the latency there and the ones just
    below it; the maximum when there are too few jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND - 1
    low = max(n // 2, rank - order_window(n))
    return 100.0 * (n - TAIL_BEYOND) / n, statistics.mean(ordered[min(low, rank): rank + 1])


def set_up(workload: str, seed: int):
    """Build the job list SETUP_REPEATS times, calibrating after each build;
    (jobs, median build time, the same at the reference speed)."""
    from workloads import build

    times, calibration, jobs = [], [], None
    for _ in range(SETUP_REPEATS):
        jobs = None
        gc.collect()
        t0 = time.perf_counter()
        jobs = build(workload, seed)
        times.append(time.perf_counter() - t0)
        calibration.append(calibrate())
    raw = statistics.median(times)
    return jobs, raw, raw * CALIBRATION_REFERENCE_S / statistics.mean(calibration)


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:42s} {value:14.6g} {unit:6s} {note}".rstrip())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    jobs, setup_raw, setup_s = set_up(workload, seed)
    gc.collect()
    if trace:
        return run_traced(workload, seed, seconds, jobs, reference)
    loop = run_jobs(jobs, seconds)
    n = len(loop.latencies)
    failed = check(jobs[:n], loop, reference)
    done = n - len(failed)
    scaled = loop.scaled()
    pct, tail_s = tail(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {workload}  seed {seed}  {n} of {len(jobs)} jobs in {loop.job_time:.3f} s, "
          f"{sum(scaled):.3f} s at the reference speed")
    metrics = {
        "jobs_per_s": (done / sum(scaled), "1/s",
                       f"({done} jobs completed; raw {done / loop.job_time:.4g})"),
        "job_ms.p50": (1000 * p50(scaled), "ms",
                       f"({n} jobs; raw {1000 * p50(loop.latencies):.4g})"),
        "job_ms.tail": (1000 * tail_s, "ms",
                        f"(p{pct:.1f} of {n} jobs, {TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond it; "
                        f"raw {1000 * tail(loop.latencies)[1]:.4g})"),
        "failed_frac": (len(failed) / n, "ratio",
                        f"({len(failed)} of {n} jobs raised or differ from the reference)"),
        "setup_s": (setup_s, "s", f"(median of {SETUP_REPEATS} set-ups; raw {setup_raw:.4g})"),
        "peak_rss_mb": (rss_mb, "MB", "(peak resident memory of this process)"),
    }
    # failed_frac is 0 on a healthy run, so it is reported through the
    # result's "failed" count rather than as a bounded metric
    return finish(metrics, n, failed, exclude=("failed_frac",))


def run_traced(workload, seed, seconds, jobs, reference) -> dict:
    from tracing import NOTES, Tracer
    from workloads import build

    plain = run_jobs(jobs, seconds / 2)
    n = len(plain.latencies)
    failed = check(jobs[:n], plain, reference)
    again = build(workload, seed)[:n]
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = run_jobs(again, float("inf"), tracer)
    for i, reason in check(again, traced, reference).items():
        failed.setdefault(i, "traced " + reason)
    for i, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            failed.setdefault(i, f"{again[i].key}: traced output differs from the untraced one")
    spans = tracer.write(BENCH / "out" / f"spans-{workload}")
    print(f"workload {workload}  seed {seed}  {n} jobs: untraced {plain.job_time:.3f} s, "
          f"traced {traced.job_time:.3f} s; {len(tracer.start)} spans in {spans.relative_to(ROOT)}")
    overhead = 1 - sum(plain.scaled()) / sum(traced.scaled())
    metrics = {
        name: (value, unit, f"({NOTES[name]})" if name in NOTES else "")
        for name, (value, unit) in tracer.metrics(overhead).items()
    }
    return finish(metrics, n, failed)


def finish(metrics: dict, attempted: int, failed: dict[int, str], exclude=()) -> dict:
    for i in sorted(failed)[:20]:
        print(f"failed job {failed[i]}")
    for name, (value, unit, note) in metrics.items():
        show(name, value, unit, note)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name not in exclude
        },
    }


def run_all(args) -> dict:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "structure", "converse", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_frobmat()
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
