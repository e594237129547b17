"""Closed-loop benchmark of the ``secclasses`` CLI, one fresh process per job.

Run from the root of a checkout::

    python3 perfbench/bench.py --workload cohomology-q8 --seed 1 \\
        --seconds 55 --trace 0

One client starts one ``secclasses`` process at a time and waits for it to
exit with its stdout fully read, for about ``--seconds``; each job's stdout
is then checked against the workload's reference sha256, byte length and
semantic check (``workloads.py``).  The program is run from ``src/`` of
the checkout; nothing is installed.

``--trace 0`` reports the end-to-end metrics:

* ``job_s_p50`` (s): median wall time per job, from spawn until the process
  has exited and its stdout is fully read;
* ``cpu_s_p50`` (s): median user plus system CPU time of the child, from
  the rusage ``os.wait4`` returns;
* ``jobs_per_s`` (1/s): correct jobs divided by the loop's wall time;
* ``peak_rss_mb`` (MB): median of the children's ``ru_maxrss``;
* ``setup_s`` (s): median wall time of a fresh
  ``python -c "import secclasses.cli"``, the fixed cost every invocation
  pays, measured before the loop;
* ``fail_frac``: failed jobs divided by attempted jobs, where a job fails
  on a nonzero exit, a timeout, a stdout that differs from the reference
  or a failed semantic check.  It is printed with the metrics and carried
  by the ``failed`` and ``attempted`` fields of the result line; it is not
  a metric of its own there, because at a correct commit it is always 0.

A run holds too few jobs for any percentile above the median to have ten
samples beyond it, so timings are reported as medians with their sample
count.

``--trace 1`` runs one traced job through ``tracer.py`` (spans and counters
installed from outside the program, under ``tracemalloc``), checks its
captured stdout against the same reference, then runs untraced jobs for
the rest of ``--seconds`` to give ``trace.overhead_ratio``: the traced
job's wall time over the untraced ``job_s_p50``.  The spans are also kept
in ``.perfbench/`` of the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics with units and the run's metadata (Python version, CPU count and
model, git commit, a hash of ``src/``, the seed and the sample count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("job_s_p50", "s"),
    ("cpu_s_p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# What the installed ``secclasses`` console script runs.
ENTRY = ("import sys; from secclasses.cli import main_entry; "
         "sys.argv[0] = 'secclasses'; main_entry()")
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 60.0
TRACED_TIMEOUT_S = 120.0
# Everything must be over well within the 180 s a run is allowed.
RUN_DEADLINE_S = 165.0


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None when the job was killed at its timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Loop:
    jobs: list[Job] = field(default_factory=list)
    failures: list[str | None] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def percentile(values, pct: float) -> float:
    """Percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def run_job(cmd: list[str], env: dict, timeout: float) -> Job:
    """Run one child to completion, reading both pipes, and reap it with
    ``os.wait4`` for its rusage.  A child still running at ``timeout`` is
    killed and reported with ``exit_code`` None."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in (proc.stdout, proc.stderr):
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               None if killed else proc.returncode, out, err)


def job_failure(job: Job, workload: Workload, expected) -> str | None:
    """Why a job counts as failed, or None when its output is correct."""
    if job.exit_code is None:
        return "timeout"
    if job.exit_code != 0:
        tail = job.stderr.decode(errors="replace").strip()[-200:]
        return f"exit code {job.exit_code}: {tail}"
    reasons = []
    if (len(job.stdout) != workload.nbytes
            or hashlib.sha256(job.stdout).hexdigest() != workload.sha256):
        reasons.append("stdout differs from the reference")
    try:
        reasons.append(workload.check(job.stdout, expected))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reasons.append(f"semantic check raised {exc!r}")
    return "; ".join(r for r in reasons if r) or None


def closed_loop(cmd: list[str], env: dict, failure_of, seconds: float,
                deadline: float, job_timeout: float = JOB_TIMEOUT_S) -> Loop:
    """Run jobs back to back for about ``seconds`` (at least one job).

    Another job starts only while it is expected to end less than half a
    typical job past ``seconds``, so that a run lasts ``seconds`` on
    average.  Outputs are checked after the loop, so the checks' cost
    stays out of ``wall_s``.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        loop.jobs.append(
            run_job(cmd, env, max(0.0, min(job_timeout, deadline - now))))
        now = time.perf_counter()
        typical = percentile([j.wall_s for j in loop.jobs], 50)
        if now - start + typical / 2 >= seconds or now >= deadline:
            break
    loop.wall_s = time.perf_counter() - start
    loop.failures = [failure_of(job) for job in loop.jobs]
    return loop


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_times(env: dict, repeats: int) -> list[float]:
    """Wall times of ``repeats`` fresh ``import secclasses.cli`` processes.

    One untimed import goes first, so that bytecode compiled on a fresh
    checkout is not charged to the first sample, and so that a checkout
    without the program fails here, before any result is printed.
    """
    if not (SRC / "secclasses" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'secclasses'}")
    cmd = [sys.executable, "-c", "import secclasses.cli"]
    times = []
    for i in range(repeats + 1):
        job = run_job(cmd, env, JOB_TIMEOUT_S)
        if job.exit_code != 0:
            raise SetupError("importing secclasses.cli failed: "
                             + job.stderr.decode(errors="replace"))
        if i:
            times.append(job.wall_s)
    return times


def expected_for(workload: Workload):
    sys.path.insert(0, str(SRC))
    try:
        return workload.expected()
    except ImportError as exc:
        raise SetupError(f"cannot import the program: {exc}") from exc


def metadata(seed: int, samples: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "secclasses").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "samples": samples,
    }


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    correct = loop.attempted - loop.failed
    return {
        "job_s_p50": percentile([j.wall_s for j in loop.jobs], 50),
        "cpu_s_p50": percentile([j.cpu_s for j in loop.jobs], 50),
        "jobs_per_s": correct / loop.wall_s,
        "peak_rss_mb": percentile([j.rss_mb for j in loop.jobs], 50),
        "setup_s": setup_s,
    }


def traced_run(workload: Workload, expected, env: dict, seed: int,
               seconds: float, deadline: float) -> tuple[Loop, dict]:
    """One traced job, then untraced jobs for the rest of ``seconds``."""
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{workload.name}-seed{seed}.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
           "--out", str(out), "--job", f"{workload.name}/seed{seed}/0",
           "--", *workload.argv]
    start = time.perf_counter()
    traced = run_job(cmd, env, min(TRACED_TIMEOUT_S,
                                   deadline - time.perf_counter()))
    failure = job_failure(traced, workload, expected)
    if out.exists():
        with open(out) as fh:
            layers = tracer.layer_metrics(json.load(fh))
    else:
        failure = failure or "traced job wrote no trace"
        layers = {m: 0.0 for m, _ in tracer.LAYER_METRICS}
    rest = max(0.0, seconds - (time.perf_counter() - start))
    loop = closed_loop([sys.executable, "-c", ENTRY, *workload.argv], env,
                       lambda j: job_failure(j, workload, expected),
                       rest, deadline)
    layers["trace.overhead_ratio"] = traced.wall_s / percentile(
        [j.wall_s for j in loop.jobs], 50)
    loop.jobs.insert(0, traced)
    loop.failures.insert(0, failure)
    return loop, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded; these workloads take no random input")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    env = child_env()
    try:
        setup_times = import_times(env, 0 if args.trace else SETUP_REPEATS)
        expected = expected_for(workload)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        loop, metrics = traced_run(workload, expected, env, args.seed,
                                   args.seconds, deadline)
        units = dict(tracer.LAYER_METRICS)
    else:
        loop = closed_loop([sys.executable, "-c", ENTRY, *workload.argv], env,
                           lambda j: job_failure(j, workload, expected),
                           args.seconds, deadline)
        metrics = end_to_end(loop, percentile(setup_times, 50))
        units = dict(END_TO_END)

    print(f"perfbench {workload.name}: `secclasses {' '.join(workload.argv)}`,"
          f" closed loop, 1 client, trace={args.trace}")
    print("meta " + json.dumps(metadata(args.seed, loop.attempted)))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':42s} {loop.fail_frac:>14.6g} ratio"
          f" ({loop.failed} of {loop.attempted} jobs)")
    for i, reason in enumerate(loop.failures):
        if reason:
            print(f"  job {i} failed: {reason}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
