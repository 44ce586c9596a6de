"""qfano benchmark: closed-loop CLI jobs with oracles and layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload jfun-flagship --seed 1 \
        --seconds 55 --trace 0

One client, closed loop: a single fresh worker process runs one job at a
time and the next starts only after this harness has checked the last.
With --trace 0 the run first times a fresh interpreter's
`reconstruct --verify-fixture` (setup_s), then runs jobs for about
--seconds and prints the end-to-end metrics.  Times are scaled to the
host's reference speed by the computations in calibrate.py, run next to
each timed job or set-up; the raw times are printed too.  With --trace 1 it runs one
untraced and one traced job and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A job fails on a nonzero exit, an oracle mismatch or an output digest
that differs from reference.json; `failed / attempted` is the fail ratio.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SRC = os.path.join("src", "qfano")
TMP_ROOT = ".bench_tmp"
STATE = os.path.join(".bench_state", "counts.json")
SETUP_ARGV = ["reconstruct", "--bundle", "flagship", "--verify-fixture"]
SETUP_STDOUT = ("p matrix matches flagship_mp.triplets (30 columns)\n"
                "xi matrix matches flagship_mxi.triplets (30 columns)\n")
SETUP_REPEATS = 21
REPLY_TIMEOUT_S = 120  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def source_digest():
    """sha256 over every file of the package and over the job definitions
    in workloads.py, so counts key on the code and the job sizes."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "workloads.py")]
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment(args, digest):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_env():
    """The package from this checkout, with bytecode caching on, so every
    fresh interpreter after the first imports compiled modules whatever
    the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed_run(argv, tmp):
    """(wall seconds, completed process) of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tmp, env=child_env(),
                          capture_output=True, text=True,
                          timeout=REPLY_TIMEOUT_S)
    return time.perf_counter() - start, done


def measure_setup(tmp):
    """Wall times of fresh interpreters running the setup command, and of
    the fresh reference interpreter (calibrate.py) run just before each.

    The first pair is a warm-up that also compiles bytecode into the
    checkout; only the ones after it are returned.
    """
    argv = [sys.executable, "-m", "qfano.cli"] + SETUP_ARGV
    reference_argv = [sys.executable, os.path.join(HERE, "calibrate.py")]
    times, refs = [], []
    for _ in range(SETUP_REPEATS + 1):
        ref, done = timed_run(reference_argv, tmp)
        if done.returncode != 0:
            raise BenchError("reference interpreter failed: %s"
                             % done.stderr)
        wall, done = timed_run(argv, tmp)
        if done.returncode != 0 or done.stdout != SETUP_STDOUT:
            raise BenchError("setup command failed (exit %d): %s%s"
                             % (done.returncode, done.stdout, done.stderr))
        times.append(wall)
        refs.append(ref)
    return times[1:], refs[1:]


class Worker:
    """The one worker process of a run, spoken to in JSON lines."""

    def __init__(self, tmp):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             os.path.abspath("src")],
            cwd=tmp, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.read()

    def read(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker stopped answering")
        return json.loads(line)

    def request(self, job, trace):
        self.proc.stdin.write(json.dumps({"job": job, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self):
        """Close input, collect the peak RSS reply, wait for the exit."""
        self.proc.stdin.close()
        reply = self.read()
        self.proc.wait(timeout=REPLY_TIMEOUT_S)
        return reply["rss_kb"]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


class Runner:
    """Runs and checks the jobs of one workload in one worker."""

    def __init__(self, workload, seed, tmp, reference):
        self.workload = workload
        self.tmp = tmp
        self.invocations = workloads.WORKLOADS[workload](tmp)
        self.orders = workloads.job_orders(self.invocations, seed)
        self.digests = reference.get("digests", {}).get(workload)
        self.jobs = 0
        self.failed = 0
        self.problems = []
        self.worker = Worker(tmp)

    def job(self, trace=False):
        """Run the next job; return (reply, output bytes, digests)."""
        self.jobs += 1
        jobdir = os.path.join(self.tmp, "job%d" % self.jobs)
        order = next(self.orders)
        outdirs = {inv.key: os.path.join(jobdir, inv.key) for inv in order}
        reply = self.worker.request(
            [[inv.key, inv.argv + ["--out", outdirs[inv.key]]]
             for inv in order], trace)
        problems = []
        digests = {}
        size = 0
        for inv in order:
            code = reply["exits"][inv.key]
            if code != 0:
                problems.append("%s: exit code %d: %s"
                                % (inv.key, code, reply["errors"][inv.key]))
                continue
            outdir = outdirs[inv.key]
            problems += ["%s: %s" % (inv.key, p) for p in inv.oracle(outdir)]
            digests[inv.key] = workloads.file_digests(outdir)
            size += workloads.output_bytes(outdir)
            if self.digests is not None and \
                    digests[inv.key] != self.digests.get(inv.key):
                problems.append("%s: output bytes differ from reference.json"
                                % inv.key)
        shutil.rmtree(jobdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += ["job %d %s" % (self.jobs, p) for p in problems]
        return reply, size, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timing_line(name, values, unit):
    lo, hi = quartiles(values)
    return ("%s: median %.4f %s, quartiles %.4f..%.4f, n=%d, samples %s"
            % (name, statistics.median(values), unit, lo, hi, len(values),
               " ".join("%.4f" % v for v in values)))


def run_end_to_end(runner, seconds, setup):
    """Closed loop: start another job only while one more job as long as
    the last, with its reference runs and checks, would still end within
    `seconds`.

    Each job's wall and CPU time is divided by those of the reference
    computation run around it and multiplied by calibrate.REFERENCE_S,
    which removes most of the host's drift in speed; the metrics are the
    medians of these scaled times.
    """
    walls, cpus, refs, scaled_walls, scaled_cpus = [], [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reply, _, _ = runner.job()
        walls.append(reply["wall"])
        cpus.append(reply["cpu"])
        refs.append(reply["ref_wall"])
        scaled_walls.append(reply["wall"] / reply["ref_wall"]
                            * calibrate.REFERENCE_S)
        scaled_cpus.append(reply["cpu"] / reply["ref_cpu"]
                           * calibrate.REFERENCE_S)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    rss_mb = runner.worker.finish() / 1024.0
    print(timing_line("raw job wall", walls, "s"))
    print(timing_line("raw job cpu", cpus, "s"))
    print(timing_line("reference around jobs", refs, "s"))
    setup_times, setup_refs = setup
    scaled_setup = [t / ref * calibrate.STARTUP_REFERENCE_S
                    for t, ref in zip(setup_times, setup_refs)]
    print(timing_line("raw setup", setup_times, "s"))
    print(timing_line("reference interpreter", setup_refs, "s"))
    print(timing_line("job_s", scaled_walls, "s"))
    print(timing_line("job_cpu_s", scaled_cpus, "s"))
    print(timing_line("setup_s", scaled_setup, "s"))
    return {
        "job_s": {"value": statistics.median(scaled_walls), "unit": "s"},
        "job_cpu_s": {"value": statistics.median(scaled_cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def check_counts(workload, digest, counts, reference):
    """Counts must repeat exactly for the same source; return defects."""
    known = {}
    if reference.get("source_sha256") == digest:
        known = reference.get("counts", {}).get(workload, {})
    state = {}
    if os.path.exists(STATE):
        with open(STATE) as fh:
            state = json.load(fh)
    key = "%s@%s" % (workload, digest)
    known = state.get(key, known)
    defects = ["benchmark defect: count %s was %s, now %s"
               % (name, known[name], counts.get(name))
               for name in sorted(known) if known[name] != counts.get(name)]
    if not known:
        state[key] = counts
        os.makedirs(os.path.dirname(STATE), exist_ok=True)
        with open(STATE, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
    return defects


def print_trace(report):
    rows = sorted(report["stats"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, stat in rows:
        if stat["calls"]:
            sizes = " ".join("%s=%d" % (k, v) for k, v in sorted(stat.items())
                             if k not in ("calls", "self_s"))
            print("  %-40s calls=%-6d self_s=%.4f %s"
                  % (name, stat["calls"], stat["self_s"], sizes))
    print("  traced job %.4f s = span self times %.4f s + harness gap "
          "%.4f s" % (report["job_s"], report["accounted_s"] - report["gap_s"],
                      report["gap_s"]))


def run_traced(runner):
    """One untraced then one traced job; per-layer metrics of the latter."""
    plain, _, plain_digests = runner.job()
    traced, size, traced_digests = runner.job(trace=True)
    runner.worker.finish()
    report = traced["trace"]
    if traced_digests != plain_digests:
        runner.problems.append("traced and untraced jobs wrote different "
                               "bytes")
    if abs(report["accounted_s"] - report["job_s"]) > 1e-6 * report["job_s"]:
        runner.problems.append("benchmark defect: self times do not add up "
                               "to the traced job time")
    overhead = traced["wall"] / plain["wall"]
    print_trace(report)
    print("trace_overhead: %.4f (traced %.4f s / untraced %.4f s)"
          % (overhead, traced["wall"], plain["wall"]))
    values = tracing.layer_metrics(report["stats"], report["gap_s"], size,
                                   overhead)
    return {name: {"value": val, "unit": tracing.unit(name)}
            for name, val in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles job order within the run")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the closed-loop measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        raise BenchError("run from the root of a qfano checkout: %s/cli.py "
                         "not found" % SRC)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    digest = source_digest()
    print("env: " + json.dumps(environment(args, digest), sort_keys=True))
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(TMP_ROOT))
    runner = None
    try:
        if args.trace:
            runner = Runner(args.workload, args.seed, tmp, reference)
            metrics = run_traced(runner)
            counts = {name: m["value"] for name, m in metrics.items()
                      if tracing.is_count(name)}
            runner.problems += check_counts(args.workload, digest, counts,
                                            reference)
        else:
            setup = measure_setup(tmp)
            runner = Runner(args.workload, args.seed, tmp, reference)
            metrics = run_end_to_end(runner, args.seconds, setup)
    finally:
        if runner is not None:
            runner.worker.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    print("jobs: %d attempted, %d failed" % (runner.jobs, runner.failed))
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.jobs, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
