"""Benchmark worker: runs qfano CLI jobs in process, one at a time.

Started by run.py with the checkout's `src` directory as its first
argument.  It imports the package once, prints a ready line, then reads
one JSON request per line from stdin and answers each with one JSON line
on stdout:

    request  {"job": [[key, argv], ...], "trace": false}
    reply    {"wall": s, "cpu": s, "ref_wall": s, "ref_cpu": s,
              "exits": {key: code}, "errors": {...},
              "trace": null | {"stats": ..., "job_s": s, "gap_s": s,
                               "accounted_s": s}}

An untraced job is bracketed by two runs of the reference computation
in calibrate.py; ref_wall and ref_cpu are their means.  The run after one
untraced job is the run before the next, so each job adds only one.

At end of input it replies {"rss_kb": peak resident set of this process}
and exits.  The CLI's own stdout and stderr are captured per invocation,
so only protocol lines reach this process's stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import calibrate
import tracer as tracing


def run_invocation(main, argv):
    """Exit code and captured stderr of one cli.main call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def run_job(cli, modules, job, trace, before):
    """Run one job; `before` is the (wall, cpu) of the reference run just
    before it, or None.  Returns the reply and, for an untraced job, the
    reference run after it."""
    exits = {}
    errors = {}

    def body():
        for key, argv in job:
            # Look main up on each call so a traced run sees the wrapper.
            code, err = run_invocation(cli.main, argv)
            exits[key] = code
            if code:
                errors[key] = err[-2000:]

    if trace:
        cpu = time.process_time()
        tracer = tracing.Tracer()
        with tracing.Patch(tracer, modules):
            tracer.job(body)
        report = {"stats": tracer.stats, "job_s": tracer.job_s,
                  "gap_s": tracer.gap_s, "accounted_s": tracer.accounted_s()}
        return {"wall": tracer.job_s, "cpu": time.process_time() - cpu,
                "exits": exits, "errors": errors, "trace": report}, None
    before = before or calibrate.reference()
    cpu = time.process_time()
    start = time.perf_counter()
    body()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    after = calibrate.reference()
    return {"wall": wall, "cpu": cpu,
            "ref_wall": (before[0] + after[0]) / 2,
            "ref_cpu": (before[1] + after[1]) / 2,
            "exits": exits, "errors": errors, "trace": None}, after


def serve(src, stdin, stdout):
    sys.path.insert(0, src)
    modules = tracing.load_layers()
    from qfano import cli

    def send(obj):
        stdout.write(json.dumps(obj) + "\n")
        stdout.flush()

    send({"ready": True})
    reference = None
    for line in stdin:
        request = json.loads(line)
        reply, reference = run_job(cli, modules, request["job"],
                                   request["trace"], reference)
        send(reply)
    send({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    serve(sys.argv[1], sys.stdin, sys.stdout)
