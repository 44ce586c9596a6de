"""Self-test of the benchmark harness; takes a few seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks the span arithmetic with a fake clock, the module patching on
the real package, the oracles on good and tampered outputs, and a smoke
run of the worker on p1-trivial (P^1 x P^1, the n=1, r=2 product bundle)
at order 8, traced and untraced, including the byte-digest compare.
Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run
import tracer as tracing
import workloads

failures = []


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


class FakeClock:
    """Advances by a fixed step per reading, so spans have known lengths."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_span_arithmetic():
    tracer = tracing.Tracer(clock=FakeClock())

    def leaf():
        return [1, 2]

    leaf_t = tracer.wrap("m.leaf", leaf)
    outer_t = tracer.wrap("m.outer", lambda: leaf_t() + leaf_t())
    tracer.job(outer_t)
    # Clock readings: job start 1, outer start 2, leaf 3..4, leaf 5..6,
    # outer end 7, job end 8.
    check(tracer.stats["m.leaf"] == {"calls": 2, "self_s": 2.0},
          "leaf spans: 2 calls, 1 s each")
    check(tracer.stats["m.outer"] == {"calls": 1, "self_s": 3.0},
          "outer self time excludes its two child spans")
    check(tracer.job_s == 7.0 and tracer.gap_s == 2.0,
          "root span 7 s with a 2 s gap")
    check(tracer.accounted_s() == tracer.job_s,
          "self times plus gap equal the job time")

    sized = tracing.Tracer(clock=FakeClock())
    series = sized.wrap("qde.identity_series",
                        lambda: {(0, 0): workloads.Fraction(1, 8)})
    sized.job(series)
    stat = sized.stats["qde.identity_series"]
    check(stat["entries"] == 1 and stat["max_bits"] == 4,
          "size counts come from the returned object")
    # Readings: job 1, span 2..3, sizing 4..5, job end 6; the gap is the
    # three uncovered seconds of the root plus the sizing second.
    check(stat["self_s"] == 1.0 and sized.gap_s == 4.0,
          "sizing time is charged to the gap, not to a span")
    check(sized.accounted_s() == sized.job_s,
          "accounting holds with sizing")


def test_patching():
    sys.path.insert(0, os.path.abspath("src"))
    modules = tracing.load_layers()
    from qfano import cli, lefschetz, linalg, qde

    originals = (qde.j_series, linalg.nullspace, lefschetz.nullspace,
                 cli.main, cli.reconstruct)
    tracer = tracing.Tracer()
    tmp = tempfile.mkdtemp(dir=os.path.abspath(run.TMP_ROOT))
    try:
        with tracing.Patch(tracer, modules):
            check(lefschetz.nullspace is linalg.nullspace
                  and lefschetz.nullspace is not originals[1],
                  "names imported by other modules are patched too")
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.job(lambda: cli.main(
                    ["jfun", "--bundle", "p1-trivial", "--order", "3",
                     "--out", tmp]))
            tracer.job(lambda: lefschetz.find_annihilator(
                [workloads.Fraction(1)] * 8, 1, 1))
    finally:
        shutil.rmtree(tmp)
    check((qde.j_series, linalg.nullspace, lefschetz.nullspace, cli.main,
           cli.reconstruct) == originals,
          "every patched attribute is restored")
    stats = tracer.stats
    check(stats["cli.main"]["calls"] == 1
          and stats["qde.j_series"]["calls"] == 1
          and stats["reconstruct.reconstruct"]["calls"] == 1,
          "one span per layer call of a p1-trivial jfun")
    check(stats["qde.j_series"]["frames"] == 10
          and stats["qde.j_series"]["nnz"] > 0,
          "j_series counts 10 frames at order 3")
    check(stats["linalg.nullspace"]["calls"] == 1
          and stats["linalg.nullspace"]["rows"] == 8
          and stats["linalg.nullspace"]["cols"] == 4,
          "find_annihilator reaches the patched nullspace")
    check(stats["qde.identity_series"]["calls"] == 0,
          "identity_series is never called by jfun")
    check(abs(tracer.accounted_s() - tracer.job_s) < 1e-9,
          "real spans account for the job time")
    metrics = tracing.layer_metrics(tracer.stats, tracer.gap_s, 0, 1.0)
    check(all(isinstance(v, (int, float)) for v in metrics.values()),
          "every per-layer metric has a value")


def test_counts():
    reference = {"source_sha256": "abc",
                 "counts": {"w": {"qde.j_series.calls": 3}}}
    check(run.check_counts("w", "abc", {"qde.j_series.calls": 3},
                           reference) == [],
          "equal counts for the same source pass")
    check(len(run.check_counts("w", "abc", {"qde.j_series.calls": 4},
                               reference)) == 1,
          "a changed count for the same source is a benchmark defect")


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_oracles(tmp):
    fixtures = workloads.FIXTURES
    out = os.path.join(tmp, "jfun")
    os.makedirs(out)
    with open(os.path.join(fixtures, "apery_table_8x8.csv")) as fh:
        size = workloads.JFUN_APERY
        rows = [line.split(",")[:size]
                for line in fh.read().splitlines()[:size]]
    write(os.path.join(out, "apery.csv"),
          "".join(",".join(r) + "\n" for r in rows))
    indices = (workloads.JFUN_ORDER + 1) * (workloads.JFUN_ORDER + 2) // 2
    write(os.path.join(out, "operator_report.txt"), "".join(
        "annihilator_%d: residual zero at all %d indices\n" % (k, indices)
        for k in range(1, 5)))
    check(workloads.check_jfun_flagship(out) == [],
          "jfun oracle accepts the packaged table and report")
    rows[3][3] = "1446"
    write(os.path.join(out, "apery.csv"),
          "".join(",".join(r) + "\n" for r in rows))
    check(len(workloads.check_jfun_flagship(out)) == 1,
          "jfun oracle rejects a changed table entry")

    out = os.path.join(tmp, "periods")
    os.makedirs(out)
    terms = workloads.data_lines(
        os.path.join(fixtures, "regularized_periods10.txt"))
    write(os.path.join(out, "periods.txt"),
          "".join(t + "\n" for t in
                  terms + ["0"] * (workloads.PERIOD_TERMS - len(terms))))
    operator = " ".join(workloads.data_lines(
        os.path.join(fixtures, "pf_operator.txt")))
    negated = operator.replace("-", "#").replace("+", "-").replace("#", "+")
    head = ("operator annihilates all %d certified positions\n"
            % workloads.PERIOD_TERMS)
    write(os.path.join(out, "pf_report.txt"), head + negated + "\n")
    check(workloads.check_periods_flagship(out) == [],
          "periods oracle accepts the operator up to sign")
    write(os.path.join(out, "pf_report.txt"),
          head + negated.replace("24*D^4", "25*D^4", 1) + "\n")
    check(len(workloads.check_periods_flagship(out)) == 1,
          "periods oracle rejects a changed coefficient")


def test_smoke(tmp, reference):
    """p1-trivial through the worker, traced and untraced, with digests."""
    (inv,) = [i for i in workloads.product_family(tmp) if i.key == "n1-r2"]
    inv.argv[inv.argv.index("--bundle") + 1] = "p1-trivial"
    workloads.WORKLOADS["selftest"] = lambda workdir: [inv]
    family = reference["digests"]["families-product"]["n1-r2"]
    runner = run.Runner("selftest", 0, tmp,
                        {"digests": {"selftest": {"n1-r2": family}}})
    try:
        metrics = run.run_traced(runner)
        check(runner.jobs == 2 and not runner.problems,
              "traced and untraced jobs pass oracles and reference digests")
        check(metrics["qde.j_series.calls"]["value"] == 1
              and metrics["linalg.nullspace.calls"]["value"] == 0
              and metrics["cli.output_bytes"]["value"] > 0,
              "traced run reports layer counts")
    finally:
        runner.worker.kill()
    runner = run.Runner("selftest", 0, tmp, {"digests": {"selftest": {
        "n1-r2": dict(family, **{"apery.csv": "0" * 64})}}})
    try:
        reply, _, _ = runner.job()
        runner.worker.finish()
    finally:
        runner.worker.kill()
    check(runner.failed == 1 and "differ from reference" in runner.problems[0],
          "a digest mismatch fails the job")
    check(reply["ref_wall"] > 0 and reply["ref_cpu"] > 0,
          "an untraced job is bracketed by the reference computation")
    wall, done = run.timed_run(
        [sys.executable, os.path.join(run.HERE, "calibrate.py")], tmp)
    check(done.returncode == 0 and wall > 0,
          "the reference interpreter for setup_s runs")


def main():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-",
                           dir=os.path.abspath(run.TMP_ROOT))
    try:
        test_span_arithmetic()
        test_patching()
        test_counts()
        test_oracles(tmp)
        test_smoke(tmp, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
