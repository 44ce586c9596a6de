"""Write reference.json: output digests and exact counts of every workload.

Run from the root of a checkout whose outputs are known good:

    python3 perfbench/capture.py

For each workload it runs one job to record the sha256 of every output
file, then one untraced and one traced job to record the count metrics,
keyed by the sha256 of the package sources.  Every oracle must pass.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import tracer as tracing
import workloads


def capture():
    reference = {"source_sha256": run.source_digest(), "digests": {},
                 "counts": {}}
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    for workload in sorted(workloads.WORKLOADS):
        tmp = tempfile.mkdtemp(prefix="capture-",
                               dir=os.path.abspath(run.TMP_ROOT))
        runner = run.Runner(workload, 0, tmp, {})
        try:
            _, _, digests = runner.job()
            metrics = run.run_traced(runner)
        finally:
            runner.worker.kill()
            shutil.rmtree(tmp, ignore_errors=True)
        if runner.problems:
            sys.exit("%s failed: %s" % (workload, runner.problems))
        reference["digests"][workload] = digests
        reference["counts"][workload] = {
            name: m["value"] for name, m in metrics.items()
            if tracing.is_count(name)}
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    capture()
