"""Benchmark worker: one fresh interpreter that runs `steernet` jobs in-process.

Each job is one `steernet.cli.main(argv)` call with stdout and stderr
captured, so argument parsing, the scan and serialization are all timed.
The loop is closed with one client: the next job starts when the previous
one has returned.

Protocol with run.py, one line each way at a time:
  run.py -> worker   config JSON (workload jobs, warm-up job, seconds, trace,
                     traced job count)
  worker -> run.py   READY, once the package is imported and the warm-up job
                     has returned
  run.py -> worker   "go" to measure, anything else to exit
  worker -> run.py   result JSON
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_JOBS = 11  # the tail percentile needs ten jobs beyond it
DIGEST_JOBS = 8  # the run digest covers the first jobs of the list


def run_job(main, argv):
    """(exit status, stdout, stderr, wall seconds) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects an argv by exiting
        rc = exc.code
    except Exception as exc:  # a job that raises counts as failed, the loop goes on
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def timed_loop(main, jobs, seconds):
    """Run jobs in list order, cycling, until `seconds` have passed and the
    tail percentile has ten jobs beyond it."""
    records = []
    t0 = time.perf_counter()
    while True:
        index = len(records) % len(jobs)
        records.append((index, *run_job(main, jobs[index])))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(records) >= MIN_JOBS:
            return records, elapsed


def traced_pairs(main, jobs):
    """Run each job untraced and traced, back to back, alternating which goes
    first, so that host drift falls on both alike. The jobs are a fixed
    prefix of the list, so the traced totals count the same work on every
    commit. Returns the untraced and traced records, the per-layer metric
    values and the names the tracer skipped."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced_main = tracer.span("cli.main", main)
    untraced, traced, skipped = [], [], []
    for index, argv in enumerate(jobs):
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if is_traced:
                skipped = tracer.install()
                try:
                    traced.append((index, *run_job(traced_main, argv)))
                finally:
                    tracer.uninstall()
            else:
                untraced.append((index, *run_job(main, argv)))
    layers = {k: list(v) for k, v in layer_metrics(*tracer.totals()).items()}
    return untraced, traced, layers, skipped


def summarize(records, elapsed, jobs, seed, hashes):
    """Per-job rows with check results. `hashes` maps list index to output
    digest across the whole run; a job whose output changes between two runs
    of it fails."""
    import verify  # loads the test oracles; imported here so set-up does not pay for it

    rows = []
    for index, rc, out, err, dt in records:
        digest = hashlib.sha256(out.encode()).hexdigest()
        cells, failure = verify.check_job(jobs[index], rc, out, err, [seed, index], _samples(jobs[index]))
        if hashes.setdefault(index, digest) != digest:
            failure = failure or "output differs from an earlier run of the same job"
        rows.append({"index": index, "seconds": dt, "cells": cells, "bytes": len(out.encode()),
                     "sha256": digest, "failure": failure})
    return {"jobs": rows, "elapsed_s": elapsed}


def _samples(argv):
    """Cells per job recomputed with the oracles: one star cell (the 64x64
    oracle is the slow one), two otherwise."""
    return 1 if argv[1] == "star" else 2


def cpu_ticks():
    """(stolen, total) CPU ticks of the machine since boot from /proc/stat,
    or None where that file is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) == 8 else 0, sum(fields)


def steal_frac(before, after):
    """Share of the machine's CPU time the hypervisor took between two samples."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_digest(main, jobs, hashes):
    """sha256 over the outputs of the first DIGEST_JOBS jobs of the list,
    running (untimed) any the timed loop did not reach."""
    h = hashlib.sha256()
    for index in range(min(DIGEST_JOBS, len(jobs))):
        if index not in hashes:
            _, out, _, _ = run_job(main, jobs[index])
            hashes[index] = hashlib.sha256(out.encode()).hexdigest()
        h.update(hashes[index].encode())
    return h.hexdigest()


def main():
    cfg = json.loads(sys.stdin.readline())
    sys.path.insert(0, str(ROOT / "src"))
    from steernet import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "steernet":
        sys.stderr.write(f"worker: imported steernet from {cli.__file__}, not from this checkout\n")
        return 2
    rc, _, err, _ = run_job(cli.main, cfg["warmup"])
    if rc != 0:
        sys.stderr.write(f"worker: warm-up job failed ({rc}): {err}\n")
        return 2
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    import numpy
    import scipy

    jobs, seconds, seed = cfg["jobs"], cfg["seconds"], cfg["seed"]
    hashes = {}
    cpus = os.cpu_count() or 1
    result = {"pool_size": max(1, min(cpus, int(os.environ.get("STEERNET_THREADS", cpus)))),
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not cfg["trace"]:
        ticks = cpu_ticks()
        records, elapsed = timed_loop(cli.main, jobs, seconds)
        result["host_steal_frac"] = steal_frac(ticks, cpu_ticks())
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["timed"] = summarize(records, elapsed, jobs, seed, hashes)
    else:
        untraced, traced, result["layers"], result["trace_skipped"] = traced_pairs(
            cli.main, jobs[:cfg["trace_jobs"]])
        result["untraced"] = summarize(untraced, sum(r[-1] for r in untraced), jobs, seed, hashes)
        result["timed"] = summarize(traced, sum(r[-1] for r in traced), jobs, seed, hashes)
    result["digest"] = run_digest(cli.main, jobs, hashes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
