"""steernet benchmark: seeded `steernet scan` workloads, end to end and per layer.

    python3 bench/run.py --workload chain-lines --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`, never from an installed copy. With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. The lines before
it are a human-readable summary and a `report` line holding every measured
value, per-job output hashes, the run digest and the provenance.

An untraced run spawns SETUPS fresh worker interpreters one after another.
Each imports the package and runs the workload's warm-up job; the time from
spawn to its return is one set-up sample. The last of them then runs the
timed jobs. A traced run spawns one worker, which runs a fixed prefix of the
job list (`jobs.trace_jobs`) once untraced and once traced. The exit status
is 0 when the run completed, whether or not outputs were correct (see
"correct" and "failed"), and 2 when it could not run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, make_jobs, trace_jobs, warmup_job  # noqa: E402

SETUPS = 3
# The program's STEERNET_THREADS in every worker. The sweep's default pool
# (os.cpu_count() threads) made short-cell runs track the host's stolen CPU
# time at about twice its share; one thread keeps them steady (README, "Load model").
THREADS = "1"
WORKER_TIMEOUT_S = 150  # the whole run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs beyond it


class BenchError(Exception):
    pass


def _start_worker(env):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        text=True, bufsize=1,
    )


def _read_line(proc, what):
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise BenchError(f"worker exited with status {proc.returncode} before {what}")
    return line.strip()


def run_workers(config, env, setups, deadline):
    """Spawn `setups` workers in turn; return (set-up seconds, last worker's result)."""
    setup_s, result = [], None
    for k in range(setups):
        t0 = time.perf_counter()
        proc = _start_worker(env)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            last = k == setups - 1
            cfg = dict(config) if last else dict(config, jobs=[])
            proc.stdin.write(json.dumps(cfg) + "\n")
            proc.stdin.flush()
            if _read_line(proc, "READY") != "READY":
                raise BenchError("worker did not report READY")
            setup_s.append(time.perf_counter() - t0)
            proc.stdin.write("go\n" if last else "exit\n")
            proc.stdin.flush()
            if last:
                result = json.loads(_read_line(proc, "its result"))
            proc.stdin.close()
            if proc.wait() != 0:
                raise BenchError(f"worker exited with status {proc.returncode}")
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return setup_s, result


def import_times(env):
    """Cumulative import seconds of steernet and scipy.optimize, from
    `python -X importtime`, median of three fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import steernet"
    samples = {"steernet": [], "scipy.optimize": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing steernet failed: {proc.stderr[-300:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


def provenance(seed, threads_env, versions):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "steernet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=str(ROOT), capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        **versions,
        "git_revision": rev,
        "git_dirty": dirty,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "STEERNET_THREADS_found": threads_env,
    }


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_s, result):
    rows = result["timed"]["jobs"]
    times = [r["seconds"] for r in rows]
    tail_s, tail_pct = tail(times)
    failed = sum(1 for r in rows if r["failure"])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "cells_per_s": (sum(r["cells"] for r in rows) / result["timed"]["elapsed_s"], "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["rss_kb"] / 1024.0, "MB"),
    }
    extra = {"failed_frac": (failed / len(rows), "ratio"),
             "job_tail_percentile": (tail_pct, "%"), "jobs": (len(rows), "count"),
             "setup_samples_s": (setup_s, "s")}
    if result["host_steal_frac"] is not None:
        extra["host_steal_frac"] = (result["host_steal_frac"], "ratio")
    return metrics, extra


def per_layer(imports, result):
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    traced = result["timed"]
    metrics["sweep.serialize_bytes"] = (sum(r["bytes"] for r in traced["jobs"]), "B")
    metrics["setup.import_steernet_s"] = (imports["steernet"], "s")
    metrics["setup.import_scipy_optimize_s"] = (imports["scipy.optimize"], "s")

    def cells_per_s(phase):
        return sum(r["cells"] for r in phase["jobs"]) / phase["elapsed_s"]

    metrics["trace.overhead_frac"] = (1.0 - cells_per_s(traced) / cells_per_s(result["untraced"]),
                                      "ratio")
    metrics["trace.job_wall_s"] = (traced["elapsed_s"], "s")
    metrics["trace.pool_size"] = (result["pool_size"], "count")
    rows = traced["jobs"] + result["untraced"]["jobs"]
    extra = {"failed_frac": (sum(1 for r in rows if r["failure"]) / len(rows), "ratio"),
             "trace.jobs": (len(traced["jobs"]), "count")}
    return metrics, extra, rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "steernet" / "__init__.py", ROOT / "tests" / "util.py")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: not a steernet checkout, missing {missing[0]}\n")
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    env = dict(os.environ)
    threads_env = env.pop("STEERNET_THREADS", None)
    env["STEERNET_THREADS"] = THREADS
    config = {"jobs": make_jobs(args.workload, args.seed), "warmup": warmup_job(args.workload),
              "seconds": args.seconds, "trace": bool(args.trace), "seed": args.seed,
              "trace_jobs": trace_jobs(args.workload, args.seconds)}
    try:
        if args.trace:
            imports = import_times(env)
            _, result = run_workers(config, env, 1, deadline)
            metrics, extra, rows = per_layer(imports, result)
        else:
            setup_s, result = run_workers(config, env, SETUPS, deadline)
            metrics, extra = end_to_end(setup_s, result)
            rows = result["timed"]["jobs"]
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    failures = [f"job {r['index']}: {r['failure']}" for r in rows if r["failure"]]
    shown = {**metrics, **extra}
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "digest": result["digest"],
        "trace_skipped": result.get("trace_skipped", []),
        "jobs": [[r["index"], r["seconds"], r["sha256"]] for r in rows],
        "failures": failures[:20],
        "provenance": provenance(args.seed, threads_env, result["versions"]),
    }
    width = max(len(k) for k in shown)
    print(f"steernet benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in shown.items():
        text = ", ".join(f"{v:.4g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name:<{width}}  {text} {unit}")
    print(f"  digest {result['digest']}")
    for line in failures[:5]:
        print(f"  FAILED {line}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
